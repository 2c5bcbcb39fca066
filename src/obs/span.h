#ifndef REMAC_OBS_SPAN_H_
#define REMAC_OBS_SPAN_H_

#include <chrono>
#include <string>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace remac {

/// \brief RAII stage timer.
///
/// Starts a steady-clock timer on construction and, on Stop() or
/// destruction, records the elapsed seconds into a registry histogram.
/// When the calling thread carries an active TraceContext the span is
/// also recorded into the request's span tree under its current parent,
/// on the same timeline as the executor's task spans.
///
///   StageSpan span(registry.GetHistogram("remac.compile.parse_seconds"),
///                  "parse");
///
/// Stop() is idempotent; ElapsedSeconds() may be polled while running.
class StageSpan {
 public:
  explicit StageSpan(Histogram* histogram, std::string name = {},
                     const char* category = "stage");
  ~StageSpan() { Stop(); }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  /// Records the measurement; later calls (and the destructor) no-op.
  /// Returns the elapsed seconds at the moment the span stopped.
  double Stop();

  double ElapsedSeconds() const;

 private:
  Histogram* histogram_;
  TraceContext ctx_;
  std::string name_;
  const char* category_;
  std::chrono::steady_clock::time_point start_;
  double trace_start_us_ = 0.0;
  bool stopped_ = false;
  double elapsed_seconds_ = 0.0;
};

}  // namespace remac

#endif  // REMAC_OBS_SPAN_H_
