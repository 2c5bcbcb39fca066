#include "obs/span.h"

namespace remac {

StageSpan::StageSpan(Histogram* histogram, std::string name,
                     const char* category)
    : histogram_(histogram),
      name_(std::move(name)),
      category_(category),
      start_(std::chrono::steady_clock::now()) {
  if (Tracer::Global().enabled()) ctx_ = CurrentTraceContext();
  if (ctx_.active()) trace_start_us_ = TraceNowMicros();
}

double StageSpan::Stop() {
  if (stopped_) return elapsed_seconds_;
  elapsed_seconds_ = ElapsedSeconds();
  stopped_ = true;
  if (histogram_ != nullptr) histogram_->Observe(elapsed_seconds_);
  if (ctx_.active()) {
    RecordSpanIn(ctx_, name_.empty() ? "stage" : name_, category_,
                 trace_start_us_, trace_start_us_ + elapsed_seconds_ * 1e6);
  }
  return elapsed_seconds_;
}

double StageSpan::ElapsedSeconds() const {
  if (stopped_) return elapsed_seconds_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace remac
