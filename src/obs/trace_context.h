#ifndef REMAC_OBS_TRACE_CONTEXT_H_
#define REMAC_OBS_TRACE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace remac {

/// \brief Request-scoped tracing and contention profiling.
///
/// A request entering the plan service gets one RequestTrace; a
/// TraceContext (trace + parent-span id) rides the thread-local current
/// context and is captured into every ThreadPool task submitted while it
/// is installed, so compile, cache, scheduler and kernel spans of one
/// request land in a single rooted span tree regardless of which worker
/// ran them. All timestamps share one process-wide steady-clock epoch
/// (TraceNowMicros), so the spans of a request line up on one
/// Chrome-trace timeline whichever thread recorded them. The scheduler's
/// task and loop spans are part of the same tree.
///
/// Everything is off by default. The only cost on the disabled path is a
/// relaxed atomic load (Tracer::enabled / Tracer::any_active); no clocks
/// are read and no spans are allocated, and results are bitwise
/// identical with tracing on or off (tracing only observes, never
/// changes execution).

/// One completed span of a request's trace tree.
struct TraceSpan {
  uint64_t id = 0;
  /// Parent span id; 0 only on the root span.
  uint64_t parent = 0;
  std::string name;
  /// "request", "stage", "task", "loop", "condition" or "wait".
  const char* category = "stage";
  /// Pool worker index that recorded the span (-1 = external thread).
  int thread = -1;
  /// Process trace clock (TraceNowMicros) at span start.
  double start_us = 0.0;
  double duration_us = 0.0;
};

/// Microseconds on the process-wide trace clock: a steady clock whose
/// origin is fixed once per process, shared by every span.
double TraceNowMicros();

/// \brief One request's span tree. Thread-safe: tasks of the request
/// record spans concurrently from any pool worker.
///
/// Span id 1 is reserved for the root span (recorded last, via
/// CloseRoot, covering the whole request); children allocate ids with
/// NextSpanId and name their parent, so the file is a rooted tree that
/// tools/validate_trace.py can check for integrity.
class RequestTrace {
 public:
  static constexpr uint64_t kRootSpanId = 1;

  explicit RequestTrace(uint64_t request_id);

  uint64_t request_id() const { return request_id_; }
  /// Trace clock at creation — the root span's start.
  double start_us() const { return start_us_; }

  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(TraceSpan span);

  /// Records the root span (id 1, parent 0) covering creation → now.
  void CloseRoot(std::string name);

  std::vector<TraceSpan> Spans() const;
  int64_t size() const;
  /// Spans discarded after the per-request cap (backstop against
  /// runaway loops).
  int64_t dropped() const;

  /// Chrome trace-event JSON; ts is relative to the root span's start,
  /// args carry span_id/parent/request_id. A top-level "remac" object
  /// records the request id and the dropped-span count.
  std::string ToChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

 private:
  static constexpr size_t kMaxSpans = 65536;

  uint64_t request_id_;
  double start_us_;
  std::atomic<uint64_t> next_id_{kRootSpanId + 1};
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  int64_t dropped_ = 0;
};

/// The propagated half of the tracing layer: which trace (if any) the
/// current work belongs to and which span new children should hang off.
/// An empty context (no trace) means "not traced" and costs nothing to
/// copy around.
struct TraceContext {
  std::shared_ptr<RequestTrace> trace;
  uint64_t parent_span = 0;

  bool active() const { return trace != nullptr; }
};

/// The calling thread's current context (empty when untraced).
const TraceContext& CurrentTraceContext();

/// Replaces the thread-local context, returning the previous one.
/// Prefer TraceContextScope; this is the primitive it and the pool's
/// task wrapper are built on.
TraceContext SwapCurrentTraceContext(TraceContext ctx);

/// RAII install/restore of the thread-local context. Installing an
/// empty context over an empty context is a no-op (nothing saved).
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
  bool swapped_ = false;
};

/// \brief Process-wide tracing switchboard.
///
/// `enabled` turns on request span trees (and implies `profiling`);
/// `profiling` alone turns on the contention clocks (lock-wait and
/// pool-queue histograms) without allocating any spans — what the load
/// harness uses for its measured phases.
class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  bool profiling() const {
    return profiling_.load(std::memory_order_relaxed);
  }
  /// Any instrumentation that must read clocks on hot paths is on.
  bool any_active() const { return profiling() || enabled(); }

  /// Enabling tracing also enables profiling (span trees without the
  /// contention clocks would lose their wait attribution); disabling
  /// leaves profiling as SetProfiling last set it.
  void SetEnabled(bool on);
  void SetProfiling(bool on);

  /// A new per-request trace, or nullptr when tracing is disabled.
  std::shared_ptr<RequestTrace> StartRequest();

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> profiling_{false};
  std::atomic<uint64_t> next_request_id_{1};
};

/// Wait spans shorter than this are histogram-only noise and are not
/// added to the span tree.
inline constexpr double kWaitSpanFloorUs = 10.0;

/// Records a completed span into `ctx` (no-op when inactive).
void RecordSpanIn(const TraceContext& ctx, std::string name,
                  const char* category, double start_us, double end_us);

/// Records a "wait" span into `ctx` when it exceeds kWaitSpanFloorUs.
void RecordWaitSpanIn(const TraceContext& ctx, const char* name,
                      double start_us, double end_us);

/// RecordWaitSpanIn against the calling thread's current context.
void RecordWaitSpan(const char* name, double start_us, double end_us);

/// \brief RAII span against the thread-local current context.
///
/// Allocates a span id up front so children opened under `enter` mode
/// can name it as their parent; records the span on Stop()/destruction.
/// Inactive (no current trace) construction is a thread-local read plus
/// one branch.
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(std::string name, const char* category = "stage",
                           bool enter = false);
  ~ScopedTraceSpan() { Stop(); }

  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

  void Stop();

  bool active() const { return ctx_.active(); }
  uint64_t span_id() const { return id_; }
  /// Context for children of this span (empty when inactive).
  TraceContext child_context() const;

 private:
  TraceContext ctx_;
  uint64_t id_ = 0;
  std::string name_;
  const char* category_;
  double start_us_ = 0.0;
  bool entered_ = false;
  bool stopped_ = false;
};

/// \brief lock_guard that times contended mutex acquisition.
///
/// With profiling off this is exactly std::lock_guard. With it on, an
/// uncontended try_lock still reads no clocks; only a contended
/// acquisition is timed, observed into `wait_histogram` and (when a
/// trace is active and the wait clears the floor) recorded as a wait
/// span — so the histograms attribute pure contention, not throughput.
class TimedMutexLock {
 public:
  TimedMutexLock(std::mutex& mu, Histogram* wait_histogram,
                 const char* name);
  ~TimedMutexLock() { mu_.unlock(); }

  TimedMutexLock(const TimedMutexLock&) = delete;
  TimedMutexLock& operator=(const TimedMutexLock&) = delete;

 private:
  std::mutex& mu_;
};

}  // namespace remac

#endif  // REMAC_OBS_TRACE_CONTEXT_H_
