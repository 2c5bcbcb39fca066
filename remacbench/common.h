#ifndef REMACBENCH_COMMON_H_
#define REMACBENCH_COMMON_H_

// Shared pieces of the ReMac benchmark: command-line options, the
// benchmark-side span recorder, order statistics, result comparison and
// the result record every workload fills in.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/executor.h"

namespace remacbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID). On a
/// shared virtual machine this leaves out hypervisor steal, which moved
/// wall-clock medians of identical single-threaded work by up to 2x from
/// one run to the next while this benchmark was being tuned.
double ThreadCpuSeconds();

struct Options {
  std::string workload;  // "execute-dense" or "serve-zipf"
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the measured (untraced) run reports the end-to-end metrics.
  /// true: an untraced half and a traced half report the per-layer
  /// metrics and the tracing overhead.
  bool trace = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string spans_out;
  /// Self-test hook: flip one bit of this operation's result before it is
  /// checked, so the run must report a failure and exit non-zero.
  int64_t corrupt_op = -1;
};

/// One metric of the result record. `section` keeps real seconds and
/// simulated cluster seconds apart: "wall" (elapsed), "cpu" (the
/// benchmark thread's CPU clock), "simulated", "memory", "count" or
/// "ratio".
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string section;
};

/// What a workload run hands back to main().
struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Extra record fields as preformatted JSON values.
  std::vector<std::pair<std::string, std::string>> info;

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& section) {
    metrics.push_back(Metric{name, value, unit, section});
  }
  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// \brief Spans recorded by the benchmark around each call it makes into
/// a layer's public function.
///
/// Disabled recorders cost one branch per call. Spans stay in memory and
/// are written out once, at exit. Thread-safe (the serving workload
/// records from request-lane workers).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t op = 0;
    int parent = -1;
    double start = 0.0;  // seconds since the recorder's epoch
    double end = 0.0;
  };

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span; returns its id (-1 when disabled).
  int Begin(const char* name, int64_t op, int parent);
  void End(int id);
  /// Records a finished span whose ends were stamped elsewhere (another
  /// thread, or a due time in the past); returns its id.
  int Add(const char* name, int64_t op, int parent, Clock::time_point start,
          Clock::time_point end);

  /// Per span name: summed self time (duration minus the time its child
  /// spans cover) over every span of that name.
  std::map<std::string, double> SelfSeconds() const;
  /// Fraction of the summed duration of root spans named `root` that
  /// their direct children cover.
  double ChildCoverage(const std::string& root) const;
  /// Writes {"spans": [{name, op, id, parent, start_s, end_s}, ...]}.
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t op,
             int parent = -1)
      : recorder_(recorder), id_(recorder->Begin(name, op, parent)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Order statistics. Quantile interpolates linearly between closest
/// ranks (q in [0, 1]); both return 0 for an empty sample.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// The highest whole percentile with at least ten samples beyond it
/// (nearest-rank), its value and how many samples lie beyond it. Below
/// twenty samples no percentile from the median up qualifies; the tail
/// then falls back to the maximum (percentile 100, zero beyond), which
/// the record reports.
struct Tail {
  int percentile = 100;
  double value = 0.0;
  int64_t beyond = 0;
};
Tail TailLatency(std::vector<double> values);

/// Exact equality of two result environments: same names, same kinds,
/// same shapes and bit-identical values (signed zeros compare equal,
/// since dense and sparse storage disagree on them). On mismatch
/// `why` names the first differing variable.
bool EnvBitwiseEqual(const std::map<std::string, remac::RtValue>& a,
                     const std::map<std::string, remac::RtValue>& b,
                     std::string* why);

/// ULP-bounded comparison of the variables `names` of `actual` against
/// `reference`: every element must satisfy |a - r| <= max_ulps *
/// ulp(scale), where scale is the largest magnitude in the reference
/// matrix (rewrites reassociate sums, so the rounding error scales with
/// the summands, not with each result element). Returns the largest
/// deviation seen, in ULPs of the scale, through `worst_ulps`.
bool EnvWithinUlps(const std::map<std::string, remac::RtValue>& actual,
                   const std::map<std::string, remac::RtValue>& reference,
                   const std::vector<std::string>& names, double max_ulps,
                   double* worst_ulps, std::string* why);

/// 64-bit digest of the named variables' value bits (signed zeros
/// folded), for checking many results against one reference. A missing
/// variable digests as its name alone.
uint64_t EnvDigest(const std::map<std::string, remac::RtValue>& env,
                   const std::vector<std::string>& names);

/// Flips the lowest mantissa bit of the first matrix element (or scalar)
/// of the environment: the self-test's deliberate corruption.
void CorruptEnv(std::map<std::string, remac::RtValue>* env);

/// Calls fn(i) for every i in [0, count) from `threads` threads and joins
/// them (the verification passes, which run after measuring).
void ForEachOnThreads(int threads, size_t count,
                      const std::function<void(size_t)>& fn);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Online processors available to this process (the `nproc` count).
int AvailableCpus();

std::string JsonString(const std::string& s);
/// "[v0, v1, ...]" with four decimals (seconds lists in the record).
std::string JsonNumberList(const std::vector<double>& values);

/// The tolerance of the comparison against the unoptimized program:
/// 2^26 ULPs of the reference's largest magnitude, a relative error of
/// about 1.5e-8. Rewrites reassociate sums: GNMF and GD deviate by a few
/// ULPs, three DFP iterations by ~2^20; a wrong rewrite is off by order
/// one.
inline constexpr double kMaxUlps = 67108864.0;

/// Values of the library's own registry counters and histogram sums that
/// per-layer metrics are taken as deltas of (read from outside; the
/// benchmark adds no instrumentation to the library).
struct RegistrySnapshot {
  static RegistrySnapshot Take();
  /// this - before, per name.
  RegistrySnapshot Minus(const RegistrySnapshot& before) const;
  double Get(const std::string& name) const;

  std::map<std::string, double> values;
};

/// Absolute single-thread GFLOP/s (on the thread's CPU clock) of
/// MultiplyTransposed on the dominant dense operand shapes of the
/// execute-dense workload (GNMF on a 120000 x 47 matrix at rank 10):
/// W^T V and V H^T. Median over repeated calls. Expects single-threaded
/// kernels.
double GemmProbeGflops(uint64_t seed);

/// Workload entry points (batch.cc, serve.cc).
WorkloadResult RunBatch(const Options& options);
WorkloadResult RunServe(const Options& options);

}  // namespace remacbench

#endif  // REMACBENCH_COMMON_H_
