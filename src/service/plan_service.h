#ifndef REMAC_SERVICE_PLAN_SERVICE_H_
#define REMAC_SERVICE_PLAN_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/trace_context.h"
#include "runtime/program_runner.h"
#include "sched/thread_pool.h"
#include "service/matcache/exec_context.h"
#include "service/matcache/matcache.h"
#include "service/plan_cache.h"
#include "service/program_fingerprint.h"
#include "service/single_flight.h"

namespace remac {

/// One optimize-and-execute request: a script plus the run configuration
/// (optimizer, estimator, engine, scheduler...). Anything that changes
/// the emitted plan is folded into the cache key; the execution-only
/// knobs (scheduler, executed_iterations, trace) are not.
struct ServiceRequest {
  std::string source;
  RunConfig config;
  /// Soft wall-clock budget for the request. When compilation (or queue
  /// time) has already eaten the budget by the time execution starts, the
  /// service degrades the run instead of failing it: serial executor,
  /// faults off, result still exact. 0 disables the deadline.
  double deadline_seconds = 0.0;
};

/// Per-request wall-clock split. On a warm hit parse covers only the
/// source-text lookup and metadata check, and optimize is exactly zero —
/// the acceptance signal that the cached path skips the compiler.
struct RequestTiming {
  double parse_seconds = 0.0;
  double optimize_seconds = 0.0;
  double execute_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Why a request fell back to the serial fault-free executor.
enum class DegradeReason {
  kNone,              // not degraded
  kDeadline,          // the soft deadline passed before execution
  kShedDeadline,      // shed: session queueing alone ate the deadline
  kShedBacklog,       // shed: a lane's backlog was too deep for fan-out
  kRetriesExhausted,  // a chaos run ran out of task retries
};

/// "none", "deadline", "shed-deadline", "shed-backlog" or
/// "retries-exhausted".
const char* DegradeReasonName(DegradeReason reason);

struct ServiceReport {
  RunReport run;
  /// The plan came straight from the cache (no optimizer work at all).
  bool cache_hit = false;
  /// A concurrent request on the same key was already optimizing; this
  /// one blocked on its result instead of duplicating the work.
  bool shared_flight = false;
  std::string cache_key;
  RequestTiming timing;
  /// The request fell back to the serial fault-free executor (deadline
  /// pressure, admission shedding, or a chaos run that ran out of
  /// retries). A degraded response is slower-but-correct, never wrong.
  bool degraded = false;
  DegradeReason degraded_reason = DegradeReason::kNone;
  /// Admission control shed this request's task-graph path at entry
  /// (backlog or queue-eaten deadline); it still ran — degraded — and
  /// returned the exact result.
  bool shed = false;
  /// This request's materialized-intermediate cache interaction: probes,
  /// hits served without recomputation, flights led and waited on.
  MatRequestStats matcache;
  /// The request's span tree when tracing was enabled (null otherwise).
  /// One rooted tree: span 1 covers the whole request, every other span
  /// names its parent. `remac serve --trace-dir` writes one Chrome-trace
  /// file per request from this.
  std::shared_ptr<RequestTrace> trace;
};

struct ServiceStats {
  PlanCacheStats cache;
  MatCacheStats matcache;
  /// Execution-lane pool (DAG tasks, kernel fan-out).
  PoolStats pool;
  /// Request-lane pool (Session submissions).
  PoolStats request_pool;
  int64_t requests = 0;
  /// Times the optimizer actually ran (single-flight: once per cold key).
  int64_t optimizer_invocations = 0;
  int64_t single_flight_waits = 0;
  int64_t warm_requests = 0;  // served from cache
  int64_t cold_requests = 0;  // optimized (or waited on an optimize)
  int64_t degraded_requests = 0;  // fell back to the serial executor
  int64_t shed_requests = 0;  // degraded by admission control
  double warm_seconds = 0.0;  // summed request latency, warm
  double cold_seconds = 0.0;  // summed request latency, cold
};

struct ServiceOptions {
  size_t cache_capacity = 64;
  int cache_shards = 8;
  /// Admission control: a task-graph request is shed (degraded to the
  /// serial fault-free executor, never rejected) when either lane's
  /// backlog reaches `factor * lane size` pending tasks at admission
  /// time — adding DAG fan-out to a saturated pool only deepens the
  /// queue. Queued requests whose wait already ate their deadline are
  /// shed the same way ("shed-deadline"). <= 0 disables the backlog
  /// check (deadline shedding still applies).
  double admission_backlog_factor = 8.0;
  /// Materialized-intermediate cache (src/service/matcache): byte
  /// budget (0 disables cross-request intermediate sharing entirely),
  /// shard count and admission threshold — see MatCacheOptions for the
  /// semantics of each knob.
  int64_t mat_cache_bytes = 256ll << 20;
  int mat_cache_shards = 8;
  /// Admission FLOP density. Negative (the default) derives the
  /// break-even recompute-vs-serve density from a one-time measurement
  /// (MeasuredAdmitFlopsPerByte); 0 admits everything that fits;
  /// positive values are passed through verbatim.
  double mat_admit_flops_per_byte = -1.0;
};

/// \brief Long-lived optimize-and-execute front end with a plan cache.
///
/// Thread-safe: any number of threads (or pool tasks via Session) may
/// call Run concurrently. The flow per request:
///
///   source text ──fast path──> known fingerprint        (no parse)
///        │ first sighting: parse + alpha-renamed AST hash
///        ▼
///   fingerprint + input-metadata bucket + config digest = cache key
///        ▼
///   cache hit? ── yes ──> execute the shared plan        (no optimize)
///        │ no
///        ▼
///   single-flight: first thread optimizes, concurrent requests on the
///   same key block on its result; the plan lands in the LRU cache.
///
/// When a program's input metadata leaves its previous bucket (dims or
/// sparsity bucket changed under the same catalog names), every cached
/// plan of that program is explicitly invalidated before the miss is
/// processed, so stale plans cannot linger at old keys.
class PlanService {
 public:
  explicit PlanService(const DataCatalog* catalog,
                       ServiceOptions options = {});

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Serves one request on the calling thread. Starts a per-request
  /// trace when Tracer::Global() is enabled.
  Result<ServiceReport> Run(const ServiceRequest& request);

  /// Run under a caller-provided trace (null = untraced). Session uses
  /// this to start the trace at submission time, so the root span also
  /// covers the queue wait before the request reached a worker.
  Result<ServiceReport> RunTraced(const ServiceRequest& request,
                                  std::shared_ptr<RequestTrace> trace);

  ServiceStats stats() const;
  PlanCache& cache() { return cache_; }
  MatCache& mat_cache() { return mat_cache_; }
  const DataCatalog& catalog() const { return *catalog_; }

  /// \brief A client session: submits requests onto the shared thread
  /// pool and collects the results in submission order.
  class Session {
   public:
    explicit Session(PlanService* service) : service_(service) {}

    /// Enqueues the request on ThreadPool::RequestLane(), stamping its
    /// queue-entry time so admission control can shed requests whose
    /// wait already ate their deadline.
    void Submit(ServiceRequest request);

    /// Blocks until every submitted request finished; returns reports in
    /// submission order and resets the session.
    std::vector<Result<ServiceReport>> Wait();

    size_t submitted() const;

   private:
    PlanService* service_;
    mutable std::mutex mu_;
    std::vector<std::future<Result<ServiceReport>>> pending_;
  };

  Session NewSession() { return Session(this); }

 private:
  /// What the source-text fast path remembers about a script: its
  /// canonical identity, so repeat requests skip the parser entirely.
  struct SourceAlias {
    uint64_t program_hash = 0;
    std::vector<std::string> datasets;
  };

  /// RunTraced with the request's queue wait made explicit. Direct Run
  /// calls pass 0 (the caller never queued); Session passes the measured
  /// submit-to-start wait, which admission control counts against the
  /// deadline and backlog checks.
  Result<ServiceReport> RunQueued(const ServiceRequest& request,
                                  std::shared_ptr<RequestTrace> trace,
                                  double queued_seconds);

  /// Builds (parse if needed + optimize) the plan for a cold key.
  Result<std::shared_ptr<const CachedPlan>> BuildPlan(
      const ServiceRequest& request, uint64_t program_hash,
      const std::string& metadata_key, RequestTiming* timing);

  /// Datasets among `names` whose metadata fragment or registration
  /// version changed since last observed; updates the observation and
  /// erases stale materialized intermediates for the changed names.
  void InvalidateChangedDatasets(const std::vector<std::string>& names);

  const DataCatalog* catalog_;
  ServiceOptions options_;
  PlanCache cache_;
  MatCache mat_cache_;

  /// Cold plan keys being optimized: one build per key, concurrent
  /// requests on it wait for the leader's plan or error.
  SingleFlight<Result<std::shared_ptr<const CachedPlan>>> plan_flights_;

  mutable std::mutex mu_;  // aliases_, last_metadata_, dataset_fragments_
  std::unordered_map<std::string, SourceAlias> aliases_;
  std::unordered_map<uint64_t, std::string> last_metadata_;
  /// Last-seen strict fragment (metadata + version) per dataset, the
  /// trigger for dataset-level matcache invalidation.
  std::unordered_map<std::string, std::string> dataset_fragments_;

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> optimizer_invocations_{0};
  std::atomic<int64_t> single_flight_waits_{0};
  std::atomic<int64_t> warm_requests_{0};
  std::atomic<int64_t> cold_requests_{0};
  std::atomic<int64_t> degraded_requests_{0};
  std::atomic<int64_t> shed_requests_{0};
  std::atomic<double> warm_seconds_{0.0};
  std::atomic<double> cold_seconds_{0.0};
};

/// Digest of the plan-affecting RunConfig fields (optimizer, estimator,
/// engine, combiner, search, iteration horizon, budgets, forced option
/// keys). Exposed for tests.
std::string PlanConfigDigest(const RunConfig& config);

}  // namespace remac

#endif  // REMAC_SERVICE_PLAN_SERVICE_H_
