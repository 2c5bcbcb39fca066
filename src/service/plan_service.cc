#include "service/plan_service.h"

#include <chrono>
#include <utility>

#include "common/string_util.h"
#include "lang/parser.h"
#include "obs/metrics.h"

namespace remac {

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide service metrics: latency distributions and the counts
/// that tests and harnesses read from the registry. Request, warm, cold,
/// flight-wait and degraded counts live once, per service, in
/// ServiceStats.
struct ServiceMetrics {
  /// How long single-flight followers actually blocked on a leader's
  /// optimize — the duration behind ServiceStats::single_flight_waits.
  Histogram* flight_wait_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.service.flight_wait_seconds");
  Histogram* request_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.service.request_seconds");
  Histogram* warm_seconds =
      MetricsRegistry::Global().GetHistogram("remac.service.warm_seconds");
  Histogram* cold_seconds =
      MetricsRegistry::Global().GetHistogram("remac.service.cold_seconds");
  Histogram* build_seconds =
      MetricsRegistry::Global().GetHistogram("remac.service.build_seconds");
  /// Requests shed by admission control (a subset of the degraded ones).
  Counter* shed =
      MetricsRegistry::Global().GetCounter("remac.service.shed");
};

ServiceMetrics& Metrics() {
  static ServiceMetrics metrics;
  return metrics;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// fetch_add for atomic<double> (pre-C++20-style CAS loop, matching the
/// parallel executor's accumulator idiom).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

/// Negative admission knob = "derive from this machine": measure the
/// break-even recompute-vs-serve FLOP density once per process.
double ResolveAdmitFlopsPerByte(double knob) {
  return knob < 0.0 ? MeasuredAdmitFlopsPerByte() : knob;
}

}  // namespace

const char* DegradeReasonName(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kNone: return "none";
    case DegradeReason::kDeadline: return "deadline";
    case DegradeReason::kShedDeadline: return "shed-deadline";
    case DegradeReason::kShedBacklog: return "shed-backlog";
    case DegradeReason::kRetriesExhausted: return "retries-exhausted";
  }
  return "?";
}

std::string PlanConfigDigest(const RunConfig& config) {
  std::string digest = StringFormat(
      "o%d,e%d,g%d,c%d,s%d,i%d,tb%lld,eb%lld,w%d,f%.6g,l%.6g,m%lld,bs%lld",
      static_cast<int>(config.optimizer), static_cast<int>(config.estimator),
      static_cast<int>(config.engine), static_cast<int>(config.combiner),
      static_cast<int>(config.search), config.max_iterations,
      static_cast<long long>(config.treewise_budget),
      static_cast<long long>(config.enum_budget),
      config.cluster.num_workers, config.cluster.flops_per_sec,
      config.cluster.local_flops_per_sec,
      static_cast<long long>(config.cluster.driver_memory_bytes),
      static_cast<long long>(config.cluster.block_size));
  for (const std::string& key : config.forced_option_keys) {
    digest += '+';
    digest += key;
  }
  return digest;
}

PlanService::PlanService(const DataCatalog* catalog, ServiceOptions options)
    : catalog_(catalog),
      options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      mat_cache_(MatCacheOptions{
          .capacity_bytes = options.mat_cache_bytes,
          .shards = options.mat_cache_shards,
          .admit_flops_per_byte =
              ResolveAdmitFlopsPerByte(options.mat_admit_flops_per_byte),
      }) {}

Result<std::shared_ptr<const CachedPlan>> PlanService::BuildPlan(
    const ServiceRequest& request, uint64_t program_hash,
    const std::string& metadata_key, RequestTiming* timing) {
  const auto parse_start = Clock::now();
  ScopedTraceSpan parse_span("parse");
  REMAC_ASSIGN_OR_RETURN(CompiledProgram compiled,
                         CompileScript(request.source, *catalog_));
  parse_span.Stop();
  const auto optimize_start = Clock::now();
  timing->parse_seconds +=
      std::chrono::duration<double>(optimize_start - parse_start).count();
  optimizer_invocations_.fetch_add(1, std::memory_order_relaxed);
  CachedPlan plan;
  ScopedTraceSpan optimize_span("optimize");
  REMAC_ASSIGN_OR_RETURN(
      CompiledProgram optimized,
      OptimizeCompiled(compiled, *catalog_, request.config, &plan.optimize));
  optimize_span.Stop();
  timing->optimize_seconds += SecondsSince(optimize_start);
  plan.optimized_source = optimized.ToString();
  plan.program = std::make_shared<const CompiledProgram>(std::move(optimized));
  if (options_.mat_cache_bytes > 0) {
    // Extract the matcache candidates once per build against the final
    // shared trees: node pointers stay valid for every request that
    // executes this plan.
    plan.intermediates =
        std::make_shared<const std::vector<SubplanCandidate>>(
            ExtractIntermediateCandidates(*plan.program, *catalog_,
                                          request.config));
  }
  plan.build_wall_seconds = SecondsSince(parse_start);
  Metrics().build_seconds->Observe(plan.build_wall_seconds);
  plan.program_hash = program_hash;
  plan.metadata_key = metadata_key;
  plan.resident_bytes = plan.EstimateResidentBytes();
  return std::make_shared<const CachedPlan>(std::move(plan));
}

void PlanService::InvalidateChangedDatasets(
    const std::vector<std::string>& names) {
  // Strict per-dataset fragments: the plan-cache bucket fragment plus
  // the registration version, so re-registered data invalidates even
  // when it lands in the same dimensions and sparsity bucket.
  std::vector<std::pair<std::string, std::string>> observed;
  observed.reserve(names.size());
  for (const std::string& name : names) {
    Result<std::string> fragment = DatasetMetadataFragment(name, *catalog_);
    if (!fragment.ok()) continue;  // missing datasets fail later, loudly
    observed.emplace_back(
        name, fragment.value() + StringFormat("v%lld", static_cast<long long>(
                                                           catalog_->Version(
                                                               name))));
  }
  std::vector<std::string> changed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, fragment] : observed) {
      std::string& last = dataset_fragments_[name];
      if (!last.empty() && last != fragment) changed.push_back(name);
      last = std::move(fragment);
    }
  }
  if (!changed.empty()) mat_cache_.EraseDatasets(changed);
}

Result<ServiceReport> PlanService::Run(const ServiceRequest& request) {
  return RunQueued(request, Tracer::Global().StartRequest(),
                   /*queued_seconds=*/0.0);
}

Result<ServiceReport> PlanService::RunTraced(
    const ServiceRequest& request, std::shared_ptr<RequestTrace> trace) {
  return RunQueued(request, std::move(trace), /*queued_seconds=*/0.0);
}

Result<ServiceReport> PlanService::RunQueued(
    const ServiceRequest& request, std::shared_ptr<RequestTrace> trace,
    double queued_seconds) {
  const auto start = Clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Everything below runs under the request's root context: spans opened
  // here — and in every pool task submitted while it is installed — join
  // this request's tree. Untraced requests skip the swap entirely.
  TraceContextScope root_scope(
      trace != nullptr ? TraceContext{trace, RequestTrace::kRootSpanId}
                       : TraceContext{});

  ServiceReport report;
  report.trace = trace;

  // Identify the program: source-text fast path first, parse once on the
  // first sighting of a script.
  SourceAlias alias;
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = aliases_.find(request.source);
    if (it != aliases_.end()) {
      alias = it->second;
      known = true;
    }
  }
  if (!known) {
    ScopedTraceSpan span("fingerprint");
    REMAC_ASSIGN_OR_RETURN(const ProgramFingerprint fp,
                           FingerprintScript(request.source));
    alias.program_hash = fp.hash;
    alias.datasets = fp.datasets;
    std::lock_guard<std::mutex> lock(mu_);
    aliases_.emplace(request.source, alias);
  }

  REMAC_ASSIGN_OR_RETURN(const std::string metadata_key,
                         InputMetadataKey(alias.datasets, *catalog_));

  // Explicit invalidation: the same program seen with metadata outside
  // its previous bucket drops every stale plan of that program.
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string& last = last_metadata_[alias.program_hash];
    if (!last.empty() && last != metadata_key) {
      cache_.ErasePlansForProgram(alias.program_hash);
    }
    last = metadata_key;
  }
  // Dataset-level invalidation cascade: any referenced dataset whose
  // metadata or registration version moved drops its materialized
  // intermediates before this request probes the matcache.
  InvalidateChangedDatasets(alias.datasets);

  report.cache_key =
      StringFormat("%016llx|", static_cast<unsigned long long>(
                                   alias.program_hash)) +
      metadata_key + "|" + PlanConfigDigest(request.config);
  report.timing.parse_seconds = SecondsSince(start);

  std::shared_ptr<const CachedPlan> plan;
  {
    ScopedTraceSpan span("plancache-probe");
    plan = cache_.Get(report.cache_key);
  }
  report.cache_hit = plan != nullptr;

  if (plan == nullptr) {
    // Single-flight: one thread optimizes a cold key, the rest wait.
    auto [call, leader] = plan_flights_.Join(report.cache_key);
    if (leader) {
      // A leader publishes to the cache before Complete erases its key,
      // so re-probing after winning Join closes the window where this
      // request missed the cache while the previous leader finished —
      // without it the optimizer could run twice for one key.
      plan = cache_.Get(report.cache_key);
      report.cache_hit = plan != nullptr;
      if (plan != nullptr) {
        plan_flights_.Complete(report.cache_key, plan);
      } else {
        // Children (parse/optimize) nest under the build span.
        ScopedTraceSpan build_span("build-plan", "stage", /*enter=*/true);
        auto built = BuildPlan(request, alias.program_hash, metadata_key,
                               &report.timing);
        build_span.Stop();
        if (built.ok()) cache_.Put(report.cache_key, built.value());
        plan_flights_.Complete(report.cache_key, built);
        if (!built.ok()) return built.status();
        plan = std::move(built).value();
      }
    } else {
      single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
      report.shared_flight = true;
      const auto wait_start = Clock::now();
      const double wait_start_us = TraceNowMicros();
      Result<std::shared_ptr<const CachedPlan>> shared =
          plan_flights_.Wait(*call);
      const double wait_seconds = SecondsSince(wait_start);
      report.timing.optimize_seconds += wait_seconds;
      Metrics().flight_wait_seconds->Observe(wait_seconds);
      RecordWaitSpan("flight-wait", wait_start_us, TraceNowMicros());
      if (!shared.ok()) return shared.status();
      plan = std::move(shared).value();
    }
  }

  // Execute the (shared, immutable) plan for this request.
  report.run.optimize = plan->optimize;
  report.run.optimized_source = plan->optimized_source;
  report.run.optimized_program = plan->program;
  report.run.parse_wall_seconds = report.timing.parse_seconds;
  report.run.compile_wall_seconds = report.timing.optimize_seconds;
  TransmissionLedger ledger(request.config.cluster);

  if (request.config.execute) {
    const auto execute_start = Clock::now();
    // Degradation ladder: when the request can't (or shouldn't) take the
    // task-graph path, fall back to the serial fault-free executor — a
    // degraded response is slower but exact, never an error.
    RunConfig exec = request.config;
    auto degrade = [&](DegradeReason reason) {
      exec.scheduler = SchedulerKind::kSerial;
      exec.faults.enabled = false;
      report.degraded = true;
      report.degraded_reason = reason;
      degraded_requests_.fetch_add(1, std::memory_order_relaxed);
      if (reason == DegradeReason::kShedDeadline ||
          reason == DegradeReason::kShedBacklog) {
        report.shed = true;
        shed_requests_.fetch_add(1, std::memory_order_relaxed);
        Metrics().shed->Add();
      }
    };

    if (exec.scheduler == SchedulerKind::kTaskGraph) {
      // Admission control. Shedding never rejects: the request still
      // runs — serially, faults off — and returns the exact result.
      const double deadline = request.deadline_seconds;
      if (deadline > 0.0 && queued_seconds >= deadline &&
          queued_seconds > 0.0) {
        // The session-queue wait alone ate the whole budget; spending
        // DAG fan-out on an already-late request only delays the rest
        // of the backlog.
        degrade(DegradeReason::kShedDeadline);
      } else if (deadline > 0.0 &&
                 queued_seconds + SecondsSince(start) >= deadline) {
        degrade(DegradeReason::kDeadline);
      } else if (options_.admission_backlog_factor > 0.0) {
        const auto backlogged = [&](const ThreadPool& lane) {
          return static_cast<double>(lane.pending()) >=
                 options_.admission_backlog_factor *
                     static_cast<double>(lane.size());
        };
        // Either lane deep in backlog means fan-out would queue, not
        // run: the request lane measures how many whole requests are
        // waiting, the exec lane how many DAG tasks are.
        if (backlogged(ThreadPool::RequestLane()) ||
            backlogged(ThreadPool::Global())) {
          degrade(DegradeReason::kShedBacklog);
        }
      }
    }
    // Cross-request redundancy elimination: splice the materialized
    // intermediate cache into this execution. Candidates were extracted
    // at plan-build time; the per-request context probes them against
    // the cache under the catalog's *current* metadata/versions, so a
    // warm plan hit still sees fresh keys.
    std::unique_ptr<MatExecContext> mat_context;
    if (options_.mat_cache_bytes > 0 && plan->intermediates != nullptr &&
        !plan->intermediates->empty()) {
      ScopedTraceSpan span("matcache-probe");
      mat_context = std::make_unique<MatExecContext>(
          &mat_cache_, plan->intermediates, *catalog_, exec);
      exec.intermediates = mat_context.get();
    }
    Status executed = ExecuteCompiled(*plan->program, *catalog_, exec,
                                      &ledger, &report.run);
    if (!executed.ok() && executed.code() == StatusCode::kUnavailable &&
        exec.scheduler == SchedulerKind::kTaskGraph) {
      // A chaos run lost a task to injected faults more times than the
      // retry budget allows. Re-run serially with faults off on the SAME
      // ledger: the wasted double-booked work stays accounted, and the
      // serial pass produces the exact result.
      degrade(DegradeReason::kRetriesExhausted);
      executed = ExecuteCompiled(*plan->program, *catalog_, exec, &ledger,
                                 &report.run);
    }
    // The context's destructor cancels any flight it led but never
    // offered (failed executions), so followers are never stranded.
    if (mat_context != nullptr) report.matcache = mat_context->stats();
    if (!executed.ok()) return executed;
    report.timing.execute_seconds = SecondsSince(execute_start);
  }
  report.run.breakdown = ledger.Breakdown();
  report.timing.total_seconds = SecondsSince(start);
  Metrics().request_seconds->Observe(report.timing.total_seconds);
  if (report.cache_hit) {
    warm_requests_.fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(&warm_seconds_, report.timing.total_seconds);
    Metrics().warm_seconds->Observe(report.timing.total_seconds);
  } else {
    cold_requests_.fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(&cold_seconds_, report.timing.total_seconds);
    Metrics().cold_seconds->Observe(report.timing.total_seconds);
  }
  if (trace != nullptr) trace->CloseRoot("request");
  return report;
}

ServiceStats PlanService::stats() const {
  ServiceStats stats;
  stats.cache = cache_.stats();
  stats.matcache = mat_cache_.stats();
  stats.pool = ThreadPool::Global().stats();
  stats.request_pool = ThreadPool::RequestLane().stats();
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.optimizer_invocations =
      optimizer_invocations_.load(std::memory_order_relaxed);
  stats.single_flight_waits =
      single_flight_waits_.load(std::memory_order_relaxed);
  stats.warm_requests = warm_requests_.load(std::memory_order_relaxed);
  stats.cold_requests = cold_requests_.load(std::memory_order_relaxed);
  stats.degraded_requests =
      degraded_requests_.load(std::memory_order_relaxed);
  stats.shed_requests = shed_requests_.load(std::memory_order_relaxed);
  stats.warm_seconds = warm_seconds_.load(std::memory_order_relaxed);
  stats.cold_seconds = cold_seconds_.load(std::memory_order_relaxed);
  return stats;
}

void PlanService::Session::Submit(ServiceRequest request) {
  // Start the trace at submission, not execution: the root span then
  // covers the session-queue wait, which a loaded pool can make the
  // dominant part of a request's latency.
  std::shared_ptr<RequestTrace> trace = Tracer::Global().StartRequest();
  const double submit_us = trace != nullptr ? TraceNowMicros() : 0.0;
  // Queue-entry stamp, independent of tracing: admission control counts
  // the submit-to-start wait against the request's deadline.
  const auto submitted_at = Clock::now();
  auto task = std::make_shared<std::packaged_task<Result<ServiceReport>()>>(
      [service = service_, request = std::move(request), trace, submit_us,
       submitted_at] {
        if (trace != nullptr) {
          RecordWaitSpanIn(TraceContext{trace, RequestTrace::kRootSpanId},
                           "session-queue", submit_us, TraceNowMicros());
        }
        return service->RunQueued(request, trace,
                                  SecondsSince(submitted_at));
      });
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(task->get_future());
  }
  // The request lane: whole requests never queue behind (or ahead of)
  // another request's DAG fan-out, which rides the exec lane.
  ThreadPool::RequestLane().Submit([task] { (*task)(); });
}

std::vector<Result<ServiceReport>> PlanService::Session::Wait() {
  std::vector<std::future<Result<ServiceReport>>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(pending_);
  }
  std::vector<Result<ServiceReport>> results;
  results.reserve(pending.size());
  for (auto& future : pending) results.push_back(future.get());
  return results;
}

size_t PlanService::Session::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace remac
