// The serving workload, serve-zipf: PlanService under open-loop arrivals
// at a fixed rate.
//
// The corpus is kCorpus distinct GNMF-style scripts over one shared
// dataset (more scripts than the 64-entry plan cache holds), drawn with
// Zipf(1.1) popularity; popularity rank k is always script k, the seed
// drives the draws and the data. A warm request re-executes a cached
// plan: one multiplicative-update iteration, a few milliseconds of
// sparse kernel work that no cache can skip (the state is loop-variant).
//
// Writes sit beside the reads: every kWriteEvery requests the dispatcher
// drains in-flight work (DataCatalog has no lock) and re-registers the
// dataset. Writes cycle through kVariants data variants so that they
// alternate between the same sparsity bucket (only the matcache is
// invalidated) and a new bucket (plans are invalidated and re-optimized).
//
// Latency is the request's own CPU time on its worker thread; the wall
// time from each request's due time is recorded beside it. Every served
// result is digested; after the measured phase the benchmark executes
// each plan the service used directly (serial, no caches) on the same
// data, requires bit-identical results, and holds that execution within
// kMaxUlps of the unoptimized program on the same data.

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "obs/trace_context.h"
#include "sched/thread_pool.h"
#include "service/plan_service.h"

namespace remacbench {
namespace {

using remac::DataCatalog;
using remac::DatasetSpec;
using remac::RtValue;
using remac::RunConfig;
using Env = std::map<std::string, RtValue>;

constexpr int kCorpus = 256;
constexpr double kZipfExponent = 1.1;
/// The fixed open-loop arrival rate (requests per second).
constexpr double kRateRps = 200.0;
constexpr int kWriteEvery = 500;
constexpr int kVariants = 4;
constexpr int kHorizon = 8;
constexpr int kExecutedIterations = 1;
/// Set-ups behind the setup_s median, before and after the measured
/// phase (the last one before it is served).
constexpr int kSetupsBefore = 8;
constexpr int kSetupsAfter = 7;
/// Hot scripts served once during setup (the warm-up).
constexpr int kWarmupScripts = 4;
const char kDataset[] = "serve";
const std::vector<std::string> kOutputs = {"W", "H"};

/// Variants 0,1 share one sparsity bucket and 2,3 another, so the cycle
/// 0->1->2->3->0 alternates same-bucket and new-bucket writes.
DatasetSpec VariantSpec(int variant, uint64_t seed) {
  DatasetSpec spec;
  spec.name = kDataset;
  spec.rows = 8000;
  spec.cols = 64;
  spec.sparsity = variant < 2 ? 0.3 : 0.05;
  spec.seed = 5000 + 7919 * seed + static_cast<uint64_t>(variant);
  return spec;
}

/// Script k: GNMF on the squared (non-negative) data at rank 4..8, with a
/// denominator guard scaled by the data's Gram sum (a sum of squared row
/// sums, never negative). The Gram chain reads only the dataset, so it is
/// the same materializable intermediate in every script (the matcache's
/// business); the loop state is not.
std::string CorpusScript(int k) {
  const int rank = 4 + k % 5;
  const std::string eps = remac::StringFormat("%.15f", 1e-12 * (k + 1));
  return remac::StringFormat(
      "V0 = read(\"%s\");\n"
      "V = V0 * V0;\n"
      "e = %s * sum(t(read(\"%s\")) %%*%% read(\"%s\"));\n"
      "W = rand(nrow(V), %d);\n"
      "H = rand(%d, ncol(V));\n"
      "i = 0;\n"
      "while (i < %d) {\n"
      "  H = H * (t(W) %%*%% V) / (t(W) %%*%% W %%*%% H + e);\n"
      "  W = W * (V %%*%% t(H)) / (W %%*%% H %%*%% t(H) + e);\n"
      "  i = i + 1;\n"
      "}\n",
      kDataset, eps.c_str(), kDataset, kDataset, rank, rank, kHorizon);
}

RunConfig ServeConfig() {
  RunConfig config;
  config.max_iterations = kHorizon;
  config.executed_iterations = kExecutedIterations;
  config.count_input_partition = true;
  return config;
}

/// One served request, as observed from outside the service.
struct Request {
  int script = 0;
  int variant = 0;
  Clock::time_point due, submitted, started, done;
  /// CPU seconds of the worker thread inside PlanService::Run: the
  /// request's own work, without queueing, waits or hypervisor steal.
  double cpu_s = 0.0;
  bool ok = false;
  std::string error;
  bool cache_hit = false;
  bool cold = false;  // this request ran the optimizer itself
  bool degraded = false;
  double parse_s = 0.0, optimize_s = 0.0, execute_s = 0.0;
  double sim_exec_s = 0.0, sim_compute_s = 0.0, sim_transmit_s = 0.0;
  double audit_rel_err = -1.0;
  remac::OptimizeReport optimize;
  remac::MatRequestStats matcache;
  uint64_t digest = 0;
  std::shared_ptr<const remac::CompiledProgram> plan;
};

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU seconds of the requests run inside the request running on this
/// thread. A request that waits on a single-flight helps drain its own
/// lane and may run other requests inside its own timing window; their
/// CPU time is theirs and is taken out of its own.
thread_local double tl_nested_cpu_s = 0.0;

/// Counts requests in flight so the dispatcher can drain before a write.
class InFlight {
 public:
  void Enter() {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
  }
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
  }
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t count_ = 0;  // guarded by mu_
};

/// The live service and its catalog (rebuilt by every setup repetition).
struct Serving {
  std::unique_ptr<DataCatalog> catalog;
  std::unique_ptr<remac::PlanService> service;
  int variant = 0;
};

struct PhaseSummary {
  size_t first = 0, last = 0;  // request index range [first, last)
  double wall_s = 0.0;
  RegistrySnapshot registry;
  remac::PoolStats request_before, request_after, exec_before, exec_after;
  remac::ServiceStats stats_before, stats_after;
};

}  // namespace

WorkloadResult RunServe(const Options& options) {
  WorkloadResult result;
  const int cpus = AvailableCpus();
  // Requests run on a request lane of `cpus` workers with single-threaded
  // kernels: at most `cpus` busy threads plus the mostly sleeping
  // dispatcher.
  remac::SetKernelThreads(1);
  remac::ThreadPool::SetGlobalThreads(cpus);

  std::vector<std::string> corpus;
  for (int k = 0; k < kCorpus; ++k) corpus.push_back(CorpusScript(k));
  std::vector<double> register_s;
  auto register_variant = [&](DataCatalog* catalog, int variant) {
    const double start = ThreadCpuSeconds();
    const remac::Status st =
        remac::RegisterDataset(catalog, VariantSpec(variant, options.seed));
    register_s.push_back(ThreadCpuSeconds() - start);
    return st;
  };

  // --- setup, repeated: data, service construction, warm-up ------------
  // Set-up runs on this thread (direct Run calls), timed on its CPU clock.
  std::vector<double> setup_s;
  auto set_up = [&](Serving* fresh) {
    const double start = ThreadCpuSeconds();
    fresh->catalog = std::make_unique<DataCatalog>();
    if (remac::Status st = register_variant(fresh->catalog.get(), 0);
        !st.ok()) {
      result.Fail("setup: " + st.ToString());
      return false;
    }
    fresh->service =
        std::make_unique<remac::PlanService>(fresh->catalog.get());
    for (int k = 0; k < kWarmupScripts; ++k) {
      const auto report =
          fresh->service->Run(remac::ServiceRequest{corpus[k], ServeConfig()});
      if (!report.ok()) {
        result.Fail("warm-up: " + report.status().ToString());
        return false;
      }
    }
    setup_s.push_back(ThreadCpuSeconds() - start);
    return true;
  };
  Serving serving;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    Serving fresh;
    if (!set_up(&fresh)) return result;
    serving = std::move(fresh);
  }

  // --- the request sequence: Zipf draws from the seed -----------------
  const int64_t total = std::max<int64_t>(
      1, static_cast<int64_t>(options.seconds * kRateRps));
  std::vector<Request> requests(static_cast<size_t>(total));
  {
    const remac::ZipfSampler sampler(kCorpus, kZipfExponent);
    remac::Rng rng(0x5e7e + options.seed);
    for (Request& r : requests) {
      r.script = static_cast<int>(sampler.Sample(rng));
    }
  }

  SpanRecorder spans;
  InFlight in_flight;
  auto serve_one = [&](size_t index) {
    const double entry_cpu = ThreadCpuSeconds();
    const double outer_nested_cpu = tl_nested_cpu_s;
    tl_nested_cpu_s = 0.0;
    Request& r = requests[index];
    r.started = Clock::now();
    const double cpu_start = ThreadCpuSeconds();
    auto report = serving.service->Run(
        remac::ServiceRequest{corpus[static_cast<size_t>(r.script)],
                              ServeConfig()});
    r.cpu_s = ThreadCpuSeconds() - cpu_start - tl_nested_cpu_s;
    r.done = Clock::now();
    if (!report.ok()) {
      r.error = report.status().ToString();
    } else {
      const remac::ServiceReport& rep = report.value();
      r.ok = true;
      r.cache_hit = rep.cache_hit;
      r.cold = !rep.cache_hit && !rep.shared_flight;
      r.degraded = rep.degraded;
      r.parse_s = rep.timing.parse_seconds;
      r.optimize_s = rep.timing.optimize_seconds;
      r.execute_s = rep.timing.execute_seconds;
      const remac::TimeBreakdown& b = rep.run.breakdown;
      r.sim_exec_s = b.computation_seconds + b.transmission_seconds +
                     b.input_partition_seconds;
      r.sim_compute_s = b.computation_seconds;
      r.sim_transmit_s = b.transmission_seconds;
      if (rep.run.audit.valid) {
        r.audit_rel_err = rep.run.audit.flops.RelativeError();
      }
      r.optimize = rep.run.optimize;
      r.matcache = rep.matcache;
      r.plan = rep.run.optimized_program;
      Env env = rep.run.env;
      if (static_cast<int64_t>(index) == options.corrupt_op) CorruptEnv(&env);
      r.digest = EnvDigest(env, kOutputs);
    }
    const int root = spans.Add("request", static_cast<int64_t>(index), -1,
                               r.due, r.done);
    if (root >= 0) {
      spans.Add("queue", static_cast<int64_t>(index), root, r.submitted,
                r.started);
      spans.Add("service.run", static_cast<int64_t>(index), root, r.started,
                r.done);
    }
    tl_nested_cpu_s = outer_nested_cpu + (ThreadCpuSeconds() - entry_cpu);
    in_flight.Leave();
  };

  // One open-loop phase over requests [first, last): request k is due at
  // phase start + (k - first) / rate.
  auto run_phase = [&](size_t first, size_t last, bool traced) {
    PhaseSummary phase;
    phase.first = first;
    phase.last = last;
    spans.Enable(traced);
    remac::Tracer::Global().SetProfiling(traced);
    phase.registry = RegistrySnapshot::Take();
    phase.request_before = remac::ThreadPool::RequestLane().stats();
    phase.exec_before = remac::ThreadPool::Global().stats();
    phase.stats_before = serving.service->stats();
    const Clock::time_point start = Clock::now();
    for (size_t k = first; k < last; ++k) {
      Request& r = requests[k];
      r.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(k - first) / kRateRps));
      std::this_thread::sleep_until(r.due);
      if (k > 0 && k % kWriteEvery == 0) {
        const int drain_span = spans.Begin("drain", static_cast<int64_t>(k), -1);
        in_flight.Drain();
        spans.End(drain_span);
        ScopedSpan write_span(&spans, "data.register", static_cast<int64_t>(k));
        serving.variant = (serving.variant + 1) % kVariants;
        if (remac::Status st =
                register_variant(serving.catalog.get(), serving.variant);
            !st.ok()) {
          result.Fail("write: " + st.ToString());
        }
      }
      r.variant = serving.variant;
      in_flight.Enter();
      r.submitted = Clock::now();
      remac::ThreadPool::RequestLane().Submit([&serve_one, k] { serve_one(k); });
    }
    in_flight.Drain();
    phase.wall_s = SecondsSince(start);
    phase.registry = RegistrySnapshot::Take().Minus(phase.registry);
    phase.request_after = remac::ThreadPool::RequestLane().stats();
    phase.exec_after = remac::ThreadPool::Global().stats();
    phase.stats_after = serving.service->stats();
    remac::Tracer::Global().SetProfiling(false);
    spans.Enable(false);
    return phase;
  };

  std::vector<PhaseSummary> phases;
  if (options.trace) {
    phases.push_back(run_phase(0, requests.size() / 2, /*traced=*/false));
    phases.push_back(
        run_phase(requests.size() / 2, requests.size(), /*traced=*/true));
  } else {
    phases.push_back(run_phase(0, requests.size(), /*traced=*/false));
    result.Add("peak_rss_mb", PeakRssMb(), "MiB", "memory");
  }
  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    Serving fresh;
    if (!set_up(&fresh)) return result;
  }

  // --- verification ------------------------------------------------------
  // One catalog per data variant (the same specs the writes registered).
  // First pass, per distinct (script, variant): the unoptimized program as
  // written. Second pass, per distinct (plan, variant): a direct serial
  // execution of the plan the service used, whose outputs every served
  // result must match bit for bit and which must stay within kMaxUlps of
  // the first pass. Each pass is spread over `cpus` threads.
  const Clock::time_point verify_start = Clock::now();
  std::vector<std::unique_ptr<DataCatalog>> variants;
  for (int v = 0; v < kVariants; ++v) {
    variants.push_back(std::make_unique<DataCatalog>());
    if (remac::Status st =
            remac::RegisterDataset(variants.back().get(),
                                   VariantSpec(v, options.seed));
        !st.ok()) {
      result.Fail("verification data: " + st.ToString());
      return result;
    }
  }
  struct Check {
    const remac::CompiledProgram* plan = nullptr;  // null: as written
    int script = 0;
    int variant = 0;
    Env env;
    uint64_t digest = 0;
    double ulps = 0.0;
    std::string error;
  };
  std::map<std::pair<int, int>, Check> as_written;
  std::map<std::pair<const remac::CompiledProgram*, int>, Check> direct;
  for (const Request& r : requests) {
    if (!r.ok) continue;
    as_written.try_emplace({r.script, r.variant},
                           Check{nullptr, r.script, r.variant, {}, 0, 0.0, ""});
    direct.try_emplace({r.plan.get(), r.variant},
                       Check{r.plan.get(), r.script, r.variant, {}, 0, 0.0, ""});
  }
  auto execute_plan = [&](const remac::CompiledProgram& program,
                          Check* check) {
    const RunConfig config = ServeConfig();
    remac::TransmissionLedger ledger(config.cluster);
    remac::Executor executor(
        config.cluster, variants[static_cast<size_t>(check->variant)].get(),
        &ledger, remac::TraitsFor(config.engine));
    executor.set_count_input_partition(true);
    const remac::Status st =
        executor.Run(program.statements, kExecutedIterations);
    if (!st.ok()) check->error = st.ToString();
    for (const std::string& name : kOutputs) {  // keep only what is compared
      const auto it = executor.env().find(name);
      if (it != executor.env().end()) check->env.insert(*it);
    }
  };
  auto verify_as_written = [&](Check* check) {
    const DataCatalog& catalog =
        *variants[static_cast<size_t>(check->variant)];
    RunConfig config = ServeConfig();
    config.optimizer = remac::OptimizerKind::kAsWritten;
    config.fuse_elementwise = false;
    auto compiled = remac::CompileScript(
        corpus[static_cast<size_t>(check->script)], catalog);
    if (!compiled.ok()) {
      check->error = compiled.status().ToString();
      return;
    }
    auto plain = remac::OptimizeCompiled(compiled.value(), catalog, config,
                                         nullptr);
    if (!plain.ok()) {
      check->error = plain.status().ToString();
      return;
    }
    execute_plan(plain.value(), check);
  };
  auto verify_direct = [&](Check* check) {
    execute_plan(*check->plan, check);
    check->digest = EnvDigest(check->env, kOutputs);
    const Check& plain = as_written.at({check->script, check->variant});
    std::string why;
    if (check->error.empty() && plain.error.empty() &&
        !EnvWithinUlps(check->env, plain.env, kOutputs, kMaxUlps,
                       &check->ulps, &why)) {
      check->error = "departs from the unoptimized program: " + why;
    }
    check->env.clear();
  };
  auto parallel = [&](auto& checks, auto verify) {
    std::vector<Check*> work;
    for (auto& entry : checks) work.push_back(&entry.second);
    ForEachOnThreads(cpus, work.size(), [&](size_t i) { verify(work[i]); });
  };
  parallel(as_written, verify_as_written);
  parallel(direct, verify_direct);
  double worst_ulps = 0.0;
  for (const auto& entry : direct) {
    worst_ulps = std::max(worst_ulps, entry.second.ulps);
  }
  for (size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    ++result.attempted;
    const std::string where = remac::StringFormat(
        "request %zu (script %d, data variant %d)", k, r.script, r.variant);
    if (!r.ok) {
      result.Fail(where + ": " + r.error);
      continue;
    }
    const Check& plain = as_written.at({r.script, r.variant});
    const Check& check = direct.at({r.plan.get(), r.variant});
    if (!plain.error.empty()) {
      result.Fail(where + ": unoptimized program failed: " + plain.error);
    } else if (!check.error.empty()) {
      result.Fail(where + ": " + check.error);
    } else if (check.digest != r.digest) {
      result.Fail(where + ": served result differs from the direct "
                          "execution of the same plan");
    }
  }
  const double verify_s = SecondsSince(verify_start);

  result.info.push_back({"rate_rps", remac::StringFormat("%.1f", kRateRps)});
  result.info.push_back({"corpus", std::to_string(kCorpus)});
  result.info.push_back({"write_every", std::to_string(kWriteEvery)});
  result.info.push_back(
      {"executed_iterations", std::to_string(kExecutedIterations)});
  result.info.push_back({"horizon_iterations", std::to_string(kHorizon)});
  result.info.push_back({"setups_s", JsonNumberList(setup_s)});
  result.info.push_back({"verify_s", remac::StringFormat("%.6f", verify_s)});
  result.info.push_back({"verify_checks",
                         std::to_string(as_written.size() + direct.size())});
  result.info.push_back({"max_ulps", remac::StringFormat("%.0f", kMaxUlps)});
  result.info.push_back(
      {"worst_ulps_vs_unoptimized", remac::StringFormat("%.1f", worst_ulps)});

  // Wall latency from the due time, and the request's own CPU time.
  auto latencies = [&](const PhaseSummary& phase, bool cpu) {
    std::vector<double> out;
    for (size_t k = phase.first; k < phase.last; ++k) {
      const Request& r = requests[k];
      if (r.ok) out.push_back(cpu ? r.cpu_s : Seconds(r.due, r.done));
    }
    return out;
  };

  if (!options.trace) {
    // The end-to-end latencies are per-request CPU seconds: on a shared
    // machine, hypervisor steal doubled the due-time wall p50 and moved
    // its p99 tenfold between runs of identical work. The due-time wall
    // figures stay in the record's info.
    const PhaseSummary& phase = phases.front();
    const std::vector<double> latency = latencies(phase, /*cpu=*/true);
    const std::vector<double> wall = latencies(phase, /*cpu=*/false);
    std::vector<double> sim;
    for (const Request& r : requests) {
      if (r.ok) sim.push_back(r.sim_exec_s);
    }
    const Tail tail = TailLatency(latency);
    const Tail wall_tail = TailLatency(wall);
    const double sim_mean = Mean(sim);
    result.Add("setup_s", Median(setup_s), "s", "cpu");
    result.Add("throughput_ops_per_s",
               static_cast<double>(latency.size()) / phase.wall_s, "1/s",
               "wall");
    result.Add("latency_p50_s", Median(latency), "s", "cpu");
    result.Add("latency_tail_s", tail.value, "s", "cpu");
    result.Add("sim_exec_s", sim_mean, "s", "simulated");
    result.info.push_back({"latency_tail_percentile",
                           std::to_string(tail.percentile)});
    result.info.push_back({"latency_samples", std::to_string(latency.size())});
    result.info.push_back({"latency_tail_beyond", std::to_string(tail.beyond)});
    result.info.push_back(
        {"wall_latency_p50_s", remac::StringFormat("%.6f", Median(wall))});
    result.info.push_back(
        {"wall_latency_tail_s", remac::StringFormat("%.6f", wall_tail.value)});
    result.info.push_back(
        {"sim_exec_iqr_frac",
         remac::StringFormat("%.6f", sim_mean > 0.0
                                         ? (Quantile(sim, 0.75) -
                                            Quantile(sim, 0.25)) /
                                               sim_mean
                                         : 0.0)});
    return result;
  }

  const PhaseSummary& untraced = phases[0];
  const PhaseSummary& traced = phases[1];
  const double n = static_cast<double>(traced.last - traced.first);
  std::vector<double> cold_parse, queue_wait, send_lag, rel_err, sim;
  double optimize = 0.0, execute = 0.0, options_found = 0.0, cse = 0.0,
         lse = 0.0, sim_compute = 0.0, sim_transmit = 0.0;
  int64_t hits = 0, degraded = 0, cold = 0, probes = 0, mat_hits = 0;
  for (size_t k = traced.first; k < traced.last; ++k) {
    const Request& r = requests[k];
    queue_wait.push_back(Seconds(r.submitted, r.started));
    send_lag.push_back(Seconds(r.due, r.submitted));
    if (!r.ok) continue;
    sim.push_back(r.sim_exec_s);
    sim_compute += r.sim_compute_s;
    sim_transmit += r.sim_transmit_s;
    optimize += r.optimize_s;
    execute += r.execute_s;
    hits += r.cache_hit ? 1 : 0;
    degraded += r.degraded ? 1 : 0;
    probes += r.matcache.probes;
    mat_hits += r.matcache.hits;
    if (r.audit_rel_err >= 0.0) rel_err.push_back(r.audit_rel_err);
    if (r.cold) {
      ++cold;
      cold_parse.push_back(r.parse_s);
      options_found += r.optimize.options_found;
      cse += r.optimize.applied_cse;
      lse += r.optimize.applied_lse;
    }
  }
  const double per_cold = cold > 0 ? 1.0 / static_cast<double>(cold) : 0.0;
  const RegistrySnapshot& reg = traced.registry;
  const double untraced_p50 = Median(latencies(untraced, /*cpu=*/false));
  result.Add("lang.compile_s", Mean(cold_parse), "s", "wall");
  result.Add("core.optimize_s", optimize / n, "s", "wall");
  result.Add("runtime.execute_s", execute / n, "s", "wall");
  result.Add("matrix.multiply_s",
             reg.Get("remac.executor.multiply_seconds") / n, "s", "wall");
  result.Add("matrix.elementwise_s",
             reg.Get("remac.executor.elementwise_seconds") / n, "s", "wall");
  result.Add("data.register_s", Median(register_s), "s", "cpu");
  result.Add("matrix.gemm_gflops", GemmProbeGflops(options.seed), "GFLOP/s",
             "cpu");
  result.Add("service.queue_wait_s", Mean(queue_wait), "s", "wall");
  result.Add("service.flight_wait_s",
             (reg.Get("remac.service.flight_wait_seconds") +
              reg.Get("remac.matcache.flight_wait_seconds")) /
                 n,
             "s", "wall");
  result.Add("service.lock_wait_s",
             (reg.Get("remac.contention.plancache_lock_seconds") +
              reg.Get("remac.contention.matcache_lock_seconds")) /
                 n,
             "s", "wall");
  result.Add("load.send_lag_p95_s", Quantile(send_lag, 0.95), "s", "wall");
  result.Add("core.windows_visited",
             reg.Get("remac.search.windows_visited") / n, "count", "count");
  result.Add("core.probe_evaluations", reg.Get("remac.probe.evaluations") / n,
             "count", "count");
  result.Add("core.options_found", options_found * per_cold, "count", "count");
  result.Add("core.applied_cse", cse * per_cold, "count", "count");
  result.Add("core.applied_lse", lse * per_cold, "count", "count");
  result.Add("runtime.ops", reg.Get("remac.executor.ops") / n, "count",
             "count");
  result.Add("matrix.multiplies", reg.Get("remac.kernel.multiplies") / n,
             "count", "count");
  result.Add("fusion.regions", reg.Get("remac.fusion.regions") / n, "count",
             "count");
  result.Add("fusion.bytes_avoided", reg.Get("remac.fusion.bytes_avoided") / n,
             "bytes", "count");
  result.Add("service.optimizer_invocations",
             static_cast<double>(traced.stats_after.optimizer_invocations -
                                 traced.stats_before.optimizer_invocations),
             "count", "count");
  result.Add("service.invalidations",
             reg.Get("remac.plancache.invalidations") +
                 reg.Get("remac.matcache.invalidations"),
             "count", "count");
  result.Add("sched.pool_tasks",
             static_cast<double>(traced.request_after.tasks_executed -
                                 traced.request_before.tasks_executed +
                                 traced.exec_after.tasks_executed -
                                 traced.exec_before.tasks_executed) /
                 n,
             "count", "count");
  result.Add("sched.steals",
             static_cast<double>(traced.request_after.steals -
                                 traced.request_before.steals +
                                 traced.exec_after.steals -
                                 traced.exec_before.steals) /
                 n,
             "count", "count");
  result.Add("cluster.sim_flops", reg.Get("remac.ledger.flops") / n, "flop",
             "simulated");
  result.Add("cluster.sim_bytes",
             (reg.Get("remac.ledger.broadcast_bytes") +
              reg.Get("remac.ledger.shuffle_bytes") +
              reg.Get("remac.ledger.collection_bytes") +
              reg.Get("remac.ledger.dfs_bytes")) /
                 n,
             "bytes", "simulated");
  result.Add("cluster.sim_compute_s", sim_compute / n, "s", "simulated");
  result.Add("cluster.sim_transmit_s", sim_transmit / n, "s", "simulated");
  result.Add("service.plan_hit_frac", static_cast<double>(hits) / n, "ratio",
             "ratio");
  result.Add("service.matcache_hit_frac",
             probes > 0 ? static_cast<double>(mat_hits) /
                              static_cast<double>(probes)
                        : 0.0,
             "ratio", "ratio");
  result.Add("service.degraded_frac", static_cast<double>(degraded) / n,
             "ratio", "ratio");
  result.Add("obs.audit_flops_rel_err", Median(rel_err), "ratio", "ratio");
  result.Add("trace.span_coverage_frac", spans.ChildCoverage("request"),
             "ratio", "ratio");
  result.Add("trace.overhead_frac",
             untraced_p50 > 0.0
                 ? (Median(latencies(traced, /*cpu=*/false)) - untraced_p50) /
                       untraced_p50
                 : 0.0,
             "ratio", "ratio");
  result.info.push_back({"traced_requests", std::to_string(traced.last -
                                                           traced.first)});
  result.info.push_back({"cold_requests", std::to_string(cold)});
  if (!options.spans_out.empty() && !spans.WriteJson(options.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.spans_out.c_str());
  }
  return result;
}

}  // namespace remacbench
