// Open-loop load harness for the serving tier.
//
//   bench_load [--quick] [--json] [--trace-dir=DIR]
//
// Drives the plan service with a corpus of distinct generated scripts
// under Zipf-skewed popularity — the workload shape a shared serving
// tier actually sees: a few hot scripts served warm from the plan
// cache, a long tail of cold ones that must optimize (and, with a
// 64-entry cache over a larger corpus, evict each other).
//
// Unlike the closed-loop repeat harness, arrivals are OPEN-LOOP: a
// dispatcher submits requests at a fixed rate regardless of how fast
// earlier ones finish, so queueing delay is part of the measured
// latency instead of being hidden by back-pressure. Phases:
//
//   1. closed-loop calibration per thread count: N concurrent clients
//      hammer the service -> capacity C(N) req/s (calibrating only at
//      one thread and reusing that figure ran every multi-thread sweep
//      at the wrong rate — C(1) understates what N workers can serve);
//   2. rate sweeps at 0.5C / 1C / 2C across pool sizes (requests ride
//      the request lane, DAG fan-out the exec lane), reporting exact
//      p50/p95/p99 latency (completion minus scheduled arrival),
//      achieved throughput, and wait-time attribution from the
//      contention histograms (single-flight waits, pool queue delay,
//      plan-cache / matcache shard lock waits) -- profiling mode only,
//      so measured phases never allocate span trees;
//   3. the saturation curve: overload (2C) throughput per pool size,
//      gated: throughput must not collapse as threads grow (and must
//      reach 1.8x the 1-thread figure at 4 threads when the machine
//      actually has >= 4 cores — on fewer cores extra threads cannot
//      add parallelism, so only the no-collapse floor applies);
//   4. a traced pass writing per-request span trees to --trace-dir
//      (validated by tools/validate_trace.py in scripts/check.sh);
//   5. a bitwise identity gate: the same request served with tracing
//      off and fully on must produce exactly equal results.
//
// --json writes the whole record to BENCH_service.json (this harness
// owns that file; bench_service keeps the matcache reuse gate).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "sched/thread_pool.h"
#include "service/plan_service.h"

namespace remac {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  bool quick = false;
  bool json = false;
  std::string trace_dir;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (StartsWith(arg, "--trace-dir=")) {
      options.trace_dir = arg.substr(12);
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (expected --quick, --json, "
                   "--trace-dir=DIR)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

/// Distinct-but-cheap script k: one shared Gram chain plus per-script
/// arithmetic whose constants make every fingerprint unique. Three
/// structural shapes cycle so the optimizer sees more than one plan.
std::string CorpusScript(int k) {
  const std::string c = std::to_string(k + 1) + ".0";
  switch (k % 3) {
    case 0:
      return "A = read(\"load\");\n"
             "g = t(A) %*% A;\n"
             "y = " + c + " * g + g %*% g;\n";
    case 1:
      return "A = read(\"load\");\n"
             "p = A %*% (t(A) %*% A);\n"
             "y = p + " + c + " * p;\n";
    default:
      return "A = read(\"load\");\n"
             "g = t(A) %*% A;\n"
             "y = t(g) %*% (g + " + c + " * g);\n";
  }
}

RunConfig LoadConfig() {
  RunConfig config;
  config.max_iterations = 8;
  config.executed_iterations = 1;
  return config;
}

/// Contention histograms whose Sum() deltas attribute where requests
/// waited during a sweep. All registered up front by the instrumented
/// components; GetHistogram is idempotent.
const std::vector<std::pair<const char*, const char*>>& WaitSources() {
  static const std::vector<std::pair<const char*, const char*>> sources = {
      {"flight_wait", "remac.service.flight_wait_seconds"},
      {"matcache_flight_wait", "remac.matcache.flight_wait_seconds"},
      {"pool_queue", "remac.contention.pool_queue_seconds"},
      {"plancache_lock", "remac.contention.plancache_lock_seconds"},
      {"matcache_lock", "remac.contention.matcache_lock_seconds"},
  };
  return sources;
}

struct SweepResult {
  int threads = 0;
  double target_ratio = 0.0;  // rate as a fraction of capacity
  double rate_rps = 0.0;
  int requests = 0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double throughput_rps = 0.0;
  std::vector<double> wait_seconds;  // parallel to WaitSources()
};

double ExactQuantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// One open-loop sweep: submit `seq` at `rate` req/s onto `threads`
/// pool workers, measure completion - scheduled arrival per request.
Result<SweepResult> RunSweep(PlanService* service,
                             const std::vector<std::string>& corpus,
                             const std::vector<int>& seq, double rate,
                             int threads, double target_ratio) {
  ThreadPool::SetGlobalThreads(threads);
  std::vector<double> latency(seq.size(), 0.0);
  std::atomic<int> done{0};
  std::atomic<int> failed{0};

  std::vector<double> before;
  for (const auto& [_, name] : WaitSources()) {
    before.push_back(MetricsRegistry::Global().GetHistogram(name)->Sum());
  }

  const auto t0 = Clock::now();
  for (size_t k = 0; k < seq.size(); ++k) {
    const auto arrival =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(k) /
                                               rate));
    std::this_thread::sleep_until(arrival);
    ThreadPool::RequestLane().Submit([service, &corpus, &seq, &latency,
                                      &done, &failed, k, arrival] {
      const auto request =
          ServiceRequest{corpus[static_cast<size_t>(seq[k])], LoadConfig()};
      const auto result = service->Run(request);
      if (!result.ok()) failed.fetch_add(1, std::memory_order_relaxed);
      latency[k] =
          std::chrono::duration<double>(Clock::now() - arrival).count();
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (done.load(std::memory_order_acquire) <
         static_cast<int>(seq.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  if (failed.load() > 0) {
    return Status::Internal(
        StringFormat("%d request(s) failed during the sweep", failed.load()));
  }

  SweepResult result;
  result.threads = threads;
  result.target_ratio = target_ratio;
  result.rate_rps = rate;
  result.requests = static_cast<int>(seq.size());
  std::vector<double> sorted = latency;
  std::sort(sorted.begin(), sorted.end());
  result.p50_seconds = ExactQuantile(sorted, 0.50);
  result.p95_seconds = ExactQuantile(sorted, 0.95);
  result.p99_seconds = ExactQuantile(sorted, 0.99);
  result.throughput_rps = static_cast<double>(seq.size()) / wall;
  for (size_t i = 0; i < WaitSources().size(); ++i) {
    const double after =
        MetricsRegistry::Global()
            .GetHistogram(WaitSources()[i].second)
            ->Sum();
    result.wait_seconds.push_back(std::max(0.0, after - before[i]));
  }
  return result;
}

std::string SweepJson(const SweepResult& r) {
  std::string waits = "{";
  for (size_t i = 0; i < WaitSources().size(); ++i) {
    waits += StringFormat("%s\"%s_seconds\": %.9g", i > 0 ? ", " : "",
                          WaitSources()[i].first, r.wait_seconds[i]);
  }
  waits += "}";
  return StringFormat(
      "{\"threads\": %d, \"target_ratio\": %.2f, \"rate_rps\": %.3f, "
      "\"requests\": %d, \"p50_seconds\": %.9g, \"p95_seconds\": %.9g, "
      "\"p99_seconds\": %.9g, \"throughput_rps\": %.3f, \"waits\": %s}",
      r.threads, r.target_ratio, r.rate_rps, r.requests, r.p50_seconds,
      r.p95_seconds, r.p99_seconds, r.throughput_rps, waits.c_str());
}

/// Exact equality of two result environments — the tracing on/off gate.
bool EnvBitwiseEqual(const std::map<std::string, RtValue>& a,
                     const std::map<std::string, RtValue>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end()) return false;
    if (value.is_scalar != it->second.is_scalar) return false;
    if (value.is_scalar) {
      if (value.scalar != it->second.scalar) return false;
      continue;
    }
    // tolerance 0.0 == exact element equality across formats.
    if (!value.matrix.ApproxEquals(it->second.matrix, 0.0)) return false;
  }
  return true;
}

}  // namespace

int BenchLoadMain(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);

  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "load";
  spec.rows = options.quick ? 240 : 480;
  spec.cols = 16;
  spec.sparsity = 0.3;
  spec.seed = 11;
  if (Status st = RegisterDataset(&catalog, spec); !st.ok()) {
    std::fprintf(stderr, "dataset error: %s\n", st.ToString().c_str());
    return 1;
  }

  const int corpus_size = options.quick ? 200 : 2000;
  const double zipf_exponent = 1.1;
  std::vector<std::string> corpus;
  corpus.reserve(static_cast<size_t>(corpus_size));
  for (int k = 0; k < corpus_size; ++k) corpus.push_back(CorpusScript(k));

  std::printf("=== bench_load: open-loop serving-tier load ===\n");
  std::printf("corpus %d distinct script(s), zipf exponent %.1f\n",
              corpus_size, zipf_exponent);

  ServiceOptions service_options;
  service_options.cache_capacity = 64;
  PlanService service(&catalog, service_options);

  // Measured phases run in profiling mode: contention clocks on, span
  // trees off. This is the configuration the sweep reports describe.
  Tracer::Global().SetProfiling(true);

  // --- 1. closed-loop calibration -> capacity per thread count -------
  const ZipfSampler sampler(static_cast<uint64_t>(corpus_size),
                            zipf_exponent);
  Rng rng(1234);
  auto draw_sequence = [&](int n) {
    std::vector<int> seq;
    seq.reserve(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      seq.push_back(static_cast<int>(sampler.Sample(rng)));
    }
    return seq;
  };

  // The saturation curve is only meaningful when the same thread counts
  // are measured in every mode, so --quick trims request counts, not
  // the sweep grid.
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const int cal_requests = options.quick ? 60 : 200;
  std::vector<std::pair<int, double>> capacities;
  for (const int threads : thread_counts) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<int> cal_seq = draw_sequence(cal_requests);
    std::atomic<size_t> next{0};
    std::atomic<int> failed{0};
    const auto cal_start = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(threads));
    for (int c = 0; c < threads; ++c) {
      clients.emplace_back([&] {
        while (true) {
          const size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= cal_seq.size()) return;
          auto r = service.Run(ServiceRequest{
              corpus[static_cast<size_t>(cal_seq[k])], LoadConfig()});
          if (!r.ok()) failed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const double cal_wall =
        std::chrono::duration<double>(Clock::now() - cal_start).count();
    if (failed.load() > 0) {
      std::fprintf(stderr, "calibration request(s) failed at %d thread(s)\n",
                   threads);
      return 1;
    }
    const double capacity =
        static_cast<double>(cal_seq.size()) / cal_wall;
    capacities.emplace_back(threads, capacity);
    std::printf("capacity (closed loop, %d client(s)): %.1f req/s over %zu "
                "request(s)\n",
                threads, capacity, cal_seq.size());
    if (options.json) {
      std::printf("{\"bench\": \"load\", \"phase\": \"calibrate\", "
                  "\"threads\": %d, \"requests\": %zu, "
                  "\"wall_seconds\": %.9g, \"capacity_rps\": %.3f}\n",
                  threads, cal_seq.size(), cal_wall, capacity);
    }
  }
  auto capacity_for = [&](int threads) {
    for (const auto& [t, c] : capacities) {
      if (t == threads) return c;
    }
    return capacities.front().second;
  };

  // --- 2. open-loop rate sweeps --------------------------------------
  const std::vector<double> ratios = {0.5, 1.0, 2.0};
  const int per_sweep = options.quick ? 48 : 240;
  std::vector<SweepResult> sweeps;
  for (const int threads : thread_counts) {
    for (const double ratio : ratios) {
      const auto sweep =
          RunSweep(&service, corpus, draw_sequence(per_sweep),
                   capacity_for(threads) * ratio, threads, ratio);
      if (!sweep.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     sweep.status().ToString().c_str());
        return 1;
      }
      sweeps.push_back(sweep.value());
      const SweepResult& r = sweeps.back();
      double waited = 0.0;
      for (const double w : r.wait_seconds) waited += w;
      std::printf(
          "sweep threads=%d rate=%.0f%%C (%.1f req/s): p50 %-9s p95 %-9s "
          "p99 %-9s throughput %.1f req/s, waits %s\n",
          r.threads, 100.0 * r.target_ratio, r.rate_rps,
          HumanSeconds(r.p50_seconds).c_str(),
          HumanSeconds(r.p95_seconds).c_str(),
          HumanSeconds(r.p99_seconds).c_str(), r.throughput_rps,
          HumanSeconds(waited).c_str());
      if (options.json) {
        std::printf("{\"bench\": \"load\", \"phase\": \"sweep\", "
                    "\"point\": %s}\n",
                    SweepJson(r).c_str());
      }
    }
  }

  // --- 3. saturation curve + scaling gate ----------------------------
  // Overload throughput per pool size: at 2x capacity the arrival
  // process outpaces the service, so achieved throughput IS the
  // saturation point for that thread count.
  std::printf("saturation (throughput at 2.0x capacity):");
  std::vector<std::pair<int, double>> saturation;
  for (const SweepResult& r : sweeps) {
    if (r.target_ratio == 2.0) {
      saturation.emplace_back(r.threads, r.throughput_rps);
      std::printf("  %dT %.1f req/s", r.threads, r.throughput_rps);
    }
  }
  std::printf("\n");

  // The gate is hardware-aware: expected parallelism at T threads is
  // min(T, cores), so floors only bind across transitions that add
  // EFFECTIVE parallelism — that is where the old single-lane pool
  // collapsed (~25% lost going 2T -> 4T on a multi-core box). Past the
  // core count the OS scheduler owns throughput (8 workers timesharing
  // 1 core context-switch away real work); those points are reported
  // but not gated. The 1.8x-at-4T scaling floor applies when the
  // machine has the cores to honor it.
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const double kCollapseSlack = 0.90;
  bool scaling_ok = true;
  for (size_t i = 1; i < saturation.size(); ++i) {
    const int eff_prev = std::min(saturation[i - 1].first, cores);
    const int eff_cur = std::min(saturation[i].first, cores);
    if (eff_cur <= eff_prev) continue;  // oversubscribed: informational
    if (saturation[i].second <
        kCollapseSlack * saturation[i - 1].second) {
      scaling_ok = false;
      std::fprintf(stderr,
                   "scaling gate: saturated throughput collapsed "
                   "%dT %.1f -> %dT %.1f req/s (floor %.2fx)\n",
                   saturation[i - 1].first, saturation[i - 1].second,
                   saturation[i].first, saturation[i].second,
                   kCollapseSlack);
    }
  }
  double speedup_4t = 0.0;
  for (const auto& [threads, rps] : saturation) {
    if (threads == 4 && saturation.front().first == 1) {
      speedup_4t = rps / saturation.front().second;
    }
  }
  if (cores >= 4 && speedup_4t > 0.0 && speedup_4t < 1.8) {
    scaling_ok = false;
    std::fprintf(stderr,
                 "scaling gate: 4T saturated throughput is only %.2fx "
                 "the 1T figure on a %d-core machine (floor 1.8x)\n",
                 speedup_4t, cores);
  }
  std::printf("scaling gate (%d core(s), 4T/1T %.2fx): %s\n", cores,
              speedup_4t, scaling_ok ? "ok" : "FAIL");
  const ServiceStats load_stats = service.stats();
  std::printf("admission: %lld shed, %lld degraded of %lld request(s)\n",
              static_cast<long long>(load_stats.shed_requests),
              static_cast<long long>(load_stats.degraded_requests),
              static_cast<long long>(load_stats.requests));

  Tracer::Global().SetProfiling(false);

  // --- 4. traced pass ------------------------------------------------
  int traced_written = 0;
  if (!options.trace_dir.empty()) {
    Tracer::Global().SetEnabled(true);
    for (int k = 0; k < 3; ++k) {
      auto r = service.Run(ServiceRequest{corpus[0], LoadConfig()});
      if (!r.ok() || r->trace == nullptr) {
        std::fprintf(stderr, "traced request %d produced no trace\n", k);
        return 1;
      }
      const std::string path =
          options.trace_dir + "/trace-" +
          std::to_string(r->trace->request_id()) + ".json";
      if (Status st = r->trace->WriteChromeJson(path); !st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      ++traced_written;
    }
    Tracer::Global().SetEnabled(false);
    Tracer::Global().SetProfiling(false);
    std::printf("wrote %d trace file(s) to %s\n", traced_written,
                options.trace_dir.c_str());
  }

  // --- 5. tracing on/off bitwise identity gate -----------------------
  // Two fresh services (no shared cache state), same request, tracing
  // fully off vs fully on: the span layer must never perturb results.
  bool identical = true;
  {
    const ServiceRequest request{corpus[1], LoadConfig()};
    PlanService off_service(&catalog, service_options);
    const auto off = off_service.Run(request);
    Tracer::Global().SetEnabled(true);
    PlanService on_service(&catalog, service_options);
    const auto on = on_service.Run(request);
    Tracer::Global().SetEnabled(false);
    Tracer::Global().SetProfiling(false);
    if (!off.ok() || !on.ok()) {
      std::fprintf(stderr, "identity gate request failed\n");
      return 1;
    }
    identical = EnvBitwiseEqual(off->run.env, on->run.env) &&
                on->trace != nullptr && on->trace->size() > 0 &&
                off->trace == nullptr;
    std::printf("tracing on/off identity: %s (%lld span(s) on the traced "
                "run)\n",
                identical ? "bitwise-identical" : "MISMATCH",
                on->trace != nullptr
                    ? static_cast<long long>(on->trace->size())
                    : 0ll);
  }

  ThreadPool::SetGlobalThreads(0);

  // --- BENCH_service.json --------------------------------------------
  if (options.json) {
    FILE* out = std::fopen("BENCH_service.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_service.json\n");
      return 1;
    }
    std::fprintf(out,
                 "{\"bench\": \"service\", \"workload\": \"open-loop-zipf\", "
                 "\"corpus\": %d, \"zipf_exponent\": %.2f, "
                 "\"cores\": %d, \"capacity_rps\": %.3f, "
                 "\"capacities\": [",
                 corpus_size, zipf_exponent, cores,
                 capacity_for(1));
    for (size_t i = 0; i < capacities.size(); ++i) {
      std::fprintf(out, "%s{\"threads\": %d, \"capacity_rps\": %.3f}",
                   i > 0 ? ", " : "", capacities[i].first,
                   capacities[i].second);
    }
    std::fprintf(out, "], \"sweeps\": [");
    for (size_t i = 0; i < sweeps.size(); ++i) {
      std::fprintf(out, "%s%s", i > 0 ? ", " : "",
                   SweepJson(sweeps[i]).c_str());
    }
    std::fprintf(out, "], \"saturation\": [");
    for (size_t i = 0; i < saturation.size(); ++i) {
      std::fprintf(out,
                   "%s{\"threads\": %d, \"throughput_rps\": %.3f}",
                   i > 0 ? ", " : "", saturation[i].first,
                   saturation[i].second);
    }
    std::fprintf(out,
                 "], \"shed_requests\": %lld, "
                 "\"speedup_4t_over_1t\": %.3f, \"scaling_ok\": %s, "
                 "\"trace_identity\": %s}\n",
                 static_cast<long long>(load_stats.shed_requests),
                 speedup_4t, scaling_ok ? "true" : "false",
                 identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_service.json\n");
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: results with tracing on differ from tracing off\n");
    return 1;
  }
  if (!scaling_ok) {
    std::fprintf(stderr,
                 "FAIL: saturated throughput regressed as threads grew\n");
    return 1;
  }
  return 0;
}

}  // namespace remac

int main(int argc, char** argv) { return remac::BenchLoadMain(argc, argv); }
