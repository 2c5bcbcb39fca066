// Smoke benchmark: one small DFP measurement, primarily for the
// `bench-smoke` gate in scripts/check.sh. Run with --json and the final
// line carries the full metrics-registry block, which
// tools/validate_metrics.py checks against tools/metrics_manifest.txt.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/scripts.h"
#include "bench/harness.h"
#include "service/plan_service.h"

using namespace remac;
using namespace remac::bench;

namespace {

/// Exact cell-wise equality across storage formats (no tolerance).
bool SameValues(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (a.At(r, c) != b.At(r, c)) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  Banner("Smoke", "one quick DFP measurement to exercise the telemetry path");
  DatasetSpec spec;
  spec.name = "smoke";
  spec.rows = 2000;
  spec.cols = 64;
  spec.sparsity = 0.2;
  spec.zipf_rows = 1.1;
  spec.zipf_cols = 1.1;
  spec.seed = 7;
  if (!SharedCatalog().Contains("smoke")) {
    const Status st = RegisterDataset(&SharedCatalog(), spec);
    if (!st.ok()) {
      std::printf("dataset error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const int iterations = 10;
  const std::string script = DfpScript("smoke", iterations);
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  auto m = MeasureScript(script, config, iterations, "smoke-dfp-adaptive");
  if (!m.ok()) {
    std::printf("ERROR %s\n", m.status().ToString().c_str());
    return 1;
  }
  std::printf("%-22s %12s simulated %12s compile wall\n", "dfp (adaptive)",
              Fmt(m->execution_seconds).c_str(),
              Fmt(m->compile_wall_seconds).c_str());

  // Chaos pass: one seeded fault-injected task-graph run, so
  // remac.retry.exhausted and the pool's lane metrics register and the
  // manifest check covers them. Fault and retry counts live in the
  // run's ScheduleReport, printed below.
  RunConfig chaos = config;
  chaos.scheduler = SchedulerKind::kTaskGraph;
  chaos.faults = FaultPlan::Chaos(17);
  chaos.executed_iterations = 1;
  auto c = RunScript(script, SharedCatalog(), chaos);
  if (!c.ok()) {
    std::printf("ERROR chaos pass: %s\n", c.status().ToString().c_str());
    return 1;
  }
  std::printf("%-22s faults=%lld retries=%lld wasted=%s\n", "dfp (chaos)",
              static_cast<long long>(c->schedule.faults_injected),
              static_cast<long long>(c->schedule.retries),
              Fmt(c->schedule.wasted_seconds).c_str());

  // Serving pass: two requests through a PlanService so the service,
  // plan-cache and materialized-intermediate metrics (latency
  // histograms, invalidations, matcache probes and hits) register and
  // the manifest check covers them. The second request must hit both
  // caches; the other cache counts live in ServiceStats, printed below.
  {
    PlanService service(&SharedCatalog());
    const std::string gram =
        "g = t(read(\"smoke\")) %*% read(\"smoke\");\n";
    for (int k = 0; k < 2; ++k) {
      auto r = service.Run({gram, config});
      if (!r.ok()) {
        std::printf("ERROR serve pass: %s\n", r.status().ToString().c_str());
        return 1;
      }
      if (k == 1 && (!r->cache_hit || r->matcache.hits < 1)) {
        std::printf("ERROR serve pass: warm request missed "
                    "(plan hit=%d, intermediate hits=%lld)\n",
                    r->cache_hit ? 1 : 0,
                    static_cast<long long>(r->matcache.hits));
        return 1;
      }
    }
    const ServiceStats stats = service.stats();
    std::printf("%-22s plan hits=%lld intermediate hits=%lld "
                "resident=%lld B\n",
                "gram (served)", static_cast<long long>(stats.cache.hits),
                static_cast<long long>(stats.matcache.hits),
                static_cast<long long>(stats.matcache.resident_bytes));
  }

  // Fusion equivalence pass: every benchmark algorithm must produce
  // exactly the same values with elementwise fusion on and off
  // (RunConfig::fuse_elementwise) — fusion is a pure perf rewrite. Also
  // asserts the fused runs actually avoided interior materializations,
  // so a silently never-firing pass fails the gate too.
  {
    Counter* bytes_avoided =
        MetricsRegistry::Global().GetCounter("remac.fusion.bytes_avoided");
    const int64_t avoided_before = bytes_avoided->Value();
    const std::vector<std::pair<std::string, std::string>> programs = {
        {"gd", GdScript("smoke", 3)},
        {"dfp", DfpScript("smoke", 3)},
        {"bfgs", BfgsScript("smoke", 3)},
        {"gnmf", GnmfScript("smoke", 8, 3)},
        {"logistic", LogisticRegressionScript("smoke", 3)},
        {"ridge", RidgeRegressionScript("smoke", 3)},
    };
    for (const auto& [name, source] : programs) {
      RunConfig fused = config;
      fused.executed_iterations = 1;
      fused.max_iterations = 3;
      RunConfig unfused = fused;
      unfused.fuse_elementwise = false;
      auto with = RunScript(source, SharedCatalog(), fused);
      auto without = RunScript(source, SharedCatalog(), unfused);
      if (!with.ok() || !without.ok()) {
        std::printf("ERROR fusion pass (%s): %s\n", name.c_str(),
                    (!with.ok() ? with : without).status().ToString().c_str());
        return 1;
      }
      for (const auto& [var, value] : with->env) {
        if (!SameValues(value.AsMatrix(),
                        without->env.at(var).AsMatrix())) {
          std::printf(
              "ERROR fusion pass: %s variable %s differs fused vs unfused\n",
              name.c_str(), var.c_str());
          return 1;
        }
      }
    }
    const int64_t avoided = bytes_avoided->Value() - avoided_before;
    if (avoided <= 0) {
      std::printf("ERROR fusion pass: no interior bytes avoided\n");
      return 1;
    }
    std::printf("%-22s programs=%zu bytes_avoided=%lld\n", "fusion (on==off)",
                programs.size(), static_cast<long long>(avoided));
  }
  return 0;
}
