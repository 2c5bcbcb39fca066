// Tests for the benchmark harness's extrapolated measurement: the
// simulated loop time must scale linearly in iterations, so running
// 1 and 2 real iterations and extrapolating to N must agree with an
// actual N-iteration run.

#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "bench/harness.h"
#include "data/generators.h"

namespace remac {
namespace {

TEST(Harness, ExtrapolationMatchesFullRun) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "hx";
  spec.rows = 3000;
  spec.cols = 40;
  spec.sparsity = 0.05;
  spec.seed = 91;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  const int iterations = 9;
  const std::string script = GdScript("hx", iterations);

  // Full run: execute all iterations for real.
  RunConfig full;
  full.optimizer = OptimizerKind::kRemacAdaptive;
  full.max_iterations = iterations;
  auto full_run = RunScript(script, catalog, full);
  ASSERT_TRUE(full_run.ok());
  const double full_loop = full_run->breakdown.computation_seconds +
                           full_run->breakdown.transmission_seconds;

  // Extrapolated: T(1) + (N-1)(T(2)-T(1)).
  auto measure = [&](int executed) {
    RunConfig config = full;
    config.executed_iterations = executed;
    auto run = RunScript(script, catalog, config);
    EXPECT_TRUE(run.ok());
    return run->breakdown.computation_seconds +
           run->breakdown.transmission_seconds;
  };
  const double t1 = measure(1);
  const double t2 = measure(2);
  const double extrapolated = t1 + (iterations - 1) * (t2 - t1);
  EXPECT_NEAR(extrapolated, full_loop, full_loop * 0.02 + 1e-9);
}

TEST(Harness, MeasureScriptReportsComponents) {
  DataCatalog& catalog = bench::SharedCatalog();
  if (!catalog.Contains("hx2")) {
    DatasetSpec spec;
    spec.name = "hx2";
    spec.rows = 2000;
    spec.cols = 30;
    spec.sparsity = 0.1;
    spec.seed = 92;
    ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  }
  RunConfig config;
  config.optimizer = OptimizerKind::kSystemDs;
  auto m = bench::MeasureScript(GdScript("hx2", 50), config, 50);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GT(m->execution_seconds, 0.0);
  EXPECT_GT(m->compile_wall_seconds, 0.0);
  EXPECT_NEAR(m->execution_seconds,
              m->breakdown.computation_seconds +
                  m->breakdown.transmission_seconds +
                  m->breakdown.input_partition_seconds,
              1e-12);
}

TEST(Harness, LongerHorizonAmortizesLse) {
  DataCatalog& catalog = bench::SharedCatalog();
  if (!catalog.Contains("hx3")) {
    DatasetSpec spec;
    spec.name = "hx3";
    spec.rows = 20000;
    spec.cols = 64;
    spec.sparsity = 0.01;
    spec.seed = 93;
    ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  }
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  auto short_run = bench::MeasureScript(GdScript("hx3", 5), config, 5);
  auto long_run = bench::MeasureScript(GdScript("hx3", 200), config, 200);
  ASSERT_TRUE(short_run.ok());
  ASSERT_TRUE(long_run.ok());
  // Per-iteration cost shrinks with the horizon (hoisted productions
  // amortize across more iterations).
  EXPECT_LT(long_run->execution_seconds / 200.0,
            short_run->execution_seconds / 5.0 + 1e-12);
}

}  // namespace
}  // namespace remac
