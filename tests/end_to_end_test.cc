// Integration tests: every optimizer path x every algorithm must produce
// the same numbers, and the qualitative performance relationships the
// paper reports must hold on the simulated cluster.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "runtime/program_runner.h"

namespace remac {
namespace {

const DataCatalog& E2ECatalog() {
  static DataCatalog* catalog = [] {
    auto* c = new DataCatalog();
    DatasetSpec spec;
    spec.name = "ds";
    spec.rows = 400;
    spec.cols = 12;
    spec.sparsity = 0.4;
    spec.seed = 10;
    EXPECT_TRUE(RegisterDataset(c, spec, true).ok());
    return c;
  }();
  return *catalog;
}

struct Case {
  const char* name;
  std::string script;
  const char* check_var;
  // GNMF's multiplicative updates amplify benign float-reassociation
  // differences between equivalent plans, so it gets a looser tolerance.
  double tolerance;
};

std::vector<Case> Cases() {
  return {
      {"GD", GdScript("ds", 4), "x", 1e-6},
      {"DFP", DfpScript("ds", 4), "x", 1e-6},
      {"BFGS", BfgsScript("ds", 4), "x", 1e-6},
      {"GNMF", GnmfScript("ds", 3, 4), "W", 1e-3},
      {"partialDFP", PartialDfpScript("ds"), "val", 1e-6},
  };
}

class OptimizerEquivalenceTest
    : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerEquivalenceTest, AllAlgorithmsMatchReference) {
  const OptimizerKind kind = GetParam();
  for (const Case& c : Cases()) {
    RunConfig reference_config;
    reference_config.optimizer = OptimizerKind::kAsWritten;
    reference_config.max_iterations = 4;
    auto reference = RunScript(c.script, E2ECatalog(), reference_config);
    ASSERT_TRUE(reference.ok()) << c.name;
    RunConfig config;
    config.optimizer = kind;
    config.max_iterations = 4;
    auto run = RunScript(c.script, E2ECatalog(), config);
    ASSERT_TRUE(run.ok()) << c.name << "/" << OptimizerKindName(kind) << ": "
                          << run.status().ToString();
    EXPECT_TRUE(run->env.at(c.check_var)
                    .AsMatrix()
                    .ApproxEquals(reference->env.at(c.check_var).AsMatrix(),
                                  c.tolerance))
        << c.name << " diverged under " << OptimizerKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOptimizers, OptimizerEquivalenceTest,
    ::testing::Values(OptimizerKind::kSystemDs, OptimizerKind::kSystemDsNoCse,
                      OptimizerKind::kSpores, OptimizerKind::kRemacNone,
                      OptimizerKind::kRemacAutomatic,
                      OptimizerKind::kRemacConservative,
                      OptimizerKind::kRemacAggressive,
                      OptimizerKind::kRemacAdaptive),
    [](const ::testing::TestParamInfo<OptimizerKind>& info) {
      std::string name = OptimizerKindName(info.param);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

class EstimatorEquivalenceTest
    : public ::testing::TestWithParam<EstimatorKind> {};

TEST_P(EstimatorEquivalenceTest, EstimatorNeverChangesResults) {
  RunConfig reference_config;
  reference_config.optimizer = OptimizerKind::kAsWritten;
  reference_config.max_iterations = 3;
  auto reference =
      RunScript(DfpScript("ds", 3), E2ECatalog(), reference_config);
  ASSERT_TRUE(reference.ok());
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.estimator = GetParam();
  config.max_iterations = 3;
  auto run = RunScript(DfpScript("ds", 3), E2ECatalog(), config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->env.at("x").AsMatrix().ApproxEquals(
      reference->env.at("x").AsMatrix(), 1e-6));
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, EstimatorEquivalenceTest,
                         ::testing::Values(EstimatorKind::kMetadata,
                                           EstimatorKind::kMnc,
                                           EstimatorKind::kExact),
                         [](const auto& info) {
                           return EstimatorKindName(info.param);
                         });

TEST(EndToEnd, ExecutedIterationCapKeepsPrefixSemantics) {
  RunConfig full;
  full.optimizer = OptimizerKind::kRemacAdaptive;
  full.max_iterations = 2;
  auto two = RunScript(DfpScript("ds", 2), E2ECatalog(), full);
  ASSERT_TRUE(two.ok());
  RunConfig capped;
  capped.optimizer = OptimizerKind::kRemacAdaptive;
  capped.max_iterations = 50;  // optimizer horizon differs
  capped.executed_iterations = 2;
  auto capped_run = RunScript(DfpScript("ds", 50), E2ECatalog(), capped);
  ASSERT_TRUE(capped_run.ok());
  EXPECT_TRUE(capped_run->env.at("x").AsMatrix().ApproxEquals(
      two->env.at("x").AsMatrix(), 1e-6));
}

TEST(EndToEnd, AdaptiveSimulatedTimeBeatsBlindStrategies) {
  // On a skew-prone sparse dataset large enough for distribution effects:
  // adaptive <= min(conservative, aggressive) in simulated time.
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "mid";
  spec.rows = 30000;
  spec.cols = 64;
  spec.sparsity = 0.01;
  spec.zipf_rows = 1.0;
  spec.zipf_cols = 1.0;
  spec.seed = 123;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  auto execution_seconds = [&](OptimizerKind kind) {
    RunConfig config;
    config.optimizer = kind;
    config.max_iterations = 10;
    auto run = RunScript(DfpScript("mid", 10), catalog, config);
    EXPECT_TRUE(run.ok()) << OptimizerKindName(kind);
    return run->breakdown.TotalSeconds();
  };
  const double adaptive = execution_seconds(OptimizerKind::kRemacAdaptive);
  const double conservative =
      execution_seconds(OptimizerKind::kRemacConservative);
  const double aggressive =
      execution_seconds(OptimizerKind::kRemacAggressive);
  const double systemds = execution_seconds(OptimizerKind::kSystemDs);
  EXPECT_LE(adaptive, conservative * 1.05);
  EXPECT_LE(adaptive, aggressive * 1.05);
  EXPECT_LT(adaptive, systemds);  // the paper's headline
}

TEST(EndToEnd, PbdRAndSciDbSlowerThanSystemDs) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "dense";
  spec.rows = 30000;
  spec.cols = 24;
  spec.sparsity = 0.6;
  spec.seed = 124;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  auto simulated = [&](OptimizerKind kind, EngineKind engine) {
    RunConfig config;
    config.optimizer = kind;
    config.engine = engine;
    config.max_iterations = 5;
    config.count_input_partition = true;
    auto run = RunScript(GdScript("dense", 5), catalog, config);
    EXPECT_TRUE(run.ok());
    return run->breakdown.TotalSeconds();
  };
  const double systemds =
      simulated(OptimizerKind::kSystemDs, EngineKind::kSystemDsLike);
  const double pbdr = simulated(OptimizerKind::kAsWritten, EngineKind::kPbdR);
  const double scidb =
      simulated(OptimizerKind::kAsWritten, EngineKind::kSciDb);
  EXPECT_LT(systemds, pbdr);
  EXPECT_LT(systemds, scidb);
}

TEST(EndToEnd, SimulatedTotalExcludesCompileWallTime) {
  // Compile wall time differs from run to run; the simulated breakdown
  // must not, so two runs of one script give bit-identical totals.
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.max_iterations = 3;
  auto first = RunScript(DfpScript("ds", 3), E2ECatalog(), config);
  auto second = RunScript(DfpScript("ds", 3), E2ECatalog(), config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->compile_wall_seconds, 0.0);
  EXPECT_GT(first->breakdown.TotalSeconds(), 0.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(first->breakdown.TotalSeconds()),
            std::bit_cast<uint64_t>(second->breakdown.TotalSeconds()));
}

TEST(EndToEnd, OptimizedSourceIsReexecutable) {
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.max_iterations = 3;
  auto run = RunScript(DfpScript("ds", 3), E2ECatalog(), config);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->optimized_source.empty());
  EXPECT_NE(run->optimized_source.find("while"), std::string::npos);
}

}  // namespace
}  // namespace remac
