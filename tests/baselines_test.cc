#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "baselines/engine_modes.h"
#include "baselines/spores_optimizer.h"
#include "baselines/systemds_optimizer.h"
#include "data/generators.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"
#include "sparsity/estimator.h"

namespace remac {
namespace {

DataCatalog BaselineCatalog() {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 300;
  spec.cols = 10;
  spec.sparsity = 0.5;
  spec.seed = 8;
  EXPECT_TRUE(RegisterDataset(&catalog, spec, true).ok());
  return catalog;
}

Matrix RunProgram(const CompiledProgram& program, const DataCatalog& catalog,
                  const std::string& var, int iterations,
                  EngineTraits traits = {}) {
  Executor executor(ClusterModel(), &catalog, nullptr, traits);
  EXPECT_TRUE(executor.Run(program.statements, iterations).ok());
  auto value = executor.Get(var);
  EXPECT_TRUE(value.ok()) << value.status().ToString();
  return value->AsMatrix();
}

TEST(SystemDs, ExplicitCseExtractsIdenticalSubtrees) {
  const DataCatalog catalog = BaselineCatalog();
  auto program = CompileScript(
      "A = read(\"ds\");\n"
      "v = read(\"ds_pd\");\n"
      "p = t(A) %*% (A %*% v);\n"
      "q = t(A) %*% (A %*% v) + v;\n",
      catalog);
  ASSERT_TRUE(program.ok());
  MetadataEstimator estimator;
  auto optimized =
      SystemDsOptimize(*program, ClusterModel(), &estimator, &catalog);
  ASSERT_TRUE(optimized.ok());
  int temps = 0;
  for (const auto& stmt : optimized->statements) temps += stmt.is_temp;
  EXPECT_GE(temps, 1);  // the repeated t(A)(Av) became a temp
  // Numerics preserved.
  const Matrix expected = RunProgram(*program, catalog, "q", 1);
  EXPECT_TRUE(
      RunProgram(*optimized, catalog, "q", 1).ApproxEquals(expected, 1e-9));
}

/// Products that differ only in a constant %g renders alike are not
/// common subexpressions: c = a - b is what the script as written gives.
TEST(SystemDs, CseTellsNearbyConstantsApart) {
  const DataCatalog catalog = BaselineCatalog();
  auto program = CompileScript(
      "X = read(\"ds\");\n"
      "a = sum(t(X * 0.1234561) %*% X);\n"
      "b = sum(t(X * 0.1234564) %*% X);\n"
      "c = a - b;\n",
      catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  MetadataEstimator estimator;
  auto optimized =
      SystemDsOptimize(*program, ClusterModel(), &estimator, &catalog);
  ASSERT_TRUE(optimized.ok());
  for (const auto& stmt : optimized->statements) EXPECT_FALSE(stmt.is_temp);
  const Matrix as_written = RunProgram(*program, catalog, "c", 1);
  const Matrix got = RunProgram(*optimized, catalog, "c", 1);
  ASSERT_NE(as_written.At(0, 0), 0.0);
  EXPECT_EQ(got.At(0, 0), as_written.At(0, 0));
}

TEST(SystemDs, CseRespectsVariableVersions) {
  const DataCatalog catalog = BaselineCatalog();
  // The same text (B %*% v) appears before and after B changes; it must
  // NOT be unified.
  auto program = CompileScript(
      "B = eye(4);\n"
      "v = ones(4, 1);\n"
      "p = B %*% v;\n"
      "B = B + B;\n"
      "q = B %*% v;\n",
      catalog);
  ASSERT_TRUE(program.ok());
  MetadataEstimator estimator;
  auto optimized =
      SystemDsOptimize(*program, ClusterModel(), &estimator, &catalog);
  ASSERT_TRUE(optimized.ok());
  const Matrix p = RunProgram(*optimized, catalog, "p", 1);
  const Matrix q = RunProgram(*optimized, catalog, "q", 1);
  EXPECT_NEAR(p.At(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(q.At(0, 0), 2.0, 1e-12);
}

TEST(SystemDs, ChainReorderingPreservesValues) {
  const DataCatalog catalog = BaselineCatalog();
  auto program = CompileScript(DfpScript("ds", 3), catalog);
  ASSERT_TRUE(program.ok());
  MetadataEstimator estimator;
  const Matrix expected = RunProgram(*program, catalog, "x", 3);
  for (bool cse : {true, false}) {
    SystemDsConfig config;
    config.explicit_cse = cse;
    auto optimized = SystemDsOptimize(*program, ClusterModel(), &estimator,
                                      &catalog, config);
    ASSERT_TRUE(optimized.ok());
    EXPECT_TRUE(RunProgram(*optimized, catalog, "x", 3)
                    .ApproxEquals(expected, 1e-8))
        << "explicit_cse=" << cse;
  }
}

TEST(SystemDs, NoLoopConstantHoisting) {
  // SystemDS does not support LSE: nothing may move out of the loop.
  const DataCatalog catalog = BaselineCatalog();
  auto program = CompileScript(GdScript("ds", 3), catalog);
  ASSERT_TRUE(program.ok());
  MetadataEstimator estimator;
  auto optimized =
      SystemDsOptimize(*program, ClusterModel(), &estimator, &catalog);
  ASSERT_TRUE(optimized.ok());
  size_t preamble_original = 0;
  size_t preamble_optimized = 0;
  for (const auto& stmt : program->statements) {
    preamble_original += stmt.kind == CompiledStmt::Kind::kAssign;
  }
  for (const auto& stmt : optimized->statements) {
    preamble_optimized += stmt.kind == CompiledStmt::Kind::kAssign;
  }
  EXPECT_EQ(preamble_original, preamble_optimized);
}

TEST(Spores, FindsSomeCseNoLse) {
  const DataCatalog catalog = BaselineCatalog();
  auto program = CompileScript(DfpScript("ds", 3), catalog);
  ASSERT_TRUE(program.ok());
  MetadataEstimator estimator;
  OptimizeReport report;
  auto optimized = SporesOptimize(*program, ClusterModel(), &estimator,
                                  &catalog, SporesConfig{}, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.applied_lse, 0);  // SPORES has no loop analysis
  const Matrix expected =
      RunProgram(*CompileScript(DfpScript("ds", 3), catalog), catalog, "x", 3);
  EXPECT_TRUE(
      RunProgram(*optimized, catalog, "x", 3).ApproxEquals(expected, 1e-8));
}

TEST(EngineModes, TraitsMatchPaperDescriptions) {
  const EngineTraits sysds = TraitsFor(EngineKind::kSystemDsLike);
  EXPECT_FALSE(sysds.force_dense);
  EXPECT_FALSE(sysds.force_distributed);
  const EngineTraits pbdr = TraitsFor(EngineKind::kPbdR);
  EXPECT_TRUE(pbdr.force_dense);
  EXPECT_TRUE(pbdr.force_distributed);
  const EngineTraits scidb = TraitsFor(EngineKind::kSciDb);
  EXPECT_TRUE(scidb.force_distributed);
  EXPECT_GT(scidb.input_partition_factor, pbdr.input_partition_factor);
}

TEST(EngineModes, ForcedDenseStillCorrect) {
  const DataCatalog catalog = BaselineCatalog();
  auto program = CompileScript(GdScript("ds", 3), catalog);
  ASSERT_TRUE(program.ok());
  const Matrix expected = RunProgram(*program, catalog, "x", 3);
  const Matrix pbdr = RunProgram(*program, catalog, "x", 3,
                                 TraitsFor(EngineKind::kPbdR));
  EXPECT_TRUE(pbdr.ApproxEquals(expected, 1e-9));
}

TEST(EngineModes, ForcedDistributedBooksMoreTransmission) {
  const DataCatalog catalog = BaselineCatalog();
  auto program = CompileScript(GdScript("ds", 3), catalog);
  ASSERT_TRUE(program.ok());
  ClusterModel model;
  TransmissionLedger local_ledger(model);
  Executor local_exec(model, &catalog, &local_ledger);
  ASSERT_TRUE(local_exec.Run(program->statements, 3).ok());
  TransmissionLedger dist_ledger(model);
  Executor dist_exec(model, &catalog, &dist_ledger,
                     TraitsFor(EngineKind::kPbdR));
  ASSERT_TRUE(dist_exec.Run(program->statements, 3).ok());
  EXPECT_GT(dist_ledger.Breakdown().transmission_seconds,
            local_ledger.Breakdown().transmission_seconds);
}

}  // namespace
}  // namespace remac
