// Failure-injection and robustness tests: error paths, graceful
// degradation, and the extended estimator/visualization surfaces.

#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "plan/plan_dot.h"
#include "runtime/program_runner.h"
#include "sparsity/estimator.h"

namespace remac {
namespace {

DataCatalog RobustCatalog() {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 120;
  spec.cols = 9;
  spec.sparsity = 0.5;
  spec.seed = 31;
  EXPECT_TRUE(RegisterDataset(&catalog, spec).ok());
  return catalog;
}

TEST(Robustness, NestedLoopsPassThroughUnoptimized) {
  const DataCatalog catalog = RobustCatalog();
  const std::string script =
      "A = read(\"ds\");\n"
      "x = ones(ncol(A), 1);\n"
      "i = 0;\n"
      "while (i < 2) {\n"
      "  j = 0;\n"
      "  while (j < 2) {\n"
      "    x = x + 0.001 * (t(A) %*% (A %*% x));\n"
      "    j = j + 1;\n"
      "  }\n"
      "  i = i + 1;\n"
      "}\n";
  RunConfig reference;
  reference.optimizer = OptimizerKind::kAsWritten;
  auto expected = RunScript(script, catalog, reference);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  auto run = RunScript(script, catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();  // no failure, no opt
  EXPECT_TRUE(run->env.at("x").AsMatrix().ApproxEquals(
      expected->env.at("x").AsMatrix(), 1e-9));
}

TEST(Robustness, MissingDatasetSurfacesNotFound) {
  const DataCatalog catalog = RobustCatalog();
  RunConfig config;
  auto run = RunScript("A = read(\"ghost\");\n", catalog, config);
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST(Robustness, ParseErrorsSurfaceCleanly) {
  const DataCatalog catalog = RobustCatalog();
  RunConfig config;
  auto run = RunScript("x = ;\n", catalog, config);
  EXPECT_EQ(run.status().code(), StatusCode::kParseError);
}

TEST(Robustness, DimensionMismatchSurfaceCleanly) {
  const DataCatalog catalog = RobustCatalog();
  RunConfig config;
  auto run = RunScript("A = read(\"ds\");\nB = A %*% A;\n", catalog, config);
  EXPECT_EQ(run.status().code(), StatusCode::kDimensionMismatch);
}

TEST(Robustness, ZeroIterationLoopStillValid) {
  const DataCatalog catalog = RobustCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  auto run = RunScript(
      "A = read(\"ds\");\nx = ones(9, 1);\ni = 0;\n"
      "while (i < 0) {\n  x = t(A) %*% (A %*% x);\n  i = i + 1;\n}\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_DOUBLE_EQ(run->env.at("x").AsMatrix().At(0, 0), 1.0);  // untouched
}

TEST(Robustness, EmptyProgram) {
  const DataCatalog catalog = RobustCatalog();
  RunConfig config;
  auto run = RunScript("", catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->env.empty());
}

TEST(SamplingEstimator, ProducesUsableEstimatesAndRunsEndToEnd) {
  const DataCatalog catalog = RobustCatalog();
  const SamplingEstimator estimator(16);
  const MatrixStats& stats = *catalog.Stats("ds").value();
  const NodeStats leaf = estimator.LeafStats("ds", stats);
  EXPECT_NEAR(leaf.sparsity, stats.sparsity, 1e-9);
  const NodeStats product =
      estimator.Multiply(estimator.Transpose(leaf), leaf);
  EXPECT_GT(product.sparsity, 0.0);
  EXPECT_LE(product.sparsity, 1.0);

  RunConfig reference;
  reference.optimizer = OptimizerKind::kAsWritten;
  reference.max_iterations = 3;
  auto expected = RunScript(DfpScript("ds", 3), catalog, reference);
  ASSERT_TRUE(expected.ok());
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.estimator = EstimatorKind::kSampling;
  config.max_iterations = 3;
  auto run = RunScript(DfpScript("ds", 3), catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->env.at("x").AsMatrix().ApproxEquals(
      expected->env.at("x").AsMatrix(), 1e-7));
}

TEST(PlanDot, RendersProgramStructure) {
  const DataCatalog catalog = RobustCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.max_iterations = 3;
  config.execute = false;
  auto run = CompileOnly(GdScript("ds", 3), catalog, config);
  ASSERT_TRUE(run.ok());
  ASSERT_NE(run->optimized_program, nullptr);
  const std::string dot = ProgramToDot(*run->optimized_program);
  EXPECT_NE(dot.find("digraph program"), std::string::npos);
  EXPECT_NE(dot.find("read(ds)"), std::string::npos);
  EXPECT_NE(dot.find("label=\"loop\""), std::string::npos);
  EXPECT_NE(dot.find("%*%"), std::string::npos);
  // Balanced braces (structurally valid DOT).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(PlanDot, SinglePlanRender) {
  const DataCatalog catalog = RobustCatalog();
  auto program = CompileScript(
      "A = read(\"ds\");\ny = t(A) %*% (A %*% ones(9, 1));\n", catalog);
  ASSERT_TRUE(program.ok());
  const std::string dot =
      PlanToDot(*program->statements[1].plan, "example");
  EXPECT_NE(dot.find("digraph plan"), std::string::npos);
  EXPECT_NE(dot.find("example"), std::string::npos);
  EXPECT_NE(dot.find("9x1"), std::string::npos);
}

}  // namespace
}  // namespace remac
