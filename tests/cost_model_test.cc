#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "cost/cost_model.h"
#include "data/generators.h"
#include "lang/parser.h"
#include "plan/plan_builder.h"
#include "sparsity/estimator.h"

namespace remac {
namespace {

struct Fixture {
  DataCatalog catalog;
  MetadataEstimator estimator;
  ClusterModel cluster;
  std::unique_ptr<CostModel> model;

  Fixture() {
    DatasetSpec spec;
    spec.name = "ds";
    spec.rows = 50000;
    spec.cols = 64;
    spec.sparsity = 0.01;
    spec.seed = 3;
    EXPECT_TRUE(RegisterDataset(&catalog, spec).ok());
    model = std::make_unique<CostModel>(cluster, &estimator, &catalog);
  }
};

TEST(CostModel, DatasetStatsAreDistributed) {
  Fixture f;
  auto stats = f.model->DatasetStats("ds");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.rows, 50000);
  EXPECT_TRUE(stats->distributed);  // read() inputs live on the cluster
}

TEST(CostModel, UnknownDataset) {
  Fixture f;
  EXPECT_EQ(f.model->DatasetStats("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(CostModel, MatVecCheaperThanMatMat) {
  Fixture f;
  auto a = f.model->DatasetStats("ds").value();
  CostedStats vec;
  vec.stats.rows = 64;
  vec.stats.cols = 1;
  vec.stats.sparsity = 1.0;
  CostedStats mat;
  mat.stats.rows = 64;
  mat.stats.cols = 20000;
  mat.stats.sparsity = 1.0;
  mat.distributed = true;
  const double matvec = f.model->MultiplyCost(a, vec).seconds;
  const double matmat = f.model->MultiplyCost(a, mat).seconds;
  EXPECT_LT(matvec, matmat / 10.0);
}

TEST(CostModel, CostTreeAccumulatesOperators) {
  Fixture f;
  auto program = CompileScript(
      "A = read(\"ds\");\nv = t(A) %*% (A %*% zeros(64, 1));\n", f.catalog);
  ASSERT_TRUE(program.ok());
  auto propagated = PropagateProgramStats(*program, *f.model);
  ASSERT_TRUE(propagated.ok());
  const VarStats vars = std::move(propagated).value();
  auto whole = f.model->CostTree(*program->statements[1].plan, vars);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_GT(whole->seconds, 0.0);
  EXPECT_EQ(whole->stats.rows, 64);
  EXPECT_EQ(whole->stats.cols, 1);
}

TEST(CostModel, CostTreeMissingVariable) {
  Fixture f;
  VarStats vars;
  auto expr = ParseExpression("x");
  ASSERT_TRUE(expr.ok());
  PlanNodePtr plan = MakeInput("x", Shape{4, 4, false});
  EXPECT_EQ(f.model->CostTree(*plan, vars).status().code(),
            StatusCode::kNotFound);
}

TEST(CostModel, ScalarBroadcastCostsOnePass) {
  Fixture f;
  CostedStats scalar;
  scalar.stats.rows = 1;
  scalar.stats.cols = 1;
  CostedStats mat;
  mat.stats.rows = 1000;
  mat.stats.cols = 1000;
  mat.stats.sparsity = 1.0;
  const CostedStats out = f.model->ElementwiseCost(PlanOp::kMul, scalar, mat);
  EXPECT_EQ(out.stats.rows, 1000);
  EXPECT_GT(out.seconds, 0.0);
}

TEST(CostModel, PropagateProgramStats) {
  Fixture f;
  auto program = CompileScript(GdScript("ds", 5), f.catalog);
  ASSERT_TRUE(program.ok());
  auto vars = PropagateProgramStats(*program, *f.model);
  ASSERT_TRUE(vars.ok()) << vars.status().ToString();
  ASSERT_TRUE(vars->Contains("x"));
  ASSERT_TRUE(vars->Contains("g"));
  // After the sweeps, x reaches its dense steady state (x starts at
  // zeros but accumulates the dense gradient).
  EXPECT_EQ(vars->vars.at("x").stats.rows, 64);
  EXPECT_GT(vars->vars.at("x").stats.sparsity, 0.5);
}

TEST(CostModel, PropagateHandlesDfpLoopVariables) {
  Fixture f;
  auto program = CompileScript(DfpScript("ds", 5), f.catalog);
  ASSERT_TRUE(program.ok());
  auto vars = PropagateProgramStats(*program, *f.model);
  ASSERT_TRUE(vars.ok());
  // H starts as eye (sparsity 1/n) and densifies through the update.
  EXPECT_GT(vars->vars.at("H").stats.sparsity, 0.5);
  EXPECT_EQ(vars->vars.at("H").stats.rows, 64);
  EXPECT_EQ(vars->vars.at("d").stats.cols, 1);
}

TEST(CostModel, EstimatorChoiceChangesEstimates) {
  Fixture f;
  MncEstimator mnc;
  CostModel mnc_model(f.cluster, &mnc, &f.catalog);
  auto program = CompileScript(
      "A = read(\"ds\");\nB = t(A) %*% A;\n", f.catalog);
  ASSERT_TRUE(program.ok());
  auto propagated = PropagateProgramStats(*program, *f.model);
  ASSERT_TRUE(propagated.ok());
  const VarStats vars = std::move(propagated).value();
  auto md_cost = f.model->CostTree(*program->statements[1].plan, vars);
  auto mnc_cost = mnc_model.CostTree(*program->statements[1].plan, vars);
  ASSERT_TRUE(md_cost.ok());
  ASSERT_TRUE(mnc_cost.ok());
  // Both produce sane estimates; they generally differ on skewed data.
  EXPECT_GT(md_cost->seconds, 0.0);
  EXPECT_GT(mnc_cost->seconds, 0.0);
}

}  // namespace
}  // namespace remac
