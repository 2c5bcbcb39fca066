#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "cluster/transmission_ledger.h"
#include "cost/cost_model.h"
#include "data/generators.h"
#include "lang/parser.h"
#include "obs/cost_audit.h"
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
  VarStats vars;
  CostedStats& mat = vars.vars["M"];
  mat.stats.rows = 1000;
  mat.stats.cols = 1000;
  mat.stats.sparsity = 1.0;
  const PlanNodePtr plan = MakeBinary(PlanOp::kMul, MakeConst(2),
                                      MakeInput("M", Shape{1000, 1000, false}));
  auto out = f.model->CostTree(*plan, vars);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stats.rows, 1000);
  EXPECT_GT(out->seconds, 0.0);
}

// Simulated seconds of a predicted charge, as the ledger converts it.
double BookedSeconds(const PredictedCost& charge, const ClusterModel& model) {
  TransmissionLedger ledger(model);
  ledger.AddLocalFlops(charge.local_flops);
  ledger.AddDistributedFlops(charge.distributed_flops);
  for (size_t i = 0; i < charge.bytes.size(); ++i) {
    ledger.AddTransmission(static_cast<TransmissionPrimitive>(i),
                           charge.bytes[i]);
  }
  return ledger.Breakdown().TotalSeconds();
}

TEST(CostModel, CostTreePricesWhatTheEngineBooks) {
  // The optimizer's price of a statement is the cost audit's prediction
  // of what the engine books for it, op by op.
  Fixture f;
  const std::vector<std::string> statements = {
      "y = norm(read(\"ds\"));",
      "y = trace(t(read(\"ds\")) %*% read(\"ds\"));",
      "y = exp(read(\"ds\"));",
      "y = log(read(\"ds\"));",
      "y = sqrt(sum(read(\"ds\")));",
      "y = abs(sum(read(\"ds\")));",
      "y = diag(t(read(\"ds\")) %*% read(\"ds\"));",
      "y = eye(64);",
      "y = zeros(64, 3);",
      "y = rand(64, 3);",
  };
  for (const std::string& statement : statements) {
    SCOPED_TRACE(statement);
    auto program = CompileScript(statement + "\n", f.catalog);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto priced = f.model->CostTree(*program->statements[0].plan, VarStats{});
    ASSERT_TRUE(priced.ok()) << priced.status().ToString();
    auto booked = PredictProgramCost(*program, f.catalog, f.estimator,
                                     f.cluster, EngineTraits{}, 1);
    ASSERT_TRUE(booked.ok()) << booked.status().ToString();
    EXPECT_DOUBLE_EQ(priced->seconds, BookedSeconds(*booked, f.cluster));
  }
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
