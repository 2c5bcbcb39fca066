#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "core/block_search.h"
#include "core/cost_graph.h"
#include "core/dp_prober.h"
#include "core/enumerator.h"
#include "core/strategies.h"
#include "data/generators.h"
#include "plan/plan_builder.h"
#include "sparsity/estimator.h"

namespace remac {
namespace {

struct ProbeFixture {
  DataCatalog catalog;
  CompiledProgram program;
  SearchSpace space;
  std::vector<EliminationOption> options;
  MetadataEstimator estimator;
  std::unique_ptr<CostModel> cost_model;
  VarStats vars;
  std::unique_ptr<CostGraph> graph;

  explicit ProbeFixture(const std::string& script) {
    DatasetSpec spec;
    spec.name = "ds";
    spec.rows = 40000;
    spec.cols = 32;
    spec.sparsity = 0.02;
    spec.seed = 5;
    EXPECT_TRUE(RegisterDataset(&catalog, spec).ok());
    program = CompileScript(script, catalog).value();
    LoopStructure loop = FindLoop(program);
    auto outputs = InlineLoopBody(loop.loop->body).value();
    space = BuildSearchSpace(outputs, loop.loop_assigned,
                             InferSymmetricVars(loop))
                .value();
    options = BlockWiseSearch(space, nullptr);
    cost_model = std::make_unique<CostModel>(ClusterModel(), &estimator,
                                             &catalog);
    vars = PropagateProgramStats(program, *cost_model).value();
    graph = std::make_unique<CostGraph>(&space, cost_model.get(), &vars, 20);
    EXPECT_TRUE(graph->Build().ok());
  }

  double Cost(const std::vector<const EliminationOption*>& combo) const {
    return graph->Evaluate(combo).value().per_iteration_seconds;
  }
};

TEST(AdaptiveProbe, NeverWorseThanBaseline) {
  ProbeFixture f(DfpScript("ds", 20));
  ProbeReport report;
  auto chosen = AdaptiveProbe(*f.graph, f.options, &report);
  ASSERT_TRUE(chosen.ok());
  EXPECT_LE(report.chosen_cost, report.baseline_cost + 1e-12);
  EXPECT_GT(report.evaluations, 0);
  // The returned set evaluates to the reported cost.
  EXPECT_NEAR(f.Cost(chosen.value()), report.chosen_cost, 1e-12);
}

TEST(AdaptiveProbe, ChosenSetIsConflictFree) {
  ProbeFixture f(BfgsScript("ds", 20));
  auto chosen = AdaptiveProbe(*f.graph, f.options, nullptr);
  ASSERT_TRUE(chosen.ok());
  for (size_t i = 0; i < chosen->size(); ++i) {
    for (size_t j = i + 1; j < chosen->size(); ++j) {
      EXPECT_FALSE(OptionsConflict(*(*chosen)[i], *(*chosen)[j]));
    }
  }
}

TEST(AdaptiveProbe, LocallyOptimal) {
  // No remaining compatible option can improve the chosen set further.
  ProbeFixture f(DfpScript("ds", 20));
  auto chosen = AdaptiveProbe(*f.graph, f.options, nullptr);
  ASSERT_TRUE(chosen.ok());
  const double final_cost = f.Cost(chosen.value());
  for (const auto& opt : f.options) {
    bool in_or_conflicting = false;
    for (const auto* picked : chosen.value()) {
      if (picked == &opt || OptionsConflict(*picked, opt)) {
        in_or_conflicting = true;
        break;
      }
    }
    if (in_or_conflicting) continue;
    auto combo = chosen.value();
    combo.push_back(&opt);
    auto cost = f.graph->Evaluate(combo);
    if (!cost.ok()) continue;
    EXPECT_GE(cost->per_iteration_seconds, final_cost - 1e-12)
        << "probe missed improving option " << opt.ToString();
  }
}

TEST(Enumerate, ExhaustiveOnSmallSetsMatchesOrBeatsGreedy) {
  ProbeFixture f(GdScript("ds", 20));
  ASSERT_LE(f.options.size(), 12u) << "GD option set should be small";
  ProbeReport dp_report;
  auto dp = AdaptiveProbe(*f.graph, f.options, &dp_report);
  ASSERT_TRUE(dp.ok());
  ProbeReport enum_report;
  auto best = EnumerateCombinations(*f.graph, f.options, true, 1000000,
                                    &enum_report);
  ASSERT_TRUE(best.ok());
  // Exhaustive enumeration is optimal; greedy DP must be within a small
  // factor (and is usually identical).
  EXPECT_LE(enum_report.chosen_cost, dp_report.chosen_cost + 1e-12);
  EXPECT_LE(dp_report.chosen_cost, enum_report.chosen_cost * 1.25);
}

TEST(Enumerate, DepthAndBreadthFindSameOptimum) {
  ProbeFixture f(GdScript("ds", 20));
  ProbeReport df;
  ProbeReport bf;
  ASSERT_TRUE(
      EnumerateCombinations(*f.graph, f.options, true, 1000000, &df).ok());
  ASSERT_TRUE(
      EnumerateCombinations(*f.graph, f.options, false, 1000000, &bf).ok());
  EXPECT_NEAR(df.chosen_cost, bf.chosen_cost, 1e-12);
}

TEST(Enumerate, BudgetCapsEvaluations) {
  ProbeFixture f(DfpScript("ds", 20));
  ProbeReport report;
  ASSERT_TRUE(
      EnumerateCombinations(*f.graph, f.options, true, 50, &report).ok());
  EXPECT_LE(report.evaluations, 52);
}

TEST(Enumerate, ExploresFarMoreThanDp) {
  ProbeFixture f(DfpScript("ds", 20));
  ProbeReport dp_report;
  ASSERT_TRUE(AdaptiveProbe(*f.graph, f.options, &dp_report).ok());
  ProbeReport enum_report;
  ASSERT_TRUE(EnumerateCombinations(*f.graph, f.options, true, 100000,
                                    &enum_report)
                  .ok());
  // The combinatorial explosion: Enum burns its whole budget.
  EXPECT_GT(enum_report.evaluations, dp_report.evaluations * 5);
}

TEST(Strategies, ConservativeOnlyOrderPreservingAndNeverWorse) {
  ProbeFixture f(DfpScript("ds", 20));
  ProbeReport report;
  auto chosen = ConservativePick(*f.graph, f.options, &report);
  ASSERT_TRUE(chosen.ok());
  for (const auto* opt : chosen.value()) {
    EXPECT_TRUE(PreservesOriginalOrder(*f.graph, *opt)) << opt->ToString();
  }
  EXPECT_LE(report.chosen_cost, report.baseline_cost + 1e-12);
}

TEST(Strategies, AggressiveAppliesMoreThanConservative) {
  ProbeFixture f(DfpScript("ds", 20));
  auto conservative = ConservativePick(*f.graph, f.options, nullptr);
  auto aggressive = AggressivePick(*f.graph, f.options, nullptr);
  ASSERT_TRUE(conservative.ok());
  ASSERT_TRUE(aggressive.ok());
  EXPECT_GE(aggressive->size(), conservative->size());
}

TEST(Strategies, AdaptiveBeatsOrMatchesBothStrategies) {
  for (const char* algo : {"dfp", "bfgs"}) {
    ProbeFixture f(algo == std::string("dfp") ? DfpScript("ds", 20)
                                              : BfgsScript("ds", 20));
    ProbeReport cons;
    ProbeReport aggr;
    ProbeReport adap;
    ASSERT_TRUE(ConservativePick(*f.graph, f.options, &cons).ok());
    ASSERT_TRUE(AggressivePick(*f.graph, f.options, &aggr).ok());
    ASSERT_TRUE(AdaptiveProbe(*f.graph, f.options, &adap).ok());
    EXPECT_LE(adap.chosen_cost,
              std::min(cons.chosen_cost, aggr.chosen_cost) + 1e-9)
        << algo;
  }
}

}  // namespace
}  // namespace remac
