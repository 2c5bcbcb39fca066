#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "core/block_search.h"
#include "core/cost_graph.h"
#include "data/generators.h"
#include "plan/plan_builder.h"
#include "sparsity/estimator.h"

namespace remac {
namespace {

/// Full optimizer front-end up to the cost graph.
struct GraphFixture {
  DataCatalog catalog;
  CompiledProgram program;
  SearchSpace space;
  std::vector<EliminationOption> options;
  MetadataEstimator estimator;
  std::unique_ptr<CostModel> cost_model;
  VarStats vars;
  std::unique_ptr<CostGraph> graph;

  explicit GraphFixture(const std::string& script, int iterations = 10) {
    DatasetSpec spec;
    spec.name = "ds";
    spec.rows = 40000;
    spec.cols = 32;
    spec.sparsity = 0.02;
    spec.seed = 4;
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
    graph = std::make_unique<CostGraph>(&space, cost_model.get(), &vars,
                                        iterations);
    EXPECT_TRUE(graph->Build().ok());
  }

  const EliminationOption* ByKey(const std::string& key,
                                 OptionKind kind) const {
    for (const auto& opt : options) {
      if (opt.key == key && opt.kind == kind) return &opt;
    }
    return nullptr;
  }
};

TEST(CostGraph, IntervalStatsShapes) {
  GraphFixture f(GdScript("ds", 10));
  // Find the A^T A x block (3 factors).
  for (size_t b = 0; b < f.space.blocks.size(); ++b) {
    const Block& block = f.space.blocks[b];
    if (block.Length() == 3) {
      const CostedStats& whole =
          f.graph->IntervalStats(static_cast<int>(b), 0, 3);
      EXPECT_EQ(whole.stats.rows, 32);
      EXPECT_EQ(whole.stats.cols, 1);
      const CostedStats& ata =
          f.graph->IntervalStats(static_cast<int>(b), 0, 2);
      EXPECT_EQ(ata.stats.rows, 32);
      EXPECT_EQ(ata.stats.cols, 32);
    }
  }
}

TEST(CostGraph, ChainDpPicksMatVecOrder) {
  GraphFixture f(GdScript("ds", 10));
  // For the chain A^T A x, right-to-left (two mat-vecs) beats computing
  // A^T A first; the default split must reflect that.
  for (size_t b = 0; b < f.space.blocks.size(); ++b) {
    const Block& block = f.space.blocks[b];
    if (block.Length() != 3) continue;
    const SplitNode* split = f.graph->DefaultSplit(static_cast<int>(b));
    ASSERT_NE(split, nullptr);
    // Root splits after the first factor: A^T (A x).
    EXPECT_EQ(split->left->range.end, 1);
  }
}

TEST(CostGraph, PlainCostDecreasingInUnits) {
  GraphFixture f(DfpScript("ds", 10));
  // Contracting any interval to a free temp can only reduce chain cost.
  for (size_t b = 0; b < f.space.blocks.size(); ++b) {
    const Block& block = f.space.blocks[b];
    if (block.Length() < 3) continue;
    const int n = static_cast<int>(block.Length());
    const double plain = f.graph->PlainIntervalCost(static_cast<int>(b), 0, n);
    const double contracted = f.graph->ChainCostWithUnits(
        static_cast<int>(b), 0, n, {{Interval{0, 2}, 99}}, nullptr);
    EXPECT_LE(contracted, plain + 1e-12);
  }
}

TEST(CostGraph, EvaluateEmptyIsBaseline) {
  GraphFixture f(GdScript("ds", 10));
  auto cost = f.graph->Evaluate({});
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost->per_iteration_seconds, 0.0);
  EXPECT_EQ(cost->hoisted_seconds, 0.0);
}

TEST(CostGraph, LseAmortizesProduction) {
  GraphFixture f10(GdScript("ds", 10), 10);
  GraphFixture f100(GdScript("ds", 100), 100);
  const EliminationOption* lse10 =
      f10.ByKey(JoinKey({"A'", "b"}), OptionKind::kLse);
  const EliminationOption* lse100 =
      f100.ByKey(JoinKey({"A'", "b"}), OptionKind::kLse);
  ASSERT_NE(lse10, nullptr);
  ASSERT_NE(lse100, nullptr);
  const double base10 = f10.graph->Evaluate({}).value().per_iteration_seconds;
  const double with10 =
      f10.graph->Evaluate({lse10}).value().per_iteration_seconds;
  const double base100 =
      f100.graph->Evaluate({}).value().per_iteration_seconds;
  const double with100 =
      f100.graph->Evaluate({lse100}).value().per_iteration_seconds;
  // Relative benefit grows with the horizon (production cost amortized).
  EXPECT_LT(with100 / base100, with10 / base10 + 1e-9);
}

TEST(CostGraph, EvaluateRejectsConflicts) {
  GraphFixture f(DfpScript("ds", 10));
  const EliminationOption* a = nullptr;
  const EliminationOption* b = nullptr;
  for (size_t i = 0; i < f.options.size() && b == nullptr; ++i) {
    for (size_t j = i + 1; j < f.options.size(); ++j) {
      if (OptionsConflict(f.options[i], f.options[j])) {
        a = &f.options[i];
        b = &f.options[j];
        break;
      }
    }
  }
  ASSERT_NE(a, nullptr) << "DFP must contain contradictory options";
  EXPECT_EQ(f.graph->Evaluate({a, b}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CostGraph, CseProductionChargedOncePerIteration) {
  GraphFixture f(DfpScript("ds", 10));
  // Applying a beneficial CSE reduces the per-iteration cost versus
  // recomputing at each occurrence site.
  const EliminationOption* cse =
      f.ByKey(JoinKey({"A'", "A", "H@0", "g@1"}), OptionKind::kCse);
  ASSERT_NE(cse, nullptr);
  auto base = f.graph->Evaluate({});
  auto with = f.graph->Evaluate({cse});
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_GT(with->production_seconds.count(cse->id), 0u);
  EXPECT_LT(with->per_iteration_seconds, base->per_iteration_seconds);
}

TEST(CostGraph, NestedOptionsCompose) {
  GraphFixture f(DfpScript("ds", 10));
  const EliminationOption* inner =
      f.ByKey(JoinKey({"A'", "A"}), OptionKind::kLse);
  const EliminationOption* outer =
      f.ByKey(JoinKey({"A'", "A", "H@0", "g@1"}), OptionKind::kCse);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_FALSE(OptionsConflict(*inner, *outer));
  auto both = f.graph->Evaluate({inner, outer});
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  // The outer production benefits from the nested hoisted temp.
  auto outer_only = f.graph->Evaluate({outer});
  ASSERT_TRUE(outer_only.ok());
  EXPECT_LE(both->production_seconds.at(outer->id),
            outer_only->production_seconds.at(outer->id) + 1e-12);
}

TEST(CostGraph, OriginalOrderIntervals) {
  GraphFixture f(GdScript("ds", 10));
  for (size_t b = 0; b < f.space.blocks.size(); ++b) {
    const int n = static_cast<int>(f.space.blocks[b].Length());
    if (n < 2) continue;
    // The root interval is always part of the default split.
    EXPECT_TRUE(f.graph->IsOriginalOrderInterval(static_cast<int>(b), 0, n));
  }
}

}  // namespace
}  // namespace remac
