#include "core/cost_graph.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "cost/physical_model.h"
#include "obs/metrics.h"

namespace remac {

CostGraph::CostGraph(const SearchSpace* space, const CostModel* cost_model,
                     const VarStats* vars, int iterations)
    : space_(space),
      cost_model_(cost_model),
      vars_(vars),
      iterations_(std::max(1, iterations)) {}

Result<CostedStats> CostGraph::FactorStats(const Factor& factor) const {
  // A variable or dataset leaf is free; a generator or opaque subtree
  // costs its production.
  REMAC_ASSIGN_OR_RETURN(CostedStats base,
                         cost_model_->CostTree(*factor.node, *vars_));
  if (factor.transposed) {
    const double production = base.seconds;
    base.stats = cost_model_->estimator().Transpose(base.stats);
    base.seconds = production;  // reorientation fuses into the multiply
  }
  return base;
}

Status CostGraph::Build() {
  tables_.clear();
  tables_.resize(space_->blocks.size());
  int64_t interval_nodes = 0;
  for (size_t b = 0; b < space_->blocks.size(); ++b) {
    const Block& block = space_->blocks[b];
    BlockTable& table = tables_[b];
    const int n = static_cast<int>(block.factors.size());
    table.stats.resize(static_cast<size_t>(n) * n);
    interval_nodes += static_cast<int64_t>(n) * (n + 1) / 2;
    for (int i = 0; i < n; ++i) {
      REMAC_ASSIGN_OR_RETURN(CostedStats leaf, FactorStats(block.factors[i]));
      table.opaque_factor_seconds += leaf.seconds;
      leaf.seconds = 0.0;
      table.stats[static_cast<size_t>(i) * n + i] = leaf;
    }
    // Canonical interval statistics: left fold (estimates are defined
    // per-interval, independent of the split the DP later chooses).
    for (int len = 2; len <= n; ++len) {
      for (int i = 0; i + len <= n; ++i) {
        const int j = i + len - 1;
        const CostedStats& left = StatsAt(table, n, i, j - 1);
        const CostedStats& right = StatsAt(table, n, j, j);
        CostedStats merged = cost_model_->MultiplyCost(left, right);
        merged.seconds = 0.0;
        table.stats[static_cast<size_t>(i) * n + j] = merged;
      }
    }
  }
  // The interval tables exist: chain costs may be read from here on.
  built_ = true;
  for (size_t b = 0; b < space_->blocks.size(); ++b) {
    BlockTable& table = tables_[b];
    const int n = static_cast<int>(space_->blocks[b].factors.size());
    table.default_cost =
        ChainCostWithUnits(static_cast<int>(b), 0, n, {}, &table.default_split);
    std::function<void(const SplitNode*)> collect = [&](const SplitNode* s) {
      if (s == nullptr) return;
      table.default_intervals.insert(Interval{s->range.begin, s->range.end});
      collect(s->left.get());
      collect(s->right.get());
    };
    collect(table.default_split.get());
  }
  // Skeleton glue costs do not depend on the chosen options (blocks are
  // contracted internally only); price them once.
  total_skeleton_seconds_ = 0.0;
  for (size_t e = 0; e < space_->exprs.size(); ++e) {
    REMAC_ASSIGN_OR_RETURN(const double glue,
                           SkeletonCost(static_cast<int>(e)));
    total_skeleton_seconds_ += glue;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("remac.costgraph.builds")->Add();
  registry.GetCounter("remac.costgraph.blocks")
      ->Add(static_cast<int64_t>(space_->blocks.size()));
  registry.GetCounter("remac.costgraph.interval_nodes")->Add(interval_nodes);
  return Status::OK();
}

const CostedStats& CostGraph::IntervalStats(int block_id, int begin,
                                            int end) const {
  assert(built_);
  const int n = static_cast<int>(space_->blocks[block_id].factors.size());
  assert(begin >= 0 && begin < end && end <= n);
  return StatsAt(tables_[block_id], n, begin, end - 1);
}

double CostGraph::PlainIntervalCost(int block_id, int begin, int end) const {
  return ChainCostWithUnits(block_id, begin, end, {}, nullptr);
}

const SplitNode* CostGraph::DefaultSplit(int block_id) const {
  return tables_[block_id].default_split.get();
}

bool CostGraph::IsOriginalOrderInterval(int block_id, int begin,
                                        int end) const {
  return tables_[block_id].default_intervals.count(Interval{begin, end}) > 0;
}

double CostGraph::ChainCostWithUnits(
    int block_id, int range_begin, int range_end,
    const std::vector<std::pair<Interval, int>>& contracted,
    std::unique_ptr<SplitNode>* split) const {
  assert(built_);
  const Block& block = space_->blocks[block_id];
  const int n = static_cast<int>(block.factors.size());
  (void)n;

  // Build the unit sequence covering [range_begin, range_end).
  struct Unit {
    Interval range;
    int option_id = -1;  // >= 0: a contracted temp reference (free)
  };
  std::vector<std::pair<Interval, int>> sorted = contracted;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Unit> units;
  int pos = range_begin;
  size_t ci = 0;
  while (pos < range_end) {
    while (ci < sorted.size() && sorted[ci].first.begin < pos) ++ci;
    if (ci < sorted.size() && sorted[ci].first.begin == pos &&
        sorted[ci].first.end <= range_end) {
      units.push_back(Unit{sorted[ci].first, sorted[ci].second});
      pos = sorted[ci].first.end;
      ++ci;
    } else {
      units.push_back(Unit{Interval{pos, pos + 1}, -1});
      ++pos;
    }
  }
  const int m = static_cast<int>(units.size());
  assert(m > 0);

  auto make_leaf = [&](int u) {
    auto leaf = std::make_unique<SplitNode>();
    leaf->range = units[u].range;
    leaf->is_unit = true;
    leaf->option_id = units[u].option_id;
    return leaf;
  };

  if (m == 1) {
    double cost = 0.0;
    // A whole-range single unit: a plain transposed factor standing alone
    // pays its transpose; a temp reference is free.
    if (units[0].option_id < 0 &&
        units[0].range.end - units[0].range.begin == 1 &&
        block.factors[units[0].range.begin].transposed) {
      const CostedStats& s =
          IntervalStats(block_id, units[0].range.begin, units[0].range.end);
      cost = cost_model_->TransposeCost(s).seconds;
    }
    if (split != nullptr) *split = make_leaf(0);
    return cost;
  }

  // Interval DP over units.
  std::vector<double> best(static_cast<size_t>(m) * m, 0.0);
  std::vector<int> choice(static_cast<size_t>(m) * m, -1);
  auto idx = [m](int i, int j) { return static_cast<size_t>(i) * m + j; };
  for (int len = 2; len <= m; ++len) {
    for (int i = 0; i + len <= m; ++i) {
      const int j = i + len - 1;
      double best_cost = -1.0;
      int best_k = -1;
      const CostedStats& merged = IntervalStats(
          block_id, units[i].range.begin, units[j].range.end);
      for (int k = i; k < j; ++k) {
        const CostedStats& left =
            IntervalStats(block_id, units[i].range.begin, units[k].range.end);
        const CostedStats& right = IntervalStats(
            block_id, units[k + 1].range.begin, units[j].range.end);
        // The product's sparsity is the (cached) canonical estimate of
        // the merged interval, so no estimator call is needed here.
        const double op_cost = cost_model_->MultiplySeconds(
            left, right, merged.stats.sparsity);
        const double total = best[idx(i, k)] + best[idx(k + 1, j)] + op_cost;
        if (best_k < 0 || total < best_cost) {
          best_cost = total;
          best_k = k;
        }
      }
      best[idx(i, j)] = best_cost;
      choice[idx(i, j)] = best_k;
    }
  }
  if (split != nullptr) {
    std::function<std::unique_ptr<SplitNode>(int, int)> build =
        [&](int i, int j) -> std::unique_ptr<SplitNode> {
      if (i == j) return make_leaf(i);
      const int k = choice[idx(i, j)];
      auto node = std::make_unique<SplitNode>();
      node->range = Interval{units[i].range.begin, units[j].range.end};
      node->left = build(i, k);
      node->right = build(k + 1, j);
      return node;
    };
    *split = build(0, m - 1);
  }
  return best[idx(0, m - 1)];
}

Result<double> CostGraph::SkeletonCost(int expr_index) const {
  const auto& expr = space_->exprs[expr_index];
  auto resolver = [this](int block_id) -> Result<CostedStats> {
    const Block& block = space_->blocks[block_id];
    CostedStats s =
        IntervalStats(block_id, 0, static_cast<int>(block.factors.size()));
    s.seconds = 0.0;
    return s;
  };
  REMAC_ASSIGN_OR_RETURN(const CostedStats costed,
                         cost_model_->CostTree(*expr.skeleton, *vars_,
                                               resolver));
  return costed.seconds;
}

Result<CombinationCost> CostGraph::Evaluate(
    const std::vector<const EliminationOption*>& chosen) const {
  assert(built_);
  // Conflict check.
  for (size_t i = 0; i < chosen.size(); ++i) {
    for (size_t j = i + 1; j < chosen.size(); ++j) {
      if (OptionsConflict(*chosen[i], *chosen[j])) {
        return Status::InvalidArgument(
            "conflicting options: " + chosen[i]->ToString() + " vs " +
            chosen[j]->ToString());
      }
    }
  }

  // Gather chosen occurrence sites per block.
  struct Site {
    Interval range;
    int option_id;
    bool lse;
  };
  std::map<int, std::vector<Site>> sites_by_block;
  for (const EliminationOption* opt : chosen) {
    for (const Occurrence& occ : opt->occurrences) {
      sites_by_block[occ.block_id].push_back(
          Site{Interval{occ.begin, occ.end}, opt->id, opt->IsLse()});
    }
  }

  CombinationCost result;

  // Per-iteration chain costs with the *outermost* chosen sites
  // contracted into free temp-reference units.
  for (size_t b = 0; b < space_->blocks.size(); ++b) {
    std::vector<std::pair<Interval, int>> outer;
    auto it = sites_by_block.find(static_cast<int>(b));
    if (it != sites_by_block.end()) {
      for (const Site& s : it->second) {
        bool inside = false;
        for (const Site& other : it->second) {
          if (s.option_id == other.option_id && s.range == other.range)
            continue;
          if (other.range.begin <= s.range.begin &&
              s.range.end <= other.range.end &&
              !(other.range == s.range)) {
            inside = true;
            break;
          }
        }
        if (!inside) outer.emplace_back(s.range, s.option_id);
      }
    }
    result.per_iteration_seconds +=
        ChainCostWithUnits(static_cast<int>(b), 0,
                           static_cast<int>(space_->blocks[b].factors.size()),
                           outer, nullptr) +
        tables_[b].opaque_factor_seconds;
  }

  // Skeleton glue costs (cached in Build, option-independent).
  result.per_iteration_seconds += total_skeleton_seconds_;

  // Temp production costs. The production site is the first occurrence;
  // chosen options strictly nested inside it are free units (for an LSE
  // production, only nested LSE temps are available before the loop).
  for (const EliminationOption* opt : chosen) {
    const Occurrence& site = opt->occurrences.front();
    std::vector<std::pair<Interval, int>> nested;
    for (const EliminationOption* other : chosen) {
      if (other == opt) continue;
      if (opt->IsLse() && !other->IsLse()) continue;
      for (const Occurrence& occ : other->occurrences) {
        if (occ.block_id != site.block_id) continue;
        if (site.begin <= occ.begin && occ.end <= site.end &&
            !(occ.begin == site.begin && occ.end == site.end)) {
          nested.emplace_back(Interval{occ.begin, occ.end}, other->id);
        }
      }
    }
    // Keep only outermost nested intervals.
    std::vector<std::pair<Interval, int>> outer_nested;
    for (const auto& a : nested) {
      bool inside = false;
      for (const auto& b : nested) {
        if (a.first == b.first) continue;
        if (b.first.begin <= a.first.begin && a.first.end <= b.first.end) {
          inside = true;
          break;
        }
      }
      if (!inside) outer_nested.push_back(a);
    }
    const double production = ChainCostWithUnits(
        site.block_id, site.begin, site.end, outer_nested, nullptr);
    result.production_seconds[opt->id] = production;
    if (opt->IsLse()) {
      result.hoisted_seconds += production;
      result.per_iteration_seconds +=
          production / static_cast<double>(iterations_);
    } else {
      result.per_iteration_seconds += production;
    }
  }
  return result;
}

}  // namespace remac
