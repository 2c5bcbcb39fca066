#include "core/adaptive_optimizer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/analysis.h"
#include "core/cross_block.h"
#include "core/cost_graph.h"
#include "core/enumerator.h"
#include "core/strategies.h"
#include "cost/cost_model.h"

namespace remac {

const char* SearchMethodName(SearchMethod method) {
  switch (method) {
    case SearchMethod::kBlockWise: return "block-wise";
    case SearchMethod::kTreeWise: return "tree-wise";
    case SearchMethod::kSampled: return "sampled";
  }
  return "?";
}

const char* EliminationStrategyName(EliminationStrategy strategy) {
  switch (strategy) {
    case EliminationStrategy::kNone: return "none";
    case EliminationStrategy::kAutomatic: return "automatic";
    case EliminationStrategy::kConservative: return "conservative";
    case EliminationStrategy::kAggressive: return "aggressive";
    case EliminationStrategy::kAdaptive: return "adaptive";
  }
  return "?";
}

namespace {

std::string TempName(int option_id) {
  return StringFormat("__t%d", option_id);
}

/// `plan` read transposed. t(t(X)) folds to X, so a production read
/// backward whose plan is already t(A) emits A, not two transposes.
PlanNodePtr TransposeOf(PlanNodePtr plan) {
  if (plan->op == PlanOp::kTranspose) return plan->children[0];
  plan = MakeUnary(PlanOp::kTranspose, std::move(plan));
  const Status st = InferShapes(plan.get());
  assert(st.ok());
  (void)st;
  return plan;
}

/// Builds executable plans out of chosen splits and temp references.
class Emitter {
 public:
  Emitter(const SearchSpace& space, const CostGraph& graph,
          const std::vector<const EliminationOption*>& chosen)
      : space_(space), graph_(graph), chosen_(chosen) {}

  /// All chosen occurrence sites in `block_id` that are not strictly
  /// inside another chosen site; optionally restricted to LSE options.
  std::vector<std::pair<Interval, int>> OutermostSites(
      int block_id, const Occurrence* within, bool lse_only) const {
    struct Site {
      Interval range;
      int option_id;
      bool lse;
    };
    std::vector<Site> sites;
    for (const EliminationOption* opt : chosen_) {
      for (const Occurrence& occ : opt->occurrences) {
        if (occ.block_id != block_id) continue;
        if (within != nullptr) {
          const bool strictly_inside =
              within->begin <= occ.begin && occ.end <= within->end &&
              !(occ.begin == within->begin && occ.end == within->end);
          if (!strictly_inside) continue;
          if (lse_only && !opt->IsLse()) continue;
        }
        sites.push_back(Site{Interval{occ.begin, occ.end}, opt->id,
                             opt->IsLse()});
      }
    }
    std::vector<std::pair<Interval, int>> outer;
    for (const Site& s : sites) {
      bool inside = false;
      for (const Site& other : sites) {
        if (other.range == s.range) continue;
        if (other.range.begin <= s.range.begin &&
            s.range.end <= other.range.end) {
          inside = true;
          break;
        }
      }
      if (!inside) outer.emplace_back(s.range, s.option_id);
    }
    return outer;
  }

  const EliminationOption* OptionById(int id) const {
    for (const EliminationOption* opt : chosen_) {
      if (opt->id == id) return opt;
    }
    return nullptr;
  }

  /// Builds the plan of a split tree; contracted units become references
  /// to their option's temp, re-oriented if the site reads the transpose.
  PlanNodePtr BuildFromSplit(int block_id, const SplitNode& split) const {
    const Block& block = space_.blocks[block_id];
    if (split.is_unit) {
      if (split.option_id >= 0) {
        const EliminationOption* opt = OptionById(split.option_id);
        assert(opt != nullptr);
        Shape shape = opt->shape;
        PlanNodePtr ref = MakeInput(TempName(opt->id), shape);
        const bool forward =
            WindowIsForward(block, static_cast<size_t>(split.range.begin),
                            static_cast<size_t>(split.range.end));
        return forward ? ref : TransposeOf(std::move(ref));
      }
      return FactorPlan(block.factors[static_cast<size_t>(split.range.begin)]);
    }
    PlanNodePtr out =
        MakeBinary(PlanOp::kMatMul, BuildFromSplit(block_id, *split.left),
                   BuildFromSplit(block_id, *split.right));
    const Status st = InferShapes(out.get());
    assert(st.ok());
    (void)st;
    return out;
  }

  /// Plan computing a whole block with outermost chosen sites contracted.
  PlanNodePtr BlockPlan(int block_id) const {
    const Block& block = space_.blocks[block_id];
    std::unique_ptr<SplitNode> split;
    graph_.ChainCostWithUnits(block_id, 0,
                              static_cast<int>(block.factors.size()),
                              OutermostSites(block_id, nullptr, false),
                              &split);
    return BuildFromSplit(block_id, *split);
  }

  /// Plan computing a chosen option's canonical value.
  PlanNodePtr ProductionPlan(const EliminationOption& opt) const {
    const Occurrence& site = opt.occurrences.front();
    std::unique_ptr<SplitNode> split;
    graph_.ChainCostWithUnits(site.block_id, site.begin, site.end,
                              OutermostSites(site.block_id, &site,
                                             opt.IsLse()),
                              &split);
    PlanNodePtr plan = BuildFromSplit(site.block_id, *split);
    return site.forward ? plan : TransposeOf(std::move(plan));
  }

  /// Output plan: skeleton with every block reference replaced.
  PlanNodePtr OutputPlan(int expr_index) const {
    std::function<PlanNodePtr(const PlanNode&)> rebuild =
        [&](const PlanNode& node) -> PlanNodePtr {
      if (node.op == PlanOp::kBlockRef) {
        return BlockPlan(static_cast<int>(node.value));
      }
      auto out = std::make_shared<PlanNode>();
      out->op = node.op;
      out->name = node.name;
      out->value = node.value;
      out->shape = node.shape;
      out->children.reserve(node.children.size());
      for (const auto& child : node.children) {
        out->children.push_back(rebuild(*child));
      }
      return out;
    };
    PlanNodePtr plan = rebuild(*space_.exprs[expr_index].skeleton);
    const Status st = InferShapes(plan.get());
    assert(st.ok());
    (void)st;
    return plan;
  }

 private:
  const SearchSpace& space_;
  const CostGraph& graph_;
  const std::vector<const EliminationOption*>& chosen_;
};

}  // namespace

ReMacOptimizer::ReMacOptimizer(const ClusterModel& cluster,
                               const SparsityEstimator* estimator,
                               const DataCatalog* catalog,
                               OptimizerConfig config)
    : cluster_(cluster),
      estimator_(estimator),
      catalog_(catalog),
      config_(config) {}

Result<CompiledProgram> ReMacOptimizer::Optimize(
    const CompiledProgram& program, OptimizeReport* report) {
  const auto start = std::chrono::steady_clock::now();
  OptimizeReport local_report;

  // ---- Locate the loop (or treat a loop-free program as one pass). ----
  LoopStructure loop = FindLoop(program);
  std::vector<CompiledStmt> body_stmts;
  if (loop.loop != nullptr) {
    for (const auto& stmt : loop.loop->body) body_stmts.push_back(stmt);
  } else {
    for (const auto& stmt : program.statements) {
      if (stmt.kind == CompiledStmt::Kind::kAssign) {
        body_stmts.push_back(stmt);
        loop.loop_assigned.insert(stmt.target);
      }
    }
  }
  const int iterations = loop.loop != nullptr ? config_.iterations : 1;

  // ---- Automatic elimination: inline, normalize, search. ----
  auto inlined = InlineLoopBody(body_stmts);
  if (!inlined.ok()) {
    // Bodies the search cannot handle (e.g., nested loops) pass through
    // unoptimized rather than failing the compile.
    if (inlined.status().code() == StatusCode::kUnsupported) {
      if (report != nullptr) *report = local_report;
      CompiledProgram passthrough;
      passthrough.statements = program.statements;
      return passthrough;
    }
    return inlined.status();
  }
  std::vector<InlinedOutput> outputs = std::move(inlined).value();
  if (config_.cross_block_cse) {
    REMAC_ASSIGN_OR_RETURN(
        const std::vector<CrossBlockOption> cross_block,
        ApplyCrossBlockCse(&outputs, loop.loop_assigned));
    local_report.applied_cross_block = static_cast<int>(cross_block.size());
    for (const CrossBlockOption& option : cross_block) {
      local_report.applied_options.push_back(
          StringFormat("XB{%s -> %s x%d}", option.key.c_str(),
                       option.temp_name.c_str(), option.num_sites));
      // The temp is assigned inside the loop body; treating it as
      // loop-constant would hoist its uses above its definition. (Its own
      // right-hand side still exposes loop-constant windows to LSE.)
      loop.loop_assigned.insert(option.temp_name);
    }
  }
  const std::map<std::string, bool> symmetric_vars = InferSymmetricVars(loop);
  REMAC_ASSIGN_OR_RETURN(
      SearchSpace space,
      BuildSearchSpace(outputs, loop.loop_assigned, symmetric_vars,
                       config_.max_terms));
  // Loop-free programs have no loop to hoist out of: LSE would only
  // relabel one-shot computations (amortization horizon 1).
  const bool find_lse = loop.loop != nullptr;
  std::vector<EliminationOption> options;
  switch (config_.search) {
    case SearchMethod::kBlockWise:
      options = BlockWiseSearch(space, &local_report.search, find_lse);
      break;
    case SearchMethod::kTreeWise:
      options = TreeWiseSearch(space, config_.treewise_budget,
                               &local_report.search, find_lse);
      break;
    case SearchMethod::kSampled:
      options = SampledSearch(space, config_.sampled_max_window,
                              config_.sampled_max_samples,
                              &local_report.search);
      break;
  }
  local_report.options_found = static_cast<int>(options.size());

  // ---- Adaptive elimination: cost graph + probing. ----
  CostModel cost_model(cluster_, estimator_, catalog_);
  REMAC_ASSIGN_OR_RETURN(
      VarStats vars, PropagateProgramStats(program, cost_model));
  // Cross-block temps are new variables; derive their statistics from
  // their defining plans (in statement order, so later temps may read
  // earlier ones).
  for (const InlinedOutput& out : outputs) {
    if (vars.Contains(out.target)) continue;
    auto costed = cost_model.CostTree(*out.plan, vars);
    if (!costed.ok()) continue;
    costed->seconds = 0.0;  // referencing a temp is free
    vars.vars.insert_or_assign(out.target, std::move(costed).value());
  }
  CostGraph graph(&space, &cost_model, &vars, iterations);
  REMAC_RETURN_NOT_OK(graph.Build());

  std::vector<const EliminationOption*> chosen;
  if (!config_.forced_option_keys.empty()) {
    for (const std::string& key : config_.forced_option_keys) {
      for (const auto& opt : options) {
        if (opt.key != key) continue;
        bool conflicts = false;
        for (const EliminationOption* picked : chosen) {
          conflicts = conflicts || OptionsConflict(opt, *picked);
        }
        if (!conflicts) chosen.push_back(&opt);
      }
    }
  } else switch (config_.strategy) {
    case EliminationStrategy::kNone:
      break;
    case EliminationStrategy::kAutomatic: {
      REMAC_ASSIGN_OR_RETURN(chosen,
                             AutomaticPick(graph, options,
                                           &local_report.probe));
      break;
    }
    case EliminationStrategy::kConservative: {
      REMAC_ASSIGN_OR_RETURN(chosen,
                             ConservativePick(graph, options,
                                              &local_report.probe));
      break;
    }
    case EliminationStrategy::kAggressive: {
      REMAC_ASSIGN_OR_RETURN(chosen,
                             AggressivePick(graph, options,
                                            &local_report.probe));
      break;
    }
    case EliminationStrategy::kAdaptive: {
      switch (config_.combiner) {
        case CombinerKind::kDp: {
          REMAC_ASSIGN_OR_RETURN(
              chosen, AdaptiveProbe(graph, options, &local_report.probe));
          break;
        }
        case CombinerKind::kEnumDepthFirst: {
          REMAC_ASSIGN_OR_RETURN(
              chosen,
              EnumerateCombinations(graph, options, /*depth_first=*/true,
                                    config_.enum_budget,
                                    &local_report.probe));
          break;
        }
        case CombinerKind::kEnumBreadthFirst: {
          REMAC_ASSIGN_OR_RETURN(
              chosen,
              EnumerateCombinations(graph, options, /*depth_first=*/false,
                                    config_.enum_budget,
                                    &local_report.probe));
          break;
        }
      }
      break;
    }
  }

  for (const EliminationOption* opt : chosen) {
    if (opt->IsLse()) {
      ++local_report.applied_lse;
    } else {
      ++local_report.applied_cse;
    }
    local_report.applied_options.push_back(opt->ToString());
  }
  if (Logger::GetLevel() <= LogLevel::kDebug) {
    REMAC_LOG(kDebug) << "optimizer: " << options.size() << " options, chose "
                      << chosen.size() << " (cse=" << local_report.applied_cse
                      << " lse=" << local_report.applied_lse
                      << "), predicted cost "
                      << local_report.probe.chosen_cost << "s/iter vs baseline "
                      << local_report.probe.baseline_cost << "s/iter";
    for (const EliminationOption* opt : chosen) {
      REMAC_LOG(kDebug) << "optimizer:   applied " << opt->ToString();
    }
  }

  // ---- Emission. ----
  Emitter emitter(space, graph, chosen);
  // Temps in dependency order: shorter (inner) windows first.
  std::vector<const EliminationOption*> ordered = chosen;
  std::sort(ordered.begin(), ordered.end(),
            [](const EliminationOption* a, const EliminationOption* b) {
              const int la = a->occurrences.front().Length();
              const int lb = b->occurrences.front().Length();
              if (la != lb) return la < lb;
              return a->id < b->id;
            });
  // Positions of each variable's assignments within the body, for
  // version-correct temp scheduling under sequential execution.
  std::map<std::string, std::vector<int>> assign_positions;
  for (size_t e = 0; e < space.exprs.size(); ++e) {
    assign_positions[space.exprs[e].target].push_back(static_cast<int>(e));
  }
  // A CSE temp reading version k of a loop variable must run after that
  // variable's k-th assignment of the iteration (k = 0: start of body).
  auto temp_slot = [&](const EliminationOption* opt) -> int {
    const Occurrence& site = opt->occurrences.front();
    const Block& block = space.blocks[site.block_id];
    int slot = 0;
    for (int f = site.begin; f < site.end; ++f) {
      const Factor& factor = block.factors[f];
      if (factor.node->op == PlanOp::kInput) {
        if (factor.version > 0) {
          const auto& positions = assign_positions[factor.node->name];
          slot = std::max(slot, positions[factor.version - 1] + 1);
        }
      } else if (!IsGeneratorOp(factor.node->op) &&
                 factor.node->op != PlanOp::kReadData) {
        // Opaque subtree: schedule conservatively at the site statement.
        slot = std::max(slot, block.expr_index);
      }
    }
    return slot;
  };

  std::vector<CompiledStmt> hoisted;
  std::map<int, std::vector<CompiledStmt>> temps_by_slot;
  for (const EliminationOption* opt : ordered) {
    CompiledStmt stmt;
    stmt.kind = CompiledStmt::Kind::kAssign;
    stmt.target = TempName(opt->id);
    stmt.plan = emitter.ProductionPlan(*opt);
    stmt.is_temp = true;
    if (opt->IsLse()) {
      hoisted.push_back(std::move(stmt));
    } else {
      temps_by_slot[temp_slot(opt)].push_back(std::move(stmt));
    }
  }
  std::vector<CompiledStmt> new_body;
  for (size_t e = 0; e < space.exprs.size(); ++e) {
    auto slot = temps_by_slot.find(static_cast<int>(e));
    if (slot != temps_by_slot.end()) {
      for (auto& tstmt : slot->second) new_body.push_back(std::move(tstmt));
    }
    CompiledStmt stmt;
    stmt.kind = CompiledStmt::Kind::kAssign;
    stmt.target = space.exprs[e].target;
    stmt.plan = emitter.OutputPlan(static_cast<int>(e));
    new_body.push_back(std::move(stmt));
  }
  auto tail = temps_by_slot.find(static_cast<int>(space.exprs.size()));
  if (tail != temps_by_slot.end()) {
    for (auto& tstmt : tail->second) new_body.push_back(std::move(tstmt));
  }

  CompiledProgram out;
  if (loop.loop != nullptr) {
    for (const CompiledStmt* stmt : loop.preamble) out.statements.push_back(*stmt);
    for (auto& stmt : hoisted) out.statements.push_back(std::move(stmt));
    CompiledStmt new_loop;
    new_loop.kind = CompiledStmt::Kind::kLoop;
    new_loop.condition =
        loop.loop->condition ? loop.loop->condition->Clone() : nullptr;
    new_loop.loop_var = loop.loop->loop_var;
    new_loop.loop_begin = loop.loop->loop_begin;
    new_loop.static_trip_count = loop.loop->static_trip_count;
    // Outputs keep their original order and reference in-iteration
    // variables by name (stale-safe inlining), so plain sequential
    // execution is correct.
    new_loop.barrier_commit = false;
    new_loop.body = std::move(new_body);
    out.statements.push_back(std::move(new_loop));
    for (const CompiledStmt* stmt : loop.postamble) {
      out.statements.push_back(*stmt);
    }
  } else {
    // Loop-free: hoisted temps (if any) first, then temps and outputs.
    for (auto& stmt : hoisted) out.statements.push_back(std::move(stmt));
    for (auto& stmt : new_body) out.statements.push_back(std::move(stmt));
  }

  local_report.total_compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (report != nullptr) *report = local_report;
  return out;
}

}  // namespace remac
