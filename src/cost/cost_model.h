#ifndef REMAC_COST_COST_MODEL_H_
#define REMAC_COST_COST_MODEL_H_

#include <functional>
#include <map>
#include <string>

#include "cluster/cluster_model.h"
#include "common/status.h"
#include "distributed/distributed_ops.h"
#include "plan/plan_builder.h"
#include "plan/plan_node.h"
#include "sparsity/estimator.h"

namespace remac {

/// Statistics plus physical placement of a (sub)result.
struct CostedStats {
  NodeStats stats;
  bool distributed = false;
  double seconds = 0.0;  // cost of producing this result
};

/// MatInfo of an estimated operand.
MatInfo InfoOf(const NodeStats& stats, bool distributed);

/// Estimated product op(a) %*% op(b), op transposing when the flag is
/// set: the result statistics and its CostMultiply price for the fused
/// transpose-multiply. Shared by CostPredictor, MultiplyCost and
/// AnnotateMultiplyLayouts.
struct EstimatedProduct {
  NodeStats stats;
  OpCosting costing;
};
EstimatedProduct EstimateMultiply(const SparsityEstimator& estimator,
                                  const NodeStats& a, bool a_distributed,
                                  bool a_transposed, const NodeStats& b,
                                  bool b_distributed, bool b_transposed,
                                  const ClusterModel& model);

/// Variable environment for costing: name -> statistics of the variable's
/// current value (leaves of plan trees reference these).
struct VarStats {
  std::map<std::string, CostedStats> vars;

  bool Contains(const std::string& name) const {
    return vars.count(name) > 0;
  }
};

/// \brief The ReMac cost model (paper Section 4.2).
///
/// c_O = compute_O + transmit_O, with compute_O = w_flop * FLOP_O and
/// transmit_O = sum over primitives of w_pr * D_pr. Trees are priced by
/// the executor's own plan walk over estimated statistics (CostPredictor,
/// cost/cost_predictor.h), so every operator books the OpCosting the
/// simulated runtime books; the optimizer and the engine therefore agree
/// on what an operator costs up to estimation error.
class CostModel {
 public:
  /// Resolves a kBlockRef node to the stats of the chosen block plan
  /// (wired up by the cost graph when costing skeletons).
  using BlockResolver = std::function<Result<CostedStats>(int block_id)>;

  CostModel(const ClusterModel& model, const SparsityEstimator* estimator,
            const DataCatalog* catalog);

  const ClusterModel& cluster() const { return model_; }
  const SparsityEstimator& estimator() const { return *estimator_; }

  /// Stats of a dataset leaf (read("name")); datasets live distributed.
  Result<CostedStats> DatasetStats(const std::string& name) const;

  /// Costs one multiplication given operand stats; returns result stats
  /// with its placement and the operator's seconds.
  CostedStats MultiplyCost(const CostedStats& a, const CostedStats& b) const;

  /// Prices one multiplication when the output sparsity is already known
  /// (e.g., from cached interval statistics) — skips the estimator, which
  /// makes the chain DP O(1) per split candidate.
  double MultiplySeconds(const CostedStats& a, const CostedStats& b,
                         double sp_out) const;

  /// Costs a transpose.
  CostedStats TransposeCost(const CostedStats& a) const;

  /// Costs a full plan tree under `vars`: its statistics (scalars are
  /// 1x1, a literal 0 empty) and the seconds of every operator the walk
  /// books, resolved blocks included. `resolver` may be null when the
  /// tree contains no kBlockRef nodes.
  Result<CostedStats> CostTree(const PlanNode& node, const VarStats& vars,
                               const BlockResolver& resolver = nullptr) const;

 private:
  ClusterModel model_;
  const SparsityEstimator* estimator_;
  const DataCatalog* catalog_;
};

/// Propagates statistics through a compiled program to obtain the
/// steady-state stats of every variable: the cost-tree walk runs the
/// program with every loop body swept exactly `loop_sweeps` times, so
/// loop-carried variables like an inverse-Hessian approximation reach
/// their dense steady state.
Result<VarStats> PropagateProgramStats(const CompiledProgram& program,
                                       const CostModel& cost_model,
                                       int loop_sweeps = 2);

/// Stamps every kMatMul node of `program` with the physical layout the
/// cost model selects for it (PlanNode::layout: local / BMM / CPMM),
/// pricing operands at their steady-state statistics with the
/// executor's transpose fusion (FusedMultiplyOperands). Advisory plan
/// metadata for reporting (`remac run --stats`); execution re-derives the
/// same decision from actual statistics, and nodes whose operand
/// statistics cannot be derived keep kUnset.
Status AnnotateMultiplyLayouts(CompiledProgram* program,
                               const CostModel& cost_model);

}  // namespace remac

#endif  // REMAC_COST_COST_MODEL_H_
