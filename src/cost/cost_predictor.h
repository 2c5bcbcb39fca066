#ifndef REMAC_COST_COST_PREDICTOR_H_
#define REMAC_COST_COST_PREDICTOR_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "cost/physical_model.h"
#include "runtime/plan_walk.h"

namespace remac {

template <>
struct PayloadOps<NodeStats> {
  static MatInfo Info(const NodeStats& s, bool distributed) {
    return InfoOf(s, distributed);
  }
  static double Nnz(const NodeStats& s) { return s.Nnz(); }
  static double Bytes(const NodeStats& s) {
    return MatrixBytes(s.rows, s.cols, s.sparsity);
  }
  static double At00(const NodeStats&) { return 0.0; }  // no values
  static NodeStats OneByOne(double) { return NodeStats{}; }
};

/// \brief The estimated-statistics domain of PlanWalk: every payload is
/// the optimizer's sparsity estimate, and booking accumulates a predicted
/// LedgerCharge plus its simulated seconds instead of the ledger.
///
/// One domain prices plans for everyone: CostModel::CostTree evaluates a
/// tree with leaves read from a VarStats, PropagateProgramStats runs a
/// program to its steady-state statistics, and PredictProgramCost runs
/// it for the cost audit. A scalar's payload is its 1x1 statistics:
/// dense, except that a literal 0 is empty.
class CostPredictor : public PlanWalk<CostPredictor, NodeStats> {
 public:
  explicit CostPredictor(const CostModel& cost_model,
                         const EngineTraits& traits = {})
      : PlanWalk(cost_model.cluster(), traits),
        cost_model_(cost_model),
        estimator_(cost_model.estimator()) {}

  /// Leaves read `vars` instead of the walk's environment, and kBlockRef
  /// nodes resolve through `resolver` (which may be empty).
  void ReadLeavesFrom(const VarStats* vars,
                      const CostModel::BlockResolver* resolver) {
    vars_ = vars;
    resolver_ = resolver;
  }
  /// Every loop body runs exactly Run's `max_loop_iterations` times,
  /// whatever its static trip count (statistics propagation sweeps).
  void SweepLoops() { sweep_loops_ = true; }

  const LedgerCharge& cost() const { return cost_; }
  /// Simulated seconds of everything booked so far, priced the way the
  /// optimizer prices an operator (OpCosting::Seconds).
  double seconds() const { return seconds_; }

  /// A walked value as optimizer statistics, costing `seconds`.
  static CostedStats Costed(const Value& value, double seconds = 0.0) {
    return CostedStats{value.matrix, value.distributed, seconds};
  }

 private:
  friend class PlanWalk<CostPredictor, NodeStats>;

  /// A fused region's input-slot statistics, then each step's.
  using TapeRun = std::vector<NodeStats>;

  static NodeStats PlainStats(double rows, double cols, double sparsity) {
    NodeStats stats;
    stats.rows = rows;
    stats.cols = cols;
    stats.sparsity = std::clamp(sparsity, 0.0, 1.0);
    return stats;
  }

  // A condition's outcome is unknowable here: every loop runs to its
  // limit (see PredictProgramCost).
  Result<bool> LoopContinues(const Value&) { return true; }
  int64_t LoopLimit(const CompiledStmt& loop, int max_loop_iterations) {
    if (sweep_loops_) return max_loop_iterations;
    return PlanWalk::LoopLimit(loop, max_loop_iterations);
  }

  Result<Value> Input(const std::string& name) {
    if (vars_ == nullptr) return Get(name);
    auto it = vars_->vars.find(name);
    if (it == vars_->vars.end()) {
      return Status::NotFound("no stats for variable '" + name + "'");
    }
    return Value::FromMatrix(it->second.stats, it->second.distributed);
  }
  Value Literal(double v) {
    Value out = Value::Scalar(v);
    out.matrix.sparsity = v != 0.0 ? 1.0 : 0.0;
    return out;
  }
  Result<Value> BlockRef(int block_id) {
    if (resolver_ == nullptr || !*resolver_) {
      return Status::Internal("kBlockRef costed without a resolver");
    }
    REMAC_ASSIGN_OR_RETURN(const CostedStats block, (*resolver_)(block_id));
    seconds_ += block.seconds;
    return Value::FromMatrix(block.stats, block.distributed);
  }
  Result<Value> ReadData(const std::string& name) {
    REMAC_ASSIGN_OR_RETURN(const CostedStats leaf,
                           cost_model_.DatasetStats(name));
    return Value::FromMatrix(leaf.stats, leaf.distributed);
  }
  NodeStats Generate(const PlanNode& node) {
    return estimator_.GeneratorStats(node.op, node.shape.rows,
                                     node.shape.cols);
  }
  NodeStats ComputeTranspose(const NodeStats& m) {
    return estimator_.Transpose(m);
  }
  Result<NodeStats> ComputeMultiply(const Value& a, bool a_transposed,
                                    const Value& b, bool b_transposed,
                                    OpCosting* costing) {
    EstimatedProduct product =
        EstimateMultiply(estimator_, a.matrix, a.distributed, a_transposed,
                         b.matrix, b.distributed, b_transposed, model_);
    *costing = product.costing;
    return std::move(product.stats);
  }
  Result<NodeStats> ComputeElementwise(PlanOp op, const NodeStats& a,
                                       const NodeStats& b) {
    return estimator_.Elementwise(op, a, b);
  }
  Result<NodeStats> ComputeBroadcast(PlanOp op, const NodeStats& m, double,
                                     bool) {
    return estimator_.ScalarBroadcast(op, m);
  }
  NodeStats ComputeUnary(PlanOp op, const NodeStats& m) {
    // exp densifies (exp(0) = 1); log touches stored non-zeros only.
    return PlainStats(
        m.rows, m.cols,
        OpInfo(op).pattern == PatternRule::kDense ? 1.0 : m.sparsity);
  }
  NodeStats ComputeLineSums(PlanOp op, const NodeStats& m) {
    // A line sum is non-zero when any of its cells is: the line's
    // expected nnz, capped at one.
    const bool rows = op == PlanOp::kRowSums;
    return PlainStats(rows ? m.rows : 1.0, rows ? 1.0 : m.cols,
                      m.sparsity * (rows ? m.cols : m.rows));
  }
  NodeStats ComputeDiag(const NodeStats& m) {
    if (m.cols == 1.0) {
      // Vector -> diagonal matrix: keeps the vector's nnz.
      const double sp = m.rows > 0 ? m.sparsity / m.rows : 0.0;
      return PlainStats(m.rows, m.rows, sp);
    }
    // Square matrix -> diagonal vector, estimated like rowSums.
    return PlainStats(m.rows, 1.0, m.sparsity * m.cols);
  }
  double ComputeReduction(PlanOp, const NodeStats&) { return 0.0; }

  Result<TapeRun> StartTape(const FusedTape& tape, std::vector<Value> inputs) {
    TapeRun run(inputs.size() + tape.steps.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      run[i] = std::move(inputs[i].matrix);
    }
    return run;
  }
  /// Estimates the step exactly as its standalone operator would.
  double TapeStepSparsity(TapeRun& run, const FusedTape& tape,
                          const TapeStep& step) {
    const auto slot = [&](int32_t s) -> const NodeStats& {
      return run[static_cast<size_t>(s)];
    };
    NodeStats& out = run[static_cast<size_t>(tape.num_inputs) + step.index];
    if (step.rhs < 0) {
      out = ComputeUnary(step.op, slot(step.lhs));
    } else if (step.broadcast) {
      out = estimator_.ScalarBroadcast(step.op, slot(step.matrix_slot));
    } else {
      out = estimator_.Elementwise(step.op, slot(step.lhs), slot(step.rhs));
    }
    return out.sparsity;
  }
  NodeStats FinishTape(TapeRun&& run, const FusedTape&,
                       const std::vector<MatInfo>&) {
    return std::move(run.back());
  }

  void Book(const OpCosting& costing) {
    cost_ += costing.Charge();
    seconds_ += costing.Seconds(model_);
  }
  void BookDistributedFlops(double flops) {
    cost_.distributed_flops += flops;
    seconds_ += flops * model_.WFlop();
  }

  const CostModel& cost_model_;
  const SparsityEstimator& estimator_;
  const VarStats* vars_ = nullptr;
  const CostModel::BlockResolver* resolver_ = nullptr;
  bool sweep_loops_ = false;
  LedgerCharge cost_;
  double seconds_ = 0.0;
};

}  // namespace remac

#endif  // REMAC_COST_COST_PREDICTOR_H_
