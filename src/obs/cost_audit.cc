#include "obs/cost_audit.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/string_util.h"
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

namespace {

NodeStats PlainStats(double rows, double cols, double sparsity) {
  NodeStats stats;
  stats.rows = rows;
  stats.cols = cols;
  stats.sparsity = std::clamp(sparsity, 0.0, 1.0);
  return stats;
}

/// The estimated-statistics domain of PlanWalk: every payload is the
/// optimizer's sparsity estimate, and booking accumulates a
/// PredictedCost instead of the ledger.
class CostPredictor : public PlanWalk<CostPredictor, NodeStats> {
 public:
  CostPredictor(const DataCatalog& catalog,
                const SparsityEstimator& estimator, const ClusterModel& model,
                const EngineTraits& traits)
      : PlanWalk(model, traits), catalog_(catalog), estimator_(estimator) {}

  const PredictedCost& cost() const { return cost_; }

 private:
  friend class PlanWalk<CostPredictor, NodeStats>;

  /// A fused region's input-slot statistics, then each step's.
  using TapeRun = std::vector<NodeStats>;

  // A condition's outcome is unknowable here: the audit assumes every
  // loop runs to its limit (see PredictProgramCost).
  Result<bool> LoopContinues(const Value&) { return true; }

  Result<Value> ReadData(const std::string& name) {
    REMAC_ASSIGN_OR_RETURN(const MatrixStats stats, catalog_.Stats(name));
    return Value::FromMatrix(estimator_.LeafStats(name, stats),
                             /*distributed=*/true);
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
    return PlainStats(m.rows, m.cols,
                      op == PlanOp::kExp ? 1.0 : m.sparsity);
  }
  NodeStats ComputeLineSums(PlanOp op, const NodeStats& m) {
    const bool rows = op == PlanOp::kRowSums;
    return PlainStats(rows ? m.rows : 1.0, rows ? 1.0 : m.cols,
                      1.0);  // dense result vector
  }
  NodeStats ComputeDiag(const NodeStats& m) {
    if (m.cols == 1.0) {
      // Vector -> diagonal matrix: keeps the vector's nnz.
      const double sp = m.rows > 0 ? m.sparsity / m.rows : 0.0;
      return PlainStats(m.rows, m.rows, sp);
    }
    // Square matrix -> diagonal vector; assume uniform sparsity.
    return PlainStats(m.rows, 1.0, m.sparsity);
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

  void Book(const OpCosting& costing) { cost_ += costing.Charge(); }
  void BookDistributedFlops(double flops) {
    cost_.distributed_flops += flops;
  }

  const DataCatalog& catalog_;
  const SparsityEstimator& estimator_;
  PredictedCost cost_;
};

}  // namespace

Result<PredictedCost> PredictProgramCost(const CompiledProgram& program,
                                         const DataCatalog& catalog,
                                         const SparsityEstimator& estimator,
                                         const ClusterModel& model,
                                         const EngineTraits& traits,
                                         int loop_iterations) {
  CostPredictor predictor(catalog, estimator, model, traits);
  REMAC_RETURN_NOT_OK(predictor.Run(program.statements, loop_iterations));
  return predictor.cost();
}

double PrimitiveAudit::RelativeError() const {
  const double denom = std::fabs(actual);
  if (denom < 1e-9) return std::fabs(predicted) < 1e-9 ? 0.0 : 1.0;
  return std::fabs(predicted - actual) / denom;
}

std::string CostAuditRecord::ToString() const {
  if (!valid) {
    return "cost-model accuracy: unavailable (" + error + ")\n";
  }
  std::string out = "cost-model accuracy (predicted vs actual):\n";
  const auto line = [](const char* label, const PrimitiveAudit& p) {
    return StringFormat("  %-12s predicted %-12.4g actual %-12.4g "
                        "rel-err %.2f%%\n",
                        label, p.predicted, p.actual,
                        p.RelativeError() * 100.0);
  };
  out += line("flop", flops);
  for (size_t i = 0; i < transmission.size(); ++i) {
    out += line(
        TransmissionPrimitiveName(static_cast<TransmissionPrimitive>(i)),
        transmission[i]);
  }
  return out;
}

CostAuditRecord MakeCostAudit(
    const PredictedCost& predicted, double actual_flops,
    const std::array<double, kNumTransmissionPrimitives>& actual_bytes) {
  CostAuditRecord audit;
  audit.valid = true;
  audit.flops.predicted = predicted.TotalFlops();
  audit.flops.actual = actual_flops;
  for (size_t i = 0; i < actual_bytes.size(); ++i) {
    audit.transmission[i].predicted = predicted.bytes[i];
    audit.transmission[i].actual = actual_bytes[i];
  }
  return audit;
}

void PublishCostAudit(const CostAuditRecord& audit,
                      MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->GetCounter("remac.audit.programs")->Add();
  if (!audit.valid) {
    registry->GetCounter("remac.audit.failures")->Add();
    return;
  }
  static const std::vector<double> kErrorBounds = {0.001, 0.01, 0.05, 0.1,
                                                   0.25, 0.5,  1.0,  2.0};
  const auto publish = [&](const std::string& key, const PrimitiveAudit& p) {
    registry->GetGauge("remac.audit." + key + ".predicted")->Add(p.predicted);
    registry->GetGauge("remac.audit." + key + ".actual")->Add(p.actual);
    registry->GetHistogram("remac.audit." + key + ".rel_error", kErrorBounds)
        ->Observe(p.RelativeError());
  };
  publish("flops", audit.flops);
  for (size_t i = 0; i < audit.transmission.size(); ++i) {
    publish(TransmissionPrimitiveName(static_cast<TransmissionPrimitive>(i)),
            audit.transmission[i]);
  }
}

}  // namespace remac
