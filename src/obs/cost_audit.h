#ifndef REMAC_OBS_COST_AUDIT_H_
#define REMAC_OBS_COST_AUDIT_H_

#include <array>
#include <string>

#include "cluster/cluster_model.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"
#include "sparsity/estimator.h"

namespace remac {

/// \brief Cost-model accuracy audit (ISSUE/paper Section 4).
///
/// ReMac picks elimination combinations by predicted cost
/// (w_flop * FLOP + sum_pr w_pr * D_pr); this module checks that those
/// predictions track what the simulated cluster actually booked. Before
/// execution, PredictProgramCost runs the executor's own walk
/// (runtime/plan_walk.h: transpose fusion, scalar degradation, placement,
/// fused-tape booking, barrier-commit loops) over the optimizer's
/// sparsity *estimates* instead of materialized matrices, in the domain
/// the optimizer prices plans with (cost/cost_predictor.h). The walk
/// books the same OpCosting for every operator on both sides, so any
/// predicted-vs-actual gap comes from estimation: of sparsities, and of
/// the multiply method (local, BMM or CPMM) chosen on them. After
/// execution, the runner pairs the prediction with the ledger delta.

/// FLOPs and per-primitive transmission bytes a program is predicted to
/// book into the TransmissionLedger.
using PredictedCost = LedgerCharge;

/// Runs the executor's plan walk over `program` with statistics from
/// `estimator`. `loop_iterations` must be the iteration count the
/// executor will actually run (the audit cannot predict condition-based
/// early exit — a documented limitation).
Result<PredictedCost> PredictProgramCost(const CompiledProgram& program,
                                         const DataCatalog& catalog,
                                         const SparsityEstimator& estimator,
                                         const ClusterModel& model,
                                         const EngineTraits& traits,
                                         int loop_iterations);

/// One predicted-vs-actual pair.
struct PrimitiveAudit {
  double predicted = 0.0;
  double actual = 0.0;

  /// |predicted - actual| / actual; 1.0 when the model predicted work
  /// where none happened, 0.0 when both sides are zero.
  double RelativeError() const;
};

/// Per-program audit result attached to RunReport and rendered by
/// `remac run --stats`.
struct CostAuditRecord {
  /// False when prediction failed (error holds why); audit failures never
  /// fail the run itself.
  bool valid = false;
  std::string error;
  PrimitiveAudit flops;
  /// Indexed by TransmissionPrimitive.
  std::array<PrimitiveAudit, kNumTransmissionPrimitives> transmission{};

  /// Human-readable accuracy section (predicted / actual / rel-err per
  /// primitive).
  std::string ToString() const;
};

/// Pairs a prediction with the ledger-observed actuals.
CostAuditRecord MakeCostAudit(
    const PredictedCost& predicted, double actual_flops,
    const std::array<double, kNumTransmissionPrimitives>& actual_bytes);

/// Records the audit into `registry` under remac.audit.* (per-program
/// relative-error histograms plus running predicted/actual totals).
void PublishCostAudit(const CostAuditRecord& audit, MetricsRegistry* registry);

}  // namespace remac

#endif  // REMAC_OBS_COST_AUDIT_H_
