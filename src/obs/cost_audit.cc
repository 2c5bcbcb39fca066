#include "obs/cost_audit.h"

#include <cmath>
#include <vector>

#include "common/string_util.h"
#include "cost/cost_predictor.h"

namespace remac {

Result<PredictedCost> PredictProgramCost(const CompiledProgram& program,
                                         const DataCatalog& catalog,
                                         const SparsityEstimator& estimator,
                                         const ClusterModel& model,
                                         const EngineTraits& traits,
                                         int loop_iterations) {
  const CostModel cost_model(model, &estimator, &catalog);
  CostPredictor predictor(cost_model, traits);
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
