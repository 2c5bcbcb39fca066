#include "runtime/program_runner.h"

#include <algorithm>
#include <memory>

#include "baselines/spores_optimizer.h"
#include "baselines/systemds_optimizer.h"
#include "cost/cost_model.h"
#include "obs/metrics.h"
#include "plan/fusion.h"
#include "obs/span.h"
#include "sparsity/estimator.h"

namespace remac {

const char* OptimizerKindName(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kAsWritten: return "as-written";
    case OptimizerKind::kSystemDs: return "SystemDS";
    case OptimizerKind::kSystemDsNoCse: return "SystemDS*";
    case OptimizerKind::kSpores: return "SPORES";
    case OptimizerKind::kRemacNone: return "ReMac(none)";
    case OptimizerKind::kRemacAutomatic: return "automatic";
    case OptimizerKind::kRemacConservative: return "conservative";
    case OptimizerKind::kRemacAggressive: return "aggressive";
    case OptimizerKind::kRemacAdaptive: return "adaptive";
  }
  return "?";
}

const char* EstimatorKindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kMetadata: return "MD";
    case EstimatorKind::kMnc: return "MNC";
    case EstimatorKind::kSampling: return "Sample";
    case EstimatorKind::kExact: return "Exact";
  }
  return "?";
}

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSerial: return "serial";
    case SchedulerKind::kTaskGraph: return "taskgraph";
  }
  return "?";
}

std::unique_ptr<SparsityEstimator> MakeEstimator(EstimatorKind kind,
                                                 const DataCatalog* catalog) {
  switch (kind) {
    case EstimatorKind::kMetadata:
      return std::make_unique<MetadataEstimator>();
    case EstimatorKind::kMnc:
      return std::make_unique<MncEstimator>();
    case EstimatorKind::kSampling:
      return std::make_unique<SamplingEstimator>();
    case EstimatorKind::kExact: {
      auto est = std::make_unique<ExactEstimator>();
      est->AttachCatalog(catalog);
      return est;
    }
  }
  return std::make_unique<MetadataEstimator>();
}

namespace {

EliminationStrategy StrategyFor(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kRemacNone:
      return EliminationStrategy::kNone;
    case OptimizerKind::kRemacAutomatic:
      return EliminationStrategy::kAutomatic;
    case OptimizerKind::kRemacConservative:
      return EliminationStrategy::kConservative;
    case OptimizerKind::kRemacAggressive:
      return EliminationStrategy::kAggressive;
    default:
      return EliminationStrategy::kAdaptive;
  }
}

Result<RunReport> RunInternal(const std::string& source,
                              const DataCatalog& catalog,
                              const RunConfig& config, bool execute) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  RunReport report;
  StageSpan parse_span(
      registry.GetHistogram("remac.compile.parse_seconds"), "parse");
  REMAC_ASSIGN_OR_RETURN(const CompiledProgram program,
                         CompileScript(source, catalog));
  report.parse_wall_seconds = parse_span.Stop();

  StageSpan optimize_span(
      registry.GetHistogram("remac.compile.optimize_seconds"), "optimize");
  REMAC_ASSIGN_OR_RETURN(
      CompiledProgram optimized,
      OptimizeCompiled(program, catalog, config, &report.optimize));
  report.compile_wall_seconds = optimize_span.Stop();
  report.optimized_source = optimized.ToString();
  report.optimized_program =
      std::make_shared<const CompiledProgram>(std::move(optimized));

  TransmissionLedger ledger(config.cluster);
  if (execute) {
    REMAC_RETURN_NOT_OK(ExecuteCompiled(*report.optimized_program, catalog,
                                        config, &ledger, &report));
  }
  report.breakdown = ledger.Breakdown();
  return report;
}

}  // namespace

Result<CompiledProgram> OptimizeCompiled(const CompiledProgram& program,
                                         const DataCatalog& catalog,
                                         const RunConfig& config,
                                         OptimizeReport* report) {
  OptimizeReport local;
  if (report == nullptr) report = &local;
  const std::unique_ptr<SparsityEstimator> estimator =
      MakeEstimator(config.estimator, &catalog);
  Result<CompiledProgram> optimized = [&]() -> Result<CompiledProgram> {
    switch (config.optimizer) {
      case OptimizerKind::kAsWritten:
        return program;
      case OptimizerKind::kSystemDs:
      case OptimizerKind::kSystemDsNoCse: {
        SystemDsConfig sds;
        sds.explicit_cse = config.optimizer == OptimizerKind::kSystemDs;
        return SystemDsOptimize(program, config.cluster, estimator.get(),
                                &catalog, sds);
      }
      case OptimizerKind::kSpores:
        return SporesOptimize(program, config.cluster, estimator.get(),
                              &catalog, SporesConfig{}, report);
      default: {
        OptimizerConfig opt;
        opt.iterations = config.max_iterations;
        opt.strategy = StrategyFor(config.optimizer);
        opt.combiner = config.combiner;
        opt.search = config.search;
        opt.treewise_budget = config.treewise_budget;
        opt.enum_budget = config.enum_budget;
        opt.forced_option_keys = config.forced_option_keys;
        ReMacOptimizer optimizer(config.cluster, estimator.get(), &catalog,
                                 opt);
        return optimizer.Optimize(program, report);
      }
    }
    return Status::Internal("unhandled optimizer kind");
  }();
  if (!optimized.ok()) return optimized;
  CompiledProgram final_program = std::move(optimized).value();
  // Stamp each multiply with the layout the cost model picks for it
  // (local, BMM or CPMM) so the plan records the decision for
  // reporting. Advisory: a failed annotation leaves nodes at kUnset.
  const CostModel layout_model(config.cluster, estimator.get(), &catalog);
  (void)AnnotateMultiplyLayouts(&final_program, layout_model);
  // Last pass: collapse same-shape elementwise chains into single-pass
  // fused regions. Runs after all plan-shape decisions (sharing decisions
  // are statement boundaries by now, so fusion never absorbs a
  // multi-consumer intermediate).
  if (config.fuse_elementwise) {
    FuseElementwiseChains(&final_program, nullptr);
  }
  return final_program;
}

namespace {

/// Snapshot of the audited ledger accumulators, so ExecuteCompiled can
/// attribute exactly this execution's delta even when the caller reuses
/// a ledger across runs.
struct LedgerSnapshot {
  double flops = 0.0;
  std::array<double, kNumTransmissionPrimitives> bytes{};

  static LedgerSnapshot Of(const TransmissionLedger& ledger) {
    LedgerSnapshot snap;
    snap.flops = ledger.TotalFlops();
    for (size_t i = 0; i < snap.bytes.size(); ++i) {
      snap.bytes[i] =
          ledger.BytesFor(static_cast<TransmissionPrimitive>(i));
    }
    return snap;
  }
};

/// Runs the accuracy audit for one finished execution and publishes the
/// ledger delta plus audit metrics. Audit failures are recorded but never
/// fail the run.
void AuditExecution(const CompiledProgram& optimized,
                    const DataCatalog& catalog, const RunConfig& config,
                    int executed_iterations, const LedgerSnapshot& before,
                    const TransmissionLedger& ledger, RunReport* report) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const LedgerSnapshot after = LedgerSnapshot::Of(ledger);
  const double actual_flops = after.flops - before.flops;
  std::array<double, kNumTransmissionPrimitives> actual_bytes{};
  for (size_t i = 0; i < actual_bytes.size(); ++i) {
    actual_bytes[i] = after.bytes[i] - before.bytes[i];
    registry
        .GetGauge(std::string("remac.ledger.") +
                  TransmissionPrimitiveName(
                      static_cast<TransmissionPrimitive>(i)) +
                  "_bytes")
        ->Add(actual_bytes[i]);
  }
  registry.GetGauge("remac.ledger.flops")->Add(actual_flops);

  const std::unique_ptr<SparsityEstimator> estimator =
      MakeEstimator(config.estimator, &catalog);
  const Result<PredictedCost> predicted = PredictProgramCost(
      optimized, catalog, *estimator, config.cluster,
      TraitsFor(config.engine), executed_iterations);
  CostAuditRecord audit;
  if (predicted.ok()) {
    audit = MakeCostAudit(predicted.value(), actual_flops, actual_bytes);
  } else {
    audit.error = predicted.status().ToString();
  }
  PublishCostAudit(audit, &registry);
  if (report != nullptr) report->audit = audit;
}

}  // namespace

Status ExecuteCompiled(const CompiledProgram& optimized,
                       const DataCatalog& catalog, const RunConfig& config,
                       TransmissionLedger* ledger, RunReport* report) {
  const int executed = config.executed_iterations > 0
                           ? std::min(config.executed_iterations,
                                      config.max_iterations)
                           : config.max_iterations;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("remac.executor.programs")->Add();
  // Entered scope: task, kernel and audit spans recorded below — on this
  // thread or on pool workers the scheduler fans out to — nest under the
  // request's "execute" span.
  ScopedTraceSpan trace_span("execute", "stage", /*enter=*/true);
  StageSpan execute_span(
      registry.GetHistogram("remac.executor.execute_seconds"),
      "execute-measured");
  const LedgerSnapshot before = LedgerSnapshot::Of(*ledger);
  if (config.scheduler == SchedulerKind::kTaskGraph) {
    if (config.pool_threads > 0) {
      // Only the execution lane: this may run on a request-lane worker
      // (Session-submitted requests), which must never join its own lane.
      ThreadPool::SetExecLaneThreads(config.pool_threads);
    }
    ParallelExecutor executor(config.cluster, &catalog, ledger,
                              &ThreadPool::Global(),
                              TraitsFor(config.engine));
    executor.set_count_input_partition(config.count_input_partition);
    executor.set_intermediate_store(config.intermediates);
    std::unique_ptr<FaultInjector> faults;
    if (config.faults.enabled) {
      faults = std::make_unique<FaultInjector>(config.faults);
      executor.set_fault_injector(faults.get());
    }
    const Status run_status = executor.Run(optimized.statements, executed);
    // The schedule report carries the fault/retry accounting, which
    // callers (and the degradation path) want even when retries ran out.
    report->schedule = executor.schedule();
    REMAC_RETURN_NOT_OK(run_status);
    report->env = executor.env();
  } else {
    Executor executor(config.cluster, &catalog, ledger,
                      TraitsFor(config.engine));
    executor.set_count_input_partition(config.count_input_partition);
    executor.set_intermediate_store(config.intermediates);
    REMAC_RETURN_NOT_OK(executor.Run(optimized.statements, executed));
    report->env = executor.env();
  }
  execute_span.Stop();
  AuditExecution(optimized, catalog, config, executed, before, *ledger,
                 report);
  return Status::OK();
}

Result<RunReport> RunScript(const std::string& source,
                            const DataCatalog& catalog,
                            const RunConfig& config) {
  return RunInternal(source, catalog, config, config.execute);
}

Result<RunReport> CompileOnly(const std::string& source,
                              const DataCatalog& catalog,
                              const RunConfig& config) {
  return RunInternal(source, catalog, config, /*execute=*/false);
}

}  // namespace remac
