#ifndef REMAC_RUNTIME_PROGRAM_RUNNER_H_
#define REMAC_RUNTIME_PROGRAM_RUNNER_H_

#include <map>
#include <string>
#include <vector>

#include "baselines/engine_modes.h"
#include "cluster/fault_plan.h"
#include "cluster/transmission_ledger.h"
#include "common/status.h"
#include "core/adaptive_optimizer.h"
#include <memory>

#include "obs/cost_audit.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"
#include "sched/parallel_executor.h"

namespace remac {

/// Which compiler produces the executed plan.
enum class OptimizerKind {
  kAsWritten,          // no optimization at all (pbdR/SciDB style)
  kSystemDs,           // explicit CSE + chain reordering
  kSystemDsNoCse,      // SystemDS* of Figure 8(b)
  kSpores,             // sampled implicit-CSE search
  kRemacNone,          // ReMac pipeline, no elimination applied
  kRemacAutomatic,     // automatic elimination, applied blindly
  kRemacConservative,  // order-preserving options only
  kRemacAggressive,    // everything, order-changing first
  kRemacAdaptive,      // ReMac proper
};

const char* OptimizerKindName(OptimizerKind kind);

enum class EstimatorKind { kMetadata, kMnc, kSampling, kExact };

const char* EstimatorKindName(EstimatorKind kind);

/// Constructs the sparsity estimator a RunConfig selects (the exact
/// estimator binds to `catalog`; the rest ignore it). Shared by the
/// optimizer switch, the cost audit, and the materialized-intermediate
/// cache's recompute-cost predictions.
std::unique_ptr<SparsityEstimator> MakeEstimator(EstimatorKind kind,
                                                 const DataCatalog* catalog);

/// Which execution backend runs the optimized program.
enum class SchedulerKind {
  kSerial,     // one statement at a time (the classic Executor)
  kTaskGraph,  // dependency DAG on the shared thread pool
};

const char* SchedulerKindName(SchedulerKind kind);

/// One experiment configuration: cluster, compiler, estimator, engine.
struct RunConfig {
  ClusterModel cluster;
  OptimizerKind optimizer = OptimizerKind::kRemacAdaptive;
  EstimatorKind estimator = EstimatorKind::kMnc;
  CombinerKind combiner = CombinerKind::kDp;
  EngineKind engine = EngineKind::kSystemDsLike;
  /// Loop iteration cap; also the LSE amortization horizon.
  int max_iterations = 20;
  /// When > 0, the executor runs only this many loop iterations while the
  /// optimizer still amortizes over max_iterations — benchmark harnesses
  /// execute 1-2 real iterations and extrapolate the simulated loop time.
  int executed_iterations = -1;
  /// Book the dfs cost of partitioning inputs (Figure 12).
  bool count_input_partition = false;
  /// Skip execution (compile-only experiments, Figures 8(a)/10(a)).
  bool execute = true;
  /// Override the ReMac search method (Figure 8(a)'s tree-wise arm).
  SearchMethod search = SearchMethod::kBlockWise;
  int64_t treewise_budget = 5000000;
  int64_t enum_budget = 100000;
  /// Manual elimination: apply exactly these canonical option keys
  /// (overrides the strategy of the ReMac optimizer kinds).
  std::vector<std::string> forced_option_keys;
  /// Execution backend. kTaskGraph runs independent statements
  /// concurrently on the shared thread pool and additionally reports the
  /// DAG's critical-path makespan; numerics stay bitwise-identical to
  /// kSerial.
  SchedulerKind scheduler = SchedulerKind::kSerial;
  /// Thread count for the shared pool when scheduler == kTaskGraph
  /// (0 = keep the pool's current size). Must not shrink/grow the pool
  /// while another run is in flight.
  int pool_threads = 0;
  /// Deterministic fault injection (chaos runs). Only the task-graph
  /// scheduler injects faults; the serial executor always runs fault-free
  /// and serves as the reference (and degradation fallback) path.
  FaultPlan faults;
  /// Optional materialized-intermediate store spliced into execution
  /// (see IntermediateStore). Null keeps behaviour bitwise-identical to
  /// builds without the hook. Must be thread-safe under kTaskGraph and
  /// outlive ExecuteCompiled.
  IntermediateStore* intermediates = nullptr;
  /// Rewrite same-shape elementwise chains into single-pass fused-map
  /// regions after optimization (see plan/fusion.h). Results are
  /// bitwise-identical with the flag off; off exists for A/B comparison
  /// and the equivalence gates.
  bool fuse_elementwise = true;
};

struct RunReport {
  /// Simulated cluster time of the execution.
  TimeBreakdown breakdown;
  /// Real wall time of the parse stage and of the optimize stage
  /// (compile_wall_seconds, zero for a served plan-cache hit); never part
  /// of `breakdown`.
  double parse_wall_seconds = 0.0;
  double compile_wall_seconds = 0.0;
  /// Populated by the kTaskGraph scheduler: serial-sum vs critical-path
  /// simulated time, task/edge counts (see ScheduleReport).
  ScheduleReport schedule;
  OptimizeReport optimize;  // populated by the ReMac/SPORES paths
  /// Predicted-vs-actual cost comparison for this execution (valid only
  /// when the program was executed and prediction succeeded).
  CostAuditRecord audit;
  std::map<std::string, RtValue> env;  // final variable values
  std::string optimized_source;        // final program rendering
  /// The optimized program itself (plan trees), for inspection and
  /// visualization (see plan/plan_dot.h).
  std::shared_ptr<const CompiledProgram> optimized_program;
};

/// Compiles `source` with the configured optimizer, executes it against
/// the simulated cluster, and reports the simulated time breakdown plus
/// the final environment. The one-call public API of the library.
Result<RunReport> RunScript(const std::string& source,
                            const DataCatalog& catalog,
                            const RunConfig& config);

/// Runs just the optimizer stage of RunScript on an already-compiled
/// program: the switch over OptimizerKind, including estimator
/// construction. `report` may be null. The plan service calls this once
/// per cache miss and replays the result on hits.
Result<CompiledProgram> OptimizeCompiled(const CompiledProgram& program,
                                         const DataCatalog& catalog,
                                         const RunConfig& config,
                                         OptimizeReport* report);

/// Executes an already-optimized program on the configured backend
/// (serial or task-graph), booking simulated costs into `ledger` and
/// filling `report->env` (plus `report->schedule` for the task-graph
/// path). Does not touch `report->breakdown`; callers snapshot the
/// ledger afterwards.
Status ExecuteCompiled(const CompiledProgram& optimized,
                       const DataCatalog& catalog, const RunConfig& config,
                       TransmissionLedger* ledger, RunReport* report);

/// Compile-only variant (used by compilation-time experiments).
Result<RunReport> CompileOnly(const std::string& source,
                              const DataCatalog& catalog,
                              const RunConfig& config);

}  // namespace remac

#endif  // REMAC_RUNTIME_PROGRAM_RUNNER_H_
