#ifndef REMAC_RUNTIME_EXECUTOR_H_
#define REMAC_RUNTIME_EXECUTOR_H_

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_model.h"
#include "cluster/transmission_ledger.h"
#include "common/status.h"
#include "distributed/distributed_ops.h"
#include "matrix/fused_tape.h"
#include "matrix/matrix.h"
#include "plan/plan_builder.h"
#include "runtime/plan_walk.h"

namespace remac {

/// Runtime value: a scalar or a matrix with its placement.
using RtValue = PlanValue<Matrix>;

/// \brief First-load registry shared by executors running concurrently.
///
/// The task-graph path gives every task its own Executor; this set makes
/// "book the input-partition cost once per dataset" hold program-wide
/// instead of per-executor.
struct SharedDatasetSet {
  std::mutex mu;
  std::set<std::string> loaded;

  /// Marks `name` loaded; true only on the first call for that name.
  bool MarkLoaded(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu);
    return loaded.insert(name).second;
  }
};

/// \brief Serving hook for materialized sub-plan results.
///
/// The service's matcache implements this to splice cached intermediates
/// into plan evaluation without rewriting the (shared, immutable) plan
/// trees: before evaluating a node the executor asks Lookup — a non-null
/// result *is* the node's value and the subtree underneath is never
/// walked (no FLOPs, no transmission booked, the runtime equivalent of
/// rewriting the sub-plan into a cache read). After computing a node the
/// executor calls Offer so the store can capture values it asked for.
/// Implementations must be thread-safe: the task-graph path calls both
/// hooks from concurrent per-task executors.
class IntermediateStore {
 public:
  virtual ~IntermediateStore() = default;

  /// The served value for this exact plan node, or null to evaluate it
  /// normally. The pointer must stay valid for the execution's lifetime.
  virtual const RtValue* Lookup(const PlanNode* node) = 0;

  /// Offers a freshly computed node value (called for every evaluated
  /// node; implementations filter by pointer identity).
  virtual void Offer(const PlanNode* node, const RtValue& value) = 0;
};

/// \brief Executes compiled statements against the simulated cluster.
///
/// The real-matrix domain of PlanWalk: operators are computed for real
/// with the local kernels while the walk books their distributed cost
/// (FLOPs and transmission bytes) into the ledger; see DESIGN.md for the
/// substitution argument. The cost audit runs the same walk over
/// estimated statistics (obs/cost_audit.h). Loops marked barrier_commit
/// evaluate every non-temp assignment against the start-of-iteration
/// environment and commit them together, which is how the optimizer's
/// fully-inlined outputs preserve sequential semantics.
class Executor : public PlanWalk<Executor, Matrix> {
 public:
  Executor(const ClusterModel& model, const DataCatalog* catalog,
           TransmissionLedger* ledger, EngineTraits traits = {});

  /// Books the dfs cost of partitioning every catalog dataset referenced
  /// by read() into the cluster (Figure 12's "input partition" phase).
  /// No-op for datasets already loaded.
  void set_count_input_partition(bool on) { count_input_partition_ = on; }

  /// Routes first-load tracking through a registry shared across
  /// executors (the task-graph path; see SharedDatasetSet).
  void set_shared_loaded_datasets(SharedDatasetSet* shared) {
    shared_datasets_ = shared;
  }

  /// Attaches a materialized-intermediate store (see IntermediateStore).
  /// Null (the default) evaluates every node; behaviour is then bitwise
  /// identical to builds without the hook.
  void set_intermediate_store(IntermediateStore* store) {
    intermediates_ = store;
  }

  /// Position in the deterministic rand() stream. The task-graph
  /// executor re-bases each task to the offset the serial executor would
  /// have reached, so rand-using programs stay bitwise reproducible.
  void set_rand_counter(uint64_t value) { rand_counter_ = value; }
  uint64_t rand_counter() const { return rand_counter_; }

  int64_t ops_executed() const { return ops_executed_; }

 private:
  friend class PlanWalk<Executor, Matrix>;

  // PlanWalk domain hooks.
  Result<RtValue> EvalAssign(const CompiledStmt& stmt);
  Result<bool> LoopContinues(const RtValue& condition);
  Result<RtValue> Input(const std::string& name);
  const RtValue* Served(const PlanNode& node);
  void Offer(const PlanNode& node, const RtValue& value);
  void CountOp();
  void Densify(Matrix* m);
  Result<RtValue> ReadData(const std::string& name);
  Matrix Generate(const PlanNode& node);
  Matrix ComputeTranspose(const Matrix& m);
  Result<Matrix> ComputeMultiply(const RtValue& a, bool a_transposed,
                                 const RtValue& b, bool b_transposed,
                                 OpCosting* costing);
  Result<Matrix> ComputeElementwise(PlanOp op, const Matrix& a,
                                    const Matrix& b);
  Result<Matrix> ComputeBroadcast(PlanOp op, const Matrix& m, double s,
                                  bool scalar_left);
  Matrix ComputeUnary(PlanOp op, const Matrix& m);
  Matrix ComputeLineSums(PlanOp op, const Matrix& m);
  Matrix ComputeDiag(const Matrix& m);
  double ComputeReduction(PlanOp op, const Matrix& m);
  Result<FusedExecResult> StartTape(const FusedTape& tape,
                                    std::vector<RtValue> inputs);
  double TapeStepSparsity(const FusedExecResult& run, const FusedTape& tape,
                          const TapeStep& step);
  Matrix FinishTape(FusedExecResult&& run, const FusedTape& tape,
                    const std::vector<MatInfo>& slots);
  void Book(const OpCosting& costing);
  void BookDistributedFlops(double flops);

  /// If `stmt` re-assigns a matrix variable its plan reads exactly once,
  /// moves the old value into `steal_` so the single kInput reference can
  /// consume it (last use) and fused kernels may reuse its buffer.
  void ArmBufferSteal(const CompiledStmt& stmt);

  const DataCatalog* catalog_;
  TransmissionLedger* ledger_;
  std::map<std::string, bool> loaded_datasets_;
  SharedDatasetSet* shared_datasets_ = nullptr;
  IntermediateStore* intermediates_ = nullptr;
  bool count_input_partition_ = false;
  int64_t ops_executed_ = 0;
  uint64_t rand_counter_ = 0;
  /// Armed by EvalAssign for last-use re-assignments; consumed by Input
  /// (see ArmBufferSteal).
  std::optional<std::pair<std::string, RtValue>> steal_;
};

}  // namespace remac

#endif  // REMAC_RUNTIME_EXECUTOR_H_
