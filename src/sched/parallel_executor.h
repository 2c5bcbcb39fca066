#ifndef REMAC_SCHED_PARALLEL_EXECUTOR_H_
#define REMAC_SCHED_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/fault_plan.h"
#include "runtime/executor.h"
#include "sched/task_graph.h"
#include "sched/thread_pool.h"

namespace remac {

/// \brief How a task-graph run would schedule on the modeled cluster.
///
/// Execution books each task's simulated cost (FLOPs + transmission
/// converted to seconds) into a private ledger; afterwards the DAG is
/// list-scheduled over ClusterModel::num_workers to obtain the parallel
/// makespan. `serial_seconds` is the old serial-sum accounting, so both
/// are reported side by side (see DESIGN.md, "Serial sum vs critical
/// path").
struct ScheduleReport {
  bool used = false;
  int pool_threads = 0;     // real threads that executed the DAG
  int modeled_workers = 0;  // simulated workers the makespan assumes
  int64_t tasks = 0;        // DAG nodes executed (loop iterations included)
  int64_t edges = 0;        // dependency edges across all executed DAGs
  /// Serial-sum simulated execution time (compute + transmission), the
  /// quantity the serial executor's ledger reports.
  double serial_seconds = 0.0;
  /// Longest dependency chain — the makespan with unbounded workers.
  double critical_path_seconds = 0.0;
  /// List-scheduled makespan over `modeled_workers`. Always within
  /// [critical_path_seconds, serial_seconds].
  double makespan_seconds = 0.0;

  /// Chaos-run accounting (all zero when no FaultInjector is attached).
  bool chaos = false;
  int64_t faults_injected = 0;  // failing faults (transients + crashes)
  int64_t transients = 0;
  int64_t crashes = 0;
  int64_t stragglers = 0;
  int64_t retries = 0;    // re-executed attempts
  int64_t exhausted = 0;  // tasks that ran out of retries
  double wasted_seconds = 0.0;   // simulated cost of discarded attempts
  double backoff_seconds = 0.0;  // simulated retry backoff + rescheduling

  double Speedup() const {
    return makespan_seconds > 0.0 ? serial_seconds / makespan_seconds : 1.0;
  }
  std::string ToString() const;
};

/// List-schedules `costs` over `workers` machines in id order (ids are a
/// topological order: every dep precedes its dependents). Returns the
/// makespan. `deps[i]` holds prerequisite ids of task i.
double ListScheduleMakespan(const std::vector<std::vector<int>>& deps,
                            const std::vector<double>& costs, int workers);

/// Longest dependency chain (sum of costs along the heaviest path).
double CriticalPathSeconds(const std::vector<std::vector<int>>& deps,
                           const std::vector<double>& costs);

/// \brief Runs compiled statements as a dependency DAG on a thread pool.
///
/// Statement-level parallelism: independent assignments (and whole
/// loops) run concurrently on the pool; each loop iteration spawns its
/// own DAG over the loop body. Every task evaluates with a private
/// Executor seeded from a shared variable store, so numerics are
/// bitwise-identical to the serial Executor: kernels chunk work the same
/// way regardless of pool size, and rand() draws are re-based to the
/// serial stream position of each statement.
class ParallelExecutor {
 public:
  ParallelExecutor(const ClusterModel& model, const DataCatalog* catalog,
                   TransmissionLedger* ledger, ThreadPool* pool,
                   EngineTraits traits = {});

  /// See Executor::set_count_input_partition.
  void set_count_input_partition(bool on) { count_input_partition_ = on; }
  /// Optional fault oracle for chaos runs. Failed attempts are retried
  /// (up to the plan's max_retries) with their wasted work double-booked
  /// into the ledger; results stay bitwise-identical to a fault-free run
  /// whenever retries eventually succeed. Must outlive Run().
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  /// Optional materialized-intermediate store, forwarded to every
  /// per-task Executor (see IntermediateStore; must be thread-safe and
  /// outlive Run()).
  void set_intermediate_store(IntermediateStore* store) {
    intermediates_ = store;
  }

  /// Runs a statement list; semantics identical to Executor::Run.
  Status Run(const std::vector<CompiledStmt>& statements,
             int max_loop_iterations = 1000);

  /// Final environment (valid after Run).
  const std::map<std::string, RtValue>& env() const { return env_; }
  Result<RtValue> Get(const std::string& name) const;

  const ScheduleReport& schedule() const { return schedule_; }
  int64_t ops_executed() const {
    return ops_executed_.load(std::memory_order_relaxed);
  }

 private:
  /// Simulated durations of one executed statement list.
  struct ListTimes {
    double makespan_seconds = 0.0;
    double critical_path_seconds = 0.0;
    uint64_t rand_consumed = 0;  // rand() draws the list used
  };

  Result<ListTimes> RunList(const std::vector<CompiledStmt>& statements,
                            int max_loop_iterations, bool barrier_commit,
                            uint64_t rand_base);
  Result<ListTimes> RunLoop(const CompiledStmt& stmt,
                            int max_loop_iterations, uint64_t rand_base);

  /// Makes a task-local Executor seeded with the current values of
  /// `reads` (missing names are left unset so evaluation reports the
  /// same NotFound as the serial path).
  Executor MakeTaskExecutor(const std::vector<std::string>& reads,
                            TransmissionLedger* task_ledger,
                            uint64_t rand_base);

  RtValue StoreGetOr(const std::string& name, bool* found) const;
  void StoreSet(const std::string& name, RtValue value);

  ClusterModel model_;
  const DataCatalog* catalog_;
  TransmissionLedger* ledger_;
  ThreadPool* pool_;
  EngineTraits traits_;
  bool count_input_partition_ = false;
  FaultInjector* faults_ = nullptr;
  IntermediateStore* intermediates_ = nullptr;

  mutable std::mutex env_mu_;
  std::map<std::string, RtValue> env_;
  SharedDatasetSet datasets_;

  ScheduleReport schedule_;
  std::atomic<int64_t> ops_executed_{0};
  std::atomic<int64_t> tasks_run_{0};
  std::atomic<int64_t> edges_seen_{0};
  /// Serial-sum of leaf task costs (atomic double via CAS).
  std::atomic<double> serial_seconds_{0.0};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> exhausted_{0};
  std::atomic<double> wasted_seconds_{0.0};
  std::atomic<double> backoff_seconds_{0.0};
};

}  // namespace remac

#endif  // REMAC_SCHED_PARALLEL_EXECUTOR_H_
