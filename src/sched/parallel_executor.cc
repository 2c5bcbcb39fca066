#include "sched/parallel_executor.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <memory>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace remac {

namespace {

void AtomicAdd(std::atomic<double>& accumulator, double delta) {
  double current = accumulator.load(std::memory_order_relaxed);
  while (!accumulator.compare_exchange_weak(current, current + delta,
                                            std::memory_order_relaxed)) {
  }
}

/// Compute + transmission seconds a task ledger accumulated — the task's
/// duration on the simulated cluster.
double TaskCostSeconds(const TransmissionLedger& ledger) {
  const TimeBreakdown b = ledger.Breakdown();
  return b.computation_seconds + b.transmission_seconds;
}

/// Trace clock when a request trace is active, else 0 (no clock read).
double TraceTimestampUs() {
  return CurrentTraceContext().active() ? TraceNowMicros() : 0.0;
}

/// Records a completed task, loop or loop condition into the calling
/// thread's request span tree. The pool wrapper installed the submitting
/// request's context on this worker, so the span joins that request's
/// tree under the caller's current parent.
void RecordTaskSpan(const std::string& name, const char* category,
                    double start_us) {
  RecordSpanIn(CurrentTraceContext(), name, category, start_us,
               TraceTimestampUs());
}

}  // namespace

std::string ScheduleReport::ToString() const {
  std::string out = StringFormat(
      "tasks=%lld edges=%lld pool_threads=%d workers=%d "
      "serial=%s critical_path=%s makespan=%s speedup=%.2fx",
      static_cast<long long>(tasks), static_cast<long long>(edges),
      pool_threads, modeled_workers, HumanSeconds(serial_seconds).c_str(),
      HumanSeconds(critical_path_seconds).c_str(),
      HumanSeconds(makespan_seconds).c_str(), Speedup());
  if (chaos) {
    out += StringFormat(
        " faults=%lld (transient=%lld crash=%lld straggler=%lld) "
        "retries=%lld exhausted=%lld wasted=%s backoff=%s",
        static_cast<long long>(faults_injected),
        static_cast<long long>(transients), static_cast<long long>(crashes),
        static_cast<long long>(stragglers), static_cast<long long>(retries),
        static_cast<long long>(exhausted), HumanSeconds(wasted_seconds).c_str(),
        HumanSeconds(backoff_seconds).c_str());
  }
  return out;
}

double ListScheduleMakespan(const std::vector<std::vector<int>>& deps,
                            const std::vector<double>& costs, int workers) {
  const size_t n = costs.size();
  std::vector<double> finish(n, 0.0);
  std::vector<double> worker_free(static_cast<size_t>(std::max(1, workers)),
                                  0.0);
  double makespan = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double ready = 0.0;
    for (int dep : deps[i]) {
      ready = std::max(ready, finish[static_cast<size_t>(dep)]);
    }
    size_t best = 0;
    for (size_t w = 1; w < worker_free.size(); ++w) {
      if (worker_free[w] < worker_free[best]) best = w;
    }
    const double start = std::max(ready, worker_free[best]);
    finish[i] = start + costs[i];
    worker_free[best] = finish[i];
    makespan = std::max(makespan, finish[i]);
  }
  return makespan;
}

double CriticalPathSeconds(const std::vector<std::vector<int>>& deps,
                           const std::vector<double>& costs) {
  const size_t n = costs.size();
  std::vector<double> finish(n, 0.0);
  double longest = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double ready = 0.0;
    for (int dep : deps[i]) {
      ready = std::max(ready, finish[static_cast<size_t>(dep)]);
    }
    finish[i] = ready + costs[i];
    longest = std::max(longest, finish[i]);
  }
  return longest;
}

ParallelExecutor::ParallelExecutor(const ClusterModel& model,
                                   const DataCatalog* catalog,
                                   TransmissionLedger* ledger,
                                   ThreadPool* pool, EngineTraits traits)
    : model_(model),
      catalog_(catalog),
      ledger_(ledger),
      pool_(pool),
      traits_(traits) {}

Result<RtValue> ParallelExecutor::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(env_mu_);
  auto it = env_.find(name);
  if (it == env_.end()) {
    return Status::NotFound("variable '" + name + "' is not defined");
  }
  return it->second;
}

RtValue ParallelExecutor::StoreGetOr(const std::string& name,
                                     bool* found) const {
  std::lock_guard<std::mutex> lock(env_mu_);
  auto it = env_.find(name);
  *found = it != env_.end();
  return *found ? it->second : RtValue{};
}

void ParallelExecutor::StoreSet(const std::string& name, RtValue value) {
  std::lock_guard<std::mutex> lock(env_mu_);
  env_.insert_or_assign(name, std::move(value));
}

Executor ParallelExecutor::MakeTaskExecutor(
    const std::vector<std::string>& reads, TransmissionLedger* task_ledger,
    uint64_t rand_base) {
  Executor executor(model_, catalog_, task_ledger, traits_);
  executor.set_count_input_partition(count_input_partition_);
  executor.set_shared_loaded_datasets(&datasets_);
  executor.set_intermediate_store(intermediates_);
  executor.set_rand_counter(rand_base);
  std::lock_guard<std::mutex> lock(env_mu_);
  for (const std::string& name : reads) {
    auto it = env_.find(name);
    if (it != env_.end()) executor.Set(name, it->second);
  }
  return executor;
}

Status ParallelExecutor::Run(const std::vector<CompiledStmt>& statements,
                             int max_loop_iterations) {
  Result<ListTimes> run =
      RunList(statements, max_loop_iterations, /*barrier_commit=*/false,
              /*rand_base=*/0);
  if (faults_ != nullptr) {
    // Published even when the run failed: an exhausted-retries error is
    // exactly when the fault/retry counters matter most.
    const FaultStats fs = faults_->stats();
    schedule_.chaos = true;
    schedule_.faults_injected = fs.injected;
    schedule_.transients = fs.transients;
    schedule_.crashes = fs.crashes;
    schedule_.stragglers = fs.stragglers;
    schedule_.retries = retries_.load(std::memory_order_relaxed);
    schedule_.exhausted = exhausted_.load(std::memory_order_relaxed);
    schedule_.wasted_seconds = wasted_seconds_.load(std::memory_order_relaxed);
    schedule_.backoff_seconds =
        backoff_seconds_.load(std::memory_order_relaxed);
    MetricsRegistry::Global()
        .GetCounter("remac.retry.exhausted")
        ->Add(schedule_.exhausted);
  }
  REMAC_RETURN_NOT_OK(run.status());
  const ListTimes times = *run;
  schedule_.used = true;
  schedule_.pool_threads = pool_->size();
  schedule_.modeled_workers = std::max(1, model_.num_workers);
  schedule_.tasks = tasks_run_.load(std::memory_order_relaxed);
  schedule_.edges = edges_seen_.load(std::memory_order_relaxed);
  schedule_.serial_seconds = serial_seconds_.load(std::memory_order_relaxed);
  // The clamps only absorb floating-point association noise: list
  // scheduling on >= 1 worker can mathematically neither beat the
  // critical path nor lose to the serial sum.
  schedule_.critical_path_seconds =
      std::min(schedule_.critical_path_seconds + times.critical_path_seconds,
               schedule_.serial_seconds);
  schedule_.makespan_seconds = std::clamp(
      schedule_.makespan_seconds + times.makespan_seconds,
      schedule_.critical_path_seconds, schedule_.serial_seconds);
  return Status::OK();
}

Result<ParallelExecutor::ListTimes> ParallelExecutor::RunList(
    const std::vector<CompiledStmt>& statements, int max_loop_iterations,
    bool barrier_commit, uint64_t rand_base) {
  ListTimes times;
  if (statements.empty()) return times;
  if (barrier_commit) {
    for (const CompiledStmt& stmt : statements) {
      if (stmt.kind != CompiledStmt::Kind::kAssign) {
        return Status::Unsupported("nested loop in barrier-commit body");
      }
    }
  }

  const TaskGraph graph = BuildTaskGraph(statements, barrier_commit);
  const size_t n = graph.nodes.size();
  edges_seen_.fetch_add(graph.EdgeCount(), std::memory_order_relaxed);

  struct NodeState {
    std::atomic<int> remaining{0};
    /// rand() draws this node actually consumed (loops; set on finish).
    std::atomic<uint64_t> consumed{0};
    double cost_makespan = 0.0;
    double cost_critical = 0.0;
  };
  std::vector<NodeState> state(n);
  std::vector<std::vector<int>> unique_deps(n);
  for (size_t i = 0; i < n; ++i) {
    std::set<int> dep_ids;
    for (const TaskDep& dep : graph.nodes[i].deps) dep_ids.insert(dep.task);
    unique_deps[i].assign(dep_ids.begin(), dep_ids.end());
    state[i].remaining.store(static_cast<int>(dep_ids.size()),
                             std::memory_order_relaxed);
  }

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t outstanding = n;
  std::atomic<bool> failed{false};
  Status first_error = Status::OK();
  std::mutex error_mu;
  // Barrier-commit: non-temp results stage here, committed in statement
  // order after the whole list finished (Executor's loop semantics).
  std::vector<std::unique_ptr<RtValue>> staged(n);

  std::function<void(int)> execute;
  auto submit = [&](int id) {
    pool_->Submit([&execute, id] { execute(id); });
  };
  auto fail = [&](Status status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!failed.load(std::memory_order_relaxed)) {
      first_error = std::move(status);
      failed.store(true, std::memory_order_release);
    }
  };

  execute = [&](int id) {
   // Continuation loop: when finishing this node readies exactly one
   // dependent, run it inline instead of paying a Submit/park/pop round
   // trip — the common case for the chain-shaped DAGs long scripts
   // produce. Additional ready dependents are submitted (onto this
   // worker's own deque; parked siblings are woken to steal them).
   while (true) {
    const TaskNode& node = graph.nodes[static_cast<size_t>(id)];
    NodeState& ns = state[static_cast<size_t>(id)];
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (!failed.load(std::memory_order_acquire)) {
      // Serial position in the rand() stream: every earlier statement's
      // consumption is either static (assignments) or pinned by a
      // rand-order edge (loops, already finished).
      uint64_t base = rand_base;
      if (node.rand_count > 0 || node.dynamic_rand) {
        for (int j = 0; j < id; ++j) {
          const TaskNode& prev = graph.nodes[static_cast<size_t>(j)];
          base += prev.dynamic_rand
                      ? state[static_cast<size_t>(j)].consumed.load(
                            std::memory_order_acquire)
                      : static_cast<uint64_t>(prev.rand_count);
        }
      }
      const double start_us = TraceTimestampUs();
      if (node.stmt->kind == CompiledStmt::Kind::kAssign) {
        // Chaos runs retry failed attempts: every attempt re-evaluates
        // from the same rand base with a fresh private ledger, so a
        // retry's numerics are bitwise those of an undisturbed first
        // attempt. Wasted attempts are still merged into the main
        // ledger — a re-executed task costs the simulated cluster twice,
        // the way Spark re-runs lost tasks from lineage.
        const int max_attempts =
            faults_ != nullptr ? faults_->plan().max_retries + 1 : 1;
        const std::string task_key =
            node.label + "#" + std::to_string(id);
        double lost_cost = 0.0;  // wasted attempts + backoff + straggler drag
        for (int attempt = 0; attempt < max_attempts; ++attempt) {
          FaultDecision decision;
          if (faults_ != nullptr) {
            decision = faults_->Probe(task_key, attempt);
            if (attempt > 0) retries_.fetch_add(1, std::memory_order_relaxed);
          }
          TransmissionLedger task_ledger(model_);
          Executor executor =
              MakeTaskExecutor(node.reads, &task_ledger, base);
          Result<RtValue> value = executor.Eval(*node.stmt->plan);
          if (value.ok() && decision.Fails()) {
            // The attempt's work really ran before it was lost: book it,
            // mark it wasted, and pay backoff (plus rescheduling for
            // crashes) in simulated time before the retry.
            const double cost = TaskCostSeconds(task_ledger);
            double backoff = faults_->BackoffSeconds(attempt);
            if (decision.kind == FaultKind::kWorkerCrash) {
              backoff += faults_->plan().crash_recovery_seconds;
            }
            if (ledger_ != nullptr) {
              ledger_->MergeFrom(task_ledger);
              ledger_->AddWasted(task_ledger.TotalFlops(),
                                 task_ledger.TotalBytes());
              ledger_->AddRecoverySeconds(backoff);
            }
            AtomicAdd(wasted_seconds_, cost);
            AtomicAdd(backoff_seconds_, backoff);
            lost_cost += cost + backoff;
            if (attempt == max_attempts - 1) {
              exhausted_.fetch_add(1, std::memory_order_relaxed);
              fail(Status::Unavailable(StringFormat(
                  "task '%s' lost all %d attempts to injected faults "
                  "(last: %s)",
                  node.label.c_str(), max_attempts,
                  FaultKindName(decision.kind))));
            }
            continue;
          }
          // Success, or a genuine evaluation error (never retried: a
          // deterministic error would fail every attempt identically).
          if (!value.ok()) {
            fail(value.status());
          } else if (barrier_commit && !node.stmt->is_temp) {
            staged[static_cast<size_t>(id)] =
                std::make_unique<RtValue>(std::move(value).value());
          } else {
            StoreSet(node.stmt->target, std::move(value).value());
          }
          ns.consumed.store(executor.rand_counter() - base,
                            std::memory_order_release);
          ops_executed_.fetch_add(executor.ops_executed(),
                                  std::memory_order_relaxed);
          double cost = TaskCostSeconds(task_ledger);
          if (decision.kind == FaultKind::kStraggler) {
            // Slow placement: the task's simulated duration stretches;
            // the excess is recovery time, the numerics are untouched.
            const double drag = (decision.slowdown - 1.0) * cost;
            if (ledger_ != nullptr) ledger_->AddRecoverySeconds(drag);
            cost *= decision.slowdown;
          }
          ns.cost_makespan = cost + lost_cost;
          ns.cost_critical = cost + lost_cost;
          AtomicAdd(serial_seconds_, cost + lost_cost);
          if (ledger_ != nullptr) ledger_->MergeFrom(task_ledger);
          RecordTaskSpan(node.label, "task", start_us);
          break;
        }
      } else {
        Result<ListTimes> loop =
            RunLoop(*node.stmt, max_loop_iterations, base);
        if (!loop.ok()) {
          fail(loop.status());
        } else {
          ns.cost_makespan = loop->makespan_seconds;
          ns.cost_critical = loop->critical_path_seconds;
          ns.consumed.store(loop->rand_consumed, std::memory_order_release);
        }
        RecordTaskSpan(node.label, "loop", start_us);
      }
    }
    int inline_next = -1;
    for (int dependent : node.dependents) {
      if (state[static_cast<size_t>(dependent)].remaining.fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        if (inline_next < 0) {
          inline_next = dependent;
        } else {
          submit(dependent);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(done_mu);
      if (--outstanding == 0) done_cv.notify_all();
    }
    if (inline_next < 0) break;
    id = inline_next;
   }
  };

  // Snapshot the ready set before submitting anything: a submitted task
  // can finish and submit its dependents concurrently, so probing
  // `remaining` on the fly would double-submit a freshly-unblocked node.
  std::vector<int> initially_ready;
  for (size_t i = 0; i < n; ++i) {
    if (state[i].remaining.load(std::memory_order_relaxed) == 0) {
      initially_ready.push_back(static_cast<int>(i));
    }
  }
  for (int id : initially_ready) submit(id);
  // Help drain the pool while waiting; keeps nested lists (loop bodies
  // running on pool threads) deadlock-free at any pool size. Once the
  // pool has nothing runnable, every task of this list is either done or
  // executing on another thread, so sleeping until the final task's
  // notify (no timeout) cannot deadlock.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(done_mu);
      if (outstanding == 0) break;
    }
    if (pool_->TryRunOne()) continue;
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return outstanding == 0; });
    break;
  }
  if (failed.load(std::memory_order_acquire)) return first_error;

  for (size_t i = 0; i < n; ++i) {
    if (staged[i] != nullptr) {
      StoreSet(statements[i].target, std::move(*staged[i]));
    }
  }

  std::vector<double> costs_makespan(n);
  std::vector<double> costs_critical(n);
  for (size_t i = 0; i < n; ++i) {
    costs_makespan[i] = state[i].cost_makespan;
    costs_critical[i] = state[i].cost_critical;
    times.rand_consumed +=
        graph.nodes[i].dynamic_rand
            ? state[i].consumed.load(std::memory_order_relaxed)
            : static_cast<uint64_t>(graph.nodes[i].rand_count);
  }
  times.makespan_seconds = ListScheduleMakespan(
      unique_deps, costs_makespan, std::max(1, model_.num_workers));
  times.critical_path_seconds =
      CriticalPathSeconds(unique_deps, costs_critical);
  return times;
}

Result<ParallelExecutor::ListTimes> ParallelExecutor::RunLoop(
    const CompiledStmt& stmt, int max_loop_iterations, uint64_t rand_base) {
  ListTimes total;
  int64_t limit = max_loop_iterations;
  if (stmt.static_trip_count >= 0) {
    limit = std::min<int64_t>(limit, stmt.static_trip_count);
  }
  if (!stmt.loop_var.empty()) {
    StoreSet(stmt.loop_var, RtValue::Scalar(stmt.loop_begin));
  }
  uint64_t consumed = 0;
  for (int64_t iter = 0; iter < limit; ++iter) {
    if (stmt.condition != nullptr) {
      std::set<std::string> cond_reads;
      CollectPlanReads(*stmt.condition, &cond_reads);
      const uint64_t before = rand_base + consumed;
      TransmissionLedger cond_ledger(model_);
      Executor executor = MakeTaskExecutor(
          std::vector<std::string>(cond_reads.begin(), cond_reads.end()),
          &cond_ledger, before);
      const double start_us = TraceTimestampUs();
      REMAC_ASSIGN_OR_RETURN(const RtValue cond,
                             executor.Eval(*stmt.condition));
      REMAC_ASSIGN_OR_RETURN(const double flag, cond.AsScalar());
      consumed += executor.rand_counter() - before;
      ops_executed_.fetch_add(executor.ops_executed(),
                              std::memory_order_relaxed);
      const double cost = TaskCostSeconds(cond_ledger);
      total.makespan_seconds += cost;
      total.critical_path_seconds += cost;
      AtomicAdd(serial_seconds_, cost);
      if (ledger_ != nullptr) ledger_->MergeFrom(cond_ledger);
      RecordTaskSpan("loop-cond", "condition", start_us);
      if (flag == 0.0) break;
    }
    REMAC_ASSIGN_OR_RETURN(
        const ListTimes body,
        RunList(stmt.body, max_loop_iterations, stmt.barrier_commit,
                rand_base + consumed));
    // Iterations are sequential: their DAG makespans add up.
    total.makespan_seconds += body.makespan_seconds;
    total.critical_path_seconds += body.critical_path_seconds;
    consumed += body.rand_consumed;
    if (!stmt.loop_var.empty()) {
      StoreSet(stmt.loop_var,
               RtValue::Scalar(stmt.loop_begin +
                               static_cast<double>(iter + 1)));
    }
  }
  total.rand_consumed = consumed;
  return total;
}

}  // namespace remac
