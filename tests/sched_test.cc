// Tests for the task-graph scheduler subsystem: the work-stealing pool,
// DAG construction from variable versions, thread-safe ledger booking,
// bitwise determinism of the parallel executor, makespan accounting and
// the Chrome-trace sink.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"
#include "runtime/program_runner.h"
#include "sched/parallel_executor.h"
#include "sched/task_graph.h"
#include "sched/thread_pool.h"

namespace remac {
namespace {

/// Strict JSON well-formedness check (the RFC 8259 grammar, no semantic
/// limits): enough to tell a parseable trace file from a broken one.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    if (!Value()) return false;
    SkipSpace();
    return i_ == s_.size();
  }

 private:
  bool More() const { return i_ < s_.size(); }

  void SkipSpace() {
    while (More() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r' ||
                      s_[i_] == '\n')) {
      ++i_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (!More() || s_[i_] != c) return false;
    ++i_;
    return true;
  }

  bool Value() {
    SkipSpace();
    if (!More()) return false;
    if (s_[i_] == '{') return Container('}', /*object=*/true);
    if (s_[i_] == '[') return Container(']', /*object=*/false);
    if (s_[i_] == '"') return String();
    for (const std::string word : {"true", "false", "null"}) {
      if (s_.compare(i_, word.size(), word) == 0) {
        i_ += word.size();
        return true;
      }
    }
    return Number();
  }

  bool Container(char close, bool object) {
    ++i_;
    if (Eat(close)) return true;
    do {
      if (object) {
        SkipSpace();
        if (!String() || !Eat(':')) return false;
      }
      if (!Value()) return false;
    } while (Eat(','));
    return Eat(close);
  }

  bool String() {
    if (!More() || s_[i_] != '"') return false;
    for (++i_; More(); ++i_) {
      const auto c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') {
        ++i_;
        return true;
      }
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (++i_ == s_.size()) return false;
      if (s_[i_] == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (++i_ == s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
            return false;
          }
        }
      } else if (std::string("\"\\/bfnrt").find(s_[i_]) ==
                 std::string::npos) {
        return false;
      }
    }
    return false;
  }

  bool Digits() {
    const size_t start = i_;
    while (More() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    return i_ > start;
  }

  bool Number() {
    if (More() && s_[i_] == '-') ++i_;
    if (!Digits()) return false;
    if (More() && s_[i_] == '.') {
      ++i_;
      if (!Digits()) return false;
    }
    if (More() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (More() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!Digits()) return false;
    }
    return true;
  }

  const std::string& s_;
  size_t i_ = 0;
};

bool IsJson(const std::string& text) { return JsonChecker(text).Valid(); }

DataCatalog SchedCatalog() {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 50;
  spec.cols = 6;
  spec.sparsity = 0.5;
  spec.seed = 9;
  EXPECT_TRUE(RegisterDataset(&catalog, spec).ok());
  return catalog;
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunAndWaitExecutesEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&count] { count.fetch_add(1); });
  }
  pool.RunAndWait(std::move(tasks));
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedRunAndWaitDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &count] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 4; ++j) {
        inner.push_back([&count] { count.fetch_add(1); });
      }
      pool.RunAndWait(std::move(inner));
    });
  }
  pool.RunAndWait(std::move(outer));
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, SizeOnePoolStillCompletesNestedWork) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 3; ++i) {
    outer.push_back([&pool, &count] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 3; ++j) {
        inner.push_back([&count] { count.fetch_add(1); });
      }
      pool.RunAndWait(std::move(inner));
    });
  }
  pool.RunAndWait(std::move(outer));
  EXPECT_EQ(count.load(), 9);
}

TEST(ThreadPool, TryRunOneDrainsSubmittedWork) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  // Either the worker or this loop picks it up.
  for (int i = 0; i < 10000 && !ran.load(); ++i) pool.TryRunOne();
  while (!ran.load()) {
  }
  // The worker counts a task only after it returns, so `ran` can be seen
  // first; give the counter a bounded wait too.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool.tasks_executed() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(ran.load());
  EXPECT_GE(pool.tasks_executed(), 1);
}

TEST(ThreadPool, CurrentWorkerIdIsMinusOneOutsideThePool) {
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), -1);
}

TEST(ThreadPool, StatsCountExecutionsStealsAndQueueDepth) {
  ThreadPool pool(2);
  // Park one worker on a gate. Submit round-robins across the two
  // deques, so the parked worker's share can only run via steals, and
  // its deque visibly backs up at submission time.
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  pool.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  constexpr int kTasks = 32;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  while (done.load() < kTasks) std::this_thread::yield();
  release.store(true);
  while (pool.tasks_executed() < kTasks + 1) std::this_thread::yield();

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.threads, 2);
  EXPECT_GE(stats.tasks_executed, kTasks + 1);
  EXPECT_GE(stats.steals, 1);
  EXPECT_GE(stats.peak_queue_depth, 2);
}

TEST(ThreadPool, IdleWaitsAreSignaledNotPolled) {
  ThreadPool pool(1);
  // The worker parks exactly once at startup. Parked waits are signaled
  // (no timeout), so a long idle stretch adds zero wakeups — the old
  // implementation re-woke every 50 ms to re-poll the queues.
  while (pool.stats().wait_wakeups < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(pool.stats().wait_wakeups, 1);

  // RunAndWait's completion wait is signaled too: long-running tasks
  // leave the waiters parked, not polling on a 1 ms timeout (which
  // would rack up ~60 wakeups across this run).
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 2; ++i) {
    tasks.push_back(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(60)); });
  }
  pool.RunAndWait(std::move(tasks));
  EXPECT_LT(pool.stats().wait_wakeups, 10);
}

// ---------------------------------------------------------------------------
// Two-lane pool

TEST(LanePool, CurrentPoolIdentifiesTheWorkersLane) {
  EXPECT_EQ(ThreadPool::CurrentPool(), nullptr);
  std::atomic<ThreadPool*> exec_seen{nullptr};
  std::atomic<ThreadPool*> request_seen{nullptr};
  std::atomic<int> exec_id{-2};
  std::atomic<int> done{0};
  ThreadPool::Global().Submit([&] {
    exec_seen.store(ThreadPool::CurrentPool());
    exec_id.store(ThreadPool::CurrentWorkerId());
    done.fetch_add(1);
  });
  ThreadPool::RequestLane().Submit([&] {
    request_seen.store(ThreadPool::CurrentPool());
    done.fetch_add(1);
  });
  while (done.load() < 2) std::this_thread::yield();
  EXPECT_EQ(exec_seen.load(), &ThreadPool::Global());
  EXPECT_EQ(request_seen.load(), &ThreadPool::RequestLane());
  EXPECT_GE(exec_id.load(), 0);
  EXPECT_LT(exec_id.load(), ThreadPool::Global().size());
}

TEST(LanePool, LanesAreDistinctAndSizedFromOneBudget) {
  ASSERT_NE(&ThreadPool::Global(), &ThreadPool::RequestLane());
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global().size(), 3);
  EXPECT_EQ(ThreadPool::RequestLane().size(), 3);
  // Per-run exec-lane sizing leaves the request lane alone, so a
  // request-lane worker re-configuring execution parallelism can never
  // tear down (and join) the very lane it runs on.
  ThreadPool::SetExecLaneThreads(2);
  EXPECT_EQ(ThreadPool::Global().size(), 2);
  EXPECT_EQ(ThreadPool::RequestLane().size(), 3);
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(ThreadPool::Global().size(), ThreadPool::RequestLane().size());
}

TEST(LanePool, WorkerOriginatedContinuationsComplete) {
  // A worker task that submits its own continuations (own-queue routing)
  // must never strand them: either the submitter picks them up next or
  // a woken sibling steals them. Chain depth x fan-out stresses both.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::function<void(int)> chain = [&](int depth) {
    count.fetch_add(1);
    if (depth <= 0) return;
    pool.Submit([&chain, depth] { chain(depth - 1); });
    pool.Submit([&chain, depth] { chain(depth - 1); });
  };
  pool.Submit([&chain] { chain(6); });
  // 1 + 2 + 4 + ... + 2^7 - 1 tasks minus... the root counts once per
  // node of a depth-6 binary recursion: 2^7 - 1 = 127 increments.
  while (count.load() < 127) std::this_thread::yield();
  EXPECT_EQ(count.load(), 127);
}

TEST(LanePool, RepeatedParkWakeCyclesLoseNoSubmissions) {
  // Missed-wakeup regression: alternate idle parks with single submits.
  // A lost wakeup deadlocks this loop (the task sits queued while the
  // only worker sleeps), so completing is the assertion.
  ThreadPool pool(1);
  for (int round = 0; round < 200; ++round) {
    std::atomic<bool> ran{false};
    pool.Submit([&ran] { ran.store(true); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!ran.load()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "submission lost at round " << round;
      std::this_thread::yield();
    }
  }
}

TEST(LanePool, LaneMetricsMirrorTasksAndThreads) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* exec_tasks =
      registry.GetCounter("remac.pool.lane.exec.tasks");
  Counter* request_tasks =
      registry.GetCounter("remac.pool.lane.request.tasks");
  const int64_t exec_before = exec_tasks->Value();
  const int64_t request_before = request_tasks->Value();
  std::atomic<int> done{0};
  ThreadPool::Global().Submit([&done] { done.fetch_add(1); });
  ThreadPool::RequestLane().Submit([&done] { done.fetch_add(1); });
  while (done.load() < 2) std::this_thread::yield();
  // WorkerLoop bumps a lane counter only after the task returns, so
  // `done` can be seen first; give the counters a bounded wait too.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((exec_tasks->Value() < exec_before + 1 ||
          request_tasks->Value() < request_before + 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(exec_tasks->Value(), exec_before + 1);
  EXPECT_GE(request_tasks->Value(), request_before + 1);
  EXPECT_EQ(registry.GetGauge("remac.pool.lane.exec.threads")->Value(),
            static_cast<double>(ThreadPool::Global().size()));
  EXPECT_EQ(registry.GetGauge("remac.pool.lane.request.threads")->Value(),
            static_cast<double>(ThreadPool::RequestLane().size()));
}

// ---------------------------------------------------------------------------
// TransmissionLedger thread safety (satellite: contention test)

TEST(Ledger, ConcurrentBookingLosesNoUpdates) {
  const ClusterModel model;
  TransmissionLedger ledger(model);
  ThreadPool pool(8);
  constexpr int kTasks = 16;
  constexpr int kAddsPerTask = 2000;
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < kTasks; ++t) {
    tasks.push_back([&ledger] {
      for (int i = 0; i < kAddsPerTask; ++i) {
        ledger.AddDistributedFlops(1.0);
        ledger.AddLocalFlops(2.0);
        ledger.AddTransmission(TransmissionPrimitive::kShuffle, 3.0);
        ledger.AddInputPartition(4.0);
      }
    });
  }
  pool.RunAndWait(std::move(tasks));
  // Sums of small integers are exact in double precision, so any lost
  // update shows up as an exact mismatch.
  const double n = kTasks * kAddsPerTask;
  EXPECT_DOUBLE_EQ(ledger.TotalFlops(), 1.0 * n + 2.0 * n);
  EXPECT_DOUBLE_EQ(ledger.BytesFor(TransmissionPrimitive::kShuffle), 3.0 * n);
}

TEST(Ledger, MergeFromFoldsEveryAccumulator) {
  const ClusterModel model;
  TransmissionLedger a(model);
  TransmissionLedger b(model);
  a.AddDistributedFlops(10.0);
  b.AddDistributedFlops(5.0);
  b.AddLocalFlops(7.0);
  b.AddTransmission(TransmissionPrimitive::kBroadcast, 100.0);
  b.AddRecoverySeconds(0.5);
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.TotalFlops(), 22.0);
  EXPECT_DOUBLE_EQ(a.BytesFor(TransmissionPrimitive::kBroadcast), 100.0);
  EXPECT_DOUBLE_EQ(a.RecoverySeconds(), 0.5);
}

// ---------------------------------------------------------------------------
// TaskGraph construction

TEST(TaskGraph, RawWarWawEdgesFollowVariableVersions) {
  const DataCatalog catalog = SchedCatalog();
  auto program =
      CompileScript("a = 1;\nb = a + 1;\na = b * 2;\nc = a + b;\n", catalog);
  ASSERT_TRUE(program.ok());
  const TaskGraph graph = BuildTaskGraph(program->statements);
  ASSERT_EQ(graph.nodes.size(), 4u);

  // b = a + 1 reads a@1 produced by statement 0.
  const TaskNode& read_b = graph.nodes[1];
  ASSERT_NE(read_b.FindDep(0, DepKind::kRaw), nullptr);
  EXPECT_EQ(read_b.FindDep(0, DepKind::kRaw)->var, "a");
  EXPECT_EQ(read_b.read_versions.at("a"), 1);

  // a = b * 2 rewrites a: RAW on b's writer, WAW on a's first writer,
  // WAR on a's reader.
  const TaskNode& rewrite_a = graph.nodes[2];
  EXPECT_NE(rewrite_a.FindDep(1, DepKind::kRaw), nullptr);
  EXPECT_NE(rewrite_a.FindDep(0, DepKind::kWaw), nullptr);
  EXPECT_NE(rewrite_a.FindDep(1, DepKind::kWar), nullptr);
  EXPECT_EQ(rewrite_a.write_versions.at("a"), 2);

  // c = a + b consumes the *second* version of a.
  const TaskNode& read_c = graph.nodes[3];
  EXPECT_NE(read_c.FindDep(2, DepKind::kRaw), nullptr);
  EXPECT_EQ(read_c.read_versions.at("a"), 2);
  EXPECT_EQ(read_c.read_versions.at("b"), 1);
}

TEST(TaskGraph, IndependentStatementsHaveNoEdges) {
  const DataCatalog catalog = SchedCatalog();
  auto program = CompileScript("x = 1;\ny = 2;\nz = 3;\n", catalog);
  ASSERT_TRUE(program.ok());
  const TaskGraph graph = BuildTaskGraph(program->statements);
  EXPECT_EQ(graph.EdgeCount(), 0);
}

TEST(TaskGraph, BarrierCommitSuppressesHazardsOfStagedWrites) {
  const DataCatalog catalog = SchedCatalog();
  auto program = CompileScript("x = 1;\ng = x + 1;\nx = g * 2;\n", catalog);
  ASSERT_TRUE(program.ok());
  // Treat the last two statements as a barrier-commit loop body: both see
  // the start-of-iteration x, so no RAW from g's write to x's read and no
  // WAR back from x's rewrite.
  const std::vector<CompiledStmt> body(program->statements.begin() + 1,
                                       program->statements.end());
  const TaskGraph graph = BuildTaskGraph(body, /*barrier_commit=*/true);
  ASSERT_EQ(graph.nodes.size(), 2u);
  EXPECT_EQ(graph.EdgeCount(), 0);
  EXPECT_EQ(graph.nodes[0].write_versions.at("g"), 0);
  EXPECT_EQ(graph.nodes[1].read_versions.at("g"), 0);
}

TEST(TaskGraph, LoopsAggregateTheirBodyAccess) {
  const DataCatalog catalog = SchedCatalog();
  auto program = CompileScript(
      "i = 0;\ns = 0;\nwhile (i < 3) {\n  i = i + 1;\n  s = s + 2;\n}\n"
      "r = s + i;\n",
      catalog);
  ASSERT_TRUE(program.ok());
  const TaskGraph graph = BuildTaskGraph(program->statements);
  ASSERT_EQ(graph.nodes.size(), 4u);
  const TaskNode& loop = graph.nodes[2];
  EXPECT_EQ(loop.label, "loop");
  EXPECT_NE(loop.FindDep(0, DepKind::kRaw), nullptr);
  EXPECT_NE(loop.FindDep(1, DepKind::kRaw), nullptr);
  const TaskNode& after = graph.nodes[3];
  EXPECT_NE(after.FindDep(2, DepKind::kRaw), nullptr);
  EXPECT_FALSE(after.DependsOn(0));  // i@loop-version comes from the loop
}

TEST(TaskGraph, DynamicRandLoopOrdersLaterRandUsers) {
  const DataCatalog catalog = SchedCatalog();
  auto program = CompileScript(
      "i = 0;\nwhile (i < 2) {\n  i = i + 1;\n  X = rand(2, 2);\n}\n"
      "Y = rand(2, 2);\n",
      catalog);
  ASSERT_TRUE(program.ok());
  const TaskGraph graph = BuildTaskGraph(program->statements);
  ASSERT_EQ(graph.nodes.size(), 3u);
  const TaskNode& loop = graph.nodes[1];
  EXPECT_TRUE(loop.dynamic_rand);
  EXPECT_GT(loop.rand_count, 0);
  const TaskNode& after = graph.nodes[2];
  EXPECT_EQ(after.rand_count, 1);
  EXPECT_NE(after.FindDep(1, DepKind::kRandOrder), nullptr);
}

TEST(TaskGraph, StaticRandUsersNeedNoOrderingEdges) {
  const DataCatalog catalog = SchedCatalog();
  auto program = CompileScript("A = rand(4, 4);\nB = rand(4, 4);\n", catalog);
  ASSERT_TRUE(program.ok());
  const TaskGraph graph = BuildTaskGraph(program->statements);
  // Straight-line rand consumption is statically known, so the two
  // statements can run concurrently with re-based counters.
  EXPECT_EQ(graph.EdgeCount(), 0);
  EXPECT_EQ(graph.nodes[0].rand_count, 1);
  EXPECT_FALSE(graph.nodes[0].dynamic_rand);
}

// ---------------------------------------------------------------------------
// Makespan accounting

TEST(SchedMakespan, ChainIsSerialEverywhere) {
  const std::vector<std::vector<int>> deps = {{}, {0}, {1}};
  const std::vector<double> costs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(deps, costs, 1), 6.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(deps, costs, 4), 6.0);
  EXPECT_DOUBLE_EQ(CriticalPathSeconds(deps, costs), 6.0);
}

TEST(SchedMakespan, IndependentTasksSplitAcrossWorkers) {
  const std::vector<std::vector<int>> deps = {{}, {}, {}, {}};
  const std::vector<double> costs = {1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(deps, costs, 1), 4.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(deps, costs, 2), 2.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(deps, costs, 4), 1.0);
  EXPECT_DOUBLE_EQ(CriticalPathSeconds(deps, costs), 1.0);
}

TEST(SchedMakespan, DiamondRespectsDependencies) {
  // 0 -> {1, 2} -> 3
  const std::vector<std::vector<int>> deps = {{}, {0}, {0}, {1, 2}};
  const std::vector<double> costs = {1.0, 2.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(CriticalPathSeconds(deps, costs), 4.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(deps, costs, 2), 4.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(deps, costs, 1), 6.0);
}

// ---------------------------------------------------------------------------
// Bitwise determinism of the parallel executor

void ExpectValueBitwise(const std::string& name, const RtValue& a,
                        const RtValue& b) {
  ASSERT_EQ(a.is_scalar, b.is_scalar) << name;
  EXPECT_EQ(a.distributed, b.distributed) << name;
  if (a.is_scalar) {
    EXPECT_EQ(std::memcmp(&a.scalar, &b.scalar, sizeof(double)), 0)
        << name << ": " << a.scalar << " vs " << b.scalar;
    return;
  }
  ASSERT_EQ(a.matrix.rows(), b.matrix.rows()) << name;
  ASSERT_EQ(a.matrix.cols(), b.matrix.cols()) << name;
  for (int64_t r = 0; r < a.matrix.rows(); ++r) {
    for (int64_t c = 0; c < a.matrix.cols(); ++c) {
      const double va = a.matrix.At(r, c);
      const double vb = b.matrix.At(r, c);
      ASSERT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
          << name << " at (" << r << ", " << c << "): " << va << " vs "
          << vb;
    }
  }
}

void ExpectEnvBitwise(const std::map<std::string, RtValue>& serial,
                      const std::map<std::string, RtValue>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, value] : serial) {
    auto it = parallel.find(name);
    ASSERT_NE(it, parallel.end()) << name;
    ExpectValueBitwise(name, value, it->second);
  }
}

/// Runs `script` with the serial executor and the task-graph scheduler at
/// several pool sizes, requiring bitwise-identical environments and sane
/// makespan accounting.
void CheckSchedulerDeterminism(const std::string& script) {
  const DataCatalog catalog = SchedCatalog();
  RunConfig config;
  config.max_iterations = 3;
  auto serial = RunScript(script, catalog, config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int threads : {1, 2, 8}) {
    RunConfig parallel_config = config;
    parallel_config.scheduler = SchedulerKind::kTaskGraph;
    parallel_config.pool_threads = threads;
    auto parallel = RunScript(script, catalog, parallel_config);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectEnvBitwise(serial->env, parallel->env);
    const ScheduleReport& schedule = parallel->schedule;
    EXPECT_TRUE(schedule.used);
    EXPECT_EQ(schedule.pool_threads, threads);
    EXPECT_GT(schedule.tasks, 0);
    EXPECT_GT(schedule.serial_seconds, 0.0);
    EXPECT_LE(schedule.makespan_seconds, schedule.serial_seconds);
    EXPECT_GE(schedule.makespan_seconds, schedule.critical_path_seconds);
    EXPECT_GT(schedule.critical_path_seconds, 0.0);
    // Parallel DAG execution must book the same simulated cluster time
    // as the serial pass (associativity noise aside).
    const double serial_exec = serial->breakdown.computation_seconds +
                               serial->breakdown.transmission_seconds;
    const double parallel_exec = parallel->breakdown.computation_seconds +
                                 parallel->breakdown.transmission_seconds;
    EXPECT_NEAR(parallel_exec, serial_exec,
                1e-9 * std::max(1.0, serial_exec));
  }
}

TEST(SchedDeterminism, Dfp) { CheckSchedulerDeterminism(DfpScript("ds", 3)); }

TEST(SchedDeterminism, Bfgs) {
  CheckSchedulerDeterminism(BfgsScript("ds", 3));
}

TEST(SchedDeterminism, Gd) { CheckSchedulerDeterminism(GdScript("ds", 3)); }

TEST(SchedDeterminism, GnmfWithRandInitialization) {
  CheckSchedulerDeterminism(GnmfScript("ds", 4, 3));
}

TEST(SchedDeterminism, DynamicRandLoopKeepsTheStreamAligned) {
  const DataCatalog catalog = SchedCatalog();
  const std::string script =
      "i = 0;\nS = rand(300, 4);\n"
      "while (i < 3) {\n  i = i + 1;\n  S = S + rand(300, 4);\n}\n"
      "T = rand(300, 4);\nU = S + T;\n";
  auto program = CompileScript(script, catalog);
  ASSERT_TRUE(program.ok());

  Executor serial(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(serial.Run(program->statements, 10).ok());

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    TransmissionLedger ledger((ClusterModel()));
    ParallelExecutor parallel(ClusterModel(), &catalog, &ledger, &pool);
    ASSERT_TRUE(parallel.Run(program->statements, 10).ok());
    ExpectEnvBitwise(serial.env(), parallel.env());
  }
  // The draw after the loop lies in rand()'s [0.1, 1.1).
  const Matrix& last = serial.env().at("T").matrix;
  for (int64_t r = 0; r < last.rows(); ++r) {
    for (int64_t c = 0; c < last.cols(); ++c) {
      ASSERT_GE(last.At(r, c), 0.1);
      ASSERT_LT(last.At(r, c), 1.1);
    }
  }
}

// ---------------------------------------------------------------------------
// Trace hooks

/// Turns request tracing on for one test and off again afterwards.
struct TracingOn {
  TracingOn() { Tracer::Global().SetEnabled(true); }
  ~TracingOn() {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().SetProfiling(false);
  }
};

TEST(SchedTrace, WritesChromeTraceJson) {
  TracingOn tracing;
  const DataCatalog catalog = SchedCatalog();
  auto program =
      CompileScript("A = read(\"ds\");\nB = t(A) %*% A;\nC = B + B;\n",
                    catalog);
  ASSERT_TRUE(program.ok());
  ThreadPool pool(2);
  TransmissionLedger ledger((ClusterModel()));
  ParallelExecutor executor(ClusterModel(), &catalog, &ledger, &pool);
  const std::shared_ptr<RequestTrace> trace = Tracer::Global().StartRequest();
  ASSERT_NE(trace, nullptr);
  {
    TraceContextScope scope(TraceContext{trace, RequestTrace::kRootSpanId});
    ASSERT_TRUE(executor.Run(program->statements).ok());
  }
  trace->CloseRoot("request");

  // One rooted tree: a single root, unique ids, every parent recorded.
  const std::vector<TraceSpan> spans = trace->Spans();
  std::set<uint64_t> ids;
  for (const TraceSpan& span : spans) {
    EXPECT_TRUE(ids.insert(span.id).second) << "duplicate id " << span.id;
  }
  int roots = 0;
  std::vector<std::string> tasks;
  for (const TraceSpan& span : spans) {
    if (span.parent == 0) {
      ++roots;
      EXPECT_EQ(span.id, RequestTrace::kRootSpanId);
    } else {
      EXPECT_TRUE(ids.count(span.parent)) << span.name << " is orphaned";
    }
    if (std::strcmp(span.category, "task") == 0) {
      EXPECT_EQ(span.parent, RequestTrace::kRootSpanId) << span.name;
      tasks.push_back(span.name);
    }
  }
  EXPECT_EQ(roots, 1);
  // One span per executed task: A, B and C.
  std::sort(tasks.begin(), tasks.end());
  EXPECT_EQ(tasks, (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(static_cast<int64_t>(tasks.size()), executor.schedule().tasks);

  const std::string path = testing::TempDir() + "/remac_sched_trace.json";
  ASSERT_TRUE(trace->WriteChromeJson(path).ok());
  std::ifstream in(path);
  std::ostringstream body;
  body << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(body.str(), trace->ToChromeJson());
  EXPECT_TRUE(IsJson(body.str())) << body.str();
  EXPECT_FALSE(IsJson(body.str().substr(0, body.str().size() / 2)));
}

TEST(SchedTrace, ProgramRunnerNestsTaskSpansUnderExecute) {
  TracingOn tracing;
  const DataCatalog catalog = SchedCatalog();
  RunConfig config;
  config.max_iterations = 2;
  config.scheduler = SchedulerKind::kTaskGraph;
  const std::shared_ptr<RequestTrace> trace = Tracer::Global().StartRequest();
  ASSERT_NE(trace, nullptr);
  Result<RunReport> report = Status::Internal("not run");
  {
    TraceContextScope scope(TraceContext{trace, RequestTrace::kRootSpanId});
    report = RunScript(DfpScript("ds", 2), catalog, config);
  }
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->schedule.used);

  const std::vector<TraceSpan> spans = trace->Spans();
  uint64_t execute_id = 0;
  for (const TraceSpan& span : spans) {
    if (span.name == "execute") execute_id = span.id;
  }
  ASSERT_NE(execute_id, 0u);
  // Every task-graph node (statement or whole loop) is one span under
  // the "execute" stage, and the span tree counts what the schedule
  // report counts.
  int64_t nodes = 0;
  for (const TraceSpan& span : spans) {
    if (std::strcmp(span.category, "task") == 0 ||
        std::strcmp(span.category, "loop") == 0) {
      ++nodes;
      EXPECT_EQ(span.parent, execute_id) << span.name;
    }
  }
  EXPECT_GT(nodes, 0);
  EXPECT_EQ(nodes, report->schedule.tasks);
}

// ---------------------------------------------------------------------------
// Error propagation

TEST(SchedErrors, UndefinedVariableFailsLikeTheSerialExecutor) {
  const DataCatalog catalog = SchedCatalog();
  auto program = CompileScript("x = 1;\ny = x + 1;\n", catalog);
  ASSERT_TRUE(program.ok());
  // Run only the second statement: x is undefined at runtime, which must
  // surface as the same error on both execution paths.
  const std::vector<CompiledStmt> tail(program->statements.begin() + 1,
                                       program->statements.end());
  ThreadPool pool(2);
  TransmissionLedger ledger((ClusterModel()));
  ParallelExecutor executor(ClusterModel(), &catalog, &ledger, &pool);
  const Status status = executor.Run(tail);
  EXPECT_FALSE(status.ok());

  Executor serial(ClusterModel(), &catalog, nullptr);
  const Status serial_status = serial.Run(tail);
  EXPECT_FALSE(serial_status.ok());
  EXPECT_EQ(status.code(), serial_status.code());
}

}  // namespace
}  // namespace remac
