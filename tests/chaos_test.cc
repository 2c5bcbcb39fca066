// Chaos tests: deterministic fault injection, retry-with-backoff and
// re-execution in the task-graph scheduler, ledger double-booking of
// wasted work, and the plan service's degradation ladder. The headline
// invariant: a chaos run whose retries eventually succeed is
// bitwise-identical in its results to the fault-free run. The Chaos* and
// Fault* suites run under TSan, ASan and UBSan via scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/scripts.h"
#include "cluster/fault_plan.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "runtime/program_runner.h"
#include "sched/parallel_executor.h"
#include "sched/thread_pool.h"
#include "service/plan_service.h"

namespace remac {
namespace {

const DataCatalog& ChaosCatalog() {
  static DataCatalog* catalog = [] {
    auto* c = new DataCatalog();
    DatasetSpec spec;
    spec.name = "ds";
    spec.rows = 50;
    spec.cols = 6;
    spec.sparsity = 0.5;
    spec.seed = 9;
    EXPECT_TRUE(RegisterDataset(c, spec).ok());
    return c;
  }();
  return *catalog;
}

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

void ExpectEnvBitwise(const std::map<std::string, RtValue>& expected,
                      const std::map<std::string, RtValue>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [name, value] : expected) {
    auto it = actual.find(name);
    ASSERT_NE(it, actual.end()) << name;
    ExpectValueBitwise(name, value, it->second);
  }
}

// ---------------------------------------------------------------------
// FaultInjector: the deterministic fault oracle

TEST(FaultInjector, DecisionsAreAPureFunctionOfSeedKeyAndAttempt) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 42;
  plan.transient_probability = 0.5;
  plan.straggler_probability = 0.5;
  plan.crash_at_task = -1;  // crashes use shared state; tested separately
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int task = 0; task < 32; ++task) {
    const std::string key = "task#" + std::to_string(task);
    for (int attempt = 0; attempt < 4; ++attempt) {
      const FaultDecision da = a.Probe(key, attempt);
      const FaultDecision db = b.Probe(key, attempt);
      EXPECT_EQ(da.kind, db.kind) << key << " attempt " << attempt;
      EXPECT_EQ(da.slowdown, db.slowdown) << key << " attempt " << attempt;
    }
  }
  // And a different seed flips at least one decision.
  FaultPlan other = plan;
  other.seed = 43;
  FaultInjector c(other);
  FaultInjector a2(plan);
  int differing = 0;
  for (int task = 0; task < 32; ++task) {
    const std::string key = "task#" + std::to_string(task);
    if (c.Probe(key, 0).kind != a2.Probe(key, 0).kind) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, TransientsStopAfterConfiguredAttempts) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 7;
  plan.transient_probability = 1.0;  // strike every task...
  plan.transient_fail_attempts = 2;  // ...on its first two attempts
  plan.straggler_probability = 0.0;
  plan.crash_at_task = -1;
  FaultInjector injector(plan);
  EXPECT_EQ(injector.Probe("t", 0).kind, FaultKind::kTransient);
  EXPECT_EQ(injector.Probe("t", 1).kind, FaultKind::kTransient);
  EXPECT_EQ(injector.Probe("t", 2).kind, FaultKind::kNone);
  EXPECT_EQ(injector.Probe("t", 3).kind, FaultKind::kNone);
  EXPECT_EQ(injector.stats().transients, 2);
}

TEST(FaultInjector, CrashFiresExactlyOnceAtTheConfiguredOrdinal) {
  FaultPlan plan;
  plan.enabled = true;
  plan.transient_probability = 0.0;
  plan.straggler_probability = 0.0;
  plan.crash_at_task = 2;
  FaultInjector injector(plan);
  int crashes = 0;
  for (int task = 0; task < 8; ++task) {
    const std::string key = "t" + std::to_string(task);
    if (injector.Probe(key, 0).kind == FaultKind::kWorkerCrash) {
      EXPECT_EQ(task, 2);
      ++crashes;
    }
    // Retries (attempt > 0) never absorb the crash.
    EXPECT_EQ(injector.Probe(key, 1).kind, FaultKind::kNone);
  }
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(injector.stats().crashes, 1);
  EXPECT_EQ(injector.stats().injected, 1);
}

TEST(FaultInjector, BackoffGrowsExponentially) {
  FaultPlan plan;
  plan.backoff_base_seconds = 0.05;
  plan.backoff_multiplier = 2.0;
  FaultInjector injector(plan);
  EXPECT_DOUBLE_EQ(injector.BackoffSeconds(0), 0.05);
  EXPECT_DOUBLE_EQ(injector.BackoffSeconds(1), 0.10);
  EXPECT_DOUBLE_EQ(injector.BackoffSeconds(3), 0.40);
}

TEST(FaultInjector, DisabledPlanInjectsNothing) {
  FaultPlan plan;  // enabled = false
  plan.transient_probability = 1.0;
  plan.crash_at_task = 0;
  FaultInjector injector(plan);
  for (int task = 0; task < 16; ++task) {
    const FaultDecision d =
        injector.Probe("t" + std::to_string(task), 0);
    EXPECT_EQ(d.kind, FaultKind::kNone);
    EXPECT_FALSE(d.Fails());
  }
  EXPECT_EQ(injector.stats().probes, 0);
  EXPECT_EQ(injector.stats().injected, 0);
}

TEST(FaultPlan, ChaosProfileRecoversWithinTheRetryBudget) {
  const FaultPlan plan = FaultPlan::Chaos(123);
  EXPECT_TRUE(plan.enabled);
  // Eventual success by construction: transients give up before the
  // retry budget does, and a crash consumes exactly one attempt.
  EXPECT_LT(plan.transient_fail_attempts, plan.max_retries);
  EXPECT_NE(plan.ToString().find("seed=123"), std::string::npos);
}

// ---------------------------------------------------------------------
// Ledger: recovery + wasted-work accounting

TEST(ChaosLedger, TracksRecoveryAndWastedWork) {
  TransmissionLedger ledger((ClusterModel()));
  EXPECT_EQ(ledger.Breakdown().ToString().find("recovery="),
            std::string::npos);
  ledger.AddRecoverySeconds(0.25);
  ledger.AddWasted(1e9, 1e6);
  EXPECT_DOUBLE_EQ(ledger.RecoverySeconds(), 0.25);
  EXPECT_DOUBLE_EQ(ledger.WastedFlops(), 1e9);
  EXPECT_DOUBLE_EQ(ledger.WastedBytes(), 1e6);
  const TimeBreakdown b = ledger.Breakdown();
  EXPECT_DOUBLE_EQ(b.recovery_seconds, 0.25);
  EXPECT_DOUBLE_EQ(b.TotalSeconds(), ledger.TotalSeconds());
  EXPECT_NE(b.ToString().find("recovery="), std::string::npos);

  TransmissionLedger other((ClusterModel()));
  other.MergeFrom(ledger);
  EXPECT_DOUBLE_EQ(other.RecoverySeconds(), 0.25);
  EXPECT_DOUBLE_EQ(other.WastedFlops(), 1e9);
  other.Reset();
  EXPECT_DOUBLE_EQ(other.RecoverySeconds(), 0.0);
  EXPECT_DOUBLE_EQ(other.WastedFlops(), 0.0);
}

// ---------------------------------------------------------------------
// The headline invariant: recoverable chaos == fault-free, bitwise

TEST(ChaosDeterminism, RecoverableFaultsAreBitwiseIdenticalToFaultFree) {
  const DataCatalog& catalog = ChaosCatalog();
  for (const std::string& script :
       {DfpScript("ds", 3), GnmfScript("ds", 4, 3)}) {
    RunConfig config;
    config.max_iterations = 3;
    auto serial = RunScript(script, catalog, config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (const uint64_t seed : {1ull, 7ull, 42ull}) {
      for (int threads : {1, 2, 8}) {
        RunConfig chaos = config;
        chaos.scheduler = SchedulerKind::kTaskGraph;
        chaos.pool_threads = threads;
        chaos.faults = FaultPlan::Chaos(seed);
        // Aggressive probabilities: most tasks suffer something.
        chaos.faults.transient_probability = 0.6;
        chaos.faults.straggler_probability = 0.5;
        auto run = RunScript(script, catalog, chaos);
        ASSERT_TRUE(run.ok())
            << "seed " << seed << ": " << run.status().ToString();
        ExpectEnvBitwise(serial->env, run->env);
        const ScheduleReport& schedule = run->schedule;
        EXPECT_TRUE(schedule.chaos);
        EXPECT_GT(schedule.faults_injected, 0) << "seed " << seed;
        // Every failing fault triggered exactly one re-execution, and
        // none ran out of budget.
        EXPECT_EQ(schedule.retries, schedule.faults_injected);
        EXPECT_EQ(schedule.exhausted, 0);
        EXPECT_GT(schedule.backoff_seconds, 0.0);
        EXPECT_GT(run->breakdown.recovery_seconds, 0.0);
      }
    }
  }
}

TEST(ChaosDeterminism, CrashedTaskIsReExecutedWithIdenticalResults) {
  const DataCatalog& catalog = ChaosCatalog();
  const std::string script = DfpScript("ds", 3);
  RunConfig config;
  config.max_iterations = 3;
  auto serial = RunScript(script, catalog, config);
  ASSERT_TRUE(serial.ok());

  RunConfig chaos = config;
  chaos.scheduler = SchedulerKind::kTaskGraph;
  chaos.pool_threads = 2;
  chaos.faults.enabled = true;
  chaos.faults.crash_at_task = 0;  // the very first task attempt dies
  auto run = RunScript(script, catalog, chaos);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectEnvBitwise(serial->env, run->env);
  EXPECT_EQ(run->schedule.crashes, 1);
  EXPECT_EQ(run->schedule.retries, 1);
  // The re-execution paid rescheduling + backoff in simulated time.
  EXPECT_GE(run->schedule.backoff_seconds,
            chaos.faults.crash_recovery_seconds);
  EXPECT_GT(run->breakdown.recovery_seconds, 0.0);
}

TEST(ChaosDeterminism, StragglersSlowTheScheduleButNotTheNumerics) {
  const DataCatalog& catalog = ChaosCatalog();
  const std::string script = DfpScript("ds", 3);
  RunConfig config;
  config.max_iterations = 3;
  auto serial = RunScript(script, catalog, config);
  ASSERT_TRUE(serial.ok());

  RunConfig chaos = config;
  chaos.scheduler = SchedulerKind::kTaskGraph;
  chaos.pool_threads = 2;
  chaos.faults.enabled = true;
  chaos.faults.straggler_probability = 1.0;  // every task drags
  chaos.faults.straggler_factor = 3.0;
  auto run = RunScript(script, catalog, chaos);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectEnvBitwise(serial->env, run->env);
  EXPECT_GT(run->schedule.stragglers, 0);
  EXPECT_EQ(run->schedule.retries, 0);  // stragglers finish, never retry
  // All work ran 3x slow, so the serial-sum accounting must exceed the
  // fault-free pass and the excess is booked as recovery.
  EXPECT_GT(run->schedule.serial_seconds,
            serial->breakdown.computation_seconds +
                serial->breakdown.transmission_seconds);
  EXPECT_GT(run->breakdown.recovery_seconds, 0.0);
}

TEST(ChaosDeterminism, SameSeedSameChaosRunTwice) {
  const DataCatalog& catalog = ChaosCatalog();
  const std::string script = GnmfScript("ds", 4, 3);
  RunConfig chaos;
  chaos.max_iterations = 3;
  chaos.scheduler = SchedulerKind::kTaskGraph;
  chaos.pool_threads = 4;
  chaos.faults = FaultPlan::Chaos(7);
  auto first = RunScript(script, catalog, chaos);
  auto second = RunScript(script, catalog, chaos);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectEnvBitwise(first->env, second->env);
  // Hash-derived faults (transients, stragglers) are interleaving-proof.
  EXPECT_EQ(first->schedule.transients, second->schedule.transients);
  EXPECT_EQ(first->schedule.stragglers, second->schedule.stragglers);
}

// ---------------------------------------------------------------------
// Retry exhaustion and the service degradation ladder

/// A fault plan no retry budget can beat: every attempt of every task
/// fails.
FaultPlan ImpossiblePlan() {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 3;
  plan.transient_probability = 1.0;
  plan.transient_fail_attempts = 1000;
  plan.max_retries = 2;
  plan.crash_at_task = -1;
  plan.backoff_base_seconds = 1e-4;  // keep simulated backoff small
  return plan;
}

TEST(ChaosRetry, ExhaustedRetriesReturnUnavailable) {
  const DataCatalog& catalog = ChaosCatalog();
  RunConfig chaos;
  chaos.max_iterations = 2;
  chaos.scheduler = SchedulerKind::kTaskGraph;
  chaos.pool_threads = 2;
  chaos.faults = ImpossiblePlan();
  Counter* exhausted =
      MetricsRegistry::Global().GetCounter("remac.retry.exhausted");
  const int64_t exhausted_before = exhausted->Value();
  auto run = RunScript(DfpScript("ds", 2), catalog, chaos);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(run.status().message().find("attempts"), std::string::npos);
  // The failure still recorded its retry metrics.
  EXPECT_GT(exhausted->Value(), exhausted_before);
}

TEST(ChaosDegradation, RetriesExhaustedFallsBackToSerialResult) {
  const DataCatalog& catalog = ChaosCatalog();
  const std::string script = DfpScript("ds", 2);
  RunConfig config;
  config.max_iterations = 2;

  auto reference = RunScript(script, catalog, config);
  ASSERT_TRUE(reference.ok());

  PlanService service(&catalog);
  ServiceRequest request;
  request.source = script;
  request.config = config;
  request.config.scheduler = SchedulerKind::kTaskGraph;
  request.config.pool_threads = 2;
  request.config.faults = ImpossiblePlan();
  auto report = service.Run(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->degraded_reason, DegradeReason::kRetriesExhausted);
  ExpectEnvBitwise(reference->env, report->run.env);
  EXPECT_EQ(service.stats().degraded_requests, 1);
  // The doomed chaos attempt's double-booked cost stays on the ledger:
  // its retry backoff is visible as recovery time, and compute can only
  // grow (the aborted run fails fast, so the extra work may round to 0).
  EXPECT_GT(report->run.breakdown.recovery_seconds, 0.0);
  EXPECT_GE(report->run.breakdown.computation_seconds,
            reference->breakdown.computation_seconds);
}

TEST(ChaosDegradation, DeadlinePressureDegradesToSerial) {
  const DataCatalog& catalog = ChaosCatalog();
  PlanService service(&catalog);
  ServiceRequest request;
  request.source = DfpScript("ds", 2);
  request.config.max_iterations = 2;
  request.config.scheduler = SchedulerKind::kTaskGraph;
  request.config.faults = FaultPlan::Chaos(5);
  request.deadline_seconds = 1e-9;  // compilation alone blows the budget
  auto report = service.Run(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->degraded_reason, DegradeReason::kDeadline);
  // Serial fallback ran fault-free: no schedule, no injected faults.
  EXPECT_FALSE(report->run.schedule.used);
  EXPECT_FALSE(report->run.env.empty());
}

TEST(ChaosDegradation, BackloggedLaneShedsToSerial) {
  const DataCatalog& catalog = ChaosCatalog();
  ServiceOptions options;
  options.admission_backlog_factor = 1e-6;  // any backlog at all sheds
  PlanService service(&catalog, options);

  // Park the exec lane's workers and stack up a visible backlog. The
  // gate state is shared by value so a worker still spinning when this
  // test returns never reads a dead stack frame.
  ThreadPool& pool = ThreadPool::Global();
  auto release = std::make_shared<std::atomic<bool>>(false);
  auto parked = std::make_shared<std::atomic<int>>(0);
  auto finished = std::make_shared<std::atomic<int>>(0);
  const int workers = pool.size();
  for (int i = 0; i < workers; ++i) {
    pool.Submit([release, parked, finished] {
      parked->fetch_add(1);
      while (!release->load()) std::this_thread::yield();
      finished->fetch_add(1);
    });
  }
  while (parked->load() < workers) std::this_thread::yield();
  pool.Submit([] {});  // pending() >= 1 while the workers are parked

  Counter* shed_metric =
      MetricsRegistry::Global().GetCounter("remac.service.shed");
  const int64_t shed_before = shed_metric->Value();
  ServiceRequest request;
  request.source = DfpScript("ds", 2);
  request.config.max_iterations = 2;
  request.config.scheduler = SchedulerKind::kTaskGraph;
  auto report = service.Run(request);
  release->store(true);
  while (finished->load() < workers) std::this_thread::yield();
  while (pool.pending() > 0) (void)pool.TryRunOne();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_TRUE(report->shed);
  EXPECT_EQ(report->degraded_reason, DegradeReason::kShedBacklog);
  EXPECT_FALSE(report->run.env.empty());
  EXPECT_EQ(service.stats().shed_requests, 1);
  EXPECT_EQ(shed_metric->Value(), shed_before + 1);
}

TEST(ChaosDegradation, SessionChaosThroughBothLanesBitwiseIdentical) {
  // The full serving stack: requests ride the request lane (Session),
  // their DAG fan-out rides the exec lane, faults force retries — and
  // every result must still be bitwise identical to the plain serial
  // executor's.
  const DataCatalog& catalog = ChaosCatalog();
  const std::string script = DfpScript("ds", 2);
  RunConfig config;
  config.max_iterations = 2;
  auto reference = RunScript(script, catalog, config);
  ASSERT_TRUE(reference.ok());

  ThreadPool::SetGlobalThreads(4);
  PlanService service(&catalog);
  ServiceRequest request;
  request.source = script;
  request.config = config;
  request.config.scheduler = SchedulerKind::kTaskGraph;
  request.config.faults = FaultPlan::Chaos(7);
  PlanService::Session session = service.NewSession();
  constexpr int kRequests = 6;
  for (int k = 0; k < kRequests; ++k) session.Submit(request);
  const auto results = session.Wait();
  ASSERT_EQ(results.size(), static_cast<size_t>(kRequests));
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectEnvBitwise(reference->env, result.value().run.env);
  }
  // Workers bump the executed counter after the task body sets the
  // future, so the last increment can trail Wait() by an instant.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.stats().request_pool.tasks_executed < kRequests) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  // DAG tasks took the exec lane, whole requests the request lane.
  EXPECT_GE(service.stats().pool.tasks_executed, 1);
  ThreadPool::SetGlobalThreads(0);
}

TEST(ChaosDegradation, HealthyRequestsAreNotDegraded) {
  const DataCatalog& catalog = ChaosCatalog();
  PlanService service(&catalog);
  ServiceRequest request;
  request.source = DfpScript("ds", 2);
  request.config.max_iterations = 2;
  request.config.scheduler = SchedulerKind::kTaskGraph;
  request.deadline_seconds = 3600.0;
  auto report = service.Run(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->degraded);
  EXPECT_TRUE(report->run.schedule.used);
  EXPECT_EQ(service.stats().degraded_requests, 0);
}

}  // namespace
}  // namespace remac
