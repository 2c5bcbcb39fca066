// Plan-service tests: fingerprint canonicalization, cache semantics
// (LRU + cost-aware eviction, explicit invalidation), warm-hit bitwise
// identity across the four evaluation algorithms, the SingleFlight
// primitive and the concurrent single-flight guarantee. The
// Service*/PlanCache*/Fingerprint* suites run under both TSan and ASan
// via scripts/check.sh.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "sched/thread_pool.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/program_fingerprint.h"
#include "service/single_flight.h"

namespace remac {
namespace {

// ---------------------------------------------------------------------
// Fingerprint

TEST(Fingerprint, AlphaRenamedScriptsShareAFingerprint) {
  auto a = FingerprintScript(R"(
    a = read("ds");
    x = t(a) %*% a;
  )");
  auto b = FingerprintScript(R"(
    # same program, different naming and spacing
    input = read("ds");
    gram = t(input) %*% input;
  )");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->canonical, b->canonical);
  EXPECT_EQ(a->hash, b->hash);
}

TEST(Fingerprint, StructurallyDifferentScriptsDiffer) {
  auto a = FingerprintScript("a = read(\"ds\"); x = t(a) %*% a;");
  auto b = FingerprintScript("a = read(\"ds\"); x = a %*% t(a);");
  auto c = FingerprintScript("a = read(\"other\"); x = t(a) %*% a;");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a->hash, b->hash);  // operand order matters
  EXPECT_NE(a->hash, c->hash);  // dataset names are part of the identity
}

TEST(Fingerprint, LoopsAndLiteralsAreCanonicalized) {
  auto a = FingerprintScript(
      "i = 0; while (i < 5) { i = i + 1; }");
  auto b = FingerprintScript(
      "counter = 0; while (counter < 5) { counter = counter + 1; }");
  auto c = FingerprintScript(
      "i = 0; while (i < 6) { i = i + 1; }");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->hash, b->hash);
  EXPECT_NE(a->hash, c->hash);  // numeric literals are kept
}

TEST(Fingerprint, DatasetsRecordedInFirstUseOrder) {
  auto fp = FingerprintScript(
      "a = read(\"ds\"); b = read(\"ds_b\"); c = read(\"ds\");");
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->datasets, (std::vector<std::string>{"ds", "ds_b"}));
}

TEST(Fingerprint, SparsityBucketsFollowTheCostModelRegimes) {
  // Everything at or above the dense-format threshold is one regime.
  EXPECT_EQ(SparsityBucket(0.4), 0);
  EXPECT_EQ(SparsityBucket(0.7), 0);
  EXPECT_EQ(SparsityBucket(1.0), 0);
  // Just below the threshold is a different bucket.
  EXPECT_NE(SparsityBucket(0.39), SparsityBucket(0.4));
  // Close sparsities share a half-decade bucket...
  EXPECT_EQ(SparsityBucket(0.35), SparsityBucket(0.32));
  EXPECT_EQ(SparsityBucket(0.012), SparsityBucket(0.015));
  // ...while different scales do not.
  EXPECT_NE(SparsityBucket(0.3), SparsityBucket(0.01));
  // Empty and near-empty collapse into one sentinel bucket.
  EXPECT_EQ(SparsityBucket(0.0), SparsityBucket(1e-14));
}

TEST(Fingerprint, MetadataKeyTracksDimsAndBucket) {
  DataCatalog catalog;
  MatrixStats stats;
  stats.rows = 100;
  stats.cols = 100;
  stats.sparsity = 0.2;
  catalog.RegisterStats("m", stats);
  auto key1 = InputMetadataKey({"m"}, catalog);
  ASSERT_TRUE(key1.ok());

  stats.rows = 200;  // dims changed
  catalog.RegisterStats("m", stats);
  auto key2 = InputMetadataKey({"m"}, catalog);
  ASSERT_TRUE(key2.ok());
  EXPECT_NE(key1.value(), key2.value());

  stats.rows = 100;
  stats.sparsity = 0.21;  // same bucket as 0.2
  catalog.RegisterStats("m", stats);
  auto key3 = InputMetadataKey({"m"}, catalog);
  ASSERT_TRUE(key3.ok());
  EXPECT_EQ(key1.value(), key3.value());

  EXPECT_FALSE(InputMetadataKey({"missing"}, catalog).ok());
}

// ---------------------------------------------------------------------
// PlanCache

std::shared_ptr<const CachedPlan> MakePlan(double cost,
                                           uint64_t program_hash = 1) {
  CachedPlan plan;
  plan.program = std::make_shared<const CompiledProgram>();
  plan.build_wall_seconds = cost;
  plan.program_hash = program_hash;
  return std::make_shared<const CachedPlan>(std::move(plan));
}

TEST(PlanCache, LruEvictsBeyondCapacity) {
  PlanCache cache(2, /*shards=*/1);
  cache.Put("a", MakePlan(1.0));
  cache.Put("b", MakePlan(1.0));
  cache.Put("c", MakePlan(1.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Get("a"), nullptr);  // oldest equal-cost entry dropped
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST(PlanCache, GetPromotesToMostRecent) {
  PlanCache cache(2, /*shards=*/1);
  cache.Put("a", MakePlan(1.0));
  cache.Put("b", MakePlan(1.0));
  EXPECT_NE(cache.Get("a"), nullptr);  // a is now MRU
  cache.Put("c", MakePlan(1.0));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
}

TEST(PlanCache, CostAwareEvictionKeepsExpensiveEntries) {
  PlanCache cache(2, /*shards=*/1);
  cache.Put("expensive", MakePlan(5.0));
  cache.Put("cheap", MakePlan(0.001));
  cache.Put("incoming", MakePlan(1.0));
  // Straight LRU would drop "expensive" (the oldest); the cost-aware
  // sampler drops "cheap" instead.
  EXPECT_NE(cache.Get("expensive"), nullptr);
  EXPECT_EQ(cache.Get("cheap"), nullptr);
  EXPECT_NE(cache.Get("incoming"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(PlanCache, CapacityOneAlwaysKeepsTheNewestEntry) {
  // At capacity 1 the tail sample is exactly the displaced entry: the
  // just-inserted plan must never be the victim, no matter how cheap.
  PlanCache cache(1, /*shards=*/8);  // shard count clamps to capacity
  EXPECT_EQ(cache.capacity(), 1u);
  cache.Put("a", MakePlan(100.0));
  cache.Put("b", MakePlan(0.001));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(PlanCache, CapacityTwoProtectsTheJustInsertedEntry) {
  PlanCache cache(2, /*shards=*/1);
  cache.Put("a", MakePlan(1.0));
  cache.Put("b", MakePlan(50.0));
  cache.Put("c", MakePlan(0.001));  // cheapest of all, but MRU
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get("c"), nullptr);  // never sampled for eviction
  EXPECT_NE(cache.Get("b"), nullptr);  // sticky: expensive to rebuild
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(PlanCache, CapacityThreeEvictsCheapestOfTheTailSample) {
  PlanCache cache(3, /*shards=*/1);
  cache.Put("old-expensive", MakePlan(10.0));
  cache.Put("mid-cheap", MakePlan(0.01));
  cache.Put("newer", MakePlan(1.0));
  cache.Put("newest", MakePlan(1.0));
  // The tail sample holds {old-expensive, mid-cheap, newer}; the
  // cheapest of them goes even though it is not the oldest.
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Get("mid-cheap"), nullptr);
  EXPECT_NE(cache.Get("old-expensive"), nullptr);
  EXPECT_NE(cache.Get("newer"), nullptr);
  EXPECT_NE(cache.Get("newest"), nullptr);
}

TEST(PlanCache, EvictionCounterInvariantUnderBurstInserts) {
  // Distinct-key inserts conserve entries: everything ever Put is either
  // still resident or counted as an eviction.
  PlanCache cache(3, /*shards=*/1);
  constexpr int kInserts = 50;
  for (int i = 0; i < kInserts; ++i) {
    cache.Put("k" + std::to_string(i), MakePlan(0.1 + (i % 7)));
  }
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.evictions + stats.entries, kInserts);
}

TEST(PlanCache, PutReplaceNeitherEvictsNorGrows) {
  PlanCache cache(2, /*shards=*/1);
  cache.Put("a", MakePlan(1.0));
  cache.Put("b", MakePlan(1.0));
  cache.Put("a", MakePlan(9.0));  // replace in place, promote to MRU
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0);
  auto a = cache.Get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->build_wall_seconds, 9.0);
  // The replace made "a" most-recent, so the next insert displaces "b".
  cache.Put("c", MakePlan(1.0));
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
}

TEST(PlanCache, EraseProgramDropsEveryBucketOfThatProgram) {
  PlanCache cache(8, /*shards=*/2);
  cache.Put("p1-bucketA", MakePlan(1.0, /*program_hash=*/11));
  cache.Put("p1-bucketB", MakePlan(1.0, /*program_hash=*/11));
  cache.Put("p2-bucketA", MakePlan(1.0, /*program_hash=*/22));
  EXPECT_EQ(cache.ErasePlansForProgram(11), 2);
  EXPECT_EQ(cache.Get("p1-bucketA"), nullptr);
  EXPECT_EQ(cache.Get("p1-bucketB"), nullptr);
  EXPECT_NE(cache.Get("p2-bucketA"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2);
}

// ---------------------------------------------------------------------
// SingleFlight

using PlanFlights = SingleFlight<Result<std::shared_ptr<const CachedPlan>>>;

/// Joins `key` `n` times as a follower and waits on each call from its
/// own thread; returns the waiters' futures.
template <typename V>
std::vector<std::future<V>> BlockedFollowers(SingleFlight<V>* flights,
                                             const std::string& key, int n) {
  std::vector<std::future<V>> followers;
  for (int i = 0; i < n; ++i) {
    auto [call, leader] = flights->Join(key);
    EXPECT_FALSE(leader);
    followers.push_back(std::async(std::launch::async, [call] {
      return SingleFlight<V>::Wait(*call);
    }));
  }
  return followers;
}

TEST(ServiceSingleFlight, FollowersReceiveTheLeadersValue) {
  PlanFlights flights;
  ASSERT_TRUE(flights.Join("k").second);
  auto followers = BlockedFollowers(&flights, "k", 4);
  const auto plan = MakePlan(1.0);
  flights.Complete("k", plan);
  for (auto& follower : followers) {
    Result<std::shared_ptr<const CachedPlan>> got = follower.get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), plan);
  }
  // Complete erased the key: the next Join leads a fresh call.
  EXPECT_TRUE(flights.Join("k").second);
}

TEST(ServiceSingleFlight, LeaderErrorReachesEveryFollower) {
  PlanFlights flights;
  ASSERT_TRUE(flights.Join("k").second);
  auto followers = BlockedFollowers(&flights, "k", 4);
  flights.Complete("k", Status::InvalidArgument("optimizer failed"));
  for (auto& follower : followers) {
    const Status status = follower.get().status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "optimizer failed");
  }
}

TEST(ServiceSingleFlight, CancelledCompletionWakesFollowersEmptyHanded) {
  SingleFlight<std::shared_ptr<const CachedPlan>> flights;
  ASSERT_TRUE(flights.Join("k").second);
  auto followers = BlockedFollowers(&flights, "k", 3);
  flights.Complete("k", nullptr);
  for (auto& follower : followers) EXPECT_EQ(follower.get(), nullptr);
}

TEST(ServiceSingleFlight, WaiterOnOneThreadLaneHelpsDrainIt) {
  // The waiter occupies the lane's only worker and the leader's
  // completion is queued behind it: only the waiter itself can run it.
  ThreadPool lane(1);
  SingleFlight<int> flights;
  ASSERT_TRUE(flights.Join("k").second);
  std::promise<int> received;
  lane.Submit([&] {
    auto [call, leader] = flights.Join("k");
    EXPECT_FALSE(leader);
    lane.Submit([&flights] { flights.Complete("k", 42); });
    received.set_value(SingleFlight<int>::Wait(*call));
  });
  std::future<int> result = received.get_future();
  if (result.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "waiter never ran the queued completion";
    flights.Complete("k", -1);  // unblock the worker so the test ends
  }
  EXPECT_EQ(result.get(), 42);
}

// ---------------------------------------------------------------------
// PlanService

const DataCatalog& ServiceCatalog() {
  static DataCatalog* catalog = [] {
    auto* c = new DataCatalog();
    DatasetSpec spec;
    spec.name = "ds";
    spec.rows = 220;
    spec.cols = 10;
    spec.sparsity = 0.35;
    spec.seed = 11;
    EXPECT_TRUE(RegisterDataset(c, spec).ok());
    return c;
  }();
  return *catalog;
}

RunConfig SmallConfig() {
  RunConfig config;
  config.max_iterations = 3;
  return config;
}

void ExpectBitwiseEqual(const RtValue& a, const RtValue& b,
                        const std::string& label) {
  ASSERT_EQ(a.is_scalar, b.is_scalar) << label;
  if (a.is_scalar) {
    EXPECT_EQ(a.scalar, b.scalar) << label;
    return;
  }
  ASSERT_EQ(a.matrix.rows(), b.matrix.rows()) << label;
  ASSERT_EQ(a.matrix.cols(), b.matrix.cols()) << label;
  for (int64_t r = 0; r < a.matrix.rows(); ++r) {
    for (int64_t c = 0; c < a.matrix.cols(); ++c) {
      ASSERT_EQ(a.matrix.At(r, c), b.matrix.At(r, c))
          << label << " differs at (" << r << "," << c << ")";
    }
  }
}

TEST(Service, WarmHitIsBitwiseIdenticalOnAllFourAlgorithms) {
  struct Case {
    const char* name;
    std::string script;
    const char* check_var;
  };
  const std::vector<Case> cases = {
      {"GD", GdScript("ds", 3), "x"},
      {"DFP", DfpScript("ds", 3), "x"},
      {"BFGS", BfgsScript("ds", 3), "x"},
      {"GNMF", GnmfScript("ds", 3, 3), "W"},
  };
  PlanService service(&ServiceCatalog());
  for (const Case& c : cases) {
    ServiceRequest request{c.script, SmallConfig()};
    auto cold = service.Run(request);
    ASSERT_TRUE(cold.ok()) << c.name << ": " << cold.status().ToString();
    EXPECT_FALSE(cold->cache_hit) << c.name;

    auto warm = service.Run(request);
    ASSERT_TRUE(warm.ok()) << c.name;
    EXPECT_TRUE(warm->cache_hit) << c.name;
    // The warm path never touches the optimizer: exactly zero, not just
    // small.
    EXPECT_EQ(warm->timing.optimize_seconds, 0.0) << c.name;

    ASSERT_TRUE(cold->run.env.count(c.check_var)) << c.name;
    ASSERT_TRUE(warm->run.env.count(c.check_var)) << c.name;
    ExpectBitwiseEqual(cold->run.env.at(c.check_var),
                       warm->run.env.at(c.check_var), c.name);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.optimizer_invocations, 4);
  EXPECT_EQ(stats.cache.hits, 4);
  EXPECT_EQ(stats.warm_requests, 4);
  EXPECT_EQ(stats.cold_requests, 4);
}

TEST(Service, AlphaRenamedScriptSharesThePlan) {
  PlanService service(&ServiceCatalog());
  ServiceRequest original{GdScript("ds", 3), SmallConfig()};
  ASSERT_TRUE(service.Run(original).ok());
  // Same program with different variable names: new source text, same
  // fingerprint — must hit without re-optimizing.
  ServiceRequest renamed{R"(
M = read("ds");
labels = read("ds_b");
w = zeros(ncol(M), 1);
step = 0.000001;
k = 0;
while (k < 3) {
  grad = t(M) %*% (M %*% w) - t(M) %*% labels;
  w = w - step * grad;
  k = k + 1;
}
)",
                         SmallConfig()};
  auto report = service.Run(renamed);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->cache_hit);
  EXPECT_EQ(service.stats().optimizer_invocations, 1);
}

TEST(Service, EvictionUnderTinyCapacity) {
  ServiceOptions options;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  PlanService service(&ServiceCatalog(), options);
  ServiceRequest gd{GdScript("ds", 3), SmallConfig()};
  ServiceRequest dfp{DfpScript("ds", 3), SmallConfig()};

  auto gd1 = service.Run(gd);
  ASSERT_TRUE(gd1.ok());
  ASSERT_TRUE(service.Run(dfp).ok());  // evicts the GD plan
  auto gd2 = service.Run(gd);          // cold again, evicts the DFP plan
  ASSERT_TRUE(gd2.ok());
  EXPECT_FALSE(gd2->cache_hit);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.evictions, 2);
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.optimizer_invocations, 3);
  EXPECT_EQ(stats.cache.entries, 1);
  // Re-optimizing after eviction reproduces the numbers exactly.
  ExpectBitwiseEqual(gd1->run.env.at("x"), gd2->run.env.at("x"), "GD");
}

TEST(Service, InvalidationWhenInputDimsChange) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 160;
  spec.cols = 8;
  spec.sparsity = 0.35;
  spec.seed = 3;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());

  PlanService service(&catalog);
  ServiceRequest request{GdScript("ds", 3), SmallConfig()};
  ASSERT_TRUE(service.Run(request).ok());
  EXPECT_EQ(service.stats().cache.entries, 1);

  // The dataset grows: same names, different dims. The stale plan must
  // be dropped, not just shadowed under a new key.
  spec.rows = 240;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  auto report = service.Run(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->cache_hit);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.cache.invalidations, 1);
  EXPECT_EQ(stats.cache.entries, 1);
  EXPECT_EQ(stats.optimizer_invocations, 2);
}

TEST(Service, InvalidationWhenSparsityLeavesItsBucket) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 160;
  spec.cols = 8;
  spec.sparsity = 0.35;
  spec.seed = 3;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());

  PlanService service(&catalog);
  ServiceRequest request{GdScript("ds", 3), SmallConfig()};
  ASSERT_TRUE(service.Run(request).ok());

  // Sparsity moves several half-decades: new bucket, stale plan dropped.
  spec.sparsity = 0.05;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  auto report = service.Run(request);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->cache_hit);
  EXPECT_GE(service.stats().cache.invalidations, 1);

  // Within-bucket drift keeps the plan (0.05 and 0.06 share a bucket).
  spec.sparsity = 0.06;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  auto drift = service.Run(request);
  ASSERT_TRUE(drift.ok());
  EXPECT_TRUE(drift->cache_hit);
}

TEST(Service, DifferentConfigsGetDifferentPlans) {
  PlanService service(&ServiceCatalog());
  RunConfig adaptive = SmallConfig();
  RunConfig none = SmallConfig();
  none.optimizer = OptimizerKind::kRemacNone;
  ASSERT_TRUE(service.Run({DfpScript("ds", 3), adaptive}).ok());
  auto report = service.Run({DfpScript("ds", 3), none});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->cache_hit);
  EXPECT_EQ(service.stats().optimizer_invocations, 2);
}

TEST(Service, ParseErrorsPropagate) {
  PlanService service(&ServiceCatalog());
  auto report = service.Run({"x = ;", SmallConfig()});
  EXPECT_FALSE(report.ok());
}

// Hammer: many concurrent sessions on the same key — the optimizer must
// run exactly once (single-flight), and every request must see the same
// numbers. Runs under TSan/ASan via scripts/check.sh.
TEST(ServiceConcurrency, EightThreadHammerOptimizesOncePerKey) {
  ThreadPool::SetGlobalThreads(8);
  PlanService service(&ServiceCatalog());
  RunConfig config = SmallConfig();
  config.executed_iterations = 1;  // keep the hammer about the compiler
  const ServiceRequest request{DfpScript("ds", 3), config};

  PlanService::Session session = service.NewSession();
  constexpr int kRequests = 32;
  for (int k = 0; k < kRequests; ++k) session.Submit(request);
  const auto results = session.Wait();
  ASSERT_EQ(results.size(), static_cast<size_t>(kRequests));

  const Result<ServiceReport>* reference = nullptr;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (reference == nullptr) reference = &result;
    ExpectBitwiseEqual(reference->value().run.env.at("x"),
                       result.value().run.env.at("x"), "hammer");
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.optimizer_invocations, 1);  // the single-flight claim
  // Every non-leader either waited on the flight or hit the cache.
  EXPECT_EQ(stats.cache.hits + stats.single_flight_waits, kRequests - 1);
  ThreadPool::SetGlobalThreads(0);
}

TEST(ServiceConcurrency, HammerAcrossKeysOptimizesOncePerKey) {
  ThreadPool::SetGlobalThreads(8);
  PlanService service(&ServiceCatalog());
  RunConfig config = SmallConfig();
  config.executed_iterations = 1;
  const std::vector<std::string> scripts = {
      GdScript("ds", 3), DfpScript("ds", 3), BfgsScript("ds", 3),
      GnmfScript("ds", 3, 3)};

  PlanService::Session session = service.NewSession();
  for (int k = 0; k < 32; ++k) {
    session.Submit({scripts[k % scripts.size()], config});
  }
  for (const auto& result : session.Wait()) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(service.stats().optimizer_invocations, 4);
  ThreadPool::SetGlobalThreads(0);
}

// ---------------------------------------------------------------------
// Admission control

TEST(Admission, QueueEatenDeadlineShedsToSerial) {
  ThreadPool::SetGlobalThreads(1);
  PlanService service(&ServiceCatalog());

  // Reference: the same program served serially, no pressure.
  RunConfig config = SmallConfig();
  auto reference = service.Run({DfpScript("ds", 3), config});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Occupy the request lane's only worker, so the submitted request
  // spends real wall time queued — enough to blow its tiny deadline
  // before it even starts.
  ThreadPool::RequestLane().Submit(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
  Counter* shed_metric =
      MetricsRegistry::Global().GetCounter("remac.service.shed");
  const int64_t shed_before = shed_metric->Value();

  ServiceRequest request;
  request.source = DfpScript("ds", 3);
  request.config = config;
  request.config.scheduler = SchedulerKind::kTaskGraph;
  request.deadline_seconds = 1e-3;
  PlanService::Session session = service.NewSession();
  session.Submit(request);
  const auto results = session.Wait();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  const ServiceReport& report = results[0].value();
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.shed);
  EXPECT_EQ(report.degraded_reason, DegradeReason::kShedDeadline);
  // Shed is degraded, not rejected: the serial fallback's answer is the
  // exact one.
  ExpectBitwiseEqual(reference->run.env.at("x"), report.run.env.at("x"),
                     "shed-deadline");
  EXPECT_EQ(service.stats().shed_requests, 1);
  EXPECT_EQ(shed_metric->Value(), shed_before + 1);
  ThreadPool::SetGlobalThreads(0);
}

TEST(Admission, UnloadedSessionRequestIsNotShed) {
  ThreadPool::SetGlobalThreads(2);
  PlanService service(&ServiceCatalog());
  ServiceRequest request;
  request.source = DfpScript("ds", 3);
  request.config = SmallConfig();
  request.config.scheduler = SchedulerKind::kTaskGraph;
  request.deadline_seconds = 3600.0;
  PlanService::Session session = service.NewSession();
  session.Submit(request);
  const auto results = session.Wait();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_FALSE(results[0].value().shed);
  EXPECT_FALSE(results[0].value().degraded);
  EXPECT_EQ(service.stats().shed_requests, 0);
  ThreadPool::SetGlobalThreads(0);
}

}  // namespace
}  // namespace remac
