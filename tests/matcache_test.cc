// Materialized-intermediate cache tests: byte-budget admission and
// benefit-aware eviction, pinned entries surviving eviction, dataset-
// level invalidation (including the registration-version term in the
// key), single-flight publication, and the service-level guarantees —
// cross-request reuse is bitwise-identical to recomputing, stale data
// never serves, and concurrent misses on one key compute once. The
// MatCache*/MatrixBytes suites run under TSan/ASan via scripts/check.sh.

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "matrix/csr_matrix.h"
#include "matrix/dense_matrix.h"
#include "matrix/matrix.h"
#include "sched/thread_pool.h"
#include "service/matcache/exec_context.h"
#include "service/matcache/intermediate_key.h"
#include "service/matcache/matcache.h"
#include "service/plan_service.h"
#include "service/program_fingerprint.h"

namespace remac {
namespace {

// ---------------------------------------------------------------------
// Matrix::BytesUsed — the cache's byte-budget currency.

TEST(MatrixBytes, DenseFootprintIsExact) {
  DenseMatrix dense(12, 5, std::vector<double>(60, 1.0));
  EXPECT_EQ(dense.BytesUsed(), 60 * static_cast<int64_t>(sizeof(double)));
  Matrix m = Matrix::WrapDense(dense);
  EXPECT_EQ(m.BytesUsed(), dense.BytesUsed());
}

TEST(MatrixBytes, CsrFootprintCountsAllThreeArrays) {
  // 3x4 with 2 nonzeros.
  DenseMatrix dense(3, 4);
  dense.At(0, 1) = 2.0;
  dense.At(2, 3) = 5.0;
  Matrix m = Matrix::WrapCsr(CsrMatrix::FromDense(dense));
  ASSERT_FALSE(m.is_dense());
  const int64_t expected =
      2 * static_cast<int64_t>(sizeof(double)) +    // values
      2 * static_cast<int64_t>(sizeof(int32_t)) +   // col indices
      4 * static_cast<int64_t>(sizeof(int64_t));    // row_ptr (rows + 1)
  EXPECT_EQ(m.BytesUsed(), expected);
}

// ---------------------------------------------------------------------
// MatCache mechanics.

RtValue DenseValue(int64_t rows, int64_t cols, double fill) {
  return RtValue::FromMatrix(
      Matrix::WrapDense(
          DenseMatrix(rows, cols, std::vector<double>(rows * cols, fill))),
      /*distributed=*/false);
}

TEST(MatCache, OfferThenGetServesTheEntry) {
  MatCacheOptions options;
  options.capacity_bytes = 1 << 20;
  options.shards = 1;
  MatCache cache(options);
  auto offered = cache.Offer("k", DenseValue(4, 4, 2.5), 100.0, {"ds"});
  ASSERT_NE(offered, nullptr);
  EXPECT_EQ(offered->bytes, 16 * static_cast<int64_t>(sizeof(double)));

  auto served = cache.Get("k");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->value.matrix.At(0, 0), 2.5);
  const MatCacheStats stats = cache.stats();
  EXPECT_EQ(stats.admits, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.resident_bytes, offered->bytes);
}

TEST(MatCache, BytePressureEvictsTheLowestBenefitEntry) {
  MatCacheOptions options;
  options.capacity_bytes = 300;  // holds two 128-byte entries, not three
  options.shards = 1;
  MatCache cache(options);
  cache.Offer("expensive", DenseValue(4, 4, 1.0), 1e9, {"ds"});
  cache.Offer("cheap", DenseValue(4, 4, 1.0), 1.0, {"ds"});
  cache.Offer("incoming", DenseValue(4, 4, 1.0), 1e6, {"ds"});
  // Straight LRU would drop "expensive" (the oldest); the benefit-aware
  // sampler drops "cheap" — trivial to recompute per resident byte.
  EXPECT_EQ(cache.Get("cheap"), nullptr);
  EXPECT_NE(cache.Get("expensive"), nullptr);
  EXPECT_NE(cache.Get("incoming"), nullptr);
  const MatCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_LE(stats.resident_bytes, options.capacity_bytes);
}

TEST(MatCache, PinnedEntriesSurviveEviction) {
  MatCacheOptions options;
  options.capacity_bytes = 200;  // room for exactly one 128-byte entry
  options.shards = 1;
  MatCache cache(options);
  auto pinned = cache.Offer("old", DenseValue(4, 4, 7.0), 10.0, {"ds"});
  cache.Offer("new", DenseValue(4, 4, 1.0), 10.0, {"ds"});
  EXPECT_EQ(cache.Get("old"), nullptr);  // evicted from the index
  // ...but the pinned value is untouched: an in-flight execution holding
  // the shared_ptr keeps reading valid data.
  EXPECT_EQ(pinned->value.matrix.At(3, 3), 7.0);
}

TEST(MatCache, OversizedValuesAreRejectedButStillReturned) {
  MatCacheOptions options;
  options.capacity_bytes = 64;
  options.shards = 1;
  MatCache cache(options);
  auto entry = cache.Offer("big", DenseValue(8, 8, 3.0), 1e12, {"ds"});
  ASSERT_NE(entry, nullptr);  // followers are still served the value
  EXPECT_EQ(entry->value.matrix.At(0, 0), 3.0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().rejects, 1);
}

TEST(MatCache, ZeroCapacityDisablesAdmission) {
  MatCacheOptions options;
  options.capacity_bytes = 0;
  MatCache cache(options);
  cache.Offer("k", DenseValue(2, 2, 1.0), 1e9, {"ds"});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("k"), nullptr);
}

TEST(MatCache, AdmissionBarScalesWithObservedProbes) {
  // Second input: the ghost-frequency map first filled past its bound
  // with twice-probed keys; a key probed afterwards must still count up.
  for (const int twice_probed_keys : {0, 5000}) {
    SCOPED_TRACE(twice_probed_keys);
    MatCacheOptions options;
    options.capacity_bytes = 1 << 20;
    options.shards = 1;
    // 128-byte value must predict >= 128k FLOPs on first sight.
    options.admit_flops_per_byte = 1000.0;
    MatCache cache(options);
    for (int i = 0; i < twice_probed_keys; ++i) {
      const std::string key = "filler" + std::to_string(i);
      (void)cache.Get(key);
      (void)cache.Get(key);
    }

    cache.Offer("k", DenseValue(4, 4, 1.0), 1e3, {"ds"});
    EXPECT_EQ(cache.size(), 0u);  // 1e3 FLOPs * 1 probe < bar: rejected

    // The same key probed repeatedly earns residency: the ghost-frequency
    // map amortizes the per-byte bar over demonstrated demand.
    for (int i = 0; i < 200; ++i) (void)cache.Get("k");
    cache.Offer("k", DenseValue(4, 4, 1.0), 1e3, {"ds"});
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().admits, 1);
    EXPECT_EQ(cache.stats().rejects, 1);
  }
}

TEST(MatCache, EraseDatasetsDropsEveryIntersectingEntry) {
  MatCacheOptions options;
  options.capacity_bytes = 1 << 20;
  options.shards = 2;
  MatCache cache(options);
  cache.Offer("ka", DenseValue(2, 2, 1.0), 1.0, {"a"});
  cache.Offer("kb", DenseValue(2, 2, 1.0), 1.0, {"b"});
  cache.Offer("kab", DenseValue(2, 2, 1.0), 1.0, {"a", "b"});
  EXPECT_EQ(cache.EraseDatasets({"a"}), 2);
  EXPECT_EQ(cache.Get("ka"), nullptr);
  EXPECT_EQ(cache.Get("kab"), nullptr);
  EXPECT_NE(cache.Get("kb"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2);
}

TEST(MatCache, SingleFlightPublishesTheLeadersValue) {
  MatCache cache;
  auto lead = cache.flights().Join("k");
  ASSERT_TRUE(lead.second);
  auto follow = cache.flights().Join("k");
  ASSERT_FALSE(follow.second);
  ASSERT_EQ(lead.first, follow.first);

  std::shared_ptr<const MaterializedIntermediate> received;
  std::shared_ptr<MatFlights::Call> call = follow.first;
  std::thread waiter([call, &received] { received = MatFlights::Wait(*call); });
  auto entry = cache.Offer("k", DenseValue(2, 2, 4.0), 10.0, {"ds"});
  cache.flights().Complete("k", entry);
  waiter.join();
  ASSERT_EQ(received, entry);
  // The flight is gone: the next miss starts a fresh one.
  EXPECT_TRUE(cache.flights().Join("k").second);
}

TEST(MatCache, CancelledFlightWakesFollowersEmptyHanded) {
  MatCache cache;
  ASSERT_TRUE(cache.flights().Join("k").second);
  auto follow = cache.flights().Join("k");
  ASSERT_FALSE(follow.second);
  cache.flights().Complete("k", nullptr);
  EXPECT_EQ(MatFlights::Wait(*follow.first), nullptr);
}

// ---------------------------------------------------------------------
// Cache keys.

TEST(MatCacheKey, RegistrationVersionIsPartOfTheKey) {
  DataCatalog catalog;
  MatrixStats stats;
  stats.rows = 10;
  stats.cols = 10;
  stats.sparsity = 0.5;
  catalog.RegisterStats("m", stats);

  SubplanCandidate candidate;
  candidate.window_key = "W";
  candidate.structural_digest = 7;
  candidate.datasets = {"m"};

  auto k1 = IntermediateCacheKey(candidate, catalog, "env");
  ASSERT_TRUE(k1.ok());
  // Re-registering the same metadata bumps the version: superseded data
  // must be unreachable even when dims and sparsity bucket agree.
  catalog.RegisterStats("m", stats);
  auto k2 = IntermediateCacheKey(candidate, catalog, "env");
  ASSERT_TRUE(k2.ok());
  EXPECT_NE(k1.value(), k2.value());

  // The execution-environment digest keys bit-affecting knobs apart.
  auto k3 = IntermediateCacheKey(candidate, catalog, "other-env");
  ASSERT_TRUE(k3.ok());
  EXPECT_NE(k2.value(), k3.value());

  candidate.datasets = {"missing"};
  EXPECT_FALSE(IntermediateCacheKey(candidate, catalog, "env").ok());
}

TEST(MatCacheKey, ExecEnvDigestTracksBitAffectingKnobsOnly) {
  RunConfig a;
  RunConfig b = a;
  b.estimator = EstimatorKind::kExact;  // cost-only: same bits
  EXPECT_EQ(ExecEnvDigest(a), ExecEnvDigest(b));
  RunConfig c = a;
  c.cluster.num_workers = a.cluster.num_workers + 3;
  EXPECT_NE(ExecEnvDigest(a), ExecEnvDigest(c));
  RunConfig d = a;
  d.engine = EngineKind::kPbdR;  // forces dense storage: different bits
  EXPECT_NE(ExecEnvDigest(a), ExecEnvDigest(d));
}

// ---------------------------------------------------------------------
// Service-level: cross-request reuse, invalidation, concurrency.

void RegisterServiceDataset(DataCatalog* catalog, uint64_t seed = 11,
                            int64_t rows = 220, double sparsity = 0.35) {
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = rows;
  spec.cols = 10;
  spec.sparsity = sparsity;
  spec.seed = seed;
  ASSERT_TRUE(RegisterDataset(catalog, spec).ok());
}

/// A script whose Gram chain t(read) %*% read is a pure-read candidate;
/// `scale` varies the downstream arithmetic so each variant is a
/// distinct program (distinct plan-cache key) sharing one intermediate.
std::string GramScript(const std::string& scale) {
  return "g = t(read(\"ds\")) %*% read(\"ds\");\n"
         "x = " + scale + " * g;\n";
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

TEST(MatCacheService, CrossProgramReuseIsBitwiseIdentical) {
  DataCatalog catalog;
  RegisterServiceDataset(&catalog);
  PlanService service(&catalog);

  // Two *different* programs sharing one pure-read Gram chain: the
  // second request must be a plan-cache miss but a matcache hit, and
  // its intermediate-derived numbers must match bit for bit.
  auto cold = service.Run({GramScript("0.5"), RunConfig{}});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GE(cold->matcache.probes, 1);
  EXPECT_EQ(cold->matcache.hits, 0);

  auto shared = service.Run({GramScript("2.0"), RunConfig{}});
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_FALSE(shared->cache_hit);  // distinct program
  EXPECT_GE(shared->matcache.hits, 1) << "Gram chain was not shared";
  ExpectBitwiseEqual(cold->run.env.at("g"), shared->run.env.at("g"),
                     "shared Gram intermediate");

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.matcache.admits, 1);
  EXPECT_GE(stats.matcache.entries, 1);
  EXPECT_GT(stats.matcache.resident_bytes, 0);
}

TEST(MatCacheService, WarmRequestServesFromTheCache) {
  DataCatalog catalog;
  RegisterServiceDataset(&catalog);
  PlanService service(&catalog);
  const ServiceRequest request{GramScript("0.5"), RunConfig{}};

  auto cold = service.Run(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = service.Run(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);            // plan cache
  EXPECT_GE(warm->matcache.hits, 1);       // intermediate cache
  ExpectBitwiseEqual(cold->run.env.at("x"), warm->run.env.at("x"),
                     "cached vs recomputed");
}

TEST(MatCacheService, ReregisteredDataNeverServesStaleIntermediates) {
  DataCatalog catalog;
  RegisterServiceDataset(&catalog, /*seed=*/11);
  PlanService service(&catalog);
  const ServiceRequest request{GramScript("0.5"), RunConfig{}};
  ASSERT_TRUE(service.Run(request).ok());
  ASSERT_GE(service.stats().matcache.entries, 1);

  // Same dims, same sparsity bucket, different content: the plan is
  // still valid (metadata key unchanged) but every materialized
  // intermediate of "ds" must be invalidated — the version term keeps
  // old keys unreachable, the fragment watcher erases the bytes.
  RegisterServiceDataset(&catalog, /*seed=*/77);
  auto fresh = service.Run(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh->cache_hit) << "plan should survive a content swap";
  EXPECT_EQ(fresh->matcache.hits, 0) << "served stale bytes";
  EXPECT_GE(service.stats().matcache.invalidations, 1);

  // The recomputed intermediate is resident again under the new key.
  auto warm = service.Run(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_GE(warm->matcache.hits, 1);
  ExpectBitwiseEqual(fresh->run.env.at("x"), warm->run.env.at("x"),
                     "post-invalidation");
}

TEST(MatCacheService, DimensionChangeCascadesThroughBothCaches) {
  DataCatalog catalog;
  RegisterServiceDataset(&catalog, 11, /*rows=*/160);
  PlanService service(&catalog);
  const ServiceRequest request{GramScript("0.5"), RunConfig{}};
  ASSERT_TRUE(service.Run(request).ok());

  // Dims change: the plan-cache entry is explicitly invalidated
  // (ErasePlansForProgram) and the dataset's intermediates are erased.
  RegisterServiceDataset(&catalog, 11, /*rows=*/240);
  auto report = service.Run(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->cache_hit);
  EXPECT_EQ(report->matcache.hits, 0);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.cache.invalidations, 1);
  EXPECT_GE(stats.matcache.invalidations, 1);
}

/// Constants that %g renders alike (6 significant digits) are different
/// fused regions: the second script must not be served the first one's
/// intermediate, and must compute what a fresh service computes.
TEST(MatCacheService, NearbyConstantsAreDistinctIntermediates) {
  DataCatalog catalog;
  RegisterServiceDataset(&catalog);
  auto script = [](const std::string& c) {
    return "g = (read(\"ds\") * " + c +
           " + read(\"ds\")) / (read(\"ds\") + 2);\nx = sum(g);\n";
  };
  PlanService service(&catalog);
  ASSERT_TRUE(service.Run({script("0.1234561"), RunConfig{}}).ok());
  auto second = service.Run({script("0.1234564"), RunConfig{}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->matcache.hits, 0);

  PlanService fresh_service(&catalog);
  auto fresh = fresh_service.Run({script("0.1234564"), RunConfig{}});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitwiseEqual(second->run.env.at("x"), fresh->run.env.at("x"),
                     "second constant vs a fresh service");
}

TEST(MatCacheService, DisabledCacheLeavesRequestsUntouched) {
  DataCatalog catalog;
  RegisterServiceDataset(&catalog);
  ServiceOptions options;
  options.mat_cache_bytes = 0;
  PlanService service(&catalog, options);
  const ServiceRequest request{GramScript("0.5"), RunConfig{}};
  auto a = service.Run(request);
  auto b = service.Run(request);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->matcache.probes, 0);
  EXPECT_EQ(b->matcache.probes, 0);
  EXPECT_EQ(service.stats().matcache.entries, 0);
  ExpectBitwiseEqual(a->run.env.at("x"), b->run.env.at("x"), "disabled");
}

// Hammer: many concurrent requests, each a distinct program, all
// sharing one Gram intermediate. Every request resolves its key exactly
// one way (hit, led flight, or waited flight), at most one entry is
// ever resident, and every derived result is bitwise identical. Runs
// under TSan/ASan via scripts/check.sh.
TEST(MatCacheConcurrency, ConcurrentMissesComputeTheIntermediateOnce) {
  ThreadPool::SetGlobalThreads(8);
  DataCatalog catalog;
  RegisterServiceDataset(&catalog);
  PlanService service(&catalog);

  constexpr int kRequests = 24;
  PlanService::Session session = service.NewSession();
  for (int k = 0; k < kRequests; ++k) {
    session.Submit({GramScript("0.125 * " + std::to_string(k + 1)),
                    RunConfig{}});
  }
  const auto results = session.Wait();
  ASSERT_EQ(results.size(), static_cast<size_t>(kRequests));

  int64_t resolutions = 0;
  const Result<ServiceReport>* reference = nullptr;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(result.value().matcache.probes, 1);
    resolutions += result.value().matcache.hits +
                   result.value().matcache.flights_led +
                   result.value().matcache.flight_waits;
    if (reference == nullptr) reference = &result;
    ExpectBitwiseEqual(reference->value().run.env.at("g"),
                       result.value().run.env.at("g"), "hammer");
  }
  // One resolution per request: nobody recomputed behind the cache's
  // back, nobody was double-counted.
  EXPECT_EQ(resolutions, kRequests);

  const MatCacheStats stats = service.mat_cache().stats();
  EXPECT_EQ(stats.entries, 1);  // one shared chain, one resident entry
  EXPECT_GE(stats.admits, 1);
  EXPECT_GE(stats.hits + stats.flight_waits, 1) << "nothing was shared";
  ThreadPool::SetGlobalThreads(0);
}

TEST(MatCache, MeasuredAdmitThresholdClampedAndStable) {
  const double measured = MeasuredAdmitFlopsPerByte();
  // The derived break-even density must land inside the clamp window and
  // be measured once per process (repeat calls return the same sample).
  EXPECT_GE(measured, 0.05);
  EXPECT_LE(measured, 64.0);
  EXPECT_DOUBLE_EQ(measured, MeasuredAdmitFlopsPerByte());
}

TEST(MatCache, NegativeServiceKnobDerivesPositiveThreshold) {
  // The service default (-1) must resolve to the measured threshold, not
  // admit-everything: an entry with near-zero recompute FLOPs and a big
  // footprint gets rejected.
  ServiceOptions options;
  EXPECT_LT(options.mat_admit_flops_per_byte, 0.0);
  MatCache cache(MatCacheOptions{
      .capacity_bytes = 64 << 20,
      .shards = 2,
      .admit_flops_per_byte = MeasuredAdmitFlopsPerByte(),
  });
  DenseMatrix dense(256, 256);
  for (int64_t i = 0; i < dense.size(); ++i) dense.data()[i] = 1.0;
  RtValue value;
  value.matrix = Matrix::FromDense(std::move(dense));
  cache.Offer("cheap-but-fat", std::move(value), /*predicted_flops=*/1.0,
              {});
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().rejects, 1);
}

}  // namespace
}  // namespace remac
