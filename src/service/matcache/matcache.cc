#include "service/matcache/matcache.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace remac {

namespace {

/// Process-wide cache metrics: the ones remacbench and the load harness
/// read. Every other count lives once, per instance, in MatCacheStats.
struct MatCacheMetrics {
  /// Contended shard-lock wait (TimedMutexLock; only observed while
  /// contention profiling is on).
  Histogram* lock_wait = MetricsRegistry::Global().GetHistogram(
      "remac.contention.matcache_lock_seconds");
  /// How long single-flight followers actually blocked on a leader
  /// (always observed — the wait itself dwarfs the clock reads).
  Histogram* flight_wait_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.matcache.flight_wait_seconds");
  Counter* probes =
      MetricsRegistry::Global().GetCounter("remac.matcache.probes");
  Counter* hits = MetricsRegistry::Global().GetCounter("remac.matcache.hits");
  Counter* invalidations =
      MetricsRegistry::Global().GetCounter("remac.matcache.invalidations");
};

MatCacheMetrics& Metrics() {
  static MatCacheMetrics metrics;
  return metrics;
}

void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

/// Eviction score: recompute cost saved per resident byte, scaled by
/// observed hits. Lowest score goes first.
double BenefitScore(const MaterializedIntermediate& entry) {
  const double bytes =
      static_cast<double>(std::max<int64_t>(entry.bytes, 1));
  const double uses =
      1.0 +
      static_cast<double>(entry.hits.load(std::memory_order_relaxed));
  return entry.predicted_flops * uses / bytes;
}

}  // namespace

MatCache::MatCache(MatCacheOptions options)
    : options_(options),
      lru_(options_.capacity_bytes, options_.shards,
           [](const std::shared_ptr<const MaterializedIntermediate>& entry) {
             return BenefitScore(*entry);
           },
           Metrics().lock_wait, "matcache-lock") {}

void MatCache::Track(const MaterializedIntermediate& entry, int sign) {
  const int64_t bytes = sign * entry.bytes;
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void MatCache::CountProbe(const std::string& key) {
  std::lock_guard<std::mutex> lock(ghost_mu_);
  if (ghost_probes_.size() > kMaxGhostKeys) {
    // Age the map: halve every count and drop the zeros. Once-probed keys
    // go at once and re-probed ones decay, so the map stays bounded and a
    // key probed after it filled still counts up. A pass halves counts
    // the probes themselves built, so its cost amortizes to O(1) per
    // probe. Exactness does not matter: the map only biases admission
    // toward re-requested keys.
    for (auto it = ghost_probes_.begin(); it != ghost_probes_.end();) {
      it->second /= 2;
      it = it->second == 0 ? ghost_probes_.erase(it) : std::next(it);
    }
  }
  ++ghost_probes_[key];
}

std::shared_ptr<const MaterializedIntermediate> MatCache::Get(
    const std::string& key) {
  probes_.fetch_add(1, std::memory_order_relaxed);
  Metrics().probes->Add();
  CountProbe(key);
  std::shared_ptr<const MaterializedIntermediate> entry = lru_.Get(key);
  if (entry == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  Metrics().hits->Add();
  entry->hits.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

std::shared_ptr<const MaterializedIntermediate> MatCache::Offer(
    const std::string& key, RtValue value, double predicted_flops,
    std::vector<std::string> datasets) {
  auto entry = std::make_shared<MaterializedIntermediate>();
  entry->bytes = value.is_scalar
                     ? static_cast<int64_t>(sizeof(double))
                     : value.matrix.BytesUsed();
  entry->value = std::move(value);
  entry->predicted_flops = predicted_flops;
  entry->datasets = std::move(datasets);

  const bool fits = entry->bytes <= lru_.BudgetFor(key) &&
                    options_.capacity_bytes > 0;
  bool admit = fits;
  if (admit && options_.admit_flops_per_byte > 0.0) {
    // Cost-aware admission: the predicted recompute work, amortized over
    // how often this key has actually been asked for, must clear the
    // per-byte bar. First-probe entries thus need to be FLOP-dense;
    // re-requested ones earn residency at lower density.
    int64_t observed = 0;
    {
      std::lock_guard<std::mutex> lock(ghost_mu_);
      auto it = ghost_probes_.find(key);
      observed = it == ghost_probes_.end() ? 1 : it->second;
    }
    admit = entry->predicted_flops * static_cast<double>(observed) >=
            options_.admit_flops_per_byte *
                static_cast<double>(std::max<int64_t>(entry->bytes, 1));
  }
  if (!admit) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return entry;  // still published to followers, just not resident
  }

  admits_.fetch_add(1, std::memory_order_relaxed);
  Track(*entry, +1);
  auto displaced = lru_.Put(key, entry, entry->bytes);
  if (displaced.replaced != nullptr) Track(*displaced.replaced, -1);
  for (const auto& victim : displaced.evicted) {
    Track(*victim, -1);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

int MatCache::EraseDatasets(const std::vector<std::string>& names) {
  const auto dropped = lru_.EraseIf(
      [&names](const std::shared_ptr<const MaterializedIntermediate>& entry) {
        return std::any_of(
            entry->datasets.begin(), entry->datasets.end(),
            [&](const std::string& ds) {
              return std::find(names.begin(), names.end(), ds) != names.end();
            });
      });
  for (const auto& entry : dropped) Track(*entry, -1);
  const int count = static_cast<int>(dropped.size());
  invalidations_.fetch_add(count, std::memory_order_relaxed);
  Metrics().invalidations->Add(count);
  return count;
}

void MatCache::RecordFlightWait(double wait_seconds) {
  flight_waits_.fetch_add(1, std::memory_order_relaxed);
  Metrics().flight_wait_seconds->Observe(wait_seconds);
}

void MatCache::RecordFlopsSaved(double flops) {
  AtomicAdd(&flops_saved_, flops);
}

MatCacheStats MatCache::stats() const {
  MatCacheStats stats;
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.admits = admits_.load(std::memory_order_relaxed);
  stats.rejects = rejects_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.flight_waits = flight_waits_.load(std::memory_order_relaxed);
  stats.entries = static_cast<int64_t>(size());
  stats.resident_bytes = resident_bytes();
  stats.flops_saved = flops_saved_.load(std::memory_order_relaxed);
  return stats;
}

double MeasuredAdmitFlopsPerByte() {
  static const double measured = [] {
    using Clock = std::chrono::steady_clock;
    // Compute side: a naive n^3 GEMM small enough to stay in cache, so
    // the sample reflects arithmetic throughput rather than memory
    // stalls (an upper bound on recompute speed keeps the threshold
    // conservative: borderline entries stay cached).
    constexpr int n = 96;
    std::vector<double> a(n * n, 1.0), b(n * n, 0.5), c(n * n, 0.0);
    const auto gemm_start = Clock::now();
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const double aik = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
    }
    const double gemm_seconds =
        std::chrono::duration<double>(Clock::now() - gemm_start).count();
    // Keep the result observable so the loop cannot be optimized away.
    volatile double sink = c[0] + c[n * n - 1];
    (void)sink;
    const double flops_per_sec =
        2.0 * n * n * n / std::max(gemm_seconds, 1e-9);

    // Serve side: a memcpy sweep large enough to spill cache, modelling
    // what a matcache hit actually costs (copying the value out).
    constexpr size_t kCopyBytes = size_t{8} << 20;
    constexpr int kCopyReps = 4;
    std::vector<char> src(kCopyBytes, 1), dst(kCopyBytes, 0);
    const auto copy_start = Clock::now();
    for (int rep = 0; rep < kCopyReps; ++rep) {
      std::memcpy(dst.data(), src.data(), kCopyBytes);
      src[0] = dst[kCopyBytes - 1];  // serialize the reps
    }
    const double copy_seconds =
        std::chrono::duration<double>(Clock::now() - copy_start).count();
    const double bytes_per_sec =
        static_cast<double>(kCopyBytes) * kCopyReps /
        std::max(copy_seconds, 1e-9);

    // Break-even density: recompute time == serve time at exactly
    // flops_per_sec / bytes_per_sec FLOPs per byte.
    return std::clamp(flops_per_sec / bytes_per_sec, 0.05, 64.0);
  }();
  return measured;
}

}  // namespace remac
