#include "service/plan_cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace remac {

namespace {

/// Process-wide cache metrics. Hits, misses, evictions, entries and
/// resident bytes are counted once, per instance, in PlanCacheStats.
struct CacheMetrics {
  /// Contended shard-lock wait (TimedMutexLock; only observed while
  /// contention profiling is on).
  Histogram* lock_wait = MetricsRegistry::Global().GetHistogram(
      "remac.contention.plancache_lock_seconds");
  Counter* invalidations =
      MetricsRegistry::Global().GetCounter("remac.plancache.invalidations");
};

CacheMetrics& Metrics() {
  static CacheMetrics metrics;
  return metrics;
}

int64_t ProgramNodeCount(const std::vector<CompiledStmt>& statements) {
  int64_t nodes = 0;
  for (const CompiledStmt& stmt : statements) {
    if (stmt.plan != nullptr) nodes += CountNodes(*stmt.plan);
    if (stmt.condition != nullptr) nodes += CountNodes(*stmt.condition);
    nodes += ProgramNodeCount(stmt.body);
  }
  return nodes;
}

}  // namespace

int64_t CachedPlan::EstimateResidentBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(CachedPlan));
  bytes += static_cast<int64_t>(optimized_source.size());
  bytes += static_cast<int64_t>(metadata_key.size());
  if (program != nullptr) {
    bytes += ProgramNodeCount(program->statements) *
             static_cast<int64_t>(sizeof(PlanNode));
  }
  if (intermediates != nullptr) {
    for (const SubplanCandidate& candidate : *intermediates) {
      bytes += static_cast<int64_t>(sizeof(SubplanCandidate));
      bytes += static_cast<int64_t>(candidate.window_key.size());
      for (const std::string& name : candidate.datasets) {
        bytes += static_cast<int64_t>(name.size());
      }
    }
  }
  return bytes;
}

PlanCache::PlanCache(size_t capacity, int shards)
    : capacity_(std::max<size_t>(capacity, 1)),
      lru_(static_cast<int64_t>(capacity_), shards,
           [](const std::shared_ptr<const CachedPlan>& plan) {
             return plan->build_wall_seconds;
           },
           Metrics().lock_wait, "plancache-lock") {}

void PlanCache::Track(const CachedPlan& plan, int sign) {
  const int64_t bytes =
      sign * (plan.resident_bytes > 0 ? plan.resident_bytes
                                      : plan.EstimateResidentBytes());
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

std::shared_ptr<const CachedPlan> PlanCache::Get(const std::string& key) {
  std::shared_ptr<const CachedPlan> plan = lru_.Get(key);
  (plan == nullptr ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return plan;
}

void PlanCache::Put(const std::string& key,
                    std::shared_ptr<const CachedPlan> plan) {
  Track(*plan, +1);
  auto displaced = lru_.Put(key, std::move(plan), /*charge=*/1);
  if (displaced.replaced != nullptr) Track(*displaced.replaced, -1);
  for (const auto& victim : displaced.evicted) {
    Track(*victim, -1);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

int PlanCache::ErasePlansForProgram(uint64_t program_hash) {
  const auto dropped = lru_.EraseIf(
      [program_hash](const std::shared_ptr<const CachedPlan>& plan) {
        return plan->program_hash == program_hash;
      });
  for (const auto& plan : dropped) Track(*plan, -1);
  const int count = static_cast<int>(dropped.size());
  invalidations_.fetch_add(count, std::memory_order_relaxed);
  Metrics().invalidations->Add(count);
  return count;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.entries = static_cast<int64_t>(size());
  stats.resident_bytes = resident_bytes();
  return stats;
}

}  // namespace remac
