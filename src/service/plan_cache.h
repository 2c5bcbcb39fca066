#ifndef REMAC_SERVICE_PLAN_CACHE_H_
#define REMAC_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_optimizer.h"
#include "plan/plan_builder.h"
#include "service/matcache/intermediate_key.h"
#include "service/sharded_lru.h"

namespace remac {

/// \brief An optimized program held by the plan cache.
///
/// Immutable once inserted; requests execute the shared CompiledProgram
/// directly (plan trees are never mutated by execution), so a hit costs
/// one shared_ptr copy.
struct CachedPlan {
  std::shared_ptr<const CompiledProgram> program;
  std::string optimized_source;
  OptimizeReport optimize;
  /// Wall seconds spent producing this entry (parse + optimize). The
  /// eviction weight: expensive-to-rebuild entries are sticky.
  double build_wall_seconds = 0.0;
  /// Canonical fingerprint hash of the source program (see
  /// program_fingerprint.h); invalidation drops all buckets of a program.
  uint64_t program_hash = 0;
  /// The input-metadata bucket this plan was optimized for.
  std::string metadata_key;
  /// Cacheable sub-plans of `program` (see matcache/intermediate_key.h),
  /// extracted once at build time; every request executing this plan
  /// probes them against the service's materialized-intermediate cache.
  /// Node pointers reference `program`'s shared trees.
  std::shared_ptr<const std::vector<SubplanCandidate>> intermediates;
  /// Approximate resident footprint of this entry (plan trees, sources,
  /// candidate keys), computed once at insertion.
  int64_t resident_bytes = 0;

  /// Estimates `resident_bytes` from the entry's actual contents.
  int64_t EstimateResidentBytes() const;
};

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  /// Entries dropped by ErasePlansForProgram (metadata left the bucket).
  int64_t invalidations = 0;
  int64_t entries = 0;
  /// Summed CachedPlan::resident_bytes of live entries — real byte
  /// accounting instead of the old entry-count-only view.
  int64_t resident_bytes = 0;
};

/// \brief Sharded, thread-safe LRU cache of optimized programs.
///
/// Keys are opaque strings (the service combines program fingerprint,
/// input-metadata bucket and optimizer-config digest). Each entry is
/// charged 1 against the capacity and scored by build_wall_seconds, so
/// eviction (ShardedLru) drops the cheapest-to-rebuild of the few
/// least-recently-used plans: a plan that took seconds to optimize is
/// not displaced by one that took microseconds.
class PlanCache {
 public:
  /// `capacity` is the total entry budget across shards (min 1). The
  /// shard count is clamped to [1, min(capacity, 64)] so tiny caches
  /// still enforce their capacity exactly.
  explicit PlanCache(size_t capacity, int shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the entry (promoting it to most-recent) or null. Counts a
  /// hit or a miss.
  std::shared_ptr<const CachedPlan> Get(const std::string& key);

  /// Inserts or replaces; evicts while the shard is over budget.
  void Put(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  /// Drops every entry of `program_hash` (explicit invalidation when the
  /// input metadata leaves its bucket). Returns the number dropped.
  int ErasePlansForProgram(uint64_t program_hash);

  PlanCacheStats stats() const;
  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }
  int64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Books one plan entering (+1) or leaving (-1) the cache into the
  /// entry and byte counts.
  void Track(const CachedPlan& plan, int sign);

  size_t capacity_;
  ShardedLru<std::shared_ptr<const CachedPlan>> lru_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
  std::atomic<int64_t> resident_bytes_{0};
};

}  // namespace remac

#endif  // REMAC_SERVICE_PLAN_CACHE_H_
