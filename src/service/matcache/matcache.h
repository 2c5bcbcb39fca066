#ifndef REMAC_SERVICE_MATCACHE_MATCACHE_H_
#define REMAC_SERVICE_MATCACHE_MATCACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/executor.h"
#include "service/sharded_lru.h"
#include "service/single_flight.h"

namespace remac {

/// \brief One materialized sub-plan result held by the matcache.
///
/// Immutable once inserted. Served requests pin the entry with a
/// shared_ptr, so eviction never invalidates a value an in-flight
/// execution is reading.
struct MaterializedIntermediate {
  RtValue value;
  /// Exact resident footprint of the value (Matrix::BytesUsed), the
  /// cache's byte-budget currency.
  int64_t bytes = 0;
  /// Predicted FLOPs to recompute the sub-plan — the benefit side of
  /// admission and eviction scoring.
  double predicted_flops = 0.0;
  /// Datasets the sub-plan reads; dataset-level invalidation drops every
  /// entry whose set intersects the changed names.
  std::vector<std::string> datasets;
  /// Times this entry was served (relaxed; eviction scoring only).
  mutable std::atomic<int64_t> hits{0};
};

struct MatCacheOptions {
  /// Total byte budget across shards. 0 disables the cache entirely
  /// (every Get misses, every Admit rejects).
  int64_t capacity_bytes = 256ll << 20;
  int shards = 8;
  /// Admission threshold: admit a computed value only when
  ///   predicted_flops * observed_probes(key) >=
  ///       admit_flops_per_byte * bytes.
  /// Probes count every Get for the key (a ghost-frequency map), so an
  /// intermediate nobody asked for twice must be proportionally cheap
  /// per byte to earn residency. 0 admits everything that fits;
  /// MeasuredAdmitFlopsPerByte() derives a machine-specific default.
  double admit_flops_per_byte = 0.0;
};

struct MatCacheStats {
  int64_t probes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t admits = 0;
  int64_t rejects = 0;
  int64_t evictions = 0;
  int64_t invalidations = 0;
  int64_t flight_waits = 0;
  int64_t entries = 0;
  int64_t resident_bytes = 0;
  /// Predicted FLOPs of every served hit — the recompute work the cache
  /// eliminated across requests.
  double flops_saved = 0.0;
};

/// Single-flight over cold intermediate keys. The leader completes with
/// the entry it offered (admitted or not); null means it was cancelled
/// before offering, and followers then recompute locally.
using MatFlights =
    SingleFlight<std::shared_ptr<const MaterializedIntermediate>>;

/// \brief Sharded, byte-bounded, cost-aware cache of materialized
/// sub-plan results (the cross-request redundancy store).
///
/// Keys are opaque strings built by IntermediateCacheKey. Each entry is
/// charged its bytes against the budget and scored by predicted
/// recompute FLOPs, amortized hit count and footprint, so eviction
/// (ShardedLru) drops the least valuable of the few least-recently-used
/// entries first.
///
/// The cache also owns the single-flight over its keys, so concurrent
/// sessions missing on the same key compute the value once; the
/// per-request leader/follower protocol is in exec_context.cc.
class MatCache {
 public:
  explicit MatCache(MatCacheOptions options = {});

  MatCache(const MatCache&) = delete;
  MatCache& operator=(const MatCache&) = delete;

  /// Returns the entry (promoting and pinning it) or null. Every call
  /// counts a probe into the ghost-frequency map the admission policy
  /// reads, whether or not the key is resident.
  std::shared_ptr<const MaterializedIntermediate> Get(const std::string& key);

  /// Offers a computed value. Applies the admission policy; admitted
  /// values are inserted (evicting while over budget) and returned,
  /// rejected values are wrapped and returned without insertion — the
  /// caller still publishes them to single-flight followers. Oversized
  /// values (larger than their shard's budget) are always rejected.
  std::shared_ptr<const MaterializedIntermediate> Offer(
      const std::string& key, RtValue value, double predicted_flops,
      std::vector<std::string> datasets);

  /// Drops every entry reading any of `names` (metadata or content of a
  /// dataset changed). Returns the number dropped.
  int EraseDatasets(const std::vector<std::string>& names);

  /// The single-flight over this cache's keys.
  MatFlights& flights() { return flights_; }

  /// Counts one flight wait (kept here so stats stay in one place) and
  /// observes its duration into remac.matcache.flight_wait_seconds.
  void RecordFlightWait(double wait_seconds);
  /// Credits a served hit's predicted recompute cost to flops_saved.
  void RecordFlopsSaved(double flops);

  MatCacheStats stats() const;
  int64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  size_t size() const { return lru_.size(); }
  const MatCacheOptions& options() const { return options_; }

 private:
  /// Books one entry entering (+1) or leaving (-1) the cache into the
  /// entry and byte counts.
  void Track(const MaterializedIntermediate& entry, int sign);
  void CountProbe(const std::string& key);

  MatCacheOptions options_;
  ShardedLru<std::shared_ptr<const MaterializedIntermediate>> lru_;
  MatFlights flights_;

  /// Ghost frequency: probes per key, including misses, bounded by
  /// halving every count (dropping zeros) when it outgrows kMaxGhostKeys.
  static constexpr size_t kMaxGhostKeys = 4096;
  std::mutex ghost_mu_;
  std::unordered_map<std::string, int64_t> ghost_probes_;

  mutable std::atomic<int64_t> probes_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> admits_{0};
  std::atomic<int64_t> rejects_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
  std::atomic<int64_t> flight_waits_{0};
  std::atomic<int64_t> resident_bytes_{0};
  std::atomic<double> flops_saved_{0.0};
};

/// Derives a machine-specific admission threshold for
/// MatCacheOptions::admit_flops_per_byte: the break-even FLOP density at
/// which recomputing an intermediate takes as long as copying it out of
/// the cache. Measured once per process (a tiny naive GEMM for
/// flops/sec, a memcpy sweep for bytes/sec) and clamped to [0.05, 64] so
/// a noisy timing sample cannot produce an absurd knob. Entries below
/// the returned density are faster to recompute than to serve, so
/// caching them only burns budget.
double MeasuredAdmitFlopsPerByte();

}  // namespace remac

#endif  // REMAC_SERVICE_MATCACHE_MATCACHE_H_
