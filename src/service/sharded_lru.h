#ifndef REMAC_SERVICE_SHARDED_LRU_H_
#define REMAC_SERVICE_SHARDED_LRU_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace remac {

/// \brief Sharded, thread-safe LRU map with a charge budget and
/// cost-aware eviction; the storage under the plan cache and the
/// matcache.
///
/// Every entry carries a caller-given charge (1 per plan, bytes per
/// materialized intermediate). A shard evicts while its summed charge
/// exceeds its share of the budget: it samples up to three
/// least-recently-used entries, never the most-recent one (the entry
/// just inserted), and drops the one the caller's score rates lowest, so
/// an entry that is expensive to rebuild is not displaced by a cheap one
/// just because it is marginally older.
///
/// `V` is a pointer-like value whose empty state means "absent". The map
/// keeps no counters: Put and EraseIf return what they removed, and each
/// cache does its own accounting. Every shard lock goes through
/// TimedMutexLock on the caller's lock-wait histogram.
template <typename V>
class ShardedLru {
 public:
  using ScoreFn = double (*)(const V&);

  /// What one Put removed: the value it replaced in place (empty when
  /// the key was new) and the values evicted to get back within budget.
  struct Displaced {
    V replaced{};
    std::vector<V> evicted;
  };

  /// `budget` is the total charge across shards (negative = 0). The
  /// shard count is clamped to [1, min(budget, 64)] so a tiny budget is
  /// still enforced exactly; the budget splits evenly, the first
  /// budget % shards shards taking one unit more.
  ShardedLru(int64_t budget, int shards, ScoreFn score,
             Histogram* lock_wait, const char* lock_span)
      : score_(score), lock_wait_(lock_wait), lock_span_(lock_span) {
    budget = std::max<int64_t>(budget, 0);
    const int64_t n = std::clamp<int64_t>(
        shards, 1, std::clamp<int64_t>(budget, 1, 64));
    shards_.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->budget = budget / n + (i < budget % n ? 1 : 0);
      shards_.push_back(std::move(shard));
    }
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// Returns the value (promoting it to most-recent) or an empty V.
  V Get(const std::string& key) {
    Shard& shard = ShardFor(key);
    TimedMutexLock lock(shard.mu, lock_wait_, lock_span_);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return V{};
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Inserts `value` as most-recent, or replaces the key's value in
  /// place and promotes it; then evicts while the shard is over budget.
  Displaced Put(const std::string& key, V value, int64_t charge) {
    Displaced displaced;
    Shard& shard = ShardFor(key);
    TimedMutexLock lock(shard.mu, lock_wait_, lock_span_);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      displaced.replaced = std::exchange(entry.value, std::move(value));
      shard.charge += charge - entry.charge;
      entry.charge = charge;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), charge});
      shard.index.emplace(key, shard.lru.begin());
      shard.charge += charge;
    }
    while (shard.charge > shard.budget && !shard.lru.empty()) {
      auto victim = std::prev(shard.lru.end());
      auto candidate = victim;
      for (int probe = 1; probe < 3; ++probe) {
        if (candidate == shard.lru.begin()) break;
        candidate = std::prev(candidate);
        if (candidate == shard.lru.begin()) break;  // never the MRU entry
        if (score_(candidate->value) < score_(victim->value)) {
          victim = candidate;
        }
      }
      displaced.evicted.push_back(std::move(victim->value));
      Remove(shard, victim);
    }
    return displaced;
  }

  /// Removes every entry whose value satisfies `pred`; returns them.
  std::vector<V> EraseIf(const std::function<bool(const V&)>& pred) {
    std::vector<V> erased;
    for (auto& shard : shards_) {
      TimedMutexLock lock(shard->mu, lock_wait_, lock_span_);
      for (auto it = shard->lru.begin(); it != shard->lru.end();) {
        if (pred(it->value)) {
          erased.push_back(it->value);
          it = Remove(*shard, it);
        } else {
          ++it;
        }
      }
    }
    return erased;
  }

  /// The budget of the shard `key` maps to: the largest charge Put can
  /// keep resident under that key.
  int64_t BudgetFor(const std::string& key) const {
    return ShardFor(key).budget;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      TimedMutexLock lock(shard->mu, lock_wait_, lock_span_);
      total += shard->lru.size();
    }
    return total;
  }

 private:
  struct Entry {
    std::string key;
    V value;
    int64_t charge = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index;
    int64_t budget = 0;
    int64_t charge = 0;
  };

  Shard& ShardFor(const std::string& key) const {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  /// Unlinks the entry at `it` from `shard` (locked by the caller).
  typename std::list<Entry>::iterator Remove(
      Shard& shard, typename std::list<Entry>::iterator it) {
    shard.charge -= it->charge;
    shard.index.erase(it->key);
    return shard.lru.erase(it);
  }

  ScoreFn score_;
  Histogram* lock_wait_;
  const char* lock_span_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace remac

#endif  // REMAC_SERVICE_SHARDED_LRU_H_
