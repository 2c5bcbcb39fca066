#ifndef REMAC_SERVICE_MATCACHE_EXEC_CONTEXT_H_
#define REMAC_SERVICE_MATCACHE_EXEC_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "plan/plan_builder.h"
#include "runtime/executor.h"
#include "runtime/program_runner.h"
#include "service/matcache/intermediate_key.h"
#include "service/matcache/matcache.h"

namespace remac {

/// Per-request matcache accounting, surfaced on ServiceReport.
struct MatRequestStats {
  int64_t probes = 0;        // candidate keys probed against the cache
  int64_t hits = 0;          // served straight from a resident entry
  int64_t flights_led = 0;   // cold keys this request computes for everyone
  int64_t flight_waits = 0;  // cold keys served by another request's leader
};

/// \brief One request's view of the materialized-intermediate cache.
///
/// Constructed per execution from the plan's extracted candidates; probes
/// every candidate key against the cache up front (pinning hits so
/// eviction cannot invalidate a value mid-execution) and joins the
/// single-flight for misses. Plugged into the executor as its
/// IntermediateStore:
///
///   Lookup  — serves pinned hits by node pointer; single-flight
///             followers block on the leader's result here
///             (SingleFlight::Wait, which helps drain the waiter's
///             lane). A context that leads any flight never waits — a
///             leader blocking on another leader could deadlock in a
///             cycle, so leaders compute follower misses locally.
///   Offer   — a led key's first computed value completes its flight
///             (publishing to waiting followers even when the admission
///             policy rejects residency) and goes through cache
///             admission. Every resolved key also serves later
///             evaluations of the same node (loop iterations) and any
///             other candidate node sharing the key in this request.
///
/// The destructor cancels flights this context led but never offered
/// (failed or short-circuited executions), waking followers to compute
/// locally. Thread-safe: the task-graph scheduler calls both hooks from
/// concurrent per-task executors.
class MatExecContext : public IntermediateStore {
 public:
  /// `candidates` is the plan's shared candidate list (kept alive for
  /// the context's lifetime); keys are built against the catalog's
  /// current dataset metadata and versions, so a stale plan entry simply
  /// probes keys nobody populates.
  MatExecContext(
      MatCache* cache,
      std::shared_ptr<const std::vector<SubplanCandidate>> candidates,
      const DataCatalog& catalog, const RunConfig& config);

  MatExecContext(const MatExecContext&) = delete;
  MatExecContext& operator=(const MatExecContext&) = delete;

  ~MatExecContext() override;

  const RtValue* Lookup(const PlanNode* node) override;
  void Offer(const PlanNode* node, const RtValue& value) override;

  MatRequestStats stats() const;

 private:
  /// Shared resolution state of one cache key (several candidate nodes
  /// of one plan may share a key — intra-request sharing for free).
  struct KeyState {
    std::string key;
    const SubplanCandidate* candidate = nullptr;
    bool leader = false;
    bool completed = false;  // led flight was completed (or cancelled)
    /// Followers only; reset once the flight resolves.
    std::shared_ptr<MatFlights::Call> flight;
    /// Pinned cache entry (probe hit, leader offer, or flight result).
    std::shared_ptr<const MaterializedIntermediate> served;
    /// Locally computed value when no cache entry applies (cancelled
    /// flight or non-leading recompute); still serves loop iterations.
    std::shared_ptr<const RtValue> local;
  };

  /// The servable value of `state`, or null. Caller holds mu_.
  const RtValue* ServedLocked(const KeyState& state) const;

  MatCache* cache_;
  std::shared_ptr<const std::vector<SubplanCandidate>> candidates_;

  /// Immutable after construction; KeyState contents are guarded by mu_.
  std::unordered_map<const PlanNode*, KeyState*> by_node_;
  std::vector<std::unique_ptr<KeyState>> states_;

  bool leads_any_ = false;
  mutable std::mutex mu_;
  MatRequestStats stats_;
};

}  // namespace remac

#endif  // REMAC_SERVICE_MATCACHE_EXEC_CONTEXT_H_
