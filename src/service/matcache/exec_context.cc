#include "service/matcache/exec_context.h"

#include <utility>

#include "obs/trace_context.h"

namespace remac {

MatExecContext::MatExecContext(
    MatCache* cache,
    std::shared_ptr<const std::vector<SubplanCandidate>> candidates,
    const DataCatalog& catalog, const RunConfig& config)
    : cache_(cache), candidates_(std::move(candidates)) {
  const std::string env_digest = ExecEnvDigest(config);
  std::unordered_map<std::string, KeyState*> by_key;
  for (const SubplanCandidate& candidate : *candidates_) {
    Result<std::string> key =
        IntermediateCacheKey(candidate, catalog, env_digest);
    if (!key.ok()) continue;  // dataset left the catalog: don't cache
    auto it = by_key.find(key.value());
    if (it != by_key.end()) {
      // Another node of this plan computes the same key; share its
      // resolution instead of joining the flight twice.
      by_node_.emplace(candidate.node.get(), it->second);
      continue;
    }
    auto state = std::make_unique<KeyState>();
    state->key = std::move(key).value();
    state->candidate = &candidate;
    ++stats_.probes;
    state->served = cache_->Get(state->key);
    if (state->served != nullptr) {
      ++stats_.hits;
      cache_->RecordFlopsSaved(candidate.predicted_flops);
    } else {
      auto [flight, leader] = cache_->flights().Join(state->key);
      if (leader) {
        state->leader = true;
        leads_any_ = true;
        ++stats_.flights_led;
      } else {
        state->flight = std::move(flight);
      }
    }
    by_key.emplace(state->key, state.get());
    by_node_.emplace(candidate.node.get(), state.get());
    states_.push_back(std::move(state));
  }
}

MatExecContext::~MatExecContext() {
  // A led flight nobody offered to (failed request, loop that exited
  // before reaching the node) would strand its followers; cancel wakes
  // them to compute locally.
  for (const auto& state : states_) {
    if (state->leader && !state->completed) {
      cache_->flights().Complete(state->key, nullptr);
    }
  }
}

const RtValue* MatExecContext::ServedLocked(const KeyState& state) const {
  if (state.served != nullptr) return &state.served->value;
  if (state.local != nullptr) return state.local.get();
  return nullptr;
}

const RtValue* MatExecContext::Lookup(const PlanNode* node) {
  auto it = by_node_.find(node);
  if (it == by_node_.end()) return nullptr;
  KeyState* state = it->second;

  std::shared_ptr<MatFlights::Call> flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const RtValue* served = ServedLocked(*state)) return served;
    if (state->flight == nullptr) return nullptr;  // leader or local
    if (leads_any_) {
      // Leader-never-waits: a context that owes results to followers
      // elsewhere must not block on another leader (two leaders waiting
      // on each other's keys would deadlock). Compute this one locally.
      return nullptr;
    }
    flight = state->flight;
  }

  // Pure waiter: block on the leader's result (SingleFlight::Wait helps
  // drain this thread's lane meanwhile).
  const double wait_start_us = TraceNowMicros();
  std::shared_ptr<const MaterializedIntermediate> served =
      MatFlights::Wait(*flight);
  const double wait_end_us = TraceNowMicros();
  cache_->RecordFlightWait((wait_end_us - wait_start_us) * 1e-6);
  RecordWaitSpan("matcache-flight-wait", wait_start_us, wait_end_us);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.flight_waits;
  state->flight.reset();  // resolved either way; never wait again
  if (served == nullptr) return nullptr;  // cancelled: compute locally
  state->served = std::move(served);
  cache_->RecordFlopsSaved(state->candidate->predicted_flops);
  return &state->served->value;
}

void MatExecContext::Offer(const PlanNode* node, const RtValue& value) {
  auto it = by_node_.find(node);
  if (it == by_node_.end()) return;
  KeyState* state = it->second;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ServedLocked(*state) != nullptr) return;  // already resolved
    if (state->leader && !state->completed) {
      state->completed = true;
    } else if (state->leader) {
      return;  // already offered; nothing to do
    } else {
      // Computed locally (a leader elsewhere owns the flight, or it was
      // cancelled): keep a copy so loop iterations and sibling nodes of
      // this request are still served without recomputing.
      state->local = std::make_shared<const RtValue>(value);
      return;
    }
  }

  // Leader path: admission + publication outside mu_ (cache locks and
  // follower wakeups don't need the context lock).
  std::shared_ptr<const MaterializedIntermediate> entry = cache_->Offer(
      state->key, value, state->candidate->predicted_flops,
      state->candidate->datasets);
  cache_->flights().Complete(state->key, entry);
  std::lock_guard<std::mutex> lock(mu_);
  state->served = std::move(entry);
}

MatRequestStats MatExecContext::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace remac
