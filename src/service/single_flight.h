#ifndef REMAC_SERVICE_SINGLE_FLIGHT_H_
#define REMAC_SERVICE_SINGLE_FLIGHT_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "sched/thread_pool.h"

namespace remac {

/// \brief Collapses concurrent computations of one key into one: the
/// first caller to Join a key leads and computes, later callers follow
/// and Wait for the value the leader passes to Complete.
///
/// The plan service runs the optimizer once per cold plan key through
/// it; the matcache computes each cold intermediate once. `V` carries
/// whatever followers need, including failure (a Result, or a null
/// pointer for "cancelled, compute it yourself").
template <typename V>
class SingleFlight {
 public:
  /// One in-flight computation. Followers keep it alive past Complete.
  struct Call {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<V> value;  // set once, by Complete
  };

  /// Returns the call for `key` and whether this caller leads it. A
  /// leader must Complete `key` exactly once, on every path; until then
  /// every Join of `key` follows.
  std::pair<std::shared_ptr<Call>, bool> Join(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = calls_.try_emplace(key);
    if (inserted) it->second = std::make_shared<Call>();
    return {it->second, inserted};
  }

  /// Erases `key` (the next Join leads a fresh call), then publishes
  /// `value` to the call's followers and wakes them.
  void Complete(const std::string& key, V value) {
    std::shared_ptr<Call> call;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = calls_.find(key);
      if (it == calls_.end()) return;
      call = std::move(it->second);
      calls_.erase(it);
    }
    {
      std::lock_guard<std::mutex> lock(call->mu);
      call->value = std::move(value);
    }
    call->cv.notify_all();
  }

  /// Blocks until `call` completes and returns the leader's value. A pool
  /// worker first helps drain its own lane, so a fleet of waiting
  /// requests cannot starve the leader's nested tasks; once the lane is
  /// dry it sleeps until Complete. The leader never needs the waiting
  /// thread (its nested RunAndWait drains its own sub-tasks), so
  /// sleeping here cannot wedge the call.
  static V Wait(Call& call) {
    if (ThreadPool* self = ThreadPool::CurrentPool(); self != nullptr) {
      while (true) {
        {
          std::lock_guard<std::mutex> lock(call.mu);
          if (call.value.has_value()) break;
        }
        if (!self->TryRunOne()) break;
      }
    }
    std::unique_lock<std::mutex> lock(call.mu);
    call.cv.wait(lock, [&] { return call.value.has_value(); });
    return *call.value;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Call>> calls_;
};

}  // namespace remac

#endif  // REMAC_SERVICE_SINGLE_FLIGHT_H_
