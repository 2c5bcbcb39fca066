#include "cluster/fault_plan.h"

#include <cmath>

#include "common/string_util.h"

namespace remac {

namespace {

/// FNV-1a 64 over the key bytes, mixed with seed and salt via splitmix64
/// finalization. Pure function of its inputs: the same (seed, key, salt)
/// draws the same fault on every run and every thread schedule.
uint64_t MixHash(uint64_t seed, std::string_view key, uint64_t salt) {
  uint64_t h = 14695981039346656037ull ^ seed;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= salt + 0x9e3779b97f4a7c15ull;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

FaultPlan FaultPlan::Chaos(uint64_t seed) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.transient_probability = 0.2;
  plan.transient_fail_attempts = 2;
  plan.straggler_probability = 0.2;
  plan.straggler_factor = 4.0;
  // One worker crash somewhere in the first few tasks (seed-dependent).
  plan.crash_at_task = static_cast<int64_t>(seed % 5);
  plan.max_retries = 4;
  return plan;
}

std::string FaultPlan::ToString() const {
  if (!enabled) return "faults disabled";
  return StringFormat(
      "seed=%llu transient=%.2f(x%d) straggler=%.2f(%.1fx) "
      "crash@%lld retries=%d backoff=%.3gs*%.1f^k",
      static_cast<unsigned long long>(seed), transient_probability,
      transient_fail_attempts, straggler_probability, straggler_factor,
      static_cast<long long>(crash_at_task), max_retries,
      backoff_base_seconds, backoff_multiplier);
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTransient: return "transient";
    case FaultKind::kWorkerCrash: return "worker-crash";
    case FaultKind::kStraggler: return "straggler";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(plan) {}

double FaultInjector::Draw(std::string_view task_key, uint64_t salt) const {
  const uint64_t h = MixHash(plan_.seed, task_key, salt);
  // 53 mantissa bits -> uniform in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultDecision FaultInjector::Probe(std::string_view task_key, int attempt) {
  FaultDecision decision;
  if (!plan_.enabled) return decision;
  probes_.fetch_add(1, std::memory_order_relaxed);

  // Worker crash: exactly one first attempt (the crash_at_task-th task
  // to start) is lost with the worker that ran it.
  if (attempt == 0 && plan_.crash_at_task >= 0 &&
      first_attempts_.fetch_add(1, std::memory_order_relaxed) ==
          plan_.crash_at_task) {
    crashes_.fetch_add(1, std::memory_order_relaxed);
    decision.kind = FaultKind::kWorkerCrash;
    return decision;
  }

  // Transient kernel/transmission error: strikes a seed-chosen subset of
  // tasks, deterministically failing their first few attempts.
  if (attempt < plan_.transient_fail_attempts &&
      Draw(task_key, /*salt=*/1) < plan_.transient_probability) {
    transients_.fetch_add(1, std::memory_order_relaxed);
    decision.kind = FaultKind::kTransient;
    return decision;
  }

  // Straggler: the task's placement is slow; every attempt on it drags.
  if (Draw(task_key, /*salt=*/2) < plan_.straggler_probability) {
    stragglers_.fetch_add(1, std::memory_order_relaxed);
    decision.kind = FaultKind::kStraggler;
    decision.slowdown = plan_.straggler_factor;
  }
  return decision;
}

double FaultInjector::BackoffSeconds(int attempt) const {
  return plan_.backoff_base_seconds *
         std::pow(plan_.backoff_multiplier, attempt);
}

FaultStats FaultInjector::stats() const {
  FaultStats stats;
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.transients = transients_.load(std::memory_order_relaxed);
  stats.crashes = crashes_.load(std::memory_order_relaxed);
  stats.stragglers = stragglers_.load(std::memory_order_relaxed);
  stats.injected = stats.transients + stats.crashes;
  return stats;
}

}  // namespace remac
