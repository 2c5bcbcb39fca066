#include "sched/thread_pool.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace remac {

namespace {

thread_local ThreadPool* tl_pool = nullptr;
thread_local int tl_worker_id = -1;

/// Process-wide pool metrics. Tasks executed, steals and the peak queue
/// depth are counted once, per pool, in PoolStats. The lane families are
/// registered here — unconditionally, so the metrics manifest sees them
/// even in runs that never build one of the lanes — and handed to the
/// matching pool at construction.
struct PoolMetrics {
  /// Submit-to-start latency, observed only while contention profiling
  /// is on (obs/trace_context Tracer) — the disabled path reads no
  /// clocks on submit or execution.
  Histogram* queue_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.contention.pool_queue_seconds");
  /// Per-lane mirrors (two-lane pool: execution vs request lane).
  Counter* exec_tasks =
      MetricsRegistry::Global().GetCounter("remac.pool.lane.exec.tasks");
  Counter* request_tasks =
      MetricsRegistry::Global().GetCounter("remac.pool.lane.request.tasks");
  Gauge* exec_threads =
      MetricsRegistry::Global().GetGauge("remac.pool.lane.exec.threads");
  Gauge* request_threads =
      MetricsRegistry::Global().GetGauge("remac.pool.lane.request.threads");
};

PoolMetrics& Metrics() {
  static PoolMetrics metrics;
  return metrics;
}

int ResolveThreads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 16u));
}

/// Holder for one process-wide lane; reset by SetGlobalThreads.
struct LaneHolder {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
  int configured = 0;  // <= 0: hardware default
};

LaneHolder& ExecHolder() {
  static LaneHolder holder;
  return holder;
}

LaneHolder& RequestHolder() {
  static LaneHolder holder;
  return holder;
}

ThreadPool& LanePool(LaneHolder& holder, const char* lane) {
  std::lock_guard<std::mutex> lock(holder.mu);
  if (holder.pool == nullptr) {
    holder.pool = std::make_unique<ThreadPool>(holder.configured, lane);
  }
  return *holder.pool;
}

void ResizeLane(LaneHolder& holder, int threads) {
  std::lock_guard<std::mutex> lock(holder.mu);
  holder.configured = threads;
  if (holder.pool != nullptr &&
      holder.pool->size() == ResolveThreads(threads)) {
    return;
  }
  holder.pool.reset();  // joins workers; the lane accessor recreates
}

}  // namespace

ThreadPool::ThreadPool(int threads, const char* lane) {
  const int n = ResolveThreads(threads);
  queues_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  if (lane != nullptr) {
    const bool exec = std::strcmp(lane, "exec") == 0;
    lane_tasks_ = exec ? Metrics().exec_tasks : Metrics().request_tasks;
    lane_threads_ = exec ? Metrics().exec_threads : Metrics().request_threads;
    lane_threads_->Set(static_cast<double>(n));
  }
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& queue : queues_) {
    // Lock-then-notify closes the race with a worker between its
    // predicate check and its block (see WakeForTask).
    { std::lock_guard<std::mutex> lock(queue->park_mu); }
    queue->park_cv.notify_all();
  }
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::WakeForTask(size_t target) {
  // Saturated fast path: with every worker busy there is nobody to wake
  // and nothing to lock. The seq_cst pending_ increment in Submit and
  // the seq_cst parked-flag store in WorkerLoop make this a Dekker pair:
  // a worker that decided to park on an empty pool is visible here, and
  // a submit this load misses is visible to the worker's predicate.
  if (parked_count_.load(std::memory_order_seq_cst) == 0) return;
  const size_t n = queues_.size();
  for (size_t probe = 0; probe < n; ++probe) {
    Queue& queue = *queues_[(target + probe) % n];
    if (!queue.parked.load(std::memory_order_seq_cst)) continue;
    // Empty critical section: serializes with the owner's atomic
    // predicate-check-then-block so the notify cannot land in between
    // and get lost.
    { std::lock_guard<std::mutex> lock(queue.park_mu); }
    queue.park_cv.notify_one();
    return;
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (Tracer::Global().any_active()) {
    // Profiling wrapper: stamp the submit time and carry the submitter's
    // trace context into the task, so (a) submit-to-start queue latency
    // lands in remac.contention.pool_queue_seconds and (b) spans the
    // task records join the submitting request's tree even though it
    // runs on an arbitrary worker.
    fn = [fn = std::move(fn), ctx = CurrentTraceContext(),
          submit_us = TraceNowMicros()] {
      const double start_us = TraceNowMicros();
      Metrics().queue_seconds->Observe((start_us - submit_us) * 1e-6);
      RecordWaitSpanIn(ctx, "pool-queue", submit_us, start_us);
      TraceContextScope scope(ctx);
      fn();
    };
  }
  // A worker submitting to its own pool keeps the continuation on its
  // own deque: it is the thread most likely to pop it next (front,
  // FIFO), and pushing it to a sibling forces a park/steal round trip.
  // External submitters spread round-robin.
  const size_t target =
      tl_pool == this
          ? static_cast<size_t>(tl_worker_id)
          : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->items.push_back(std::move(fn));
    const auto depth = static_cast<int64_t>(queues_[target]->items.size());
    int64_t peak = peak_queue_depth_.load(std::memory_order_relaxed);
    while (depth > peak &&
           !peak_queue_depth_.compare_exchange_weak(
               peak, depth, std::memory_order_relaxed)) {
    }
  }
  pending_.fetch_add(1, std::memory_order_seq_cst);
  // Wake the owner of the deque that received the task; a worker
  // submitting to itself instead wakes a parked sibling (it is busy with
  // the current task, and the fan-out may hold parallelism).
  WakeForTask(tl_pool == this ? (target + 1) % queues_.size() : target);
}

bool ThreadPool::PopTask(int preferred, std::function<void()>* out) {
  const int n = static_cast<int>(queues_.size());
  // Own queue first (front: LIFO-ish locality for the owner is not
  // needed here; FIFO keeps DAG submission order roughly intact).
  for (int probe = 0; probe < n; ++probe) {
    const int q = (preferred + probe) % n;
    Queue& queue = *queues_[q];
    std::lock_guard<std::mutex> lock(queue.mu);
    if (queue.items.empty()) continue;
    if (probe == 0) {
      *out = std::move(queue.items.front());
      queue.items.pop_front();
    } else {
      // Steal from the back to reduce contention with the owner.
      *out = std::move(queue.items.back());
      queue.items.pop_back();
      steals_.fetch_add(1, std::memory_order_relaxed);
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(int index) {
  tl_pool = this;
  tl_worker_id = index;
  Queue& own = *queues_[static_cast<size_t>(index)];
  std::function<void()> task;
  while (true) {
    if (PopTask(index, &task)) {
      task();
      task = nullptr;
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      if (lane_tasks_ != nullptr) lane_tasks_->Add();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    // Park on the worker's own condition variable. The parked flag is
    // published (seq_cst) before the predicate reads pending_, pairing
    // with WakeForTask's pending_-then-parked order: either this worker
    // sees the new task and skips the sleep, or the submitter sees the
    // flag and wakes it. No global mutex is involved.
    std::unique_lock<std::mutex> lock(own.park_mu);
    own.parked.store(true, std::memory_order_seq_cst);
    parked_count_.fetch_add(1, std::memory_order_seq_cst);
    wait_wakeups_.fetch_add(1, std::memory_order_relaxed);
    own.park_cv.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_seq_cst) > 0;
    });
    own.parked.store(false, std::memory_order_relaxed);
    parked_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  tl_pool = nullptr;
  tl_worker_id = -1;
}

bool ThreadPool::TryRunOne() {
  const int preferred =
      tl_pool == this
          ? tl_worker_id
          : static_cast<int>(next_queue_.load(std::memory_order_relaxed) %
                             queues_.size());
  std::function<void()> task;
  if (!PopTask(preferred, &task)) return false;
  task();
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (lane_tasks_ != nullptr) lane_tasks_->Add();
  return true;
}

void ThreadPool::RunAndWait(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks[0]();
    return;
  }
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    int remaining;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = static_cast<int>(tasks.size()) - 1;
  for (size_t i = 1; i < tasks.size(); ++i) {
    Submit([latch, task = std::move(tasks[i])] {
      task();
      std::lock_guard<std::mutex> lock(latch->mu);
      if (--latch->remaining == 0) latch->cv.notify_all();
    });
  }
  // The caller contributes the first chunk, then helps drain queues
  // until its own sub-tasks finished — this is what makes nested
  // RunAndWait deadlock-free even on a single-thread pool.
  tasks[0]();
  while (true) {
    {
      std::lock_guard<std::mutex> lock(latch->mu);
      if (latch->remaining == 0) return;
    }
    if (TryRunOne()) continue;
    // Every queue is empty, so the remaining sub-tasks are executing on
    // other threads: sleep until the last one's notify instead of
    // polling (the completion check runs under latch->mu, so the notify
    // cannot be missed).
    std::unique_lock<std::mutex> lock(latch->mu);
    wait_wakeups_.fetch_add(1, std::memory_order_relaxed);
    latch->cv.wait(lock, [&] { return latch->remaining == 0; });
    return;
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats stats;
  stats.threads = size();
  stats.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.peak_queue_depth =
      peak_queue_depth_.load(std::memory_order_relaxed);
  stats.wait_wakeups = wait_wakeups_.load(std::memory_order_relaxed);
  return stats;
}

int ThreadPool::CurrentWorkerId() { return tl_worker_id; }

ThreadPool* ThreadPool::CurrentPool() { return tl_pool; }

ThreadPool& ThreadPool::Global() { return LanePool(ExecHolder(), "exec"); }

ThreadPool& ThreadPool::RequestLane() {
  return LanePool(RequestHolder(), "request");
}

void ThreadPool::SetGlobalThreads(int threads) {
  ResizeLane(ExecHolder(), threads);
  ResizeLane(RequestHolder(), threads);
}

void ThreadPool::SetExecLaneThreads(int threads) {
  ResizeLane(ExecHolder(), threads);
}

}  // namespace remac
