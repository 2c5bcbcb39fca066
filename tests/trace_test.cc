// Request-scoped tracing + contention-profiling tests: context
// propagation across pool tasks, rooted span trees from traced service
// runs, bitwise identity of results with tracing on vs off, and the
// contended-only semantics of the profiling clocks. The Trace*/Contention* suites run under TSan/ASan/UBSan via
// scripts/check.sh.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "sched/thread_pool.h"
#include "service/plan_service.h"

namespace remac {
namespace {

/// Restores the global tracer flags on scope exit so a failing test
/// cannot leak tracing into unrelated suites.
struct TracerGuard {
  ~TracerGuard() {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().SetProfiling(false);
  }
};

DataCatalog TraceCatalog() {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "tr";
  spec.rows = 120;
  spec.cols = 12;
  spec.sparsity = 0.4;
  spec.seed = 5;
  EXPECT_TRUE(RegisterDataset(&catalog, spec).ok());
  return catalog;
}

RunConfig TraceConfig() {
  RunConfig config;
  config.max_iterations = 4;
  config.executed_iterations = 1;
  return config;
}

// ---------------------------------------------------------------------
// Context propagation.
// ---------------------------------------------------------------------

TEST(TraceContextTest, DisabledTracerStartsNoRequests) {
  ASSERT_FALSE(Tracer::Global().enabled());
  EXPECT_EQ(Tracer::Global().StartRequest(), nullptr);
  EXPECT_FALSE(CurrentTraceContext().active());
  // Spans against an inactive context are dropped without effect.
  ScopedTraceSpan span("ignored");
  EXPECT_FALSE(span.active());
}

TEST(TraceContextTest, ScopeInstallsAndRestores) {
  TracerGuard guard;
  Tracer::Global().SetEnabled(true);
  auto trace = Tracer::Global().StartRequest();
  ASSERT_NE(trace, nullptr);
  {
    TraceContextScope scope(TraceContext{trace, RequestTrace::kRootSpanId});
    EXPECT_TRUE(CurrentTraceContext().active());
    EXPECT_EQ(CurrentTraceContext().trace.get(), trace.get());
  }
  EXPECT_FALSE(CurrentTraceContext().active());
}

TEST(TraceContextTest, PoolSubmitCarriesContextToWorker) {
  TracerGuard guard;
  Tracer::Global().SetEnabled(true);
  ThreadPool pool(2);
  auto trace = Tracer::Global().StartRequest();
  ASSERT_NE(trace, nullptr);
  std::atomic<bool> done{false};
  std::atomic<bool> worker_saw_trace{false};
  {
    TraceContextScope scope(TraceContext{trace, RequestTrace::kRootSpanId});
    pool.Submit([&] {
      worker_saw_trace = CurrentTraceContext().trace.get() == trace.get();
      {
        ScopedTraceSpan span("on-worker");
      }
      done = true;
    });
  }
  while (!done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(worker_saw_trace);
  // The pool wrapper may add a "pool-queue" wait span when the worker
  // took >10us to pick the task up; the worker-side span must be there
  // either way, parented under the root.
  int on_worker_spans = 0;
  for (const TraceSpan& span : trace->Spans()) {
    if (span.name == "on-worker") {
      ++on_worker_spans;
      EXPECT_EQ(span.parent, RequestTrace::kRootSpanId);
    } else {
      EXPECT_EQ(span.name, "pool-queue");
      EXPECT_STREQ(span.category, "wait");
    }
  }
  EXPECT_EQ(on_worker_spans, 1);
}

TEST(TraceContextTest, NestedScopedSpansParentCorrectly) {
  TracerGuard guard;
  Tracer::Global().SetEnabled(true);
  auto trace = Tracer::Global().StartRequest();
  ASSERT_NE(trace, nullptr);
  uint64_t outer_id = 0;
  {
    TraceContextScope scope(TraceContext{trace, RequestTrace::kRootSpanId});
    ScopedTraceSpan outer("outer", "stage", /*enter=*/true);
    outer_id = outer.span_id();
    ScopedTraceSpan inner("inner");
    inner.Stop();
    outer.Stop();
  }
  const std::vector<TraceSpan> spans = trace->Spans();
  ASSERT_EQ(spans.size(), 2u);
  // inner stops first, so it is recorded first and parents under outer.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, RequestTrace::kRootSpanId);
}

// ---------------------------------------------------------------------
// Span trees from traced service runs.
// ---------------------------------------------------------------------

TEST(TraceServiceTest, TracedRunProducesRootedSpanTree) {
  TracerGuard guard;
  DataCatalog catalog = TraceCatalog();
  Tracer::Global().SetEnabled(true);
  PlanService service(&catalog);
  auto report = service.Run(ServiceRequest{DfpScript("tr", 4), TraceConfig()});
  ASSERT_TRUE(report.ok());
  ASSERT_NE(report->trace, nullptr);
  const std::vector<TraceSpan> spans = report->trace->Spans();
  ASSERT_GE(spans.size(), 4u);

  std::map<uint64_t, const TraceSpan*> by_id;
  std::set<std::string> names;
  size_t roots = 0;
  for (const TraceSpan& span : spans) {
    EXPECT_TRUE(by_id.emplace(span.id, &span).second)
        << "duplicate span id " << span.id;
    names.insert(span.name);
    if (span.parent == 0) {
      ++roots;
      EXPECT_EQ(span.id, RequestTrace::kRootSpanId);
    }
  }
  EXPECT_EQ(roots, 1u);
  // The cold path must show the compile and execute stages.
  EXPECT_TRUE(names.count("parse"));
  EXPECT_TRUE(names.count("optimize"));
  EXPECT_TRUE(names.count("execute"));
  EXPECT_TRUE(names.count("request"));

  const TraceSpan* root = by_id.at(RequestTrace::kRootSpanId);
  for (const TraceSpan& span : spans) {
    if (span.id == RequestTrace::kRootSpanId) continue;
    // Every parent exists, and no child outlasts the root interval
    // (all spans close before CloseRoot stamps the root's end).
    ASSERT_TRUE(by_id.count(span.parent))
        << span.name << " has unknown parent " << span.parent;
    EXPECT_LE(span.duration_us, root->duration_us + 1.0);
    EXPECT_GE(span.start_us + 1.0, root->start_us);
    EXPECT_LE(span.start_us + span.duration_us,
              root->start_us + root->duration_us + 1.0);
  }
}

TEST(TraceServiceTest, WarmHitTraceSkipsTheOptimizeSpan) {
  TracerGuard guard;
  DataCatalog catalog = TraceCatalog();
  Tracer::Global().SetEnabled(true);
  PlanService service(&catalog);
  const ServiceRequest request{GdScript("tr", 4), TraceConfig()};
  ASSERT_TRUE(service.Run(request).ok());  // cold: fills the cache
  auto warm = service.Run(request);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->cache_hit);
  ASSERT_NE(warm->trace, nullptr);
  std::set<std::string> names;
  for (const TraceSpan& span : warm->trace->Spans()) names.insert(span.name);
  EXPECT_TRUE(names.count("plancache-probe"));
  EXPECT_TRUE(names.count("execute"));
  EXPECT_FALSE(names.count("optimize"));  // the whole point of the cache
}

TEST(TraceServiceTest, TracingOnAndOffAreBitwiseIdentical) {
  TracerGuard guard;
  DataCatalog catalog = TraceCatalog();
  const ServiceRequest request{BfgsScript("tr", 4), TraceConfig()};

  PlanService off_service(&catalog);
  auto off = off_service.Run(request);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->trace, nullptr);

  Tracer::Global().SetEnabled(true);
  PlanService on_service(&catalog);
  auto on = on_service.Run(request);
  ASSERT_TRUE(on.ok());
  ASSERT_NE(on->trace, nullptr);
  EXPECT_GT(on->trace->size(), 0);

  ASSERT_EQ(off->run.env.size(), on->run.env.size());
  for (const auto& [name, value] : off->run.env) {
    const auto it = on->run.env.find(name);
    ASSERT_NE(it, on->run.env.end()) << name;
    ASSERT_EQ(value.is_scalar, it->second.is_scalar) << name;
    if (value.is_scalar) {
      EXPECT_EQ(value.scalar, it->second.scalar) << name;
    } else {
      // tolerance 0.0: exact element equality.
      EXPECT_TRUE(value.matrix.ApproxEquals(it->second.matrix, 0.0)) << name;
    }
  }
}

TEST(TraceServiceTest, SessionSubmissionTracesIncludeQueueWait) {
  TracerGuard guard;
  DataCatalog catalog = TraceCatalog();
  Tracer::Global().SetEnabled(true);
  ThreadPool::SetGlobalThreads(2);
  PlanService service(&catalog);
  PlanService::Session session = service.NewSession();
  session.Submit(ServiceRequest{GdScript("tr", 4), TraceConfig()});
  session.Submit(ServiceRequest{GdScript("tr", 4), TraceConfig()});
  const auto results = session.Wait();
  ThreadPool::SetGlobalThreads(0);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    ASSERT_NE(result.value().trace, nullptr);
    // The trace starts at submission, so the root covers queue + run.
    const std::vector<TraceSpan> spans = result.value().trace->Spans();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans.back().id, RequestTrace::kRootSpanId);
  }
}

// ---------------------------------------------------------------------
// Trace structure primitives.
// ---------------------------------------------------------------------

TEST(TraceJsonTest, ChromeJsonCarriesIdentityAndRelativeTimestamps) {
  RequestTrace trace(42);
  TraceSpan child;
  child.id = trace.NextSpanId();
  child.parent = RequestTrace::kRootSpanId;
  child.name = "stage \"x\"";  // quote must be escaped
  child.start_us = trace.start_us() + 5.0;
  child.duration_us = 3.0;
  trace.Record(child);
  trace.CloseRoot("request");
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"request_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("stage \\\"x\\\""), std::string::npos);
  // Child ts is relative to the root start.
  EXPECT_NE(json.find("\"ts\":5.000"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
}

TEST(TraceJsonTest, SpansPastTheCapAreCountedAsDropped) {
  RequestTrace trace(7);
  for (int i = 0; i < 65536 + 25; ++i) {
    TraceSpan span;
    span.id = trace.NextSpanId();
    span.parent = RequestTrace::kRootSpanId;
    span.name = "s";
    trace.Record(span);
  }
  // CloseRoot's record is also past the cap: the root drops too, and
  // the validator skips tree checks when dropped > 0.
  trace.CloseRoot("request");
  EXPECT_EQ(trace.size(), 65536);
  EXPECT_EQ(trace.dropped(), 26);
  EXPECT_NE(trace.ToChromeJson().find("\"dropped\":26"), std::string::npos);
}

// ---------------------------------------------------------------------
// Contention profiling.
// ---------------------------------------------------------------------

TEST(ContentionTimedMutexTest, UncontendedAcquisitionObservesNothing) {
  TracerGuard guard;
  Tracer::Global().SetProfiling(true);
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("remac.test.lock_wait");
  std::mutex mu;
  {
    TimedMutexLock lock(mu, hist, "test-lock");
  }
  EXPECT_EQ(hist->Count(), 0);  // try_lock fast path: no clocks, no obs
}

TEST(ContentionTimedMutexTest, ContendedAcquisitionIsTimed) {
  TracerGuard guard;
  Tracer::Global().SetProfiling(true);
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("remac.test.lock_wait");
  std::mutex mu;
  std::atomic<bool> holder_ready{false};
  std::thread holder([&] {
    std::lock_guard<std::mutex> lock(mu);
    holder_ready = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!holder_ready) std::this_thread::yield();
  {
    TimedMutexLock lock(mu, hist, "test-lock");
  }
  holder.join();
  EXPECT_EQ(hist->Count(), 1);
  EXPECT_GT(hist->Sum(), 0.0);
}

TEST(ContentionTimedMutexTest, DisabledProfilingIsAPlainLock) {
  ASSERT_FALSE(Tracer::Global().any_active());
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("remac.test.lock_wait");
  std::mutex mu;
  std::thread holder([&] {
    std::lock_guard<std::mutex> lock(mu);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    TimedMutexLock lock(mu, hist, "test-lock");
  }
  holder.join();
  EXPECT_EQ(hist->Count(), 0);  // even contended: profiling is off
}

TEST(ContentionPoolQueueTest, QueueLatencyLandsInTheHistogram) {
  TracerGuard guard;
  Tracer::Global().SetProfiling(true);
  Histogram* queue_hist = MetricsRegistry::Global().GetHistogram(
      "remac.contention.pool_queue_seconds");
  const int64_t before = queue_hist->Count();
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  pool.Submit([&] {
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++ran;
  });
  pool.Submit([&] { ++ran; });  // queues behind the blocked task
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release = true;
  while (ran.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(queue_hist->Count(), before + 2);
}

TEST(ContentionServiceTest, FlightWaitHistogramMatchesWaitCount) {
  TracerGuard guard;
  DataCatalog catalog = TraceCatalog();
  Histogram* wait_hist = MetricsRegistry::Global().GetHistogram(
      "remac.service.flight_wait_seconds");
  const int64_t before = wait_hist->Count();
  ThreadPool::SetGlobalThreads(4);
  PlanService service(&catalog);
  PlanService::Session session = service.NewSession();
  // Same cold key from many threads: one leads, the rest single-flight.
  for (int k = 0; k < 8; ++k) {
    session.Submit(ServiceRequest{DfpScript("tr", 4), TraceConfig()});
  }
  const auto results = session.Wait();
  ThreadPool::SetGlobalThreads(0);
  for (const auto& result : results) ASSERT_TRUE(result.ok());
  const ServiceStats stats = service.stats();
  // Every counted single-flight wait observed exactly one histogram
  // sample (the wait duration) — count and histogram agree.
  EXPECT_EQ(wait_hist->Count() - before, stats.single_flight_waits);
}

}  // namespace
}  // namespace remac
