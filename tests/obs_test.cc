// Telemetry subsystem tests: exactness of the registry primitives under
// concurrency (the Obs* suites run under TSan/ASan via scripts/check.sh),
// export goldens, stage spans, and the cost-model accuracy audit.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "obs/cost_audit.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_context.h"
#include "runtime/program_runner.h"

namespace remac {
namespace {

// ---------------------------------------------------------------------
// Registry primitives.
// ---------------------------------------------------------------------

TEST(ObsCounter, ConcurrentHammerIsExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("remac.test.hammer");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Re-resolve through the registry from every thread: registration
      // races against updates and must stay clean and stable.
      Counter* c = registry.GetCounter("remac.test.hammer");
      for (int i = 0; i < kPerThread; ++i) c->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kPerThread);
}

TEST(ObsGauge, ConcurrentAddAndSetMax) {
  MetricsRegistry registry;
  Gauge* sum = registry.GetGauge("remac.test.sum");
  Gauge* peak = registry.GetGauge("remac.test.peak");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sum->Add(1.0);
        peak->SetMax(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  // Integer-valued doubles accumulate exactly at this magnitude.
  EXPECT_DOUBLE_EQ(sum->Value(), static_cast<double>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(peak->Value(),
                   static_cast<double>(kThreads * kPerThread - 1));
}

TEST(ObsHistogram, ConcurrentObserveIsExact) {
  MetricsRegistry registry;
  Histogram* hist =
      registry.GetHistogram("remac.test.lat", {1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist->Observe(static_cast<double>((t + i) % 200));
      }
    });
  }
  for (auto& t : threads) t.join();
  const int64_t total = int64_t{kThreads} * kPerThread;
  EXPECT_EQ(hist->Count(), total);
  int64_t bucket_total = 0;
  for (int64_t c : hist->BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, total);
}

TEST(ObsHistogram, BucketBoundariesAreInclusiveUpperEdges) {
  // Unsorted with a duplicate: the constructor sorts and dedupes.
  Histogram hist({4.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(hist.bounds(), (std::vector<double>{1.0, 2.0, 4.0}));
  hist.Observe(-1.0);  // below the first bound
  hist.Observe(0.0);
  hist.Observe(1.0);  // exactly on a bound: lands in that bucket
  hist.Observe(1.0000001);
  hist.Observe(2.0);
  hist.Observe(4.0);
  hist.Observe(4.0000001);  // past every bound: +Inf overflow
  EXPECT_EQ(hist.BucketCounts(), (std::vector<int64_t>{3, 2, 1, 1}));
  EXPECT_EQ(hist.Count(), 7);
  hist.Reset();
  EXPECT_EQ(hist.Count(), 0);
  EXPECT_EQ(hist.BucketCounts(), (std::vector<int64_t>{0, 0, 0, 0}));
}

TEST(ObsHistogram, QuantileGoldenValues) {
  // Bounds {1,2,4}; one observation in bucket [0,1], two in (1,2], one
  // in (2,4]. Exact interpolation goldens, hand-computed:
  //   p50: target 2 of 4 -> 1 into bucket (1,2] of 2 -> 1 + 1*(1/2)
  //   p95: target 3.8    -> 0.8 into bucket (2,4] of 1 -> 2 + 2*0.8
  Histogram hist({1.0, 2.0, 4.0});
  hist.Observe(0.5);
  hist.Observe(1.5);
  hist.Observe(1.7);
  hist.Observe(3.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(hist, 0.50), 1.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(hist, 0.95), 3.6);
  EXPECT_DOUBLE_EQ(HistogramQuantile(hist, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(hist, 0.0), 0.0);
}

TEST(ObsHistogram, QuantileOverflowClampsAndEmptyIsZero) {
  Histogram hist({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(HistogramQuantile(hist, 0.5), 0.0);  // empty
  hist.Observe(100.0);  // +Inf overflow bucket
  // The histogram cannot know how far past the top bound the value
  // landed; the quantile clamps to the top finite bound.
  EXPECT_DOUBLE_EQ(HistogramQuantile(hist, 0.99), 4.0);
}

TEST(ObsRegistry, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
  // Bounds apply only on first registration.
  Histogram* h = registry.GetHistogram("h", {1.0});
  EXPECT_EQ(registry.GetHistogram("h", {5.0, 6.0}), h);
  EXPECT_EQ(h->bounds().size(), 1u);
}

TEST(ObsRegistry, ResetZeroesInPlace) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h", {1.0});
  c->Add(5);
  g->Set(3.0);
  h->Observe(0.5);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Count(), 0);
  EXPECT_EQ(registry.GetCounter("c"), c);  // pointers stay valid
}

// ---------------------------------------------------------------------
// Export goldens.
// ---------------------------------------------------------------------

MetricsRegistry& GoldenRegistry(MetricsRegistry& registry) {
  registry.GetCounter("remac.test.requests")->Add(3);
  registry.GetGauge("remac.test.depth")->Set(2.5);
  Histogram* lat = registry.GetHistogram("remac.test.lat", {1.0, 2.0});
  lat->Observe(0.5);
  lat->Observe(2.0);
  lat->Observe(9.0);
  return registry;
}

TEST(ObsExport, JsonGolden) {
  MetricsRegistry registry;
  GoldenRegistry(registry);
  EXPECT_EQ(
      registry.ToJson(),
      "{\"counters\": {\"remac.test.requests\": 3}, "
      "\"gauges\": {\"remac.test.depth\": 2.5}, "
      "\"histograms\": {\"remac.test.lat\": {\"count\": 3, \"sum\": 11.5, "
      "\"buckets\": [{\"le\": 1, \"count\": 1}, {\"le\": 2, \"count\": 1}, "
      "{\"le\": \"+Inf\", \"count\": 1}]}}}");
  EXPECT_EQ(registry.ToJson(/*include_histograms=*/false),
            "{\"counters\": {\"remac.test.requests\": 3}, "
            "\"gauges\": {\"remac.test.depth\": 2.5}}");
}

TEST(ObsExport, PrometheusGolden) {
  MetricsRegistry registry;
  GoldenRegistry(registry);
  EXPECT_EQ(registry.ToPrometheus(),
            "# TYPE remac_test_requests counter\n"
            "remac_test_requests 3\n"
            "# TYPE remac_test_depth gauge\n"
            "remac_test_depth 2.5\n"
            "# TYPE remac_test_lat histogram\n"
            "remac_test_lat_bucket{le=\"1\"} 1\n"
            "remac_test_lat_bucket{le=\"2\"} 2\n"
            "remac_test_lat_bucket{le=\"+Inf\"} 3\n"
            "remac_test_lat_sum 11.5\n"
            "remac_test_lat_count 3\n");
}

TEST(ObsExport, WriteToFilePicksFormatByExtension) {
  MetricsRegistry registry;
  GoldenRegistry(registry);
  const std::string json_path = testing::TempDir() + "/obs_test_metrics.json";
  const std::string prom_path = testing::TempDir() + "/obs_test_metrics.prom";
  ASSERT_TRUE(registry.WriteToFile(json_path).ok());
  ASSERT_TRUE(registry.WriteToFile(prom_path).ok());
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
  };
  EXPECT_EQ(slurp(json_path), registry.ToJson() + "\n");
  EXPECT_EQ(slurp(prom_path), registry.ToPrometheus());
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
  EXPECT_FALSE(registry.WriteToFile("/nonexistent-dir/x.json").ok());
}

TEST(ObsExport, PrometheusEscapesHostileNames) {
  // Leading digit gets a '_' prefix (Prometheus names cannot start with
  // a digit); every non-[a-zA-Z0-9_:] character becomes '_'.
  MetricsRegistry registry;
  registry.GetCounter("9lives.metric-x")->Add(1);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE _9lives_metric_x counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("_9lives_metric_x 1\n"), std::string::npos);
}

TEST(ObsExport, JsonEscapesControlCharacters) {
  MetricsRegistry registry;
  registry.GetCounter(std::string("bad\"name\\with\n\t\x01" "ctl"))->Add(2);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("bad\\\"name\\\\with\\n\\t\\u0001ctl"),
            std::string::npos);
  // No raw control bytes may survive into the emitted JSON.
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  }
}

TEST(ObsExport, WriteToFileIsAtomicAndShortTxtPicksPrometheus) {
  MetricsRegistry registry;
  GoldenRegistry(registry);
  // The write goes through a temp file + rename: after success the temp
  // must be gone and the target complete.
  const std::string path = testing::TempDir() + "/m.txt";  // short name
  ASSERT_TRUE(registry.WriteToFile(path).ok());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::ifstream in(path);
  std::ostringstream body;
  body << in.rdbuf();
  // ".txt" selects the Prometheus text format even on a 5-char path
  // (a suffix check, not a positional substring test).
  EXPECT_EQ(body.str(), registry.ToPrometheus());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Stage spans.
// ---------------------------------------------------------------------

TEST(ObsSpan, ObservesHistogramOnceAndEmitsTrace) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("remac.test.span");
  Tracer::Global().SetEnabled(true);
  const std::shared_ptr<RequestTrace> trace = Tracer::Global().StartRequest();
  ASSERT_NE(trace, nullptr);
  {
    TraceContextScope scope(TraceContext{trace, RequestTrace::kRootSpanId});
    StageSpan span(hist, "unit-test-stage");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(span.ElapsedSeconds(), 0.004);
    EXPECT_GE(span.Stop(), 0.004);
    span.Stop();  // idempotent: second stop records nothing
  }
  Tracer::Global().SetEnabled(false);
  Tracer::Global().SetProfiling(false);
  EXPECT_EQ(hist->Count(), 1);
  // The recorded duration must be the real elapsed time, not zero.
  EXPECT_GE(hist->Sum(), 0.004);
  const std::vector<TraceSpan> spans = trace->Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit-test-stage");
  EXPECT_STREQ(spans[0].category, "stage");
  EXPECT_EQ(spans[0].parent, RequestTrace::kRootSpanId);
  EXPECT_GE(spans[0].duration_us, 4000.0);
}

TEST(ObsSpan, DestructorStops) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("remac.test.span");
  {
    StageSpan span(hist);
  }
  EXPECT_EQ(hist->Count(), 1);
}

// ---------------------------------------------------------------------
// Cost-model accuracy audit.
// ---------------------------------------------------------------------

TEST(ObsAudit, RelativeErrorHandlesZeroDenominator) {
  PrimitiveAudit zero;
  EXPECT_DOUBLE_EQ(zero.RelativeError(), 0.0);
  PrimitiveAudit phantom;
  phantom.predicted = 10.0;
  EXPECT_DOUBLE_EQ(phantom.RelativeError(), 1.0);
  PrimitiveAudit close;
  close.predicted = 90.0;
  close.actual = 100.0;
  EXPECT_NEAR(close.RelativeError(), 0.1, 1e-12);
}

const DataCatalog& AuditCatalog() {
  static DataCatalog* catalog = [] {
    auto* c = new DataCatalog();
    DatasetSpec spec;
    spec.name = "ds";
    spec.rows = 400;
    spec.cols = 12;
    spec.sparsity = 0.4;
    spec.seed = 10;
    EXPECT_TRUE(RegisterDataset(c, spec, true).ok());
    return c;
  }();
  return *catalog;
}

TEST(ObsAudit, BroadcastMultiplyPredictionMatchesLedger) {
  // A 1.6MB dense product chain against a 1MB driver: A is distributed
  // (> driver/4), B is broadcastable (<= driver/8), so the multiply runs
  // as broadcast MM and books broadcast bytes into the ledger. The audit
  // walks the same plan with the same cost functions, so its predicted
  // broadcast transmission must match what the executor booked.
  RunConfig config;
  config.cluster.driver_memory_bytes = 1 << 20;
  config.optimizer = OptimizerKind::kAsWritten;
  const std::string script =
      "A = rand(1000, 200);\nB = rand(200, 20);\ny = A %*% B;\n";
  auto run = RunScript(script, AuditCatalog(), config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const CostAuditRecord& audit = run->audit;
  ASSERT_TRUE(audit.valid) << audit.error;
  const auto& broadcast =
      audit.transmission[static_cast<int>(TransmissionPrimitive::kBroadcast)];
  EXPECT_GT(broadcast.actual, 0.0);
  EXPECT_LT(broadcast.RelativeError(), 0.05)
      << "predicted " << broadcast.predicted << " actual "
      << broadcast.actual;
  EXPECT_GT(audit.flops.actual, 0.0);
  EXPECT_LT(audit.flops.RelativeError(), 0.05)
      << "predicted " << audit.flops.predicted << " actual "
      << audit.flops.actual;
}

TEST(ObsAudit, CseEliminationReducesActualFlops) {
  // DFP repeats t(A) %*% A many times per iteration; adaptive elimination
  // must reduce the FLOPs the simulated cluster actually tallies, not
  // just the predicted cost.
  const std::string script = DfpScript("ds", 4);
  RunConfig baseline_config;
  baseline_config.optimizer = OptimizerKind::kRemacNone;
  baseline_config.max_iterations = 4;
  auto baseline = RunScript(script, AuditCatalog(), baseline_config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(baseline->audit.valid) << baseline->audit.error;

  RunConfig adaptive_config;
  adaptive_config.optimizer = OptimizerKind::kRemacAdaptive;
  adaptive_config.max_iterations = 4;
  auto adaptive = RunScript(script, AuditCatalog(), adaptive_config);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  ASSERT_TRUE(adaptive->audit.valid) << adaptive->audit.error;
  EXPECT_GT(adaptive->optimize.applied_cse + adaptive->optimize.applied_lse,
            0);
  EXPECT_LT(adaptive->audit.flops.actual, baseline->audit.flops.actual);
}

const DataCatalog& ParityCatalog() {
  static DataCatalog* catalog = [] {
    auto* c = new DataCatalog();
    // Skewed 5%-dense tall data; C is short so A %*% t(C) stays small.
    const std::vector<DatasetSpec> specs = {
        {"A", 3000, 40, 0.05, 1.0, 0.0, 21},
        {"B", 3000, 40, 0.05, 1.0, 0.0, 22},
        {"C", 200, 40, 0.05, 1.0, 0.0, 23},
    };
    for (const DatasetSpec& spec : specs) {
      EXPECT_TRUE(RegisterDataset(c, spec).ok());
    }
    return c;
  }();
  return *catalog;
}

TEST(ObsAudit, ExactEstimatorPredictionMatchesLedger) {
  // With the exact estimator the prediction runs the executor's own plan
  // walk over true non-zero patterns, so every booked FLOP and byte must
  // match the ledger bitwise, whatever the layout mode, fusion, or
  // optimizer. A pattern is exact only where values cannot cancel or
  // clip, so min/max compare same-signed operands (squares) and scalar
  // broadcasts stay dense.
  const std::string reads =
      "A = read(\"A\");\nB = read(\"B\");\nC = read(\"C\");\n";
  const std::vector<std::string> programs = {
      reads + "y = t(A) %*% A;\nz = A %*% t(C);\n",
      reads + "y = (A + B) * A - A / (B + 1);\n",
      reads + "y = max(A * A, B * B) - min(A * A * (0 - 1), "
              "B * B * (0 - 1)) - A * B;\n",
      reads + "y = 5 / (A + 1) + 2 * A - A / 4 + (1 - A) * (A - 1);\n"
              "z = min(A, 0 - 0.5) + max(0.1, A);\n",
      reads + "y = exp(A) + log(A * A + 2);\n"
              "z = exp(t(C)) - log(t(C) * t(C));\n",
      reads + "y = t(A);\n",
      reads + "s = sum(A);\nn = norm(B);\nG = t(A) %*% A;\n"
              "tr = trace(G);\nr = rowSums(A);\nc = colSums(B);\n"
              "d = diag(G);\nD = diag(d);\nq = s * n + tr;\n",
      reads + "E = eye(40);\nZ = zeros(40, 5);\nO = ones(40, 5);\n"
              "R = rand(40, 5);\ny = A %*% (E %*% (Z + O + R));\n",
  };
  struct Case {
    std::string script;
    OptimizerKind optimizer;
  };
  std::vector<Case> cases;
  for (const std::string& program : programs) {
    cases.push_back({program, OptimizerKind::kAsWritten});
  }
  for (OptimizerKind optimizer :
       {OptimizerKind::kAsWritten, OptimizerKind::kRemacAdaptive}) {
    cases.push_back({GnmfScript("A", 5, 3), optimizer});
    cases.push_back({GdScript("A", 3), optimizer});
  }
  for (const Case& c : cases) {
    for (bool fuse : {true, false}) {
      RunConfig config;
      config.cluster.driver_memory_bytes = 1 << 20;
      config.optimizer = c.optimizer;
      config.estimator = EstimatorKind::kExact;
      config.fuse_elementwise = fuse;
      config.max_iterations = 3;
      SCOPED_TRACE(c.script + " optimizer=" +
                   OptimizerKindName(c.optimizer) + " fuse=" +
                   std::to_string(fuse));
      auto run = RunScript(c.script, ParityCatalog(), config);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const CostAuditRecord& audit = run->audit;
      ASSERT_TRUE(audit.valid) << audit.error;
      EXPECT_GT(audit.flops.actual, 0.0);
      EXPECT_EQ(audit.flops.predicted, audit.flops.actual);
      for (size_t i = 0; i < audit.transmission.size(); ++i) {
        EXPECT_EQ(audit.transmission[i].predicted,
                  audit.transmission[i].actual)
            << TransmissionPrimitiveName(
                   static_cast<TransmissionPrimitive>(i));
      }
    }
  }
}

TEST(ObsAudit, PublishRecordsIntoRegistry) {
  MetricsRegistry registry;
  PredictedCost predicted;
  predicted.local_flops = 100.0;
  std::array<double, kNumTransmissionPrimitives> actual_bytes{};
  CostAuditRecord audit = MakeCostAudit(predicted, 100.0, actual_bytes);
  PublishCostAudit(audit, &registry);
  EXPECT_EQ(registry.GetCounter("remac.audit.programs")->Value(), 1);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("remac.audit.flops.predicted")->Value(), 100.0);
  EXPECT_EQ(
      registry.GetHistogram("remac.audit.flops.rel_error")->Count(), 1);

  CostAuditRecord failed;
  failed.error = "boom";
  PublishCostAudit(failed, &registry);
  EXPECT_EQ(registry.GetCounter("remac.audit.programs")->Value(), 2);
  EXPECT_EQ(registry.GetCounter("remac.audit.failures")->Value(), 1);
}

}  // namespace
}  // namespace remac
