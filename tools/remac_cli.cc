// remac — command-line front end.
//
//   remac run SCRIPT.dml [options]     compile + execute a script
//   remac serve SCRIPT.dml [options]   repeated requests through the
//                                      plan service (fingerprinted cache)
//   remac compile SCRIPT.dml [options] compile only, print the plan
//   remac trace TRACE.json             summarize a per-request trace file
//                                      (top wait sources, stage rollup)
//   remac datasets                     list the built-in paper datasets
//   remac gen NAME OUT.mtx             generate a paper dataset to a file
//
// Options for run/serve/compile:
//   --data NAME=PATH.mtx     load a MatrixMarket file as dataset NAME
//   --dataset NAME[:ALIAS]   generate the built-in paper dataset NAME
//                            (cri1..red3, zipf-<e>); registers it (and the
//                            _b / _pd / _pH companions) as ALIAS (default
//                            NAME), so scripts can run on any dataset
//   --optimizer KIND         as-written | systemds | systemds* | spores |
//                            none | automatic | conservative | aggressive |
//                            adaptive (default)
//   --estimator KIND         md | mnc (default) | exact
//   --engine KIND            systemds (default) | pbdr | scidb
//   --iterations N           loop cap / LSE horizon (default 20)
//   --print-plan             print the optimized program
//   --dot PATH.dot           write the optimized program as Graphviz DOT
//   --print VAR              print a result variable (matrix summaries)
//   --repeat N               run the script N times through the plan
//                            service (run: opt-in; serve default 8)
//   --cache-size N           plan-cache capacity in entries (default 64)
//   --mat-cache-mb N         serve mode: materialized-intermediate cache
//                            budget in MiB (default 256; 0 disables
//                            cross-request intermediate sharing)
//   --threads N              thread count for the shared pool
//   --chaos SEED             chaos run: inject deterministic faults
//                            (transients, stragglers, one worker crash)
//                            into the task-graph scheduler; retries keep
//                            results bitwise-identical to a fault-free run
//   --deadline SEC           serve mode: per-request soft deadline; late
//                            requests degrade to the serial executor
//   --backlog FACTOR         serve mode: admission control — shed a request
//                            to the serial executor when either lane's
//                            backlog exceeds FACTOR x lane size (default 8;
//                            0 disables shedding)
//   --no-fuse                disable elementwise-chain fusion (results are
//                            bitwise-identical either way; for A/B timing)
//   --stats                  print the telemetry snapshot (metrics registry
//                            plus the cost-model accuracy audit) at exit
//   --metrics-out PATH       dump the metrics registry to PATH at exit
//                            (.prom/.txt = Prometheus text, else JSON);
//                            serve mode refreshes it while running (at
//                            most once a second, atomic rename)
//   --trace-dir DIR          serve mode: enable request tracing and write
//                            one Chrome-trace JSON per request to
//                            DIR/trace-<request_id>.json (open with
//                            chrome://tracing or `remac trace FILE`)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "data/generators.h"
#include "io/matrix_market.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "plan/plan_dot.h"
#include "runtime/program_runner.h"
#include "sched/thread_pool.h"
#include "service/plan_service.h"

namespace remac {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: remac run|serve|compile SCRIPT.dml [--data NAME=PATH] "
               "[--dataset NAME] [--optimizer KIND] [--estimator KIND] "
               "[--engine KIND] [--iterations N] [--print-plan] "
               "[--print VAR] [--repeat N] [--cache-size N] "
               "[--mat-cache-mb N] [--threads N] "
               "[--chaos SEED] [--deadline SEC] "
               "[--backlog FACTOR] "
               "[--no-fuse] "
               "[--stats] [--metrics-out PATH] [--trace-dir DIR]\n"
               "       remac trace TRACE.json\n"
               "       remac datasets\n"
               "       remac gen NAME OUT.mtx\n");
  return 2;
}

Result<OptimizerKind> ParseOptimizer(const std::string& name) {
  if (name == "as-written") return OptimizerKind::kAsWritten;
  if (name == "systemds") return OptimizerKind::kSystemDs;
  if (name == "systemds*") return OptimizerKind::kSystemDsNoCse;
  if (name == "spores") return OptimizerKind::kSpores;
  if (name == "none") return OptimizerKind::kRemacNone;
  if (name == "automatic") return OptimizerKind::kRemacAutomatic;
  if (name == "conservative") return OptimizerKind::kRemacConservative;
  if (name == "aggressive") return OptimizerKind::kRemacAggressive;
  if (name == "adaptive") return OptimizerKind::kRemacAdaptive;
  return Status::InvalidArgument("unknown optimizer '" + name + "'");
}

Result<EstimatorKind> ParseEstimator(const std::string& name) {
  if (name == "md") return EstimatorKind::kMetadata;
  if (name == "mnc") return EstimatorKind::kMnc;
  if (name == "sample") return EstimatorKind::kSampling;
  if (name == "exact") return EstimatorKind::kExact;
  return Status::InvalidArgument("unknown estimator '" + name + "'");
}

Result<EngineKind> ParseEngine(const std::string& name) {
  if (name == "systemds") return EngineKind::kSystemDsLike;
  if (name == "pbdr") return EngineKind::kPbdR;
  if (name == "scidb") return EngineKind::kSciDb;
  return Status::InvalidArgument("unknown engine '" + name + "'");
}

/// "NAME" or "NAME:ALIAS" — generates built-in dataset NAME and registers
/// it (and its _b/_pd/_pH companions) under ALIAS, so any script can run
/// against any dataset.
Status RegisterNamedDataset(DataCatalog* catalog, const std::string& arg) {
  std::string name = arg;
  std::string alias = arg;
  const size_t colon = arg.find(':');
  if (colon != std::string::npos) {
    name = arg.substr(0, colon);
    alias = arg.substr(colon + 1);
  }
  DatasetSpec spec;
  if (StartsWith(name, "zipf-")) {
    spec = ZipfSpec(std::stod(name.substr(5)));
  } else {
    REMAC_ASSIGN_OR_RETURN(spec, PaperDatasetSpec(name));
  }
  spec.name = alias;
  std::fprintf(stderr, "[remac] generating %s as %s (%lld x %lld, sp=%g)\n",
               name.c_str(), alias.c_str(), static_cast<long long>(spec.rows),
               static_cast<long long>(spec.cols), spec.sparsity);
  return RegisterDataset(catalog, spec, /*with_partial_dfp_inputs=*/true);
}

void PrintValue(const std::string& name, const RtValue& value) {
  if (value.is_scalar) {
    std::printf("%s = %.10g\n", name.c_str(), value.scalar);
    return;
  }
  const Matrix& m = value.matrix;
  std::printf("%s: %lld x %lld, nnz=%lld, sparsity=%.3g, |.|_F=%.6g\n",
              name.c_str(), static_cast<long long>(m.rows()),
              static_cast<long long>(m.cols()),
              static_cast<long long>(m.nnz()), m.Sparsity(),
              FrobeniusNorm(m));
  const int64_t show_rows = std::min<int64_t>(m.rows(), 4);
  const int64_t show_cols = std::min<int64_t>(m.cols(), 8);
  for (int64_t r = 0; r < show_rows; ++r) {
    std::printf("  ");
    for (int64_t c = 0; c < show_cols; ++c) {
      std::printf("%10.4g", m.At(r, c));
    }
    std::printf("%s\n", show_cols < m.cols() ? " ..." : "");
  }
  if (show_rows < m.rows()) std::printf("  ...\n");
}

/// Prints the physical layout the cost model stamped on every multiply
/// (PlanNode::layout, from AnnotateMultiplyLayouts) — the per-operator
/// local/BMM/CPMM decision record for `remac run --stats`.
void PrintMultiplyLayouts(const PlanNode& node) {
  for (const auto& child : node.children) PrintMultiplyLayouts(*child);
  if (node.op == PlanOp::kMatMul) {
    std::printf("  %-9s %s\n", MultiplyLayoutName(node.layout),
                node.ToString().c_str());
  }
}

void PrintMultiplyLayouts(const std::vector<CompiledStmt>& statements) {
  for (const CompiledStmt& stmt : statements) {
    if (stmt.plan != nullptr) PrintMultiplyLayouts(*stmt.plan);
    if (stmt.condition != nullptr) PrintMultiplyLayouts(*stmt.condition);
    PrintMultiplyLayouts(stmt.body);
  }
}

/// Numeric field extractor for the line-oriented trace JSON the service
/// emits (one event per line). Returns `fallback` when the key is absent.
double TraceField(const std::string& line, const std::string& key,
                  double fallback) {
  const std::string pattern = "\"" + key + "\":";
  const size_t pos = line.find(pattern);
  if (pos == std::string::npos) return fallback;
  return std::atof(line.c_str() + pos + pattern.size());
}

std::string TraceStringField(const std::string& line,
                             const std::string& key) {
  const std::string pattern = "\"" + key + "\":\"";
  const size_t pos = line.find(pattern);
  if (pos == std::string::npos) return "";
  const size_t start = pos + pattern.size();
  const size_t end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

/// `remac trace FILE` — wait-time attribution for one request's span
/// tree. Wait spans (category "wait") name the contention point they
/// blocked on: pool-queue, flight-wait, plancache-lock, matcache-lock...
int TraceSummary(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 1;
  }
  struct Bucket {
    int64_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Bucket> waits;
  std::map<std::string, Bucket> categories;
  int64_t spans = 0;
  long long request_id = -1;
  double root_us = 0.0;
  std::string line;
  while (std::getline(file, line)) {
    if (request_id < 0 && line.find("\"remac\"") != std::string::npos) {
      request_id =
          static_cast<long long>(TraceField(line, "request_id", -1.0));
    }
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    ++spans;
    const std::string name = TraceStringField(line, "name");
    const std::string cat = TraceStringField(line, "cat");
    const double dur_us = TraceField(line, "dur", 0.0);
    if (TraceField(line, "span_id", 0.0) == 1.0) root_us = dur_us;
    Bucket& by_cat = categories[cat];
    ++by_cat.count;
    by_cat.total_us += dur_us;
    by_cat.max_us = std::max(by_cat.max_us, dur_us);
    if (cat != "wait") continue;
    Bucket& bucket = waits[name];
    ++bucket.count;
    bucket.total_us += dur_us;
    bucket.max_us = std::max(bucket.max_us, dur_us);
  }
  if (spans == 0) {
    std::fprintf(stderr, "error: no trace events in '%s'\n", path.c_str());
    return 1;
  }
  std::printf("request %lld: %lld span(s), root %s\n", request_id,
              static_cast<long long>(spans),
              HumanSeconds(root_us * 1e-6).c_str());
  std::printf("--- by category ---\n");
  for (const auto& [cat, b] : categories) {
    std::printf("  %-10s %6lld span(s)  total %-9s max %s\n", cat.c_str(),
                static_cast<long long>(b.count),
                HumanSeconds(b.total_us * 1e-6).c_str(),
                HumanSeconds(b.max_us * 1e-6).c_str());
  }
  if (waits.empty()) {
    std::printf("no wait spans (nothing blocked for >%.0fus)\n",
                kWaitSpanFloorUs);
    return 0;
  }
  std::vector<std::pair<std::string, Bucket>> ranked(waits.begin(),
                                                     waits.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  std::printf("--- top wait sources ---\n");
  for (const auto& [name, b] : ranked) {
    std::printf("  %-18s %6lld wait(s)  total %-9s max %-9s %s of request\n",
                name.c_str(), static_cast<long long>(b.count),
                HumanSeconds(b.total_us * 1e-6).c_str(),
                HumanSeconds(b.max_us * 1e-6).c_str(),
                root_us > 0.0
                    ? StringFormat("%.1f%%", 100.0 * b.total_us / root_us)
                          .c_str()
                    : "?");
  }
  return 0;
}

/// --stats / --metrics-out epilogue shared by run and serve.
int EmitTelemetry(bool show_stats, const std::string& metrics_out,
                  const CostAuditRecord* audit,
                  const CompiledProgram* program = nullptr) {
  if (show_stats) {
    if (program != nullptr) {
      std::printf("--- multiply layouts ---\n");
      PrintMultiplyLayouts(program->statements);
    }
    MetricsRegistry& registry = MetricsRegistry::Global();
    std::printf("--- fusion ---\n");
    std::printf(
        "  regions formed     %lld\n  ops fused          %lld\n"
        "  bytes avoided      %lld\n  in-place regions   %lld\n",
        static_cast<long long>(
            registry.GetCounter("remac.fusion.regions")->Value()),
        static_cast<long long>(
            registry.GetCounter("remac.fusion.ops_fused")->Value()),
        static_cast<long long>(
            registry.GetCounter("remac.fusion.bytes_avoided")->Value()),
        static_cast<long long>(
            registry.GetCounter("remac.fusion.in_place_hits")->Value()));
    std::printf("--- telemetry ---\n");
    if (audit != nullptr) std::printf("%s", audit->ToString().c_str());
    std::printf("%s\n", MetricsRegistry::Global().ToJson().c_str());
  }
  if (!metrics_out.empty()) {
    if (Status st = MetricsRegistry::Global().WriteToFile(metrics_out);
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  if (command == "datasets") {
    std::printf("%-8s %10s %9s %12s  %s\n", "name", "rows", "cols",
                "sparsity", "zipf");
    for (const DatasetSpec& spec : PaperDatasetSpecs()) {
      std::printf("%-8s %10lld %9lld %12.2e  %.1f/%.1f\n", spec.name.c_str(),
                  static_cast<long long>(spec.rows),
                  static_cast<long long>(spec.cols), spec.sparsity,
                  spec.zipf_rows, spec.zipf_cols);
    }
    std::printf("plus zipf-<exponent> (cri2-shaped, e.g. zipf-1.4)\n");
    return 0;
  }

  if (command == "trace") {
    if (argc != 3) return Usage();
    return TraceSummary(argv[2]);
  }

  if (command == "gen") {
    if (argc != 4) return Usage();
    DataCatalog catalog;
    if (Status st = RegisterNamedDataset(&catalog, argv[2]); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    auto value = catalog.Value(argv[2]);
    if (Status st = WriteMatrixMarket(argv[3], value.value()); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", argv[3]);
    return 0;
  }

  if (command != "run" && command != "compile" && command != "serve") {
    return Usage();
  }
  if (argc < 3) return Usage();
  const std::string script_path = argv[2];

  DataCatalog catalog;
  RunConfig config;
  bool print_plan = false;
  std::string dot_path;
  std::vector<std::string> print_vars;
  int repeat = command == "serve" ? 8 : 0;
  size_t cache_size = 64;
  long long mat_cache_mb = 256;
  bool show_stats = false;
  std::string metrics_out;
  std::string trace_dir;
  double deadline_seconds = 0.0;
  double backlog_factor = 8.0;
  // --data NAME=PATH and --dataset NAME[:ALIAS] in command-line order.
  // They are loaded only after every option parsed and the script
  // opened, so a usage error never pays for reading or generating data.
  std::vector<std::pair<std::string, std::string>> data_args;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    Status st;
    if (arg == "--data" || arg == "--dataset") {
      const char* value = next();
      if (value == nullptr) return Usage();
      if (arg == "--data" && std::strchr(value, '=') == nullptr) {
        return Usage();
      }
      data_args.emplace_back(arg, value);
    } else if (arg == "--optimizer") {
      const char* value = next();
      if (value == nullptr) return Usage();
      auto kind = ParseOptimizer(value);
      if (kind.ok()) config.optimizer = kind.value();
      st = kind.status();
    } else if (arg == "--estimator") {
      const char* value = next();
      if (value == nullptr) return Usage();
      auto kind = ParseEstimator(value);
      if (kind.ok()) config.estimator = kind.value();
      st = kind.status();
    } else if (arg == "--engine") {
      const char* value = next();
      if (value == nullptr) return Usage();
      auto kind = ParseEngine(value);
      if (kind.ok()) config.engine = kind.value();
      st = kind.status();
    } else if (arg == "--iterations") {
      const char* value = next();
      if (value == nullptr) return Usage();
      config.max_iterations = std::atoi(value);
    } else if (arg == "--repeat") {
      const char* value = next();
      if (value == nullptr) return Usage();
      repeat = std::atoi(value);
      if (repeat <= 0) {
        std::fprintf(stderr, "--repeat expects a positive integer\n");
        return 2;
      }
    } else if (arg == "--cache-size") {
      const char* value = next();
      if (value == nullptr) return Usage();
      const int entries = std::atoi(value);
      if (entries <= 0) {
        std::fprintf(stderr, "--cache-size expects a positive integer\n");
        return 2;
      }
      cache_size = static_cast<size_t>(entries);
    } else if (arg == "--mat-cache-mb") {
      const char* value = next();
      if (value == nullptr) return Usage();
      mat_cache_mb = std::atoll(value);
      if (mat_cache_mb < 0) {
        std::fprintf(stderr,
                     "--mat-cache-mb expects a non-negative integer "
                     "(0 disables the intermediate cache)\n");
        return 2;
      }
    } else if (arg == "--threads") {
      const char* value = next();
      if (value == nullptr) return Usage();
      const int threads = std::atoi(value);
      if (threads <= 0) {
        std::fprintf(stderr, "--threads expects a positive integer\n");
        return 2;
      }
      SetKernelThreads(threads);
      ThreadPool::SetGlobalThreads(threads);
      config.pool_threads = threads;
    } else if (arg == "--chaos") {
      const char* value = next();
      if (value == nullptr) return Usage();
      config.faults = FaultPlan::Chaos(
          static_cast<uint64_t>(std::strtoull(value, nullptr, 10)));
      // Faults only exist on the task-graph path; the serial executor is
      // the fault-free reference.
      config.scheduler = SchedulerKind::kTaskGraph;
      std::fprintf(stderr, "[remac] chaos: %s\n",
                   config.faults.ToString().c_str());
    } else if (arg == "--deadline") {
      const char* value = next();
      if (value == nullptr) return Usage();
      deadline_seconds = std::atof(value);
      if (deadline_seconds <= 0.0) {
        std::fprintf(stderr, "--deadline expects a positive number\n");
        return 2;
      }
    } else if (arg == "--backlog") {
      const char* value = next();
      if (value == nullptr) return Usage();
      backlog_factor = std::atof(value);
      if (backlog_factor < 0.0) {
        std::fprintf(stderr,
                     "--backlog expects a non-negative factor "
                     "(0 disables backlog shedding)\n");
        return 2;
      }
    } else if (arg == "--no-fuse") {
      config.fuse_elementwise = false;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--metrics-out") {
      const char* value = next();
      if (value == nullptr) return Usage();
      metrics_out = value;
    } else if (arg == "--trace-dir") {
      const char* value = next();
      if (value == nullptr) return Usage();
      trace_dir = value;
    } else if (arg == "--print-plan") {
      print_plan = true;
    } else if (arg == "--dot") {
      const char* value = next();
      if (value == nullptr) return Usage();
      dot_path = value;
    } else if (arg == "--print") {
      const char* value = next();
      if (value == nullptr) return Usage();
      print_vars.push_back(value);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::ifstream script_file(script_path);
  if (!script_file) {
    std::fprintf(stderr, "error: cannot open '%s'\n", script_path.c_str());
    return 1;
  }
  std::ostringstream source;
  source << script_file.rdbuf();

  for (const auto& [option, value] : data_args) {
    Status st;
    if (option == "--dataset") {
      st = RegisterNamedDataset(&catalog, value);
    } else {
      const size_t eq = value.find('=');
      Result<Matrix> m = ReadMatrixMarket(value.substr(eq + 1));
      st = m.status();
      if (m.ok()) catalog.Register(value.substr(0, eq), std::move(m).value());
    }
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (repeat > 0 && command != "compile") {
    // Serve mode: route every request through the plan service. The
    // first request is cold (parse + optimize + execute); repeats hit
    // the fingerprinted plan cache and skip straight to execution.
    ServiceOptions options;
    options.cache_capacity = cache_size;
    options.mat_cache_bytes = static_cast<int64_t>(mat_cache_mb) << 20;
    options.admission_backlog_factor = backlog_factor;
    PlanService service(&catalog, options);
    if (!trace_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(trace_dir, ec);
      if (ec) {
        std::fprintf(stderr, "error: cannot create trace dir '%s': %s\n",
                     trace_dir.c_str(), ec.message().c_str());
        return 1;
      }
      Tracer::Global().SetEnabled(true);
    }
    ServiceRequest request{source.str(), config, deadline_seconds};
    Result<ServiceReport> last = Status::Internal("no requests ran");
    std::printf(
        "serving %d request(s), plan cache capacity %zu, "
        "intermediate cache %s\n",
        repeat, cache_size,
        mat_cache_mb > 0
            ? HumanBytes(static_cast<double>(options.mat_cache_bytes))
                  .c_str()
            : "off");
    auto last_metrics_write = std::chrono::steady_clock::time_point{};
    for (int k = 0; k < repeat; ++k) {
      last = service.Run(request);
      if (!last.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     last.status().ToString().c_str());
        return 1;
      }
      const ServiceReport& r = last.value();
      std::printf(
          "#%-3d %-4s parse %-9s optimize %-9s execute %-9s total %s%s%s\n",
          k + 1, r.cache_hit ? "warm" : "cold",
          HumanSeconds(r.timing.parse_seconds).c_str(),
          HumanSeconds(r.timing.optimize_seconds).c_str(),
          HumanSeconds(r.timing.execute_seconds).c_str(),
          HumanSeconds(r.timing.total_seconds).c_str(),
          r.degraded ? "  DEGRADED: " : "",
          r.degraded ? DegradeReasonName(r.degraded_reason) : "");
      if (!trace_dir.empty() && r.trace != nullptr) {
        const std::string trace_path =
            trace_dir + "/trace-" +
            std::to_string(r.trace->request_id()) + ".json";
        if (Status st = r.trace->WriteChromeJson(trace_path); !st.ok()) {
          std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        }
      }
      if (!metrics_out.empty()) {
        // Periodic refresh: keep the file fresh while the service runs,
        // but at most once a second — a hot request stream should not
        // turn the metrics file into a write bottleneck. The write
        // itself is atomic (temp file + rename), so a scraper never
        // sees a torn snapshot; EmitTelemetry writes the final state.
        const auto now = std::chrono::steady_clock::now();
        if (now - last_metrics_write >= std::chrono::seconds(1)) {
          (void)MetricsRegistry::Global().WriteToFile(metrics_out);
          last_metrics_write = now;
        }
      }
    }
    if (!trace_dir.empty()) {
      std::printf("traces: %s/trace-<request_id>.json (summarize with "
                  "`remac trace FILE`)\n",
                  trace_dir.c_str());
    }

    const ServiceStats stats = service.stats();
    std::printf("--- cache stats ---\n");
    std::printf(
        "%-14s %8s %8s %10s %13s %9s %10s\n", "", "hits", "misses",
        "evictions", "invalidations", "entries", "resident");
    std::printf(
        "%-14s %8lld %8lld %10lld %13lld %6lld/%-2zu %10s\n", "plan cache",
        static_cast<long long>(stats.cache.hits),
        static_cast<long long>(stats.cache.misses),
        static_cast<long long>(stats.cache.evictions),
        static_cast<long long>(stats.cache.invalidations),
        static_cast<long long>(stats.cache.entries), cache_size,
        HumanBytes(static_cast<double>(stats.cache.resident_bytes)).c_str());
    if (mat_cache_mb > 0) {
      std::printf(
          "%-14s %8lld %8lld %10lld %13lld %9lld %10s\n", "intermediates",
          static_cast<long long>(stats.matcache.hits),
          static_cast<long long>(stats.matcache.misses),
          static_cast<long long>(stats.matcache.evictions),
          static_cast<long long>(stats.matcache.invalidations),
          static_cast<long long>(stats.matcache.entries),
          HumanBytes(static_cast<double>(stats.matcache.resident_bytes))
              .c_str());
      std::printf(
          "intermediates: admits %lld  rejects %lld  flight waits %lld  "
          "flops saved %.3g\n",
          static_cast<long long>(stats.matcache.admits),
          static_cast<long long>(stats.matcache.rejects),
          static_cast<long long>(stats.matcache.flight_waits),
          stats.matcache.flops_saved);
    }
    std::printf("optimizer invocations: %lld (of %lld requests)\n",
                static_cast<long long>(stats.optimizer_invocations),
                static_cast<long long>(stats.requests));
    if (stats.degraded_requests > 0) {
      std::printf("degraded requests: %lld (shed %lld)\n",
                  static_cast<long long>(stats.degraded_requests),
                  static_cast<long long>(stats.shed_requests));
    }
    const double cold_mean =
        stats.cold_requests > 0 ? stats.cold_seconds / stats.cold_requests
                                : 0.0;
    const double warm_mean =
        stats.warm_requests > 0 ? stats.warm_seconds / stats.warm_requests
                                : 0.0;
    std::printf("cold: %lld request(s), mean %s\n",
                static_cast<long long>(stats.cold_requests),
                HumanSeconds(cold_mean).c_str());
    std::printf("warm: %lld request(s), mean %s",
                static_cast<long long>(stats.warm_requests),
                HumanSeconds(warm_mean).c_str());
    if (warm_mean > 0.0 && cold_mean > 0.0) {
      std::printf("  (%.1fx speedup)", cold_mean / warm_mean);
    }
    std::printf("\n");
    std::printf("exec lane: %d thread(s), %lld task(s), %lld steal(s), "
                "peak queue depth %lld\n",
                stats.pool.threads,
                static_cast<long long>(stats.pool.tasks_executed),
                static_cast<long long>(stats.pool.steals),
                static_cast<long long>(stats.pool.peak_queue_depth));
    std::printf("request lane: %d thread(s), %lld task(s), %lld steal(s), "
                "peak queue depth %lld\n",
                stats.request_pool.threads,
                static_cast<long long>(stats.request_pool.tasks_executed),
                static_cast<long long>(stats.request_pool.steals),
                static_cast<long long>(stats.request_pool.peak_queue_depth));

    const ServiceReport& r = last.value();
    if (print_plan) {
      std::printf("--- optimized program ---\n%s",
                  r.run.optimized_source.c_str());
    }
    if (!dot_path.empty() && r.run.optimized_program != nullptr) {
      std::ofstream dot_file(dot_path);
      dot_file << ProgramToDot(*r.run.optimized_program);
      std::printf("wrote %s\n", dot_path.c_str());
    }
    for (const std::string& var : print_vars) {
      auto it = r.run.env.find(var);
      if (it == r.run.env.end()) {
        std::fprintf(stderr, "no variable '%s'\n", var.c_str());
        continue;
      }
      PrintValue(var, it->second);
    }
    return EmitTelemetry(show_stats, metrics_out, &r.run.audit,
                         r.run.optimized_program.get());
  }

  auto run = command == "run"
                 ? RunScript(source.str(), catalog, config)
                 : CompileOnly(source.str(), catalog, config);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }

  std::printf("optimizer: %s (estimator %s, engine %s)\n",
              OptimizerKindName(config.optimizer),
              EstimatorKindName(config.estimator),
              EngineKindName(config.engine));
  std::printf("compile:   parse %s, optimize %s wall",
              HumanSeconds(run->parse_wall_seconds).c_str(),
              HumanSeconds(run->compile_wall_seconds).c_str());
  if (run->optimize.options_found > 0 || run->optimize.applied_cse > 0) {
    std::printf(" — %d options found, %d CSE + %d LSE + %d cross-block applied",
                run->optimize.options_found, run->optimize.applied_cse,
                run->optimize.applied_lse,
                run->optimize.applied_cross_block);
  }
  std::printf("\n");
  if (command == "run") {
    std::printf("simulated: %s\n", run->breakdown.ToString().c_str());
    if (run->schedule.chaos) {
      std::printf("chaos:     %s\n", run->schedule.ToString().c_str());
    }
  }
  if (print_plan) {
    std::printf("--- optimized program ---\n%s", run->optimized_source.c_str());
  }
  if (!dot_path.empty() && run->optimized_program != nullptr) {
    std::ofstream dot_file(dot_path);
    dot_file << ProgramToDot(*run->optimized_program);
    std::printf("wrote %s (render with: dot -Tsvg %s -o plan.svg)\n",
                dot_path.c_str(), dot_path.c_str());
  }
  for (const std::string& var : print_vars) {
    auto it = run->env.find(var);
    if (it == run->env.end()) {
      std::fprintf(stderr, "no variable '%s'\n", var.c_str());
      continue;
    }
    PrintValue(var, it->second);
  }
  return EmitTelemetry(show_stats, metrics_out,
                       command == "run" ? &run->audit : nullptr,
                       run->optimized_program.get());
}

}  // namespace
}  // namespace remac

int main(int argc, char** argv) { return remac::Main(argc, argv); }
