#ifndef REMAC_BENCH_HARNESS_H_
#define REMAC_BENCH_HARNESS_H_

// Shared helpers for the bench binaries: flags, the dataset catalog and
// the extrapolated measurement. bench_paper regenerates the paper's
// tables and figures with them; see EXPERIMENTS.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/string_util.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"
#include "runtime/program_runner.h"
#include "sched/thread_pool.h"

namespace remac {
namespace bench {

/// Command-line knobs shared by every bench binary.
struct BenchOptions {
  bool quick = false;  // smaller datasets / fewer configurations
  /// Threads for the shared pool AND the kernel row-chunking
  /// (0 = hardware default).
  int threads = 0;
  SchedulerKind scheduler = SchedulerKind::kSerial;
  /// Emit one machine-readable JSON line per measurement.
  bool json = false;
};

/// Process-wide options (set once by ParseBenchArgs in main()).
inline BenchOptions& GlobalBenchOptions() {
  static BenchOptions options;
  return options;
}

/// Parses --quick, --threads=N, --scheduler=serial|taskgraph and --json;
/// applies the thread count to the kernels and the shared pool. Returns
/// the parsed options (also stored in GlobalBenchOptions()).
inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (StartsWith(arg, "--threads=")) {
      char* end = nullptr;
      const long value = std::strtol(arg.c_str() + 10, &end, 10);
      if (end == arg.c_str() + 10 || *end != '\0' || value <= 0) {
        std::fprintf(stderr, "--threads expects a positive integer, got '%s'\n",
                     arg.c_str() + 10);
        std::exit(2);
      }
      options.threads = static_cast<int>(value);
    } else if (arg == "--scheduler=taskgraph") {
      options.scheduler = SchedulerKind::kTaskGraph;
    } else if (arg == "--scheduler=serial") {
      options.scheduler = SchedulerKind::kSerial;
    } else if (arg == "--json") {
      options.json = true;
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (expected --quick, --threads=N, "
                   "--scheduler=serial|taskgraph, --json)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (options.threads > 0) {
    SetKernelThreads(options.threads);
    ThreadPool::SetGlobalThreads(options.threads);
  }
  if (options.json) {
    // Final machine-readable record: the process-wide metrics registry,
    // emitted after all measurement lines so BENCH_*.json files carry a
    // telemetry block (counters, gauges, histograms).
    std::atexit([] {
      std::printf("{\"metrics\": %s}\n",
                  MetricsRegistry::Global().ToJson().c_str());
    });
  }
  GlobalBenchOptions() = options;
  return options;
}

/// Process-wide catalog with lazily generated datasets.
inline DataCatalog& SharedCatalog() {
  static DataCatalog* catalog = new DataCatalog();
  return *catalog;
}

/// Ensures a paper dataset ("cri2") or a zipf dataset ("zipf-1.4") exists
/// in the shared catalog.
inline Status EnsureDataset(const std::string& name,
                            bool with_partial_dfp_inputs = false) {
  DataCatalog& catalog = SharedCatalog();
  if (catalog.Contains(name)) return Status::OK();
  DatasetSpec spec;
  if (StartsWith(name, "zipf-")) {
    spec = ZipfSpec(std::stod(name.substr(5)));
  } else {
    auto paper = PaperDatasetSpec(name);
    if (!paper.ok()) return paper.status();
    spec = paper.value();
  }
  std::fprintf(stderr, "[data] generating %s (%lld x %lld, sp=%g)...\n",
               name.c_str(), static_cast<long long>(spec.rows),
               static_cast<long long>(spec.cols), spec.sparsity);
  return RegisterDataset(&catalog, spec, with_partial_dfp_inputs);
}

/// One measured configuration, extrapolated to the full horizon.
struct Measurement {
  /// Real optimizer wall time; never part of the simulated figures.
  double compile_wall_seconds = 0.0;
  /// Simulated execution time over `iterations` loop iterations
  /// (includes input partition when configured).
  double execution_seconds = 0.0;
  TimeBreakdown breakdown;  // extrapolated
  OptimizeReport optimize;
  /// DAG accounting of the last executed run (kTaskGraph only).
  ScheduleReport schedule;
};

/// Runs the script executing only 1 and 2 real loop iterations, then
/// extrapolates the simulated loop time linearly to `iterations`
/// (T(N) = T(1) + (N-1) * (T(2) - T(1))). The optimizer always amortizes
/// LSE over the full horizon. This keeps the wall-clock cost of the
/// harness bounded while reporting the full-horizon simulated time; see
/// DESIGN.md ("Simulated time vs wall time").
inline Result<Measurement> MeasureScript(const std::string& script,
                                         RunConfig config, int iterations,
                                         const std::string& label = "") {
  const BenchOptions& options = GlobalBenchOptions();
  config.scheduler = options.scheduler;
  config.pool_threads = options.threads;
  config.max_iterations = iterations;
  Measurement m;
  config.executed_iterations = 1;
  REMAC_ASSIGN_OR_RETURN(const RunReport one,
                         RunScript(script, SharedCatalog(), config));
  config.executed_iterations = 2;
  REMAC_ASSIGN_OR_RETURN(const RunReport two,
                         RunScript(script, SharedCatalog(), config));
  m.compile_wall_seconds = one.compile_wall_seconds;
  m.optimize = one.optimize;
  m.schedule = two.schedule;
  const double n = static_cast<double>(iterations);
  auto extrapolate = [n](double t1, double t2) {
    const double per_iteration = std::max(0.0, t2 - t1);
    return t1 + (n - 1.0) * per_iteration;
  };
  m.breakdown.input_partition_seconds =
      one.breakdown.input_partition_seconds;
  m.breakdown.computation_seconds =
      extrapolate(one.breakdown.computation_seconds,
                  two.breakdown.computation_seconds);
  m.breakdown.transmission_seconds =
      extrapolate(one.breakdown.transmission_seconds,
                  two.breakdown.transmission_seconds);
  m.execution_seconds = m.breakdown.computation_seconds +
                        m.breakdown.transmission_seconds +
                        m.breakdown.input_partition_seconds;
  if (options.json) {
    // One machine-readable line per measurement; threads=0 means the
    // hardware default was used.
    std::printf(
        "{\"label\": \"%s\", \"scheduler\": \"%s\", \"threads\": %d, "
        "\"pool_threads\": %d, \"iterations\": %d, "
        "\"execution_seconds\": %.9g, \"compile_wall_seconds\": %.9g, "
        "\"serial_seconds\": %.9g, "
        "\"makespan_seconds\": %.9g, \"critical_path_seconds\": %.9g, "
        "\"tasks\": %lld, \"edges\": %lld}\n",
        label.c_str(), SchedulerKindName(config.scheduler), options.threads,
        m.schedule.pool_threads, iterations, m.execution_seconds,
        m.compile_wall_seconds,
        m.schedule.serial_seconds, m.schedule.makespan_seconds,
        m.schedule.critical_path_seconds,
        static_cast<long long>(m.schedule.tasks),
        static_cast<long long>(m.schedule.edges));
  }
  return m;
}

/// Formats a duration for the result tables.
inline std::string Fmt(double seconds) { return HumanSeconds(seconds); }

/// Prints a standard figure header.
inline void Banner(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(simulated cluster time; see DESIGN.md for the substitution\n");
  std::printf(" of the paper's 7-node Spark testbed)\n");
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace remac

#endif  // REMAC_BENCH_HARNESS_H_
