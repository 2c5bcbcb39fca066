// The batch workload, execute-dense: GNMF and GD on cri1. One operation
// is one pass over the program suite; each program goes through the
// library's public entry points in order, each call wrapped in a
// benchmark span:
//
//   CompileScript -> OptimizeCompiled -> Executor::Run -> PredictProgramCost
//
// Every operation's results are checked bitwise against a reference pass
// run with the same configuration before measuring. After measuring, that
// reference is checked within kMaxUlps against the unoptimized program as
// written (serial, no fusion); a departure fails every operation that
// matched it. The simulated figures must repeat exactly from operation to
// operation.

#include <array>
#include <cstdio>
#include <memory>

#include "algorithms/scripts.h"
#include "common.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "obs/cost_audit.h"
#include "runtime/program_runner.h"
#include "sched/thread_pool.h"

namespace remacbench {
namespace {

using remac::CompiledProgram;
using remac::DataCatalog;
using remac::DatasetSpec;
using remac::RtValue;
using remac::RunConfig;
using Env = std::map<std::string, RtValue>;

/// LSE amortization horizon the optimizer plans for, and the loop
/// iterations each execution actually runs (fixed, recorded).
constexpr int kHorizon = 20;
constexpr int kExecutedIterations = 3;
/// Set-ups behind the setup_s median: kSetupsBefore before the measured
/// phase (the last one's catalog is measured) and kSetupsAfter after it,
/// so the median does not hang on one moment of a shared machine.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;

struct BatchProgram {
  std::string label;
  std::string source;
  /// Variables compared against the unoptimized program.
  std::vector<std::string> outputs;
};

struct BatchSuite {
  std::vector<DatasetSpec> datasets;
  std::vector<BatchProgram> programs;
};

DatasetSpec SeededSpec(const std::string& name, uint64_t seed) {
  DatasetSpec spec = remac::PaperDatasetSpec(name).value();
  spec.seed += 7919 * seed;
  return spec;
}

BatchSuite MakeSuite(uint64_t seed) {
  BatchSuite suite;
  suite.datasets.push_back(SeededSpec("cri1", seed));
  // GNMF factorizes non-negative data; cri1 holds signed Gaussians, so
  // the script factorizes their squares (one extra elementwise pass).
  // On signed data the multiplicative updates divide by near-zero
  // denominators and no rounding tolerance holds.
  std::string gnmf = remac::GnmfScript("cri1", 10, kHorizon);
  const std::string read = "V = read(\"cri1\");";
  gnmf.replace(gnmf.find(read), read.size(),
               "V = read(\"cri1\") * read(\"cri1\");");
  suite.programs.push_back({"GNMF/cri1", gnmf, {"W", "H"}});
  suite.programs.push_back(
      {"GD/cri1", remac::GdScript("cri1", kHorizon), {"x"}});
  return suite;
}

RunConfig BatchConfig() {
  RunConfig config;
  config.max_iterations = kHorizon;
  config.executed_iterations = kExecutedIterations;
  config.count_input_partition = true;
  return config;
}

/// The unoptimized program as written, run serially without fusion.
RunConfig AsWrittenConfig() {
  RunConfig config = BatchConfig();
  config.optimizer = remac::OptimizerKind::kAsWritten;
  config.fuse_elementwise = false;
  return config;
}

/// What one program run produced. The simulated figures exclude compile
/// wall time by construction: the ledger never books it.
struct ProgramRun {
  remac::OptimizeReport report;
  double sim_exec_s = 0.0;  // compute + transmission + input partition
  double sim_compute_s = 0.0;
  double sim_transmit_s = 0.0;
  double sim_flops = 0.0;
  double sim_bytes = 0.0;
  double audit_flops_rel_err = 0.0;
  Env env;
};

remac::Result<ProgramRun> RunProgram(const BatchProgram& program,
                                     const DataCatalog& catalog,
                                     const RunConfig& config,
                                     SpanRecorder* spans, int64_t op,
                                     int parent) {
  ProgramRun run;
  CompiledProgram compiled;
  {
    ScopedSpan span(spans, "lang.compile", op, parent);
    REMAC_ASSIGN_OR_RETURN(compiled,
                           remac::CompileScript(program.source, catalog));
  }
  CompiledProgram optimized;
  {
    ScopedSpan span(spans, "core.optimize", op, parent);
    REMAC_ASSIGN_OR_RETURN(
        optimized,
        remac::OptimizeCompiled(compiled, catalog, config, &run.report));
  }
  const remac::EngineTraits traits = remac::TraitsFor(config.engine);
  remac::TransmissionLedger ledger(config.cluster);
  {
    ScopedSpan span(spans, "runtime.execute", op, parent);
    remac::Executor executor(config.cluster, &catalog, &ledger, traits);
    executor.set_count_input_partition(config.count_input_partition);
    REMAC_RETURN_NOT_OK(
        executor.Run(optimized.statements, kExecutedIterations));
    run.env = executor.env();
  }
  {
    ScopedSpan span(spans, "obs.audit", op, parent);
    const auto estimator = remac::MakeEstimator(config.estimator, &catalog);
    REMAC_ASSIGN_OR_RETURN(
        const remac::PredictedCost predicted,
        remac::PredictProgramCost(optimized, catalog, *estimator,
                                  config.cluster, traits,
                                  kExecutedIterations));
    std::array<double, remac::kNumTransmissionPrimitives> bytes{};
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] =
          ledger.BytesFor(static_cast<remac::TransmissionPrimitive>(i));
    }
    run.audit_flops_rel_err =
        remac::MakeCostAudit(predicted, ledger.TotalFlops(), bytes)
            .flops.RelativeError();
  }
  const remac::TimeBreakdown breakdown = ledger.Breakdown();
  run.sim_compute_s = breakdown.computation_seconds;
  run.sim_transmit_s = breakdown.transmission_seconds;
  run.sim_exec_s = breakdown.computation_seconds +
                   breakdown.transmission_seconds +
                   breakdown.input_partition_seconds;
  run.sim_flops = ledger.TotalFlops();
  run.sim_bytes = ledger.TotalBytes();
  return run;
}

/// The simulated figures and applied-option counts of one operation:
/// must repeat bit for bit across every operation of a run.
struct Signature {
  double sim_exec_s = 0.0;
  double sim_compute_s = 0.0;
  double sim_transmit_s = 0.0;
  double sim_flops = 0.0;
  double sim_bytes = 0.0;
  int options_found = 0;
  int applied_cse = 0;
  int applied_lse = 0;

  void Add(const ProgramRun& run) {
    sim_exec_s += run.sim_exec_s;
    sim_compute_s += run.sim_compute_s;
    sim_transmit_s += run.sim_transmit_s;
    sim_flops += run.sim_flops;
    sim_bytes += run.sim_bytes;
    options_found += run.report.options_found;
    applied_cse += run.report.applied_cse;
    applied_lse += run.report.applied_lse;
  }
  bool operator==(const Signature&) const = default;
};

/// Per-operation observations of one measured phase.
struct Phase {
  std::vector<double> latency_s;  // CPU seconds per operation
  std::vector<double> wall_s;
  std::vector<double> windows_visited, probe_evaluations, audit_rel_err;
  RegistrySnapshot registry;  // summed deltas over the phase
  remac::PoolStats pool_before, pool_after;
  int64_t ops = 0;
};

}  // namespace

WorkloadResult RunBatch(const Options& options) {
  WorkloadResult result;
  const int cpus = AvailableCpus();
  // One thread with single-threaded kernels, timed on its CPU clock:
  // hypervisor steal on shared machines moves wall time of identical
  // work by up to 2x between runs, and CPU time leaves it out. Wall time
  // per operation is still recorded (info.wall_latencies_s).
  remac::SetKernelThreads(1);

  const BatchSuite suite = MakeSuite(options.seed);
  const RunConfig config = BatchConfig();
  SpanRecorder spans;  // disabled until the traced phase

  // --- setup, repeated: data generation + registration ----------------
  std::vector<double> setup_s, register_s;
  auto set_up = [&]() -> std::unique_ptr<DataCatalog> {
    const double start = ThreadCpuSeconds();
    auto fresh = std::make_unique<DataCatalog>();
    for (const DatasetSpec& spec : suite.datasets) {
      const double reg_start = ThreadCpuSeconds();
      const remac::Status st = remac::RegisterDataset(fresh.get(), spec);
      register_s.push_back(ThreadCpuSeconds() - reg_start);
      if (!st.ok()) {
        result.Fail("setup: " + st.ToString());
        return nullptr;
      }
    }
    setup_s.push_back(ThreadCpuSeconds() - start);
    return fresh;
  };
  std::unique_ptr<DataCatalog> catalog;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    catalog = set_up();
    if (catalog == nullptr) return result;
  }

  // --- reference pass (verification, outside setup_s) ------------------
  // The same configuration once: the bitwise reference and the signature
  // the determinism canary holds every operation to.
  std::vector<Env> reference;
  Signature reference_signature;
  for (const BatchProgram& program : suite.programs) {
    auto run = RunProgram(program, *catalog, config, &spans, -1, -1);
    if (!run.ok()) {
      result.Fail("reference " + program.label + ": " +
                  run.status().ToString());
      return result;
    }
    reference_signature.Add(run.value());
    reference.push_back(std::move(run.value().env));
  }

  // --- measured phases -------------------------------------------------
  int64_t next_op = 0;
  auto run_phase = [&](double seconds, bool traced) {
    Phase phase;
    spans.Enable(traced);
    phase.pool_before = remac::ThreadPool::Global().stats();
    const RegistrySnapshot registry_before = RegistrySnapshot::Take();
    const Clock::time_point phase_start = Clock::now();
    while (phase.ops == 0 || SecondsSince(phase_start) < seconds) {
      const int64_t op = next_op++;
      ++result.attempted;
      ++phase.ops;
      std::vector<ProgramRun> runs;
      std::string error;
      const Clock::time_point op_start = Clock::now();
      const double cpu_start = ThreadCpuSeconds();
      {
        ScopedSpan root(&spans, "op", op);
        for (const BatchProgram& program : suite.programs) {
          auto run =
              RunProgram(program, *catalog, config, &spans, op, root.id());
          if (!run.ok()) {
            error = program.label + ": " + run.status().ToString();
            break;
          }
          runs.push_back(std::move(run).value());
        }
      }
      phase.latency_s.push_back(ThreadCpuSeconds() - cpu_start);
      phase.wall_s.push_back(SecondsSince(op_start));
      // Verification runs outside the operation's timing.
      if (error.empty()) {
        if (op == options.corrupt_op) CorruptEnv(&runs.front().env);
        Signature signature;
        for (size_t p = 0; p < runs.size() && error.empty(); ++p) {
          signature.Add(runs[p]);
          std::string why;
          if (!EnvBitwiseEqual(runs[p].env, reference[p], &why)) {
            error = suite.programs[p].label +
                    " differs from its reference: " + why;
          }
        }
        if (error.empty() && !(signature == reference_signature)) {
          error = "determinism canary: simulated costs or applied options "
                  "changed between operations";
        }
      }
      if (!error.empty()) {
        result.Fail("op " + std::to_string(op) + ": " + error);
        continue;
      }
      double windows = 0.0, evaluations = 0.0, rel_err = 0.0;
      for (const ProgramRun& run : runs) {
        windows += static_cast<double>(run.report.search.windows_visited);
        evaluations += run.report.probe.evaluations;
        rel_err += run.audit_flops_rel_err / static_cast<double>(runs.size());
      }
      phase.windows_visited.push_back(windows);
      phase.probe_evaluations.push_back(evaluations);
      phase.audit_rel_err.push_back(rel_err);
    }
    phase.registry = RegistrySnapshot::Take().Minus(registry_before);
    phase.pool_after = remac::ThreadPool::Global().stats();
    spans.Enable(false);
    return phase;
  };

  std::vector<Phase> phases;
  if (options.trace) {
    // An untraced half for the overhead baseline, then a traced half
    // whose spans give the per-layer split.
    phases.push_back(run_phase(options.seconds / 2, /*traced=*/false));
    phases.push_back(run_phase(options.seconds / 2, /*traced=*/true));
  } else {
    phases.push_back(run_phase(options.seconds, /*traced=*/false));
    result.Add("peak_rss_mb", PeakRssMb(), "MiB", "memory");
  }
  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    if (set_up() == nullptr) return result;
  }

  // --- the unoptimized programs (verification, after measuring) --------
  // Every successful operation matched the reference bit for bit, so the
  // reference alone is held to the as-written program, one thread per
  // program (at most `cpus` busy).
  const Clock::time_point verify_start = Clock::now();
  std::vector<std::string> as_written_errors(suite.programs.size());
  std::vector<double> ulps(suite.programs.size(), 0.0);
  ForEachOnThreads(cpus, suite.programs.size(), [&](size_t p) {
    auto run = RunProgram(suite.programs[p], *catalog, AsWrittenConfig(),
                          &spans, -1, -1);  // spans are disabled by now
    std::string why;
    if (!run.ok()) {
      as_written_errors[p] = run.status().ToString();
    } else if (!EnvWithinUlps(reference[p], run.value().env,
                              suite.programs[p].outputs, kMaxUlps, &ulps[p],
                              &why)) {
      as_written_errors[p] = "departs from the unoptimized program: " + why;
    }
  });
  std::string ulps_list;
  for (size_t p = 0; p < suite.programs.size(); ++p) {
    ulps_list += remac::StringFormat("%s%s: %.1f", ulps_list.empty() ? "" : ", ",
                                     JsonString(suite.programs[p].label).c_str(),
                                     ulps[p]);
    if (as_written_errors[p].empty()) continue;
    // The reference is wrong, so is every operation that matched it.
    const int64_t matched = result.attempted - result.failed;
    for (int64_t i = 0; i < matched; ++i) {
      result.Fail(suite.programs[p].label + ": " + as_written_errors[p]);
    }
  }

  const Signature& sim = reference_signature;
  result.info.push_back({"programs", std::to_string(suite.programs.size())});
  result.info.push_back(
      {"executed_iterations", std::to_string(kExecutedIterations)});
  result.info.push_back({"horizon_iterations", std::to_string(kHorizon)});
  result.info.push_back({"max_ulps", remac::StringFormat("%.0f", kMaxUlps)});
  result.info.push_back({"ulps_vs_unoptimized", "{" + ulps_list + "}"});
  result.info.push_back({"setups_s", JsonNumberList(setup_s)});
  result.info.push_back({"verify_s", remac::StringFormat(
                                         "%.6f", SecondsSince(verify_start))});

  if (!options.trace) {
    const Phase& phase = phases.front();
    double busy = 0.0;
    for (const double s : phase.latency_s) busy += s;
    const Tail tail = TailLatency(phase.latency_s);
    result.Add("setup_s", Median(setup_s), "s", "cpu");
    result.Add("throughput_ops_per_s",
               static_cast<double>(phase.ops) / busy, "1/s", "cpu");
    result.Add("latency_p50_s", Median(phase.latency_s), "s", "cpu");
    result.Add("latency_tail_s", tail.value, "s", "cpu");
    result.Add("sim_exec_s", sim.sim_exec_s, "s", "simulated");
    result.info.push_back({"latency_tail_percentile",
                           std::to_string(tail.percentile)});
    result.info.push_back({"latency_samples",
                           std::to_string(phase.latency_s.size())});
    result.info.push_back(
        {"latency_tail_beyond", std::to_string(tail.beyond)});
    result.info.push_back({"latencies_s", JsonNumberList(phase.latency_s)});
    result.info.push_back({"wall_latencies_s", JsonNumberList(phase.wall_s)});
    return result;
  }

  const Phase& untraced = phases[0];
  const Phase& traced = phases[1];
  const double ops = static_cast<double>(traced.ops);
  const std::map<std::string, double> self = spans.SelfSeconds();
  auto self_per_op = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / ops;
  };
  auto per_op = [&](const char* name) { return traced.registry.Get(name) / ops; };
  const double untraced_p50 = Median(untraced.latency_s);

  result.Add("lang.compile_s", self_per_op("lang.compile"), "s", "wall");
  result.Add("core.optimize_s", self_per_op("core.optimize"), "s", "wall");
  result.Add("runtime.execute_s", self_per_op("runtime.execute"), "s", "wall");
  result.Add("obs.audit_s", self_per_op("obs.audit"), "s", "wall");
  result.Add("matrix.multiply_s", per_op("remac.executor.multiply_seconds"),
             "s", "wall");
  result.Add("matrix.elementwise_s",
             per_op("remac.executor.elementwise_seconds"), "s", "wall");
  result.Add("data.register_s", Median(register_s), "s", "cpu");
  result.Add("matrix.gemm_gflops", GemmProbeGflops(options.seed), "GFLOP/s",
             "cpu");
  result.Add("core.windows_visited", Median(traced.windows_visited), "count",
             "count");
  result.Add("core.probe_evaluations", Median(traced.probe_evaluations),
             "count", "count");
  result.Add("core.options_found", sim.options_found, "count", "count");
  result.Add("core.applied_cse", sim.applied_cse, "count", "count");
  result.Add("core.applied_lse", sim.applied_lse, "count", "count");
  result.Add("runtime.ops", per_op("remac.executor.ops"), "count", "count");
  result.Add("matrix.multiplies", per_op("remac.kernel.multiplies"), "count",
             "count");
  result.Add("fusion.regions", per_op("remac.fusion.regions"), "count",
             "count");
  result.Add("fusion.bytes_avoided", per_op("remac.fusion.bytes_avoided"),
             "bytes", "count");
  result.Add("sched.pool_tasks",
             static_cast<double>(traced.pool_after.tasks_executed -
                                 traced.pool_before.tasks_executed) /
                 ops,
             "count", "count");
  result.Add("sched.steals",
             static_cast<double>(traced.pool_after.steals -
                                 traced.pool_before.steals) /
                 ops,
             "count", "count");
  result.Add("cluster.sim_flops", sim.sim_flops, "flop", "simulated");
  result.Add("cluster.sim_bytes", sim.sim_bytes, "bytes", "simulated");
  result.Add("cluster.sim_compute_s", sim.sim_compute_s, "s", "simulated");
  result.Add("cluster.sim_transmit_s", sim.sim_transmit_s, "s", "simulated");
  result.Add("obs.audit_flops_rel_err", Median(traced.audit_rel_err), "ratio",
             "ratio");
  result.Add("trace.span_coverage_frac", spans.ChildCoverage("op"), "ratio",
             "ratio");
  result.Add("trace.overhead_frac",
             untraced_p50 > 0.0
                 ? (Median(traced.latency_s) - untraced_p50) / untraced_p50
                 : 0.0,
             "ratio", "ratio");
  result.info.push_back({"traced_ops", std::to_string(traced.ops)});
  result.info.push_back({"untraced_ops", std::to_string(untraced.ops)});
  if (!options.spans_out.empty() && !spans.WriteJson(options.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.spans_out.c_str());
  }
  return result;
}

}  // namespace remacbench
