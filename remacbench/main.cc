// remacbench: one workload of the ReMac benchmark per process.
//
//   remacbench --workload execute-dense|serve-zipf
//              --seed N --seconds S --trace 0|1
//              [--spans-out PATH] [--corrupt-op K]
//
// Prints a human summary and, as the last line, one JSON record:
// {"record": {workload, seed, attempted, failed, errors, machine,
// metrics: [{name, value, unit, section}], info}}. run.py builds this
// binary, adds the source identity to the record and prints the final
// result line. Exit status: 0 when every operation succeeded and matched
// its references, 1 on any failed or wrong operation, 2 on bad usage.

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "common/string_util.h"

#ifndef REMACBENCH_BUILD_TYPE
#define REMACBENCH_BUILD_TYPE "unknown"
#endif
// The sanitizer the compiler reports for this build ("" for none; GCC
// defines no macro for UBSan).
#if defined(__SANITIZE_ADDRESS__)
#define REMACBENCH_SANITIZE "address"
#elif defined(__SANITIZE_THREAD__)
#define REMACBENCH_SANITIZE "thread"
#else
#define REMACBENCH_SANITIZE ""
#endif

namespace remacbench {
namespace {

/// Every per-layer metric, with its unit and section. A workload that
/// does not exercise a layer reports it as 0.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* section;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"lang.compile_s", "s", "wall"},
    {"core.optimize_s", "s", "wall"},
    {"core.windows_visited", "count", "count"},
    {"core.probe_evaluations", "count", "count"},
    {"core.options_found", "count", "count"},
    {"core.applied_cse", "count", "count"},
    {"core.applied_lse", "count", "count"},
    {"cluster.sim_flops", "flop", "simulated"},
    {"cluster.sim_bytes", "bytes", "simulated"},
    {"cluster.sim_compute_s", "s", "simulated"},
    {"cluster.sim_transmit_s", "s", "simulated"},
    {"runtime.execute_s", "s", "wall"},
    {"runtime.ops", "count", "count"},
    {"matrix.multiply_s", "s", "wall"},
    {"matrix.elementwise_s", "s", "wall"},
    {"matrix.multiplies", "count", "count"},
    {"matrix.gemm_gflops", "GFLOP/s", "cpu"},
    {"fusion.regions", "count", "count"},
    {"fusion.bytes_avoided", "bytes", "count"},
    {"obs.audit_s", "s", "wall"},
    {"obs.audit_flops_rel_err", "ratio", "ratio"},
    {"data.register_s", "s", "cpu"},
    {"service.plan_hit_frac", "ratio", "ratio"},
    {"service.matcache_hit_frac", "ratio", "ratio"},
    {"service.optimizer_invocations", "count", "count"},
    {"service.invalidations", "count", "count"},
    {"service.degraded_frac", "ratio", "ratio"},
    {"service.queue_wait_s", "s", "wall"},
    {"service.flight_wait_s", "s", "wall"},
    {"service.lock_wait_s", "s", "wall"},
    {"sched.pool_tasks", "count", "count"},
    {"sched.steals", "count", "count"},
    {"load.send_lag_p95_s", "s", "wall"},
    {"trace.overhead_frac", "ratio", "ratio"},
    {"trace.span_coverage_frac", "ratio", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "remacbench: %s\nusage: remacbench --workload "
               "execute-dense|serve-zipf --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH] "
               "[--corrupt-op K]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed expects an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        Usage("--seconds expects a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--corrupt-op") {
      options.corrupt_op = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--corrupt-op expects an integer");
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "execute-dense" &&
      options.workload != "serve-zipf") {
    Usage("--workload must be execute-dense or serve-zipf");
  }
  return options;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model = brand;
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string MachineJson() {
  __builtin_cpu_init();
  return remac::StringFormat(
      "{\"nproc\": %d, \"hardware_threads\": %u, \"cpu_model\": %s, "
      "\"avx2\": %s, \"fma\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"sanitize\": %s}",
      AvailableCpus(), std::thread::hardware_concurrency(),
      JsonString(CpuModel()).c_str(),
      __builtin_cpu_supports("avx2") ? "true" : "false",
      __builtin_cpu_supports("fma") ? "true" : "false",
      JsonString(std::string("g++ ") + __VERSION__).c_str(),
      JsonString(REMACBENCH_BUILD_TYPE).c_str(),
      JsonString(REMACBENCH_SANITIZE).c_str());
}

}  // namespace
}  // namespace remacbench

int main(int argc, char** argv) {
  using namespace remacbench;
  const Options options = ParseArgs(argc, argv);
  WorkloadResult result = options.workload == "serve-zipf"
                              ? RunServe(options)
                              : RunBatch(options);
  if (options.trace) {
    for (const LayerMetric& layer : kLayerMetrics) {
      bool present = false;
      for (const Metric& m : result.metrics) present |= m.name == layer.name;
      if (!present) result.Add(layer.name, 0.0, layer.unit, layer.section);
    }
  } else {
    result.Add("ok_frac",
               result.attempted > 0
                   ? static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted)
                   : 0.0,
               "ratio", "ratio");
  }

  std::printf("remacbench %s seed=%llu seconds=%g trace=%d: %lld attempted, "
              "%lld failed\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (const std::string& error : result.errors) {
    std::printf("  FAILED: %s\n", error.c_str());
  }
  std::string metrics;
  for (const Metric& m : result.metrics) {
    std::printf("  %-10s %-32s %.9g %s\n", m.section.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    metrics += remac::StringFormat(
        "%s{\"name\": %s, \"value\": %.17g, \"unit\": %s, \"section\": %s}",
        metrics.empty() ? "" : ", ", JsonString(m.name).c_str(), m.value,
        JsonString(m.unit).c_str(), JsonString(m.section).c_str());
  }
  std::string errors;
  for (const std::string& error : result.errors) {
    errors += (errors.empty() ? "" : ", ") + JsonString(error);
  }
  std::string info;
  for (const auto& [key, value] : result.info) {
    info += (info.empty() ? "" : ", ") + JsonString(key) + ": " + value;
  }
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"attempted\": %lld, \"failed\": %lld, "
      "\"errors\": [%s], \"machine\": %s, \"metrics\": [%s], "
      "\"info\": {%s}}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), errors.c_str(),
      MachineJson().c_str(), metrics.c_str(), info.c_str());
  std::fflush(stdout);
  return result.failed > 0 || result.attempted == 0 ? 1 : 0;
}
