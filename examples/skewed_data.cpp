// Skew sensitivity: ReMac's adaptive elimination changes its plan as the
// data distribution changes (paper Section 6.5). This example sweeps the
// Zipf exponent of a cri2-shaped dataset and shows which options the
// optimizer picks and what that does to simulated transmission time.
//
//   ./example_skewed_data

#include <cstdio>

#include "algorithms/scripts.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "runtime/program_runner.h"

using namespace remac;

int main() {
  const int iterations = 20;
  std::printf("%-10s %10s %10s %8s  %s\n", "dataset", "SystemDS", "ReMac",
              "applied", "notes (chosen options)");
  for (double exponent : {0.0, 0.7, 1.4, 2.1, 2.8}) {
    DataCatalog catalog;
    DatasetSpec spec = ZipfSpec(exponent);
    // Smaller rows than the benchmark scale keeps this example snappy.
    spec.rows = 20000;
    if (Status st = RegisterDataset(&catalog, spec); !st.ok()) {
      std::fprintf(stderr, "dataset: %s\n", st.ToString().c_str());
      return 1;
    }
    const std::string script = DfpScript(spec.name, iterations);

    auto execution = [&](OptimizerKind kind, RunReport* out) {
      RunConfig config;
      config.optimizer = kind;
      config.max_iterations = iterations;
      auto run = RunScript(script, catalog, config);
      if (!run.ok()) return -1.0;
      if (out != nullptr) *out = *run;
      return run->breakdown.TotalSeconds();
    };
    RunReport remac_report;
    const double systemds = execution(OptimizerKind::kSystemDs, nullptr);
    const double remac =
        execution(OptimizerKind::kRemacAdaptive, &remac_report);
    std::string notes;
    for (size_t i = 0;
         i < remac_report.optimize.applied_options.size() && i < 2; ++i) {
      if (!notes.empty()) notes += ", ";
      notes += remac_report.optimize.applied_options[i];
    }
    std::printf("%-10s %10s %10s %5d+%dL  %s\n", spec.name.c_str(),
                HumanSeconds(systemds).c_str(), HumanSeconds(remac).c_str(),
                remac_report.optimize.applied_cse,
                remac_report.optimize.applied_lse, notes.c_str());
  }
  std::printf(
      "\nThe plan adapts: the A^T A hoist is only chosen where the\n"
      "estimated product sparsity makes it pay off.\n");
  return 0;
}
