// Quickstart: run a linear-algebra script through ReMac and see what the
// optimizer found and how much simulated cluster time it saved.
//
//   ./example_quickstart

#include <cstdio>

#include "algorithms/scripts.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "runtime/program_runner.h"

using namespace remac;

int main() {
  // 1. Generate a dataset and register it (plus its label vector) in the
  //    catalog under the name "demo". In a real deployment this is where
  //    you load your data.
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "demo";
  spec.rows = 50000;
  spec.cols = 100;
  spec.sparsity = 0.01;
  spec.zipf_rows = 1.0;
  spec.zipf_cols = 1.0;
  spec.seed = 7;
  if (Status st = RegisterDataset(&catalog, spec); !st.ok()) {
    std::fprintf(stderr, "dataset: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. A DML-like script: DFP for least squares (paper Equations 1-2).
  const int iterations = 20;
  const std::string script = DfpScript("demo", iterations);
  std::printf("Script:\n%s\n", script.c_str());

  // 3. Run it twice: SystemDS-style baseline vs ReMac adaptive.
  for (OptimizerKind kind :
       {OptimizerKind::kSystemDs, OptimizerKind::kRemacAdaptive}) {
    RunConfig config;
    config.optimizer = kind;
    config.max_iterations = iterations;
    auto run = RunScript(script, catalog, config);
    if (!run.ok()) {
      std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
      return 1;
    }
    std::printf("=== %s ===\n", OptimizerKindName(kind));
    std::printf("  compile: %s (wall)\n",
                HumanSeconds(run->compile_wall_seconds).c_str());
    std::printf("  simulated cluster time: %s  [%s]\n",
                HumanSeconds(run->breakdown.TotalSeconds()).c_str(),
                run->breakdown.ToString().c_str());
    if (kind == OptimizerKind::kRemacAdaptive) {
      std::printf("  elimination options found: %d, applied: %d CSE + %d LSE\n",
                  run->optimize.options_found, run->optimize.applied_cse,
                  run->optimize.applied_lse);
      std::printf("  optimized program:\n%s\n",
                  run->optimized_source.c_str());
    }
  }
  return 0;
}
