// Linear regression three ways: GD, DFP, and BFGS on the same dataset,
// comparing every optimizer strategy's simulated execution time and
// verifying they all converge to the same solution.
//
//   ./example_linear_regression [rows] [cols]

#include <cstdio>
#include <cstdlib>

#include "algorithms/scripts.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "runtime/program_runner.h"

using namespace remac;

int main(int argc, char** argv) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "reg";
  spec.rows = argc > 1 ? std::atoll(argv[1]) : 40000;
  spec.cols = argc > 2 ? std::atoll(argv[2]) : 64;
  spec.sparsity = 0.02;
  spec.zipf_rows = 1.0;
  spec.zipf_cols = 1.0;
  spec.seed = 21;
  if (Status st = RegisterDataset(&catalog, spec); !st.ok()) {
    std::fprintf(stderr, "dataset: %s\n", st.ToString().c_str());
    return 1;
  }
  const int iterations = 15;

  struct Algo {
    const char* name;
    std::string script;
  };
  const Algo algos[] = {
      {"GD", GdScript("reg", iterations)},
      {"DFP", DfpScript("reg", iterations)},
      {"BFGS", BfgsScript("reg", iterations)},
  };
  const OptimizerKind kinds[] = {
      OptimizerKind::kSystemDs, OptimizerKind::kRemacConservative,
      OptimizerKind::kRemacAggressive, OptimizerKind::kRemacAdaptive};

  std::printf("%-6s", "algo");
  for (OptimizerKind kind : kinds) {
    std::printf(" %14s", OptimizerKindName(kind));
  }
  std::printf(" %14s\n", "residual |Ax-b|");

  for (const Algo& algo : algos) {
    std::printf("%-6s", algo.name);
    Matrix solution;
    for (OptimizerKind kind : kinds) {
      RunConfig config;
      config.optimizer = kind;
      config.max_iterations = iterations;
      auto run = RunScript(algo.script, catalog, config);
      if (!run.ok()) {
        std::printf(" %14s", "ERROR");
        continue;
      }
      std::printf(" %14s",
                  HumanSeconds(run->breakdown.TotalSeconds()).c_str());
      solution = run->env.at("x").AsMatrix();
    }
    // Residual of the last solution: ||A x - b||.
    const Matrix a = catalog.Value("reg").value();
    const Matrix b = catalog.Value("reg_b").value();
    const Matrix ax = Multiply(a, solution).value();
    const Matrix residual = Subtract(ax, b).value();
    std::printf(" %14.4f\n", FrobeniusNorm(residual));
  }
  std::printf(
      "\nAll strategies compute identical iterates; they differ only in\n"
      "how much redundant work the plan performs. (Full-step quasi-Newton\n"
      "methods may diverge numerically without a line search — the plans\n"
      "still agree bit-for-bit across strategies.)\n");
  return 0;
}
