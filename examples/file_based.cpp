// File-based workflow: write a dataset to Matrix Market, read it back,
// run a script against it, and export the result — the round trip an
// external user takes when bringing their own data.
//
//   ./example_file_based [workdir]

#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "data/generators.h"
#include "io/matrix_market.h"
#include "matrix/kernels.h"
#include "runtime/program_runner.h"

using namespace remac;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  const std::string a_path = dir + "/remac_example_A.mtx";
  const std::string b_path = dir + "/remac_example_b.mtx";
  const std::string x_path = dir + "/remac_example_x.mtx";

  // 1. Produce input files (stand-in for data exported from elsewhere).
  {
    DataCatalog staging;
    DatasetSpec spec;
    spec.name = "stage";
    spec.rows = 20000;
    spec.cols = 120;
    spec.sparsity = 0.01;
    spec.zipf_rows = 1.0;
    spec.zipf_cols = 1.0;
    spec.seed = 2024;
    if (Status st = RegisterDataset(&staging, spec); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if (Status st = WriteMatrixMarket(a_path, staging.Value("stage").value());
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    (void)WriteMatrixMarket(b_path, staging.Value("stage_b").value());
    std::printf("wrote %s and %s\n", a_path.c_str(), b_path.c_str());
  }

  // 2. Load them into a fresh catalog, exactly as `remac run --data`
  //    does, and run ridge regression through the adaptive optimizer.
  DataCatalog catalog;
  auto a = ReadMatrixMarket(a_path);
  auto b = ReadMatrixMarket(b_path);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "read failed\n");
    return 1;
  }
  catalog.Register("A", std::move(a).value());
  catalog.Register("A_b", std::move(b).value());

  const int iterations = 30;
  const std::string script =
      "A = read(\"A\");\n"
      "b = read(\"A_b\");\n"
      "x = zeros(ncol(A), 1);\n"
      "i = 0;\n"
      "while (i < 30) {\n"
      "  g = t(A) %*% (A %*% x) - t(A) %*% b + 0.1 * x;\n"
      "  x = x - 0.000001 * g;\n"
      "  i = i + 1;\n"
      "}\n";
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.max_iterations = iterations;
  auto run = RunScript(script, catalog, config);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("optimized with %d CSE + %d LSE; simulated %s\n",
              run->optimize.applied_cse, run->optimize.applied_lse,
              HumanSeconds(run->breakdown.TotalSeconds()).c_str());

  // 3. Export the solution.
  const Matrix x = run->env.at("x").AsMatrix();
  if (Status st = WriteMatrixMarket(x_path, x, /*dense=*/true); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("|x|_F = %.6f, written to %s\n", FrobeniusNorm(x),
              x_path.c_str());
  return 0;
}
