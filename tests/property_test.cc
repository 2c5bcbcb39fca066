// Property-based sweeps: randomized scripts and datasets, with the
// invariant that redundancy elimination never changes program results,
// plus distribution-level properties of the generators and cost model.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "distributed/distributed_ops.h"
#include "runtime/program_runner.h"

namespace remac {
namespace {

/// Generates a random loop body over A (dataset), M (square), u, w
/// (vectors) from a small grammar of matrix expressions.
std::string RandomScript(uint64_t seed) {
  Rng rng(seed);
  const char* kVectorExprs[] = {
      "t(A) %*% (A %*% u)",
      "M %*% u",
      "t(A) %*% (A %*% (M %*% u))",
      "u + 0.5 * w",
      "M %*% (t(M) %*% w)",
      "t(A) %*% (A %*% w) - t(A) %*% (A %*% u)",
  };
  const char* kMatrixExprs[] = {
      "M + u %*% t(u)",
      "M %*% t(A) %*% A %*% M",
      "M - (M %*% u %*% t(u) %*% M) / (t(u) %*% M %*% u + 1)",
      "M %*% M",
      "t(A) %*% A + M",
  };
  std::string script =
      "A = read(\"prop\");\n"
      "M = eye(ncol(A));\n"
      "u = ones(ncol(A), 1);\n"
      "w = zeros(ncol(A), 1);\n"
      "i = 0;\n"
      "while (i < 3) {\n";
  const int statements = 2 + static_cast<int>(rng.NextBounded(3));
  for (int s = 0; s < statements; ++s) {
    if (rng.NextBounded(2) == 0) {
      script += std::string("  u = ") +
                kVectorExprs[rng.NextBounded(std::size(kVectorExprs))] +
                ";\n";
    } else {
      script += std::string("  M = ") +
                kMatrixExprs[rng.NextBounded(std::size(kMatrixExprs))] +
                ";\n";
    }
  }
  script += "  i = i + 1;\n}\n";
  return script;
}

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, EliminationPreservesSemantics) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "prop";
  spec.rows = 60 + (seed % 5) * 17;
  spec.cols = 6 + (seed % 3) * 2;
  spec.sparsity = 0.3 + 0.1 * (seed % 4);
  spec.seed = seed * 7 + 1;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  const std::string script = RandomScript(seed);

  RunConfig reference_config;
  reference_config.optimizer = OptimizerKind::kAsWritten;
  reference_config.max_iterations = 3;
  auto reference = RunScript(script, catalog, reference_config);
  ASSERT_TRUE(reference.ok()) << script << reference.status().ToString();

  for (OptimizerKind kind :
       {OptimizerKind::kSystemDs, OptimizerKind::kRemacAutomatic,
        OptimizerKind::kRemacAdaptive}) {
    RunConfig config;
    config.optimizer = kind;
    config.max_iterations = 3;
    auto run = RunScript(script, catalog, config);
    ASSERT_TRUE(run.ok()) << OptimizerKindName(kind) << "\n"
                          << script << run.status().ToString();
    for (const char* var : {"u", "M"}) {
      EXPECT_TRUE(run->env.at(var).AsMatrix().ApproxEquals(
          reference->env.at(var).AsMatrix(), 1e-6))
          << "variable " << var << " under " << OptimizerKindName(kind)
          << " for script:\n"
          << script;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(1, 17));

class GeneratorPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(GeneratorPropertyTest, HitsRequestedSparsity) {
  DatasetSpec spec;
  spec.name = "g";
  spec.rows = 5000;
  spec.cols = 200;
  spec.sparsity = 0.005;
  spec.zipf_rows = GetParam();
  spec.zipf_cols = GetParam();
  spec.seed = 42;
  const Matrix m = GenerateMatrix(spec);
  EXPECT_NEAR(m.Sparsity(), spec.sparsity, spec.sparsity * 0.1)
      << "zipf=" << GetParam();
}

TEST_P(GeneratorPropertyTest, SkewConcentratesColumnMass) {
  const double zipf = GetParam();
  DatasetSpec spec;
  spec.name = "g";
  spec.rows = 5000;
  spec.cols = 200;
  spec.sparsity = 0.01;
  spec.zipf_rows = zipf;
  spec.zipf_cols = zipf;
  spec.seed = 43;
  const Matrix m = GenerateMatrix(spec);
  const auto cols = m.CountRowsAndCols().col_counts;
  int64_t head = 0;
  int64_t total = 0;
  for (size_t c = 0; c < cols.size(); ++c) {
    total += cols[c];
    if (c < cols.size() / 10) head += cols[c];
  }
  const double head_fraction =
      static_cast<double>(head) / static_cast<double>(total);
  if (zipf == 0.0) {
    EXPECT_NEAR(head_fraction, 0.1, 0.03);
  } else if (zipf >= 2.0) {
    // Distinct-columns-per-row sampling bounds how hard the head can
    // saturate; >60% of mass in the top decile is already extreme skew.
    EXPECT_GT(head_fraction, 0.6);
  }
}

INSTANTIATE_TEST_SUITE_P(ZipfSweep, GeneratorPropertyTest,
                         ::testing::Values(0.0, 0.7, 1.4, 2.1, 2.8));

TEST(GeneratorProperty, Deterministic) {
  const DatasetSpec spec = ZipfSpec(1.4);
  const Matrix a = GenerateMatrix(spec);
  const Matrix b = GenerateMatrix(spec);
  EXPECT_TRUE(a.ApproxEquals(b));
}

TEST(GeneratorProperty, LabelsFollowModel) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "lbl";
  spec.rows = 200;
  spec.cols = 10;
  spec.sparsity = 0.5;
  spec.seed = 44;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  ASSERT_TRUE(catalog.Contains("lbl_b"));
  const Matrix b = catalog.Value("lbl_b").value();
  EXPECT_EQ(b.rows(), 200);
  EXPECT_EQ(b.cols(), 1);
}

/// Cost-model monotonicity: costs never decrease in any dimension or in
/// sparsity.
class CostMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(CostMonotonicityTest, MultiplySecondsMonotone) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 77);
  ClusterModel model;
  MatInfo a;
  a.rows = 1000 + static_cast<double>(rng.NextBounded(100000));
  a.cols = 8 + static_cast<double>(rng.NextBounded(512));
  a.sparsity = 0.001 + rng.NextDouble() * 0.5;
  a.distributed = rng.NextBounded(2) == 0;
  MatInfo b;
  b.rows = a.cols;
  b.cols = 1 + static_cast<double>(rng.NextBounded(256));
  b.sparsity = 0.001 + rng.NextDouble() * 0.5;
  b.distributed = rng.NextBounded(2) == 0;
  const double sp_out = rng.NextDouble();
  const OpCosting base = CostMultiply(a, b, sp_out, model);
  MatInfo bigger = a;
  bigger.rows *= 2;
  const OpCosting grown = CostMultiply(bigger, b, sp_out, model);
  // FLOPs are monotone unconditionally.
  EXPECT_GE(grown.flops, base.flops * 0.99);
  // Seconds are monotone within the same physical regime; crossing the
  // local->distributed boundary may legitimately *reduce* time (that is
  // SystemDS's dynamic switch working as intended).
  if (grown.method == base.method &&
      grown.result_distributed == base.result_distributed) {
    EXPECT_GE(grown.Seconds(model), base.Seconds(model) * 0.99);
  }
  MatInfo denser = a;
  denser.sparsity = std::min(1.0, a.sparsity * 2.0);
  const OpCosting dense_cost = CostMultiply(denser, b, sp_out, model);
  EXPECT_GE(dense_cost.flops, base.flops * 0.99);
  if (dense_cost.method == base.method &&
      dense_cost.result_distributed == base.result_distributed) {
    EXPECT_GE(dense_cost.Seconds(model), base.Seconds(model) * 0.99);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CostMonotonicityTest,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace remac
