#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "matrix/fused_tape.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"
#include "plan/fusion.h"
#include "runtime/program_runner.h"
#include "service/matcache/intermediate_key.h"

/// Elementwise-fusion tests (ISSUE 10): the tape interpreter is
/// bitwise-identical to the unfused kernel sequence, the plan pass fuses
/// exactly the maximal same-shape elementwise regions (and nothing across
/// barriers), results are invariant under thread count and the
/// fuse_elementwise flag, and the executor's buffer-steal path plus the
/// remac.fusion.* counters fire. Suites are named Fusion* so
/// scripts/check.sh runs them under TSan/ASan/UBSan.

namespace remac {
namespace {

Matrix RandomDense(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return Matrix::WrapDense(std::move(m));
}

/// Exact same-format equality (memcmp on the payload).
::testing::AssertionResult BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.is_dense() != b.is_dense()) {
    return ::testing::AssertionFailure() << "format mismatch";
  }
  if (a.is_dense()) {
    const int64_t bytes =
        a.dense().size() * static_cast<int64_t>(sizeof(double));
    if (bytes > 0 &&
        std::memcmp(a.dense().data(), b.dense().data(), bytes) != 0) {
      return ::testing::AssertionFailure() << "dense payload differs";
    }
    return ::testing::AssertionSuccess();
  }
  const CsrMatrix& sa = a.csr();
  const CsrMatrix& sb = b.csr();
  if (sa.row_ptr() != sb.row_ptr() || sa.col_idx() != sb.col_idx()) {
    return ::testing::AssertionFailure() << "csr structure differs";
  }
  if (sa.nnz() > 0 && std::memcmp(sa.values().data(), sb.values().data(),
                                  sa.nnz() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "csr values differ";
  }
  return ::testing::AssertionSuccess();
}

/// Exact cell-wise equality across storage formats (fused CSR regions may
/// legitimately come back dense when structures diverge; the values must
/// still match exactly, no tolerance).
::testing::AssertionResult SameValues(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (a.At(r, c) != b.At(r, c)) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << "): " << a.At(r, c) << " vs "
               << b.At(r, c);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

int CountFusedNodes(const PlanNode& node) {
  int count = node.op == PlanOp::kFusedMap ? 1 : 0;
  for (const auto& child : node.children) count += CountFusedNodes(*child);
  return count;
}

int CountFusedNodes(const std::vector<CompiledStmt>& statements) {
  int count = 0;
  for (const auto& stmt : statements) {
    if (stmt.plan != nullptr) count += CountFusedNodes(*stmt.plan);
    if (stmt.condition != nullptr) count += CountFusedNodes(*stmt.condition);
    count += CountFusedNodes(stmt.body);
  }
  return count;
}

DataCatalog FusionCatalog() {
  DataCatalog catalog;
  DatasetSpec a;
  a.name = "a";
  a.rows = 40;
  a.cols = 30;
  a.sparsity = 0.9;
  a.seed = 11;
  EXPECT_TRUE(RegisterDataset(&catalog, a).ok());
  DatasetSpec b = a;
  b.name = "b";
  b.seed = 12;
  EXPECT_TRUE(RegisterDataset(&catalog, b).ok());
  DatasetSpec s = a;
  s.name = "sp";
  s.sparsity = 0.05;
  s.seed = 13;
  EXPECT_TRUE(RegisterDataset(&catalog, s).ok());
  DatasetSpec s2 = s;
  s2.name = "sp2";
  s2.seed = 14;
  EXPECT_TRUE(RegisterDataset(&catalog, s2).ok());
  return catalog;
}

/// Runs `script` fused and unfused under the same config and checks every
/// requested variable for exact value equality; returns the fused report.
RunReport RunFusedVsUnfused(const std::string& script,
                            const DataCatalog& catalog,
                            const std::vector<std::string>& vars,
                            OptimizerKind optimizer = OptimizerKind::kAsWritten) {
  RunConfig fused_config;
  fused_config.optimizer = optimizer;
  fused_config.max_iterations = 5;
  RunConfig unfused_config = fused_config;
  unfused_config.fuse_elementwise = false;
  auto fused = RunScript(script, catalog, fused_config);
  auto unfused = RunScript(script, catalog, unfused_config);
  EXPECT_TRUE(fused.ok()) << script << fused.status().ToString();
  EXPECT_TRUE(unfused.ok()) << script << unfused.status().ToString();
  if (fused.ok() && unfused.ok()) {
    EXPECT_EQ(CountFusedNodes(unfused->optimized_program->statements), 0);
    for (const std::string& var : vars) {
      EXPECT_TRUE(SameValues(fused->env.at(var).AsMatrix(),
                             unfused->env.at(var).AsMatrix()))
          << "variable " << var << " for script:\n" << script;
    }
  }
  return fused.ok() ? std::move(fused).value() : RunReport{};
}

struct ThreadGuard {
  ~ThreadGuard() { SetKernelThreads(0); }
};

// ---------------------------------------------------------------------------
// Tape interpreter unit tests
// ---------------------------------------------------------------------------

/// The bench/pass chain max((a + b) * a - b, a) as a tape (DFS input
/// occurrences, no dedup).
FusedTape ChainTape(int64_t rows, int64_t cols) {
  FusedTape tape;
  tape.rows = rows;
  tape.cols = cols;
  tape.num_inputs = 5;
  tape.input_scalar.assign(5, 0);
  tape.steps = {{FusedOp::kAdd, 0, 1},
                {FusedOp::kMul, 5, 2},
                {FusedOp::kSub, 6, 3},
                {FusedOp::kMax, 7, 4}};
  return tape;
}

TEST(FusionTape, ToStringIsCanonical) {
  const FusedTape tape = ChainTape(4, 3);
  EXPECT_EQ(tape.ToString(),
            "M,M,M,M,M|t0=add(i0,i1);t1=mul(t0,i2);t2=sub(t1,i3);"
            "t3=max(t2,i4)");
}

TEST(FusionTape, DenseExecutionMatchesUnfusedKernels) {
  const Matrix a = RandomDense(33, 17, 1);
  const Matrix b = RandomDense(33, 17, 2);
  auto exec = ExecuteFusedTape(ChainTape(33, 17), {a, b, a, b, a}, {});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  const Matrix t0 = Add(a, b).value();
  const Matrix t1 = ElementwiseMultiply(t0, a).value();
  const Matrix t2 = Subtract(t1, b).value();
  const Matrix expected = ElementwiseMax(t2, a).value();
  EXPECT_TRUE(BitwiseEqual(exec->output, expected));
  EXPECT_FALSE(exec->csr_path);
  // Shared input handles: nothing to steal.
  EXPECT_FALSE(exec->in_place);
  // Per-step nnz is exact (the final step's count matches the output).
  ASSERT_EQ(exec->step_nnz.size(), 4u);
  EXPECT_EQ(exec->step_nnz[3], exec->output.nnz());
  EXPECT_EQ(exec->step_nnz[0], t0.nnz());
}

TEST(FusionTape, CsrValueArrayFastPath) {
  // One CSR operand used on both sides shares its structure with itself:
  // the tape runs over the stored values only.
  Rng rng(7);
  DenseMatrix d(20, 15);
  for (int64_t i = 0; i < d.size(); ++i) {
    if (rng.NextDouble() < 0.2) d.data()[i] = rng.NextGaussian();
  }
  const Matrix m = Matrix::WrapCsr(CsrMatrix::FromDense(d));
  FusedTape tape;
  tape.rows = 20;
  tape.cols = 15;
  tape.num_inputs = 3;
  tape.input_scalar = {0, 0, 1};
  tape.steps = {{FusedOp::kMul, 0, 1}, {FusedOp::kMul, 3, 2}};
  auto exec = ExecuteFusedTape(tape, {m, m}, {2.0});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_TRUE(exec->csr_path);
  EXPECT_FALSE(exec->output.is_dense());
  const Matrix squared = ElementwiseMultiply(m, m).value();
  for (int64_t r = 0; r < 20; ++r) {
    for (int64_t c = 0; c < 15; ++c) {
      EXPECT_EQ(exec->output.At(r, c), 2.0 * squared.At(r, c));
    }
  }
}

TEST(FusionTape, NonZeroZeroImageFallsBackToDense) {
  Rng rng(8);
  DenseMatrix d(12, 12);
  for (int64_t i = 0; i < d.size(); ++i) {
    if (rng.NextDouble() < 0.2) d.data()[i] = rng.NextGaussian();
  }
  const Matrix m = Matrix::WrapCsr(CsrMatrix::FromDense(d));
  // m * m + 1 densifies: cells outside the structure become 1.
  FusedTape tape;
  tape.rows = 12;
  tape.cols = 12;
  tape.num_inputs = 3;
  tape.input_scalar = {0, 0, 1};
  tape.steps = {{FusedOp::kMul, 0, 1}, {FusedOp::kAdd, 3, 2}};
  auto exec = ExecuteFusedTape(tape, {m, m}, {1.0});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_FALSE(exec->csr_path);
  EXPECT_TRUE(exec->output.is_dense());
  EXPECT_EQ(exec->output.At(0, 0), m.At(0, 0) * m.At(0, 0) + 1.0);
}

TEST(FusionTape, StealsUniquelyOwnedDenseInput) {
  FusedTape tape;
  tape.rows = 9;
  tape.cols = 9;
  tape.num_inputs = 2;
  tape.input_scalar = {0, 0};
  tape.steps = {{FusedOp::kAdd, 0, 1}, {FusedOp::kMul, 2, 0}};
  const Matrix shared = RandomDense(9, 9, 3);
  // Reference run with shared handles (no steal possible).
  auto reference = ExecuteFusedTape(tape, {shared, shared}, {});
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(reference->in_place);
  // Same values through a uniquely-owned first operand: stolen, identical.
  std::vector<Matrix> inputs;
  inputs.push_back(RandomDense(9, 9, 3));
  inputs.push_back(shared);
  auto stolen = ExecuteFusedTape(tape, std::move(inputs), {});
  ASSERT_TRUE(stolen.ok());
  EXPECT_TRUE(stolen->in_place);
  EXPECT_TRUE(BitwiseEqual(stolen->output, reference->output));
}

TEST(FusionTape, ThreadCountNeverChangesBits) {
  ThreadGuard guard;
  const Matrix a = RandomDense(47, 61, 4);
  const Matrix b = RandomDense(47, 61, 5);
  const FusedTape tape = ChainTape(47, 61);
  SetKernelThreads(1);
  auto one = ExecuteFusedTape(tape, {a, b, a, b, a}, {});
  ASSERT_TRUE(one.ok());
  for (int threads : {2, 8}) {
    SetKernelThreads(threads);
    auto many = ExecuteFusedTape(tape, {a, b, a, b, a}, {});
    ASSERT_TRUE(many.ok());
    EXPECT_TRUE(BitwiseEqual(many->output, one->output))
        << threads << " threads";
    EXPECT_EQ(many->step_nnz, one->step_nnz) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Plan pass: what fuses and what stays apart
// ---------------------------------------------------------------------------

TEST(FusionPass, FusesChainAndStaysBitwiseIdentical) {
  const DataCatalog catalog = FusionCatalog();
  const RunReport fused = RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "Y = max(A + B, A * B) - A / (B + 3);\n",
      catalog, {"Y"});
  ASSERT_NE(fused.optimized_program, nullptr);
  EXPECT_GE(CountFusedNodes(fused.optimized_program->statements), 1);
}

TEST(FusionPass, MinMaxWithScalarBroadcastAndSparseOperands) {
  const DataCatalog catalog = FusionCatalog();
  RunFusedVsUnfused(
      "S = read(\"sp\");\n"
      "T = read(\"sp2\");\n"
      "Y = min(S, 0.5) + max(S, T) * 2;\n"
      "Z = max(0 - S, S) - min(S * T, S);\n",
      catalog, {"Y", "Z"});
}

TEST(FusionPass, MinMaxSemantics) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "A = read(\"a\");\n"
      "L = min(A, 0.25);\n"
      "H = max(A, 0.25);\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Matrix a = run->env.at("A").AsMatrix();
  const Matrix low = run->env.at("L").AsMatrix();
  const Matrix high = run->env.at("H").AsMatrix();
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(low.At(r, c), FusedApply(FusedOp::kMin, a.At(r, c), 0.25));
      EXPECT_EQ(high.At(r, c), FusedApply(FusedOp::kMax, a.At(r, c), 0.25));
    }
  }
}

TEST(FusionPass, SingleOpDoesNotFuse) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "A = read(\"a\");\nB = read(\"b\");\nY = A + B;\n", catalog, config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(CountFusedNodes(run->optimized_program->statements), 0);
}

TEST(FusionPass, ScalarArithmeticDoesNotFuse) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript("x = 2 + 3 * 4 - 1;\n", catalog, config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(CountFusedNodes(run->optimized_program->statements), 0);
  EXPECT_DOUBLE_EQ(run->env.at("x").AsScalar().value(), 13.0);
}

TEST(FusionPass, MultiplyIsABarrierButItsResultIsAnInput) {
  const DataCatalog catalog = FusionCatalog();
  const RunReport fused = RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "Y = (A %*% t(B)) * 2 + (A %*% t(B));\n",
      catalog, {"Y"});
  ASSERT_NE(fused.optimized_program, nullptr);
  // The elementwise ops fuse; the multiplies survive as region inputs.
  const auto& statements = fused.optimized_program->statements;
  EXPECT_GE(CountFusedNodes(statements), 1);
  bool matmul_under_fused = false;
  for (const auto& stmt : statements) {
    if (stmt.plan == nullptr || stmt.plan->op != PlanOp::kFusedMap) continue;
    for (const auto& child : stmt.plan->children) {
      if (child->op == PlanOp::kMatMul) matmul_under_fused = true;
    }
  }
  EXPECT_TRUE(matmul_under_fused);
}

TEST(FusionPass, RandIsABarrierButItsResultIsAnInput) {
  const DataCatalog catalog = FusionCatalog();
  const RunReport fused = RunFusedVsUnfused(
      "R = rand(40, 30);\n"
      "A = read(\"a\");\n"
      "Y = (R + A) * R - A;\n",
      catalog, {"Y"});
  ASSERT_NE(fused.optimized_program, nullptr);
  EXPECT_GE(CountFusedNodes(fused.optimized_program->statements), 1);
}

TEST(FusionPass, LoopBodiesFuseAndIterate) {
  const DataCatalog catalog = FusionCatalog();
  RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "X = A;\n"
      "i = 0;\n"
      "while (i < 3) {\n"
      "  X = max(X + B, X * 0.5) - B / 7;\n"
      "  i = i + 1;\n"
      "}\n",
      catalog, {"X"});
}

TEST(FusionPass, AdaptiveOptimizerPipelineStaysIdentical) {
  const DataCatalog catalog = FusionCatalog();
  RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "G = t(A) %*% A;\n"
      "Y = (G + t(G)) * 0.5 - G / 3;\n",
      catalog, {"Y"}, OptimizerKind::kRemacAdaptive);
}

TEST(FusionPass, TreeRewriteSharesUntouchedSubtrees) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  auto compiled = CompileScript(
      "A = read(\"a\");\nB = read(\"b\");\nY = A %*% t(B);\n", catalog);
  ASSERT_TRUE(compiled.ok());
  // Nothing fusable: the rewrite must return the identical plan pointers.
  for (const auto& stmt : compiled->statements) {
    if (stmt.plan == nullptr) continue;
    FusionReport report;
    PlanNodePtr rewritten = FuseElementwiseTree(stmt.plan, &report);
    EXPECT_EQ(rewritten.get(), stmt.plan.get());
    EXPECT_EQ(report.regions, 0);
  }
}

// ---------------------------------------------------------------------------
// Randomized chains (chaos seeds): fused == unfused, exactly
// ---------------------------------------------------------------------------

std::string RandomChain(Rng* rng, int depth) {
  if (depth == 0) {
    switch (rng->NextBounded(4)) {
      case 0: return "A";
      case 1: return "B";
      case 2: return "S";
      default: return "0.75";
    }
  }
  const std::string lhs = RandomChain(rng, depth - 1);
  const std::string rhs = RandomChain(rng, depth - 1);
  switch (rng->NextBounded(6)) {
    case 0: return "(" + lhs + " + " + rhs + ")";
    case 1: return "(" + lhs + " - " + rhs + ")";
    case 2: return "(" + lhs + " * " + rhs + ")";
    case 3: return "(" + lhs + " / (" + rhs + " + 2))";
    case 4: return "min(" + lhs + ", " + rhs + ")";
    default: return "max(" + lhs + ", " + rhs + ")";
  }
}

class FusionChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(FusionChaosTest, RandomChainsAreInvariantUnderFusion) {
  const DataCatalog catalog = FusionCatalog();
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  std::string script =
      "A = read(\"a\");\nB = read(\"b\");\nS = read(\"sp\");\n";
  for (int s = 0; s < 3; ++s) {
    script += StringFormat("Y%d = ", s) + RandomChain(&rng, 3) + ";\n";
  }
  RunFusedVsUnfused(script, catalog, {"Y0", "Y1", "Y2"});
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionChaosTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Executor integration: buffer steal + metrics
// ---------------------------------------------------------------------------

TEST(FusionExec, SelfUpdateStealsTheDyingBuffer) {
  const DataCatalog catalog = FusionCatalog();
  Counter* in_place =
      MetricsRegistry::Global().GetCounter("remac.fusion.in_place_hits");
  const int64_t before = in_place->Value();
  // X dies into its own update: the fused region runs inside X's buffer.
  RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "X = A + 0;\n"
      "X = (X + A) * 2 - A;\n",
      catalog, {"X"});
  EXPECT_GT(in_place->Value(), before);
}

TEST(FusionExec, CountersAdvanceOnAFusedRun) {
  const DataCatalog catalog = FusionCatalog();
  auto* registry = &MetricsRegistry::Global();
  Counter* regions = registry->GetCounter("remac.fusion.regions");
  Counter* ops = registry->GetCounter("remac.fusion.ops_fused");
  Counter* bytes = registry->GetCounter("remac.fusion.bytes_avoided");
  const int64_t regions_before = regions->Value();
  const int64_t ops_before = ops->Value();
  const int64_t bytes_before = bytes->Value();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "Y = max(A + B, A) * B - A / 5;\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(regions->Value(), regions_before);
  // A 4-op region: ops_fused advances by >= 4, and every interior step's
  // materialization is counted as avoided bytes.
  EXPECT_GE(ops->Value() - ops_before, 4);
  EXPECT_GT(bytes->Value(), bytes_before);
}

TEST(FusionExec, AuditStillReconcilesFlopsUnderFusion) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "Y = (A + B) * A - B / 2;\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The audit's plan walk books the fused region step by step; with the
  // exact per-step sparsities booked by the executor the FLOP sides
  // cannot drift by more than estimation error on these dense operands.
  EXPECT_GT(run->audit.flops.actual, 0.0);
  EXPECT_GT(run->audit.flops.predicted, 0.0);
}

// ---------------------------------------------------------------------------
// MatCache: fused pure-read chains are candidates
// ---------------------------------------------------------------------------

TEST(FusionMatCache, PureReadFusedChainBecomesACandidate) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "Y = (read(\"a\") + read(\"b\")) * read(\"a\") - read(\"b\");\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const auto candidates = ExtractIntermediateCandidates(
      *run->optimized_program, catalog, config);
  bool found = false;
  for (const auto& candidate : candidates) {
    if (candidate.node->op != PlanOp::kFusedMap) continue;
    found = true;
    // The canonical key embeds the tape, and both datasets invalidate it.
    EXPECT_NE(candidate.window_key.find("t0="), std::string::npos);
    EXPECT_EQ(candidate.datasets,
              (std::vector<std::string>{"a", "b"}));
    EXPECT_GT(candidate.predicted_flops, 0.0);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace remac
