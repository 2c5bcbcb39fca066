#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "data/generators.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"

namespace remac {
namespace {

DataCatalog ExecCatalog() {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 50;
  spec.cols = 6;
  spec.sparsity = 0.5;
  spec.seed = 9;
  EXPECT_TRUE(RegisterDataset(&catalog, spec).ok());
  return catalog;
}

Result<RtValue> RunAndGet(const std::string& script, const std::string& var,
                          const DataCatalog& catalog,
                          int max_iterations = 100) {
  auto program = CompileScript(script, catalog);
  if (!program.ok()) return program.status();
  Executor executor(ClusterModel(), &catalog, nullptr);
  REMAC_RETURN_NOT_OK(executor.Run(program->statements, max_iterations));
  return executor.Get(var);
}

TEST(Executor, ScalarArithmetic) {
  const DataCatalog catalog = ExecCatalog();
  auto v = RunAndGet("x = (2 + 3) * 4 - 6 / 3;\n", "x", catalog);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsScalar().value(), 18.0);
}

TEST(Executor, WhileLoopRunsUntilConditionFalse) {
  const DataCatalog catalog = ExecCatalog();
  auto v = RunAndGet("i = 0;\nwhile (i < 7) {\n  i = i + 1;\n}\n", "i",
                     catalog);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsScalar().value(), 7.0);
}

TEST(Executor, WhileLoopRespectsIterationCap) {
  const DataCatalog catalog = ExecCatalog();
  auto v = RunAndGet("i = 0;\nwhile (i < 1000) {\n  i = i + 1;\n}\n", "i",
                     catalog, /*max_iterations=*/5);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsScalar().value(), 5.0);
}

TEST(Executor, ForLoopCounts) {
  const DataCatalog catalog = ExecCatalog();
  auto v = RunAndGet("s = 0;\nfor (k in 1:4) {\n  s = s + k;\n}\n", "s",
                     catalog);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsScalar().value(), 10.0);
}

TEST(Executor, Generators) {
  const DataCatalog catalog = ExecCatalog();
  auto eye = RunAndGet("E = eye(3);\n", "E", catalog);
  ASSERT_TRUE(eye.ok());
  EXPECT_DOUBLE_EQ(eye->AsMatrix().At(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(eye->AsMatrix().At(0, 1), 0.0);
  auto ones = RunAndGet("O = ones(2, 3);\n", "O", catalog);
  ASSERT_TRUE(ones.ok());
  EXPECT_EQ(ones->AsMatrix().nnz(), 6);
  auto zeros = RunAndGet("Z = zeros(2, 2);\n", "Z", catalog);
  ASSERT_TRUE(zeros.ok());
  EXPECT_EQ(zeros->AsMatrix().nnz(), 0);
  auto rnd = RunAndGet("R = rand(4, 4);\n", "R", catalog);
  ASSERT_TRUE(rnd.ok());
  EXPECT_EQ(rnd->AsMatrix().nnz(), 16);  // strictly positive generator
}

// rand() is uniform on [0.1, 1.1), and each call draws its own stream.
TEST(Executor, RandIsUniformFromPointOneAndEachCallDiffers) {
  const DataCatalog catalog = ExecCatalog();
  auto program = CompileScript("R = rand(200, 50);\nS = rand(200, 50);\n",
                               catalog);
  ASSERT_TRUE(program.ok());
  Executor executor(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(executor.Run(program->statements).ok());
  const Matrix& r = executor.env().at("R").matrix;
  const Matrix& s = executor.env().at("S").matrix;
  double sum = 0.0;
  int64_t same = 0;
  for (int64_t i = 0; i < r.rows(); ++i) {
    for (int64_t j = 0; j < r.cols(); ++j) {
      const double v = r.At(i, j);
      ASSERT_GE(v, 0.1) << i << ", " << j;
      ASSERT_LT(v, 1.1) << i << ", " << j;
      sum += v;
      if (v == s.At(i, j)) ++same;
    }
  }
  // Mean 0.6; 10000 draws put the sample mean within 5 standard errors
  // (0.0029 each) of it.
  EXPECT_NEAR(sum / 10000.0, 0.6, 0.015);
  EXPECT_LT(same, 10);
}

TEST(Executor, MatrixScalarBroadcasts) {
  const DataCatalog catalog = ExecCatalog();
  auto v = RunAndGet("M = ones(2, 2);\nY = 2 * M + 1;\n", "Y", catalog);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsMatrix().At(0, 0), 3.0);
  auto w = RunAndGet("M = ones(2, 2);\nY = 1 - M;\n", "Y", catalog);
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(w->AsMatrix().At(1, 1), 0.0);
}

TEST(Executor, OneByOneMatrixActsAsScalar) {
  const DataCatalog catalog = ExecCatalog();
  // t(v) %*% v is a 1x1 matrix; dividing by it must work.
  auto v = RunAndGet("v = ones(3, 1);\nY = v / (t(v) %*% v);\n", "Y",
                     catalog);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v->AsMatrix().At(0, 0), 1.0 / 3.0, 1e-12);
}

TEST(Executor, SumNormNcolNrow) {
  const DataCatalog catalog = ExecCatalog();
  auto s = RunAndGet("M = ones(2, 3);\ny = sum(M);\n", "y", catalog);
  EXPECT_DOUBLE_EQ(s->AsScalar().value(), 6.0);
  auto n = RunAndGet("M = ones(2, 2);\ny = norm(M);\n", "y", catalog);
  EXPECT_DOUBLE_EQ(n->AsScalar().value(), 2.0);
  auto q = RunAndGet("y = sqrt(16) + abs(0 - 2);\n", "y", catalog);
  EXPECT_DOUBLE_EQ(q->AsScalar().value(), 6.0);
}

TEST(Executor, ScalarAndOneByOneExpLogAgreeBitwise) {
  // Scalars and 1x1 matrices are interchangeable: the scalar path applies
  // the same cell semantics (FusedApply) as the matrix kernels, so the
  // safe log maps 0 to 0 either way.
  const DataCatalog catalog = ExecCatalog();
  for (const std::string fn : {"exp", "log"}) {
    for (const std::string gen : {"zeros(1, 1)", "ones(1, 1)", "rand(1, 1)"}) {
      const std::string script = "M = " + gen + ";\na = " + fn +
                                 "(sum(M));\nb = sum(" + fn + "(M));\n";
      auto program = CompileScript(script, catalog);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      Executor executor(ClusterModel(), &catalog, nullptr);
      ASSERT_TRUE(executor.Run(program->statements).ok()) << script;
      const double a = executor.Get("a")->AsScalar().value();
      const double b = executor.Get("b")->AsScalar().value();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << script << a << " vs " << b;
    }
  }
}

TEST(Executor, ReadMarksDistributed) {
  const DataCatalog catalog = ExecCatalog();
  auto program = CompileScript("A = read(\"ds\");\n", catalog);
  ASSERT_TRUE(program.ok());
  Executor executor(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(executor.Run(program->statements).ok());
  EXPECT_TRUE(executor.Get("A")->distributed);
}

TEST(Executor, InputPartitionBookedOncePerDataset) {
  const DataCatalog catalog = ExecCatalog();
  auto program = CompileScript(
      "A = read(\"ds\");\nB = read(\"ds\");\n", catalog);
  ASSERT_TRUE(program.ok());
  ClusterModel model;
  TransmissionLedger ledger(model);
  Executor executor(model, &catalog, &ledger);
  executor.set_count_input_partition(true);
  ASSERT_TRUE(executor.Run(program->statements).ok());
  const double once = ledger.Breakdown().input_partition_seconds;
  EXPECT_GT(once, 0.0);
  // A second read of the same dataset books nothing extra.
  auto again = CompileScript("C = read(\"ds\");\n", catalog);
  ASSERT_TRUE(executor.Run(again->statements).ok());
  EXPECT_DOUBLE_EQ(ledger.Breakdown().input_partition_seconds, once);
}

TEST(Executor, BarrierCommitUsesStartOfIterationValues) {
  const DataCatalog catalog = ExecCatalog();
  auto program = CompileScript(
      "a = 1;\nb = 10;\ni = 0;\n"
      "while (i < 1) {\n  a = b;\n  b = a;\n  i = i + 1;\n}\n",
      catalog);
  ASSERT_TRUE(program.ok());
  // Sequential: a=10, b=10. Barrier-commit: a=10, b=1 (old a).
  for (auto& stmt : program->statements) {
    if (stmt.kind == CompiledStmt::Kind::kLoop) stmt.barrier_commit = true;
  }
  Executor executor(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(executor.Run(program->statements).ok());
  EXPECT_DOUBLE_EQ(executor.Get("a")->AsScalar().value(), 10.0);
  EXPECT_DOUBLE_EQ(executor.Get("b")->AsScalar().value(), 1.0);
}

TEST(Executor, UndefinedVariableError) {
  const DataCatalog catalog = ExecCatalog();
  PlanNodePtr bad = MakeInput("ghost", Shape{2, 2, false});
  Executor executor(ClusterModel(), &catalog, nullptr);
  EXPECT_EQ(executor.Eval(*bad).status().code(), StatusCode::kNotFound);
}

TEST(Executor, LedgerAccumulatesDuringExecution) {
  const DataCatalog catalog = ExecCatalog();
  auto program = CompileScript(
      "A = read(\"ds\");\nv = ones(6, 1);\nw = A %*% v;\n", catalog);
  ASSERT_TRUE(program.ok());
  ClusterModel model;
  TransmissionLedger ledger(model);
  Executor executor(model, &catalog, &ledger);
  ASSERT_TRUE(executor.Run(program->statements).ok());
  EXPECT_GT(ledger.TotalSeconds(), 0.0);
  EXPECT_GT(executor.ops_executed(), 0);
}

/// 37 x 23 dense cells with +-0.0, NaN and +-Inf among Gaussian values.
Matrix SpecialCells() {
  DenseMatrix m(37, 23);
  for (int64_t i = 0; i < m.size(); ++i) {
    double v = std::sin(static_cast<double>(i) * 0.7) * 3.0;
    if (i % 5 == 1) v = 0.0;
    if (i % 5 == 3) v = -0.0;
    if (i % 41 == 2) v = std::numeric_limits<double>::quiet_NaN();
    if (i % 43 == 4) v = std::numeric_limits<double>::infinity();
    if (i % 47 == 6) v = -std::numeric_limits<double>::infinity();
    m.data()[i] = v;
  }
  return Matrix::WrapDense(std::move(m));
}

/// Dense and bit-identical, except that any two NaNs match: when both
/// addends are NaN the compiler may commute the add, so which payload
/// survives is not fixed by the source.
bool SameBits(const Matrix& got, const DenseMatrix& want) {
  if (!got.is_dense() || got.rows() != want.rows() ||
      got.cols() != want.cols()) {
    return false;
  }
  for (int64_t i = 0; i < want.size(); ++i) {
    const double g = got.dense().data()[i];
    const double w = want.data()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    if (std::memcmp(&g, &w, sizeof(double)) != 0) return false;
  }
  return true;
}

TEST(Executor, LineSumsOfDenseOperandMatchCsrSumsBitwise) {
  DataCatalog catalog;
  const Matrix x = SpecialCells();
  catalog.Register("X", x);
  auto program = CompileScript(
      "r = rowSums(read(\"X\"));\nc = colSums(read(\"X\"));\n", catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Executor executor(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(executor.Run(program->statements).ok());
  // Reference: the sums over the stored entries of a CSR copy.
  const CsrMatrix csr = CsrMatrix::FromDense(x.dense());
  DenseMatrix rows(x.rows(), 1);
  DenseMatrix cols(1, x.cols());
  for (int64_t r = 0; r < csr.rows(); ++r) {
    for (int64_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
      rows.At(r, 0) += csr.values()[k];
      cols.At(0, csr.col_idx()[k]) += csr.values()[k];
    }
  }
  EXPECT_TRUE(SameBits(executor.Get("r")->AsMatrix(), rows));
  EXPECT_TRUE(SameBits(executor.Get("c")->AsMatrix(), cols));
}

TEST(Executor, BroadcastsAndExpMatchCopyThenModify) {
  DataCatalog catalog;
  const Matrix x = SpecialCells();
  catalog.Register("X", x);
  const struct {
    const char* expr;
    double (*cell)(double);
  } cases[] = {
      {"read(\"X\") + 2.5", [](double v) { return v + 2.5; }},
      {"2.5 + read(\"X\")", [](double v) { return v + 2.5; }},
      {"read(\"X\") - 2.5", [](double v) { return v - 2.5; }},
      {"2.5 - read(\"X\")", [](double v) { return 2.5 - v; }},
      {"2.5 / read(\"X\")",
       [](double v) { return v == 0.0 ? 0.0 : 2.5 / v; }},
      {"min(read(\"X\"), 0.5)",
       [](double v) { return 0.5 < v ? 0.5 : v; }},
      {"max(0.5, read(\"X\"))",
       [](double v) { return v > 0.5 ? v : 0.5; }},
      {"exp(read(\"X\"))", [](double v) { return std::exp(v); }},
  };
  for (const auto& c : cases) {
    auto program =
        CompileScript(std::string("y = ") + c.expr + ";\n", catalog);
    ASSERT_TRUE(program.ok()) << c.expr;
    Executor executor(ClusterModel(), &catalog, nullptr);
    ASSERT_TRUE(executor.Run(program->statements).ok()) << c.expr;
    DenseMatrix want = x.dense();
    for (int64_t i = 0; i < want.size(); ++i) {
      want.data()[i] = c.cell(want.data()[i]);
    }
    const Matrix got = executor.Get("y")->AsMatrix();
    EXPECT_EQ(got.nnz(), want.CountNonZeros()) << c.expr;
    EXPECT_TRUE(SameBits(got, want)) << c.expr;
  }
}

}  // namespace
}  // namespace remac
