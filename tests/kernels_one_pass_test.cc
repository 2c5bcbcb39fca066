#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "matrix/fused_tape.h"
#include "matrix/kernels.h"

/// One-pass dense result construction (docs/INTERNALS.md Section 12): the
/// dense cell-wise kernels read dense operands in place and count
/// non-zeros as they store. Each one must equal the copy-then-modify
/// construction it replaced (densify both operands, overwrite the left
/// copy, rescan for nnz): same format, exact nnz(), bit-identical payload.
/// Suites are named Kernels* so scripts/check.sh runs them under
/// TSan/ASan/UBSan.

namespace remac {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Gaussian cells, `zero_frac` of them zero (every other one -0.0), with
/// NaN, +Inf and -Inf planted at fixed strides when `specials` is set.
/// `dense` keeps the dense format; otherwise the cells are stored as CSR
/// (which drops the -0.0 cells, as CsrMatrix::FromDense does).
Matrix Cells(int64_t rows, int64_t cols, double zero_frac, uint64_t seed,
             bool dense, bool specials = true) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  int64_t zeros = 0;
  for (int64_t i = 0; i < m.size(); ++i) {
    double v = rng.NextGaussian();
    if (rng.NextDouble() < zero_frac) v = (zeros++ % 2 == 0) ? 0.0 : -0.0;
    if (specials && i % 97 == 13) v = kNaN;
    if (specials && i % 89 == 7) v = kInf;
    if (specials && i % 83 == 5) v = -kInf;
    m.data()[i] = v;
  }
  if (dense) return Matrix::WrapDense(std::move(m));
  return Matrix::WrapCsr(CsrMatrix::FromDense(m));
}

/// Same storage format, exact nnz(), same structure and memcmp-identical
/// values (so -0.0 vs 0.0 or a different NaN payload fails).
::testing::AssertionResult Identical(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  if (got.is_dense() != want.is_dense()) {
    return ::testing::AssertionFailure()
           << "format differs: " << (got.is_dense() ? "dense" : "csr")
           << " vs " << (want.is_dense() ? "dense" : "csr");
  }
  if (got.nnz() != want.nnz()) {
    return ::testing::AssertionFailure()
           << "nnz " << got.nnz() << " vs " << want.nnz();
  }
  if (got.is_dense()) {
    const size_t bytes = static_cast<size_t>(got.dense().size()) *
                         sizeof(double);
    if (bytes > 0 &&
        std::memcmp(got.dense().data(), want.dense().data(), bytes) != 0) {
      return ::testing::AssertionFailure() << "dense payload differs";
    }
    return ::testing::AssertionSuccess();
  }
  const CsrMatrix& g = got.csr();
  const CsrMatrix& w = want.csr();
  if (g.row_ptr() != w.row_ptr() || g.col_idx() != w.col_idx()) {
    return ::testing::AssertionFailure() << "csr structure differs";
  }
  if (g.nnz() > 0 &&
      std::memcmp(g.values().data(), w.values().data(),
                  static_cast<size_t>(g.nnz()) * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "csr values differ";
  }
  return ::testing::AssertionSuccess();
}

/// The construction the one-pass kernels replaced.
template <typename Op>
Matrix CopyThenModify(const Matrix& a, const Matrix& b, Op op) {
  DenseMatrix da = a.ToDense();
  const DenseMatrix db = b.ToDense();
  for (int64_t i = 0; i < da.size(); ++i) {
    da.data()[i] = op(da.data()[i], db.data()[i]);
  }
  return Matrix::FromDense(std::move(da));
}

template <typename F>
Matrix CopyThenModify(const Matrix& a, F f) {
  DenseMatrix da = a.ToDense();
  for (int64_t i = 0; i < da.size(); ++i) da.data()[i] = f(da.data()[i]);
  return Matrix::FromDense(std::move(da));
}

struct ThreadGuard {
  ~ThreadGuard() { SetKernelThreads(0); }
};

struct BinaryKernel {
  const char* name;
  Result<Matrix> (*kernel)(const Matrix&, const Matrix&);
  double (*cell)(double, double);
};

const BinaryKernel kBinaryKernels[] = {
    {"add", Add, [](double x, double y) { return x + y; }},
    {"subtract", Subtract, [](double x, double y) { return x - y; }},
    {"multiply", ElementwiseMultiply, [](double x, double y) { return x * y; }},
    {"divide", ElementwiseDivide,
     [](double x, double y) { return y == 0.0 ? 0.0 : x / y; }},
    {"min", ElementwiseMin,
     [](double x, double y) { return FusedApply(FusedOp::kMin, x, y); }},
    {"max", ElementwiseMax,
     [](double x, double y) { return FusedApply(FusedOp::kMax, x, y); }},
};

/// Shapes: empty both ways, 1x1, small, and one past the parallel grain
/// (40800 cells) so 2 and 4 threads really split the flat range.
const std::pair<int64_t, int64_t> kShapes[] = {
    {0, 0}, {0, 7}, {7, 0}, {1, 1}, {3, 5}, {240, 170}};

class KernelsOnePassTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetKernelThreads(GetParam()); }
  ThreadGuard guard_;
};

TEST_P(KernelsOnePassTest, ElementwiseMatchesCopyThenModify) {
  uint64_t seed = 1;
  for (const auto& [rows, cols] : kShapes) {
    // (dense a, dense b, zero fraction of b): the 0.7-zero right operand
    // takes .* and min results under the 0.4 CSR threshold.
    for (const auto& [a_dense, b_dense, b_zeros] :
         {std::tuple{true, true, 0.2}, std::tuple{true, true, 0.7},
          std::tuple{true, false, 0.7}, std::tuple{false, true, 0.2}}) {
      const Matrix a = Cells(rows, cols, 0.3, seed++, a_dense);
      const Matrix b = Cells(rows, cols, b_zeros, seed++, b_dense);
      for (const BinaryKernel& k : kBinaryKernels) {
        const std::string where = std::string(k.name) + " " +
                                  std::to_string(rows) + "x" +
                                  std::to_string(cols) + " a_dense=" +
                                  std::to_string(a_dense) + " b_dense=" +
                                  std::to_string(b_dense);
        EXPECT_TRUE(Identical(k.kernel(a, b).value(),
                              CopyThenModify(a, b, k.cell)))
            << where;
        // The same dense matrix on both sides (V = X * X reads one
        // buffer).
        if (a_dense) {
          EXPECT_TRUE(Identical(k.kernel(a, a).value(),
                                CopyThenModify(a, a, k.cell)))
              << where << " aliased";
        }
      }
    }
  }
}

/// The push_back merge that ElementwiseBinary ran before its CSR x CSR
/// branch wrote through raw pointers: one push_back per stored cell.
template <typename Op>
Matrix PushBackMerge(const CsrMatrix& sa, const CsrMatrix& sb, Op op) {
  CsrMatrix out(sa.rows(), sa.cols());
  for (int64_t r = 0; r < sa.rows(); ++r) {
    int64_t pa = sa.row_ptr()[r];
    int64_t pb = sb.row_ptr()[r];
    while (pa < sa.row_ptr()[r + 1] || pb < sb.row_ptr()[r + 1]) {
      const int32_t ca =
          pa < sa.row_ptr()[r + 1] ? sa.col_idx()[pa] : INT32_MAX;
      const int32_t cb =
          pb < sb.row_ptr()[r + 1] ? sb.col_idx()[pb] : INT32_MAX;
      const int32_t col = std::min(ca, cb);
      const double va = ca == col ? sa.values()[pa++] : 0.0;
      const double vb = cb == col ? sb.values()[pb++] : 0.0;
      const double v = op(va, vb);
      if (v != 0.0) {
        out.mutable_col_idx().push_back(col);
        out.mutable_values().push_back(v);
      }
    }
    out.mutable_row_ptr()[r + 1] = out.nnz();
  }
  return Matrix::FromCsr(std::move(out));
}

/// Two CSR operands take the merge path: same structure, bits and format
/// as the push_back merge, with cancellations (a - a, overlapping
/// patterns) dropping cells, for every elementwise op and shape.
TEST_P(KernelsOnePassTest, CsrMergeMatchesPushBackMerge) {
  uint64_t seed = 70;
  for (const auto& [rows, cols] : kShapes) {
    for (const double b_zeros : {0.5, 0.9}) {
      const Matrix a = Cells(rows, cols, 0.7, seed++, false);
      const Matrix b = Cells(rows, cols, b_zeros, seed++, false);
      for (const BinaryKernel& k : kBinaryKernels) {
        const std::string where = std::string(k.name) + " " +
                                  std::to_string(rows) + "x" +
                                  std::to_string(cols) +
                                  " b_zeros=" + std::to_string(b_zeros);
        EXPECT_TRUE(Identical(k.kernel(a, b).value(),
                              PushBackMerge(a.csr(), b.csr(), k.cell)))
            << where;
        EXPECT_TRUE(Identical(k.kernel(a, a).value(),
                              PushBackMerge(a.csr(), a.csr(), k.cell)))
            << where << " aliased";
      }
    }
  }
  // Results that cancel most cells (a - a, and .* over patterns that
  // barely overlap) keep at most twice their cells' worth of array, as the
  // push_back merge did.
  for (const auto& [rows, cols] : kShapes) {
    const Matrix a = Cells(rows, cols, 0.5, seed++, false);
    const Matrix b = Cells(rows, cols, 0.9, seed++, false);
    const struct {
      const char* name;
      Matrix got;
      Matrix want;
    } cancelled[] = {
        {"a - a", Subtract(a, a).value(),
         PushBackMerge(a.csr(), a.csr(), kBinaryKernels[1].cell)},
        {"a .* b", ElementwiseMultiply(a, b).value(),
         PushBackMerge(a.csr(), b.csr(), kBinaryKernels[2].cell)}};
    for (const auto& [name, got, want] : cancelled) {
      const std::string where =
          std::string(name) + " " + std::to_string(rows) + "x" +
          std::to_string(cols);
      EXPECT_TRUE(Identical(got, want)) << where;
      ASSERT_FALSE(got.is_dense()) << where;
      const CsrMatrix& csr = got.csr();
      const size_t cells = static_cast<size_t>(csr.nnz());
      EXPECT_LE(csr.col_idx().capacity(), 2 * cells) << where;
      EXPECT_LE(csr.values().capacity(), 2 * cells) << where;
    }
  }
}

TEST_P(KernelsOnePassTest, ElementwiseCrossesTheCsrThreshold) {
  // 70% zeros in b: the dense .* product is stored as CSR, the sum stays
  // dense.
  const Matrix a = Cells(240, 170, 0.0, 11, true, /*specials=*/false);
  const Matrix b = Cells(240, 170, 0.7, 12, true, /*specials=*/false);
  const Matrix product = ElementwiseMultiply(a, b).value();
  EXPECT_FALSE(product.is_dense());
  EXPECT_TRUE(Identical(product, CopyThenModify(a, b, kBinaryKernels[2].cell)));
  const Matrix sum = Add(a, b).value();
  EXPECT_TRUE(sum.is_dense());
  EXPECT_TRUE(Identical(sum, CopyThenModify(a, b, kBinaryKernels[0].cell)));
}

TEST_P(KernelsOnePassTest, ScalarKernelsMatchCopyThenModify) {
  uint64_t seed = 100;
  for (const auto& [rows, cols] : kShapes) {
    for (bool dense : {true, false}) {
      const Matrix a = Cells(rows, cols, 0.3, seed++, dense);
      for (double s : {1.7, 0.0, -0.0, -2.5, kInf, kNaN}) {
        const std::string where = std::to_string(rows) + "x" +
                                  std::to_string(cols) + " dense=" +
                                  std::to_string(dense) +
                                  " s=" + std::to_string(s);
        if (dense) {  // the CSR ScalarMultiply scales the value array
          EXPECT_TRUE(
              Identical(ScalarMultiply(a, s),
                        CopyThenModify(a, [s](double x) { return x * s; })))
              << "multiply " << where;
        }
        EXPECT_TRUE(
            Identical(ScalarAdd(a, s),
                      CopyThenModify(a, [s](double x) { return x + s; })))
            << "add " << where;
        for (FusedOp op : {FusedOp::kAdd, FusedOp::kSub, FusedOp::kMul,
                           FusedOp::kDiv, FusedOp::kMin, FusedOp::kMax,
                           FusedOp::kExp, FusedOp::kLog}) {
          for (bool left : {false, true}) {
            const Matrix want = CopyThenModify(a, [=](double x) {
              return left ? FusedApply(op, s, x) : FusedApply(op, x, s);
            });
            EXPECT_TRUE(Identical(ApplyCellwise(a, op, s, left), want))
                << FusedOpName(op) << " left=" << left << " " << where;
          }
        }
      }
    }
  }
}

TEST_P(KernelsOnePassTest, ScalarKernelsCrossTheCsrThreshold) {
  const Matrix a = Cells(240, 170, 0.3, 21, true, /*specials=*/false);
  const Matrix zeroed = ScalarMultiply(a, 0.0);
  EXPECT_FALSE(zeroed.is_dense());
  EXPECT_EQ(zeroed.nnz(), 0);
  EXPECT_TRUE(Identical(
      zeroed, CopyThenModify(a, [](double x) { return x * 0.0; })));
  // max(a, 0) keeps the ~35% positive cells: CSR.
  const Matrix relu = ApplyCellwise(a, FusedOp::kMax, 0.0);
  EXPECT_FALSE(relu.is_dense());
  EXPECT_TRUE(Identical(relu, CopyThenModify(a, [](double x) {
                          return FusedApply(FusedOp::kMax, x, 0.0);
                        })));
}

TEST_P(KernelsOnePassTest, FusedTapeDenseOutputMatchesCopyThenModify) {
  // t0 = i0 * i1; t1 = t0 - s: dense whenever an operand is dense.
  FusedTape tape;
  tape.rows = 240;
  tape.cols = 170;
  tape.num_inputs = 3;
  tape.input_scalar = {0, 0, 1};
  tape.steps = {{FusedOp::kMul, 0, 1}, {FusedOp::kSub, 3, 2}};
  for (const auto& [a_dense, b_dense] :
       {std::pair{true, true}, std::pair{true, false},
        std::pair{false, true}}) {
    const Matrix a = Cells(tape.rows, tape.cols, 0.3, 31, a_dense);
    const Matrix b = Cells(tape.rows, tape.cols, 0.7, 32, b_dense);
    for (double s : {0.0, 0.5}) {  // s = 0 leaves the result under 0.4
      const Matrix want = CopyThenModify(
          CopyThenModify(a, b, [](double x, double y) { return x * y; }),
          [s](double x) { return x - s; });
      const FusedExecResult run = ExecuteFusedTape(tape, {a, b}, {s}).value();
      EXPECT_FALSE(run.csr_path);
      EXPECT_TRUE(Identical(run.output, want))
          << "a_dense=" << a_dense << " b_dense=" << b_dense << " s=" << s;
      EXPECT_EQ(run.step_nnz.back(), want.nnz());
    }
  }
  // In place inside a uniquely owned dense input.
  const Matrix a = Cells(tape.rows, tape.cols, 0.3, 33, true);
  const Matrix b = Cells(tape.rows, tape.cols, 0.3, 34, true);
  const Matrix want = CopyThenModify(
      CopyThenModify(a, b, [](double x, double y) { return x * y; }),
      [](double x) { return x - 0.5; });
  std::vector<Matrix> inputs;
  inputs.push_back(Matrix::WrapDense(a.dense()));  // sole owner: stolen
  inputs.push_back(b);
  const FusedExecResult run =
      ExecuteFusedTape(tape, std::move(inputs), {0.5}).value();
  EXPECT_TRUE(run.in_place);
  EXPECT_TRUE(Identical(run.output, want));
}

/// The dense x sparse loop before it skipped B's empty rows:
/// every j of A's row, zero A cells skipped.
DenseMatrix DenseSparseAllRows(const DenseMatrix& a, const CsrMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      const double v = a.At(i, j);
      if (v == 0.0) continue;
      for (int64_t p = b.row_ptr()[j]; p < b.row_ptr()[j + 1]; ++p) {
        c.At(i, b.col_idx()[p]) += v * b.values()[p];
      }
    }
  }
  return c;
}

/// B with every `stride`-th row holding entries (stride 0: no entries).
Matrix SparseRows(int64_t rows, int64_t cols, int64_t stride, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t r = 0; stride > 0 && r < rows; r += stride) {
    for (int64_t c = 0; c < cols; ++c) {
      if (rng.NextDouble() < 0.5) m.At(r, c) = rng.NextGaussian();
    }
  }
  return Matrix::WrapCsr(CsrMatrix::FromDense(m));
}

TEST_P(KernelsOnePassTest, DenseSparseMultiplySkipsEmptyRightRows) {
  const struct {
    int64_t m, k, n;
  } shapes[] = {{1, 1, 1}, {5, 9, 3}, {1000, 47, 1}, {300, 40, 7}};
  for (const auto& [m, k, n] : shapes) {
    for (int64_t stride : {0, 1, 3, 7}) {
      const Matrix b = SparseRows(k, n, stride, 40 + stride);
      ASSERT_FALSE(b.is_dense());
      const std::string where = std::to_string(m) + "x" + std::to_string(k) +
                                "x" + std::to_string(n) +
                                " stride=" + std::to_string(stride);
      // Finite A: equal to the naive dense reference on densified B.
      const Matrix finite = Cells(m, k, 0.3, 50, true, /*specials=*/false);
      const Matrix got = Multiply(finite, b).value();
      EXPECT_TRUE(Identical(
          got, MultiplyReferenceNaive(finite, Matrix::WrapDense(b.ToDense()))
                   .value()))
          << where;
      // NaN / Inf in A: empty B rows still add no term, as before.
      const Matrix special = Cells(m, k, 0.3, 51, true);
      EXPECT_TRUE(Identical(
          Multiply(special, b).value(),
          Matrix::FromDense(DenseSparseAllRows(special.dense(), b.csr()))))
          << where << " specials";
    }
  }
}

TEST_P(KernelsOnePassTest, DenseSparseMultiplyOfAllZeroRightOperand) {
  // GD's first A %*% x with x = zeros(47, 1), stored as CSR.
  const Matrix a = Cells(1000, 47, 0.3, 60, true);
  const Matrix x = Matrix::Zeros(47, 1);
  const Matrix ax = Multiply(a, x).value();
  EXPECT_EQ(ax.rows(), 1000);
  EXPECT_EQ(ax.cols(), 1);
  EXPECT_EQ(ax.nnz(), 0);
  EXPECT_TRUE(Identical(
      ax, Matrix::FromDense(DenseSparseAllRows(a.dense(), x.csr()))));
}

TEST_P(KernelsOnePassTest, DenseDenseMultiplyCountsAsItStores) {
  // (m, k, n): a 1x1, depth 0, empty outputs, GEMV (n = 1) with a row
  // tail and with two depth blocks, tile-row and tile-column tails, three
  // depth blocks, and one shape past the parallel grain.
  const struct {
    int64_t m, k, n;
  } shapes[] = {{1, 1, 1},   {5, 0, 3},    {0, 4, 3},   {3, 4, 0},
                {7, 9, 1},   {13, 300, 1}, {9, 5, 19},  {6, 513, 18},
                {200, 64, 20}};
  uint64_t seed = 70;
  for (const auto& [m, k, n] : shapes) {
    // Zero fraction 0.9 leaves many all-zero output cells (and results
    // sparse enough to be stored as CSR).
    for (double zero_frac : {0.0, 0.9}) {
      const std::string where = std::to_string(m) + "x" + std::to_string(k) +
                                "x" + std::to_string(n) +
                                " zeros=" + std::to_string(zero_frac);
      const Matrix a = Cells(m, k, zero_frac, seed++, true, false);
      const Matrix b = Cells(k, n, zero_frac, seed++, true, false);
      const Matrix at = Transpose(a);
      const Matrix bt = Transpose(b);
      const Matrix want = MultiplyReferenceNaive(a, b).value();
      EXPECT_TRUE(Identical(Multiply(a, b).value(), want)) << where;
      EXPECT_TRUE(
          Identical(MultiplyTransposed(at, true, b, false).value(), want))
          << where << " AtB";
      EXPECT_TRUE(
          Identical(MultiplyTransposed(a, false, bt, true).value(), want))
          << where << " ABt";
      EXPECT_TRUE(
          Identical(MultiplyTransposed(at, true, bt, true).value(), want))
          << where << " AtBt";
      // NaN / Inf operands: the stored count equals a rescan.
      const Matrix sa = Cells(m, k, zero_frac, seed++, true);
      const Matrix sb = Cells(k, n, zero_frac, seed++, true);
      for (const Matrix& got :
           {Multiply(sa, sb).value(),
            MultiplyTransposed(Transpose(sa), true, Transpose(sb), true)
                .value()}) {
        EXPECT_TRUE(Identical(got, Matrix::FromDense(got.ToDense())))
            << where << " specials";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelsOnePassTest,
                         ::testing::Values(1, 2, 4));

TEST(KernelsOnePass, KnownNonZeroCountSkipsNothing) {
  DenseMatrix d(2, 3, {0.0, -0.0, kNaN, kInf, 1.0, 0.0});
  const Matrix scanned = Matrix::FromDense(d);
  const Matrix counted = Matrix::FromDense(d, 3);
  EXPECT_TRUE(Identical(counted, scanned));
  EXPECT_EQ(Matrix::WrapDense(d, 3).nnz(), 3);
  EXPECT_EQ(Matrix::WrapDense(d).nnz(), 3);
}

}  // namespace
}  // namespace remac
