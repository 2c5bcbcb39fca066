#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "matrix/kernel_internal.h"
#include "matrix/kernels.h"

/// The two sparse x dense cores (sparse_dense.cc) on every instruction set
/// the running CPU supports: all eight CSR-left and CSR-right products
/// op(A) op(B), at 1, 2 and 4 threads, against Transpose + Multiply and
/// against the reference loops on the materialized operands, comparing
/// bits (NaN payloads aside) and the stored non-zero count. Suites are
/// named Kernels* so scripts/check.sh runs them under TSan/ASan/UBSan.

namespace remac {
namespace {

using internal::GemmIsa;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dense operand: a third ±0 (a tenth of those -0.0), the rest Gaussian;
/// with `specials`, about one cell in twenty is NaN, +Inf or -Inf.
DenseMatrix DenseCells(int64_t rows, int64_t cols, uint64_t seed,
                       bool specials) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  const double special[] = {kNaN, kInf, -kInf};
  for (int64_t i = 0; i < m.size(); ++i) {
    const double u = rng.NextDouble();
    if (u < 0.33) {
      m.data()[i] = rng.NextDouble() < 0.1 ? -0.0 : 0.0;
    } else if (specials && u > 0.95) {
      m.data()[i] = special[rng.NextBounded(3)];
    } else {
      m.data()[i] = rng.NextGaussian();
    }
  }
  return m;
}

/// Sparse operand with about `density` of its cells stored and every
/// `empty_stride`-th row empty (0: none forced empty); with `specials`
/// some stored values are NaN or ±Inf, so a skipped zero dense lane
/// matters.
CsrMatrix SparseCells(int64_t rows, int64_t cols, double density,
                      int64_t empty_stride, uint64_t seed, bool specials) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  const double special[] = {kNaN, kInf, -kInf};
  for (int64_t r = 0; r < rows; ++r) {
    if (empty_stride > 0 && r % empty_stride == 0) continue;
    for (int64_t c = 0; c < cols; ++c) {
      if (rng.NextDouble() >= density) continue;
      m.At(r, c) = specials && rng.NextDouble() < 0.05
                       ? special[rng.NextBounded(3)]
                       : rng.NextGaussian();
    }
  }
  return CsrMatrix::FromDense(m);
}

/// The reference sparse-left loop: C(i, :) += v * P(col, :) for each
/// stored (col, v) of S's row i in stored order, no skip.
DenseMatrix SparseDenseReference(const CsrMatrix& s, const DenseMatrix& p) {
  DenseMatrix c(s.rows(), p.cols());
  for (int64_t i = 0; i < s.rows(); ++i) {
    for (int64_t q = s.row_ptr()[i]; q < s.row_ptr()[i + 1]; ++q) {
      const double v = s.values()[q];
      for (int64_t x = 0; x < p.cols(); ++x) {
        c.At(i, x) += v * p.At(s.col_idx()[q], x);
      }
    }
  }
  return c;
}

/// The reference dense-left loop: C(i, col) += L(i, j) * v for each stored
/// (col, v) of R's row j, j ascending, skipping L(i, j) == 0.0.
DenseMatrix DenseSparseReference(const DenseMatrix& l, const CsrMatrix& r) {
  DenseMatrix c(l.rows(), r.cols());
  for (int64_t i = 0; i < l.rows(); ++i) {
    for (int64_t j = 0; j < l.cols(); ++j) {
      const double v = l.At(i, j);
      if (v == 0.0) continue;
      for (int64_t q = r.row_ptr()[j]; q < r.row_ptr()[j + 1]; ++q) {
        c.At(i, r.col_idx()[q]) += v * r.values()[q];
      }
    }
  }
  return c;
}

/// Equal bits, or both NaN (which NaN an add of two NaNs returns is not
/// part of the contract; signed zeros and infinities are), and equal
/// non-zero counts and formats.
::testing::AssertionResult SameProduct(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (got.nnz() != want.nnz() || got.is_dense() != want.is_dense()) {
    return ::testing::AssertionFailure()
           << "nnz " << got.nnz() << " vs " << want.nnz() << ", dense "
           << got.is_dense() << " vs " << want.is_dense();
  }
  const DenseMatrix g = got.ToDense();
  const DenseMatrix w = want.ToDense();
  for (int64_t i = 0; i < g.size(); ++i) {
    const double x = g.data()[i];
    const double y = w.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element (" << i / g.cols() << ", " << i % g.cols()
             << "): got " << x << " want " << y;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs the test body with the cores capped at one instruction set, and
/// restores the default cap and thread count afterwards.
class KernelsSparseIsaTest : public ::testing::TestWithParam<GemmIsa> {
 protected:
  void SetUp() override {
    if (GetParam() > internal::SupportedGemmIsa()) {
      GTEST_SKIP() << internal::GemmIsaName(GetParam())
                   << " is not supported by this CPU";
    }
    previous_ = internal::SetGemmIsaLimit(GetParam());
    ASSERT_EQ(internal::ActiveGemmIsa(), GetParam());
  }
  void TearDown() override {
    internal::SetGemmIsaLimit(previous_);
    SetKernelThreads(0);
  }

  /// op(A) op(B) in all four transpose variants at 1, 2 and 4 threads,
  /// where `l` (rows x depth) and `r` (depth x n) are the operands as the
  /// product sees them and exactly one of them is CSR.
  void CheckAllVariants(const Matrix& l, const Matrix& r,
                        const std::string& what) {
    const Matrix reference =
        l.is_dense()
            ? Matrix::FromDense(DenseSparseReference(l.dense(), r.csr()))
            : Matrix::FromDense(SparseDenseReference(l.csr(), r.dense()));
    const Matrix lt = Transpose(l);
    const Matrix rt = Transpose(r);
    for (const bool a_t : {false, true}) {
      for (const bool b_t : {false, true}) {
        const Matrix& a = a_t ? lt : l;
        const Matrix& b = b_t ? rt : r;
        const Matrix materialized =
            Multiply(a_t ? Transpose(a) : a, b_t ? Transpose(b) : b).value();
        const std::string where = what + " a_t=" + std::to_string(a_t) +
                                  " b_t=" + std::to_string(b_t);
        ASSERT_TRUE(SameProduct(materialized, reference)) << where;
        for (const int threads : {1, 2, 4}) {
          SetKernelThreads(threads);
          const Matrix got = MultiplyTransposed(a, a_t, b, b_t).value();
          ASSERT_TRUE(SameProduct(got, materialized))
              << where << " threads=" << threads;
        }
        SetKernelThreads(0);
      }
    }
  }

 private:
  GemmIsa previous_ = GemmIsa::kAvx512;
};

/// Core S: C's column count n runs 1-17 (every lane tail of 4- and
/// 8-double vectors, and more than 16 lanes) and past one column tile (33,
/// 70); 300 rows span several row blocks. Every fifth sparse row is empty.
TEST_P(KernelsSparseIsaTest, SparseLeftEveryLaneCount) {
  uint64_t seed = 100;
  for (int64_t n = 1; n <= 17; ++n) {
    const Matrix s = Matrix::WrapCsr(SparseCells(37, 25, 0.2, 5, ++seed,
                                                 /*specials=*/false));
    const Matrix p = Matrix::WrapDense(DenseCells(25, n, ++seed, true));
    CheckAllVariants(s, p, "sparse-left n=" + std::to_string(n));
    if (HasFatalFailure()) return;
  }
  const struct {
    int64_t m, depth, n;
  } shapes[] = {{37, 25, 33}, {37, 25, 70}, {300, 40, 5}, {300, 40, 70},
                {1, 1, 9},    {9, 1, 1}};
  for (const auto& [m, depth, n] : shapes) {
    const Matrix s = Matrix::WrapCsr(SparseCells(m, depth, 0.2, 5, ++seed,
                                                 /*specials=*/false));
    const Matrix p = Matrix::WrapDense(DenseCells(depth, n, ++seed, true));
    CheckAllVariants(s, p,
                     "sparse-left " + std::to_string(m) + "x" +
                         std::to_string(depth) + "x" + std::to_string(n));
    if (HasFatalFailure()) return;
  }
}

/// Core D: C's row count runs 1-17 (every lane tail, one and two vectors,
/// and more than one row tile); 40 rows give several tiles. The sparse
/// operand holds NaN and ±Inf, so the skip on a ±0 dense lane matters.
TEST_P(KernelsSparseIsaTest, DenseLeftEveryLaneCount) {
  uint64_t seed = 200;
  for (int64_t rows = 1; rows <= 17; ++rows) {
    const Matrix l = Matrix::WrapDense(DenseCells(rows, 25, ++seed, true));
    const Matrix r = Matrix::WrapCsr(SparseCells(25, 23, 0.3, 4, ++seed,
                                                 /*specials=*/true));
    CheckAllVariants(l, r, "dense-left rows=" + std::to_string(rows));
    if (HasFatalFailure()) return;
  }
  const Matrix l = Matrix::WrapDense(DenseCells(40, 30, ++seed, true));
  const Matrix r =
      Matrix::WrapCsr(SparseCells(30, 7, 0.3, 3, ++seed, /*specials=*/true));
  CheckAllVariants(l, r, "dense-left rows=40");
}

/// Core D with C wider than one column block of its transposed tile
/// (32768 cells: 2048 columns at height 16, 4096 at height 8): one row
/// (C's row is its own tile), one vector and two vectors of rows. Every
/// third column of L is all ±0, so whole rows of R are skipped and the
/// block cursors must still move past them.
TEST_P(KernelsSparseIsaTest, DenseLeftWideOutputs) {
  uint64_t seed = 300;
  for (const int64_t rows : {1, 4, 9}) {
    DenseMatrix left = DenseCells(rows, 12, ++seed, true);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < 12; j += 3) left.At(i, j) = i % 2 ? -0.0 : 0.0;
    }
    const Matrix l = Matrix::WrapDense(std::move(left));
    const Matrix r = Matrix::WrapCsr(SparseCells(12, 9000, 0.05, 4, ++seed,
                                                 /*specials=*/true));
    CheckAllVariants(l, r, "dense-left wide rows=" + std::to_string(rows));
    if (HasFatalFailure()) return;
  }
}

/// An all-empty sparse operand gives all +0.0 cells in every variant, and
/// a sparse row that is empty adds no term even where the dense operand
/// is NaN or ±Inf at the matching index.
TEST_P(KernelsSparseIsaTest, EmptySparseRowsAddNoTerm) {
  for (const int64_t rows : {1, 5, 16, 17}) {
    // L's columns 0, 2, 4, ... are NaN / ±Inf; R's rows there are empty.
    DenseMatrix left(rows, 10);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < 10; ++j) {
        left.At(i, j) = j % 2 == 0 ? (j % 4 == 0 ? kNaN : -kInf)
                                   : 0.5 + static_cast<double>(i + j);
      }
    }
    const Matrix l = Matrix::WrapDense(left);
    const Matrix empty = Matrix::WrapCsr(CsrMatrix(10, 6));
    CheckAllVariants(l, empty, "all-empty right rows=" + std::to_string(rows));
    if (HasFatalFailure()) return;
    for (const bool a_t : {false, true}) {
      for (const bool b_t : {false, true}) {
        const Matrix got =
            MultiplyTransposed(a_t ? Transpose(l) : l, a_t,
                               b_t ? Transpose(empty) : empty, b_t)
                .value();
        const DenseMatrix cells = got.ToDense();
        for (int64_t i = 0; i < cells.size(); ++i) {
          const double zero = 0.0;
          ASSERT_EQ(std::memcmp(&cells.data()[i], &zero, sizeof(double)), 0)
              << "a_t=" << a_t << " b_t=" << b_t << " cell " << i;
        }
      }
    }
    const Matrix odd_rows =
        Matrix::WrapCsr(SparseCells(10, 6, 0.8, 2, 400 + rows, false));
    CheckAllVariants(l, odd_rows, "empty even rows=" + std::to_string(rows));
    if (HasFatalFailure()) return;
    for (const bool a_t : {false, true}) {
      const Matrix got =
          MultiplyTransposed(a_t ? Transpose(l) : l, a_t, odd_rows, false)
              .value();
      const DenseMatrix cells = got.ToDense();
      for (int64_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(std::isfinite(cells.data()[i])) << "cell " << i;
      }
    }
  }
  // Sparse left: an all-empty operand, and empty rows facing NaN in P.
  DenseMatrix p(8, 5);
  for (int64_t i = 0; i < p.size(); ++i) p.data()[i] = i % 3 == 0 ? kNaN : 1.5;
  CheckAllVariants(Matrix::WrapCsr(CsrMatrix(11, 8)), Matrix::WrapDense(p),
                   "all-empty left");
  CheckAllVariants(Matrix::WrapCsr(SparseCells(11, 8, 0.5, 2, 450, false)),
                   Matrix::WrapDense(p), "empty left rows");
}

INSTANTIATE_TEST_SUITE_P(
    Isa, KernelsSparseIsaTest,
    ::testing::Values(GemmIsa::kScalar, GemmIsa::kAvx2, GemmIsa::kAvx512),
    [](const ::testing::TestParamInfo<GemmIsa>& info) {
      return std::string(internal::GemmIsaName(info.param));
    });

}  // namespace
}  // namespace remac
