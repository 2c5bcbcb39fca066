#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "matrix/csr_matrix.h"
#include "matrix/dense_matrix.h"
#include "matrix/matrix.h"

namespace remac {
namespace {

TEST(DenseMatrix, ConstructionAndAccess) {
  DenseMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m.At(1, 2) = 5.0;
  EXPECT_EQ(m.At(1, 2), 5.0);
  EXPECT_EQ(m.At(0, 0), 0.0);
}

TEST(DenseMatrix, Identity) {
  const DenseMatrix id = DenseMatrix::Identity(3);
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(id.At(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(DenseMatrix, SparsityAndNnz) {
  DenseMatrix m(2, 2);
  m.At(0, 1) = 3.0;
  EXPECT_EQ(m.CountNonZeros(), 1);
  EXPECT_DOUBLE_EQ(m.Sparsity(), 0.25);
}

TEST(DenseMatrix, ApproxEquals) {
  DenseMatrix a(1, 2, {1.0, 2.0});
  DenseMatrix b(1, 2, {1.0, 2.0 + 1e-12});
  DenseMatrix c(1, 2, {1.0, 2.5});
  EXPECT_TRUE(a.ApproxEquals(b));
  EXPECT_FALSE(a.ApproxEquals(c));
  EXPECT_FALSE(a.ApproxEquals(DenseMatrix(2, 1)));
}

/// All +0.0: every cell's bits are zero.
bool AllPositiveZero(const DenseMatrix& m) {
  for (double v : m.values()) {
    if (std::bit_cast<uint64_t>(v) != 0) return false;
  }
  return true;
}

/// Buffers just below and at or above the huge-page threshold (calloc vs
/// a 2 MiB-aligned mapping) start all +0.0 and keep their cells through
/// copy and move, in both directions between the two allocation paths.
TEST(DenseMatrix, BuffersAroundTheHugePageThresholdStartZeroAndCopy) {
  const int64_t threshold_cells =
      static_cast<int64_t>(kDenseHugeBufferBytes / sizeof(double));
  const int64_t cells[] = {threshold_cells - 1, threshold_cells,
                           threshold_cells + 1, 3 * threshold_cells + 7};
  for (const int64_t n : cells) {
    SCOPED_TRACE(n);
    DenseMatrix m(n, 1);
    ASSERT_EQ(m.size(), n);
    EXPECT_TRUE(AllPositiveZero(m));
    for (int64_t i = 0; i < n; i += 4099) m.data()[i] = static_cast<double>(i);
    m.data()[n - 1] = -1.0;

    const DenseMatrix copy(m);
    ASSERT_NE(copy.data(), m.data());
    EXPECT_EQ(std::memcmp(copy.data(), m.data(), n * sizeof(double)), 0);

    DenseMatrix assigned(2, 2);
    assigned = m;
    EXPECT_EQ(std::memcmp(assigned.data(), m.data(), n * sizeof(double)), 0);
    DenseMatrix small(3, 3);
    small.At(2, 2) = 4.0;
    assigned = small;
    EXPECT_EQ(assigned.size(), 9);
    EXPECT_EQ(assigned.At(2, 2), 4.0);

    const double* buffer = m.data();
    DenseMatrix moved(std::move(m));
    EXPECT_EQ(moved.data(), buffer);
    EXPECT_EQ(m.size(), 0);
    EXPECT_EQ(m.data(), nullptr);
    EXPECT_EQ(std::memcmp(moved.data(), copy.data(), n * sizeof(double)), 0);

    DenseMatrix target(5, 5);
    target = std::move(moved);
    EXPECT_EQ(target.data(), buffer);
    EXPECT_EQ(target.rows(), n);
    EXPECT_EQ(target.At(n - 1, 0), -1.0);
    EXPECT_EQ(target.BytesUsed(), n * static_cast<int64_t>(sizeof(double)));
  }
}

TEST(CsrMatrix, FromTripletsSortsAndMerges) {
  auto m = CsrMatrix::FromTriplets(
      3, 3, {{2, 1, 5.0}, {0, 2, 1.0}, {0, 2, 2.0}, {1, 0, 4.0}});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.ToDense().At(0, 2), 3.0);  // duplicates summed
  EXPECT_EQ(m.ToDense().At(1, 0), 4.0);
  EXPECT_EQ(m.ToDense().At(2, 1), 5.0);
}

TEST(CsrMatrix, RoundTripThroughDense) {
  DenseMatrix d(3, 4);
  d.At(0, 0) = 1.0;
  d.At(2, 3) = -2.0;
  d.At(1, 2) = 0.5;
  const CsrMatrix sparse = CsrMatrix::FromDense(d);
  EXPECT_EQ(sparse.nnz(), 3);
  EXPECT_TRUE(sparse.ToDense().ApproxEquals(d));
}

TEST(CsrMatrix, RowAndColCounts) {
  auto m = CsrMatrix::FromTriplets(3, 3,
                                   {{0, 0, 1.0}, {0, 1, 1.0}, {2, 1, 1.0}});
  const RowColCounts counts = Matrix::WrapCsr(std::move(m)).CountRowsAndCols();
  EXPECT_EQ(counts.row_counts, (std::vector<int64_t>{2, 0, 1}));
  EXPECT_EQ(counts.col_counts, (std::vector<int64_t>{1, 2, 0}));
}

TEST(CsrMatrix, EmptyRows) {
  const CsrMatrix m(4, 4);
  EXPECT_EQ(m.nnz(), 0);
  for (int64_t r = 0; r < 4; ++r) EXPECT_EQ(m.RowNnz(r), 0);
}

TEST(Matrix, FormatSelectionBySparsity) {
  DenseMatrix dense(10, 10);
  for (int64_t i = 0; i < 100; ++i) dense.data()[i] = 1.0;
  EXPECT_TRUE(Matrix::FromDense(dense).is_dense());

  DenseMatrix sparse(10, 10);
  sparse.At(0, 0) = 1.0;
  const Matrix m = Matrix::FromDense(sparse);
  EXPECT_FALSE(m.is_dense());  // sparsity 0.01 <= 0.4 -> CSR
  EXPECT_EQ(m.nnz(), 1);
}

TEST(Matrix, FromCsrDensifiesWhenDense) {
  DenseMatrix dense(4, 4);
  for (int64_t i = 0; i < 16; ++i) dense.data()[i] = 2.0;
  const Matrix m = Matrix::FromCsr(CsrMatrix::FromDense(dense));
  EXPECT_TRUE(m.is_dense());
}

TEST(Matrix, IdentityAndZeros) {
  const Matrix id = Matrix::Identity(5);
  EXPECT_EQ(id.nnz(), 5);
  EXPECT_EQ(id.At(3, 3), 1.0);
  EXPECT_EQ(id.At(3, 2), 0.0);
  const Matrix z = Matrix::Zeros(3, 7);
  EXPECT_EQ(z.nnz(), 0);
  EXPECT_EQ(z.rows(), 3);
  EXPECT_EQ(z.cols(), 7);
}

TEST(Matrix, SharedPayloadCopiesAreCheap) {
  DenseMatrix d(100, 100);
  d.At(1, 1) = 9.0;
  const Matrix a = Matrix::WrapDense(std::move(d));
  const Matrix b = a;  // shares the payload
  EXPECT_EQ(&a.dense(), &b.dense());
}

TEST(Matrix, AtInBothFormats) {
  auto csr = CsrMatrix::FromTriplets(2, 3, {{0, 1, 7.0}, {1, 2, 8.0}});
  const Matrix sparse = Matrix::WrapCsr(csr);
  EXPECT_EQ(sparse.At(0, 1), 7.0);
  EXPECT_EQ(sparse.At(0, 0), 0.0);
  const Matrix dense = Matrix::WrapDense(csr.ToDense());
  EXPECT_EQ(dense.At(1, 2), 8.0);
  EXPECT_TRUE(sparse.ApproxEquals(dense));
}

TEST(Matrix, SizeInBytesReflectsFormat) {
  DenseMatrix d(100, 100);
  d.At(0, 0) = 1.0;
  const Matrix sparse = Matrix::FromDense(d);
  const Matrix dense = Matrix::WrapDense(std::move(d));
  EXPECT_LT(sparse.SizeInBytes(), dense.SizeInBytes());
}

/// --- CountRowsAndCols ------------------------------------------------------
///
/// The counts are read in place from the stored format. They must equal
/// the definition they replaced: materialize a CSR copy (ToCsr drops the
/// dense cells that compare equal to 0.0), then take row-pointer
/// differences and column-index tallies.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

RowColCounts CsrCopyCounts(const Matrix& m) {
  const CsrMatrix csr = m.ToCsr();
  RowColCounts counts;
  counts.col_counts.assign(static_cast<size_t>(csr.cols()), 0);
  for (int64_t r = 0; r < csr.rows(); ++r) {
    counts.row_counts.push_back(csr.RowNnz(r));
  }
  for (int32_t c : csr.col_idx()) ++counts.col_counts[c];
  return counts;
}

void ExpectCountsMatchCsrCopy(const Matrix& m) {
  const RowColCounts got = m.CountRowsAndCols();
  const RowColCounts want = CsrCopyCounts(m);
  EXPECT_EQ(got.row_counts, want.row_counts)
      << m.rows() << "x" << m.cols() << (m.is_dense() ? " dense" : " csr");
  EXPECT_EQ(got.col_counts, want.col_counts)
      << m.rows() << "x" << m.cols() << (m.is_dense() ? " dense" : " csr");
}

TEST(MatrixCounts, DenseCountsSpecialValuesLikeTheCsrCopy) {
  // -0.0 compares equal to 0.0 and is not counted; NaN and +-Inf are.
  const DenseMatrix d(3, 4, {0.0, -0.0, kNaN, 1.0,     //
                             kInf, -kInf, 0.0, -0.0,   //
                             -0.0, 0.0, -0.0, 0.0});
  const Matrix m = Matrix::WrapDense(d);
  const RowColCounts counts = m.CountRowsAndCols();
  EXPECT_EQ(counts.row_counts, (std::vector<int64_t>{2, 2, 0}));
  EXPECT_EQ(counts.col_counts, (std::vector<int64_t>{1, 1, 1, 1}));
  ExpectCountsMatchCsrCopy(m);
}

TEST(MatrixCounts, CsrCountsExplicitlyStoredZeros) {
  // FromTriplets keeps a stored 0.0 and a duplicate pair summing to 0.0.
  auto csr = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 0.0}, {0, 2, 1.0}, {1, 1, 2.0}, {1, 1, -2.0}, {2, 2, 0.0}});
  ASSERT_EQ(csr.nnz(), 4);
  const Matrix m = Matrix::WrapCsr(std::move(csr));
  const RowColCounts counts = m.CountRowsAndCols();
  EXPECT_EQ(counts.row_counts, (std::vector<int64_t>{2, 1, 1}));
  EXPECT_EQ(counts.col_counts, (std::vector<int64_t>{1, 1, 2}));
  ExpectCountsMatchCsrCopy(m);
}

TEST(MatrixCounts, EmptyZeroAndSingleCellShapes) {
  const std::pair<int64_t, int64_t> shapes[] = {
      {0, 0}, {0, 5}, {5, 0}, {1, 1}, {4, 3}};
  for (const auto& [rows, cols] : shapes) {
    // All-zero in both formats.
    const Matrix dense = Matrix::WrapDense(DenseMatrix(rows, cols));
    const Matrix sparse = Matrix::Zeros(rows, cols);
    for (const Matrix& m : {dense, sparse}) {
      const RowColCounts counts = m.CountRowsAndCols();
      EXPECT_EQ(counts.row_counts, std::vector<int64_t>(rows, 0));
      EXPECT_EQ(counts.col_counts, std::vector<int64_t>(cols, 0));
      ExpectCountsMatchCsrCopy(m);
    }
  }
  const Matrix one = Matrix::WrapDense(DenseMatrix(1, 1, {-3.5}));
  EXPECT_EQ(one.CountRowsAndCols().row_counts, (std::vector<int64_t>{1}));
  EXPECT_EQ(one.CountRowsAndCols().col_counts, (std::vector<int64_t>{1}));
  const Matrix one_csr = Matrix::WrapCsr(CsrMatrix::FromDense(one.dense()));
  EXPECT_EQ(one_csr.CountRowsAndCols().row_counts, (std::vector<int64_t>{1}));
  EXPECT_EQ(one_csr.CountRowsAndCols().col_counts, (std::vector<int64_t>{1}));
}

TEST(MatrixCounts, RandomMatricesMatchTheCsrCopyInBothFormats) {
  const std::tuple<int64_t, int64_t, double> cases[] = {
      {1, 40, 0.5}, {40, 1, 0.5}, {97, 13, 0.05}, {64, 47, 0.6},
      {200, 31, 0.95}};
  uint64_t seed = 7;
  for (const auto& [rows, cols, fill] : cases) {
    Rng rng(seed++);
    DenseMatrix d(rows, cols);
    for (int64_t i = 0; i < d.size(); ++i) {
      const double u = rng.NextDouble();
      if (u < fill) {
        d.data()[i] = rng.NextGaussian();
      } else if (u < fill + 0.02) {
        d.data()[i] = -0.0;
      } else if (u < fill + 0.03) {
        d.data()[i] = kNaN;
      }
    }
    ExpectCountsMatchCsrCopy(Matrix::WrapDense(d));
    ExpectCountsMatchCsrCopy(Matrix::WrapCsr(CsrMatrix::FromDense(d)));
    ExpectCountsMatchCsrCopy(Matrix::FromDense(std::move(d)));
  }
}

}  // namespace
}  // namespace remac
