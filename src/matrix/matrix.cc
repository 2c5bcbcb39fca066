#include "matrix/matrix.h"

#include <cassert>
#include <cmath>

namespace remac {

Matrix::Matrix()
    : format_(MatrixFormat::kDense),
      dense_(std::make_shared<DenseMatrix>()),
      nnz_(0) {}

Matrix Matrix::FromDense(DenseMatrix dense) {
  const int64_t nnz = dense.CountNonZeros();
  return FromDense(std::move(dense), nnz);
}

Matrix Matrix::FromDense(DenseMatrix dense, int64_t nnz) {
  assert(nnz == dense.CountNonZeros());
  const int64_t total = dense.size();
  if (total > 0 &&
      static_cast<double>(nnz) / static_cast<double>(total) <=
          kDenseFormatThreshold) {
    return WrapCsr(CsrMatrix::FromDense(dense));
  }
  return WrapDense(std::move(dense), nnz);
}

Matrix Matrix::FromCsr(CsrMatrix csr) {
  if (csr.Sparsity() > kDenseFormatThreshold) {
    return WrapDense(csr.ToDense());
  }
  return WrapCsr(std::move(csr));
}

Matrix Matrix::WrapDense(DenseMatrix dense) {
  const int64_t nnz = dense.CountNonZeros();
  return WrapDense(std::move(dense), nnz);
}

Matrix Matrix::WrapDense(DenseMatrix dense, int64_t nnz) {
  assert(nnz == dense.CountNonZeros());
  Matrix m;
  m.format_ = MatrixFormat::kDense;
  m.nnz_ = nnz;
  // Created non-const so TryReleaseDense may legally cast constness away
  // from a uniquely-owned payload.
  m.dense_ = std::make_shared<DenseMatrix>(std::move(dense));
  m.csr_.reset();
  return m;
}

Matrix Matrix::WrapCsr(CsrMatrix csr) {
  Matrix m;
  m.format_ = MatrixFormat::kSparse;
  m.nnz_ = csr.nnz();
  m.csr_ = std::make_shared<const CsrMatrix>(std::move(csr));
  m.dense_.reset();
  return m;
}

Matrix Matrix::Identity(int64_t n) {
  std::vector<std::tuple<int64_t, int64_t, double>> triplets;
  triplets.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) triplets.emplace_back(i, i, 1.0);
  CsrMatrix csr = CsrMatrix::FromTriplets(n, n, std::move(triplets));
  if (n <= 2) return WrapDense(csr.ToDense());
  return WrapCsr(std::move(csr));
}

Matrix Matrix::Zeros(int64_t rows, int64_t cols) {
  return WrapCsr(CsrMatrix(rows, cols));
}

int64_t Matrix::rows() const {
  return is_dense() ? dense_->rows() : csr_->rows();
}

int64_t Matrix::cols() const {
  return is_dense() ? dense_->cols() : csr_->cols();
}

int64_t Matrix::nnz() const { return nnz_; }

double Matrix::Sparsity() const {
  const int64_t total = rows() * cols();
  if (total == 0) return 0.0;
  return static_cast<double>(nnz_) / static_cast<double>(total);
}

int64_t Matrix::SizeInBytes() const {
  return is_dense() ? dense_->SizeInBytes() : csr_->SizeInBytes();
}

int64_t Matrix::BytesUsed() const {
  return is_dense() ? dense_->BytesUsed() : csr_->BytesUsed();
}

const DenseMatrix& Matrix::dense() const {
  assert(is_dense());
  return *dense_;
}

const CsrMatrix& Matrix::csr() const {
  assert(!is_dense());
  return *csr_;
}

DenseMatrix Matrix::ToDense() const {
  return is_dense() ? *dense_ : csr_->ToDense();
}

CsrMatrix Matrix::ToCsr() const {
  return is_dense() ? CsrMatrix::FromDense(*dense_) : *csr_;
}

RowColCounts Matrix::CountRowsAndCols() const {
  RowColCounts counts;
  counts.row_counts.assign(static_cast<size_t>(rows()), 0);
  counts.col_counts.assign(static_cast<size_t>(cols()), 0);
  int64_t* row = counts.row_counts.data();
  int64_t* col = counts.col_counts.data();
  if (is_dense()) {
    const int64_t n = cols();
    const double* p = dense_->data();
    for (int64_t r = 0; r < rows(); ++r, p += n) {
      int64_t in_row = 0;
      for (int64_t c = 0; c < n; ++c) {
        const int64_t nz = p[c] != 0.0 ? 1 : 0;
        in_row += nz;
        col[c] += nz;
      }
      row[r] = in_row;
    }
    return counts;
  }
  for (int64_t r = 0; r < rows(); ++r) row[r] = csr_->RowNnz(r);
  for (int32_t c : csr_->col_idx()) ++col[c];
  return counts;
}

double Matrix::At(int64_t r, int64_t c) const {
  if (is_dense()) return dense_->At(r, c);
  const CsrMatrix& m = *csr_;
  for (int64_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
    if (m.col_idx()[k] == c) return m.values()[k];
    if (m.col_idx()[k] > c) break;
  }
  return 0.0;
}

bool Matrix::TryReleaseDense(DenseMatrix* out) {
  if (!is_dense() || dense_ == nullptr || dense_.use_count() != 1) {
    return false;
  }
  // Safe: every dense payload is created via make_shared<DenseMatrix>
  // (WrapDense / the default constructor), so the object itself is not
  // const and use_count()==1 proves this Matrix is the only owner.
  *out = std::move(*std::const_pointer_cast<DenseMatrix>(dense_));
  dense_ = std::make_shared<DenseMatrix>();
  nnz_ = 0;
  return true;
}

bool Matrix::ApproxEquals(const Matrix& other, double tolerance) const {
  if (rows() != other.rows() || cols() != other.cols()) return false;
  return ToDense().ApproxEquals(other.ToDense(), tolerance);
}

}  // namespace remac
