#ifndef REMAC_MATRIX_CSR_MATRIX_H_
#define REMAC_MATRIX_CSR_MATRIX_H_

#include <cstdint>
#include <vector>

#include "matrix/dense_matrix.h"

namespace remac {

/// \brief Compressed-sparse-row matrix of doubles.
///
/// Column indices within each row are kept sorted. This is the sparse
/// storage format the cost model assumes (size = alpha * sparsity + beta,
/// cf. Section 4.2 of the paper).
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(int64_t rows, int64_t cols);

  /// Builds from coordinate triplets; duplicates are summed.
  static CsrMatrix FromTriplets(
      int64_t rows, int64_t cols,
      std::vector<std::tuple<int64_t, int64_t, double>> triplets);

  /// Converts a dense matrix, dropping exact zeros.
  static CsrMatrix FromDense(const DenseMatrix& dense);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  double Sparsity() const {
    if (rows_ == 0 || cols_ == 0) return 0.0;
    return static_cast<double>(nnz()) / static_cast<double>(rows_ * cols_);
  }

  /// CSR memory footprint: values + column indices + row pointers.
  int64_t SizeInBytes() const {
    return nnz() * (8 + 4) + (rows_ + 1) * 8 + 16;
  }

  /// Exact resident payload: values + column indices + row pointers as
  /// actually allocated (no header estimate).
  int64_t BytesUsed() const {
    return static_cast<int64_t>(values_.size() * sizeof(double)) +
           static_cast<int64_t>(col_idx_.size() * sizeof(int32_t)) +
           static_cast<int64_t>(row_ptr_.size() * sizeof(int64_t));
  }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  std::vector<int64_t>& mutable_row_ptr() { return row_ptr_; }
  std::vector<int32_t>& mutable_col_idx() { return col_idx_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Number of stored entries in row r.
  int64_t RowNnz(int64_t r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

  /// Materializes the dense equivalent (for tests and small results).
  DenseMatrix ToDense() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;  // size rows_ + 1
  std::vector<int32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace remac

#endif  // REMAC_MATRIX_CSR_MATRIX_H_
