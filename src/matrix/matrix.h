#ifndef REMAC_MATRIX_MATRIX_H_
#define REMAC_MATRIX_MATRIX_H_

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "matrix/csr_matrix.h"
#include "matrix/dense_matrix.h"
#include "matrix/storage_format.h"

namespace remac {

/// Storage format of a Matrix.
enum class MatrixFormat { kDense, kSparse };

/// Non-zeros per row and per column of a Matrix (the MNC sketch's exact
/// counts and the catalog's statistics).
struct RowColCounts {
  std::vector<int64_t> row_counts;  // length rows()
  std::vector<int64_t> col_counts;  // length cols()
};

/// \brief Format-polymorphic matrix value.
///
/// Wraps either a DenseMatrix or a CsrMatrix behind a shared immutable
/// payload, so copies are cheap (matrices flow through plan execution by
/// value). The format is chosen from the actual sparsity at construction
/// unless explicitly forced.
class Matrix {
 public:
  Matrix();

  /// Wraps a dense payload, converting to CSR if sparsity <= 0.4. Scans
  /// the payload once to count its non-zeros.
  static Matrix FromDense(DenseMatrix dense);
  /// As above, for a kernel that counted the non-zeros (`!= 0.0`) while
  /// storing the cells: no scan. Debug builds assert the count.
  static Matrix FromDense(DenseMatrix dense, int64_t nnz);

  /// Wraps a sparse payload, converting to dense if sparsity > 0.4.
  static Matrix FromCsr(CsrMatrix csr);

  /// Keeps the given payload's format regardless of sparsity.
  static Matrix WrapDense(DenseMatrix dense);
  /// WrapDense with the non-zero count already known (debug-asserted).
  static Matrix WrapDense(DenseMatrix dense, int64_t nnz);
  static Matrix WrapCsr(CsrMatrix csr);

  /// n x n identity (stored sparse for n > 2).
  static Matrix Identity(int64_t n);

  /// rows x cols matrix of zeros (stored sparse).
  static Matrix Zeros(int64_t rows, int64_t cols);

  int64_t rows() const;
  int64_t cols() const;
  int64_t nnz() const;
  double Sparsity() const;
  MatrixFormat format() const { return format_; }
  bool is_dense() const { return format_ == MatrixFormat::kDense; }

  /// In-memory footprint in the current format.
  int64_t SizeInBytes() const;

  /// Exact resident footprint of the stored payload in its current
  /// format: the dense value buffer, or the CSR value + column-index +
  /// row-pointer arrays. The byte currency of the materialized
  /// intermediate cache and resident-bytes accounting.
  int64_t BytesUsed() const;

  /// The dense payload; requires is_dense().
  const DenseMatrix& dense() const;
  /// The sparse payload; requires !is_dense().
  const CsrMatrix& csr() const;

  /// Materializes a dense copy regardless of the stored format.
  DenseMatrix ToDense() const;
  /// Materializes a CSR copy regardless of the stored format.
  CsrMatrix ToCsr() const;

  /// Per-row and per-column non-zero counts in one pass over the stored
  /// payload, with no format conversion. Dense cells count when
  /// `v != 0.0` (-0.0 does not count; NaN and Inf do); CSR entries count
  /// as stored, so an explicitly stored 0.0 counts.
  RowColCounts CountRowsAndCols() const;

  /// Element read in either format (O(log rowNnz) for sparse).
  double At(int64_t r, int64_t c) const;

  /// Element-wise comparison across formats.
  bool ApproxEquals(const Matrix& other, double tolerance = 1e-9) const;

  /// Buffer reuse for dying values: when this matrix is dense and the
  /// sole owner of its payload, moves the payload into `*out` (leaving
  /// this matrix empty) and returns true. Callers may then compute a new
  /// result in place of the released buffer. Returns false — and leaves
  /// the matrix untouched — whenever the payload is shared (environment
  /// copies, cached intermediates, concurrent task snapshots), which is
  /// what makes stealing always safe to attempt.
  bool TryReleaseDense(DenseMatrix* out);

 private:
  MatrixFormat format_ = MatrixFormat::kDense;
  std::shared_ptr<const DenseMatrix> dense_;
  std::shared_ptr<const CsrMatrix> csr_;
  int64_t nnz_ = 0;
};

}  // namespace remac

#endif  // REMAC_MATRIX_MATRIX_H_
