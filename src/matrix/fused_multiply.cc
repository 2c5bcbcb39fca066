#include "matrix/kernel_internal.h"
#include "matrix/kernels.h"

/// Fused transpose-multiply: AᵀB, ABᵀ and AᵀBᵀ for every dense/CSR
/// operand combination, so the executor never materializes a transposed
/// operand (docs/INTERNALS.md Section 12).
///
/// Every variant reproduces the exact floating-point operation sequence of
/// the materialize-then-multiply path it replaces, so results are
/// bitwise-identical (asserted by tests/kernels_fused_test.cc across
/// formats, shapes and thread counts). Dense x dense runs the tiled core in
/// gemm.cc (Aᵀ read in place, Bᵀ packed into a transient panel); sparse x
/// dense and dense x sparse run the two cores in sparse_dense.cc; sparse
/// transposed operands go through a transient CscView (column-grouped
/// index/value arrays, identical ordering to TransposeCsr), so the shared
/// sparse cores run unchanged and row-parallelism is preserved.

namespace remac {

Result<Matrix> MultiplyTransposed(const Matrix& a, bool a_transposed,
                                  const Matrix& b, bool b_transposed) {
  using namespace internal;
  if (!a_transposed && !b_transposed) return Multiply(a, b);
  const int64_t ear = a_transposed ? a.cols() : a.rows();
  const int64_t eac = a_transposed ? a.rows() : a.cols();
  const int64_t ebr = b_transposed ? b.cols() : b.rows();
  const int64_t ebc = b_transposed ? b.rows() : b.cols();
  if (eac != ebr) return ShapeErrorDims("multiply", ear, eac, ebr, ebc);
  Metrics().multiplies->Add();
  Metrics().fused_transpose->Add();
  Metrics().fused_bytes_avoided->Add((a_transposed ? a.SizeInBytes() : 0) +
                                     (b_transposed ? b.SizeInBytes() : 0));
  if (a.is_dense() && b.is_dense()) {
    return MultiplyDenseDense(a.dense(), a_transposed, b.dense(),
                              b_transposed);
  }
  if (!a.is_dense() && b.is_dense()) {
    return MultiplyCsrDense(a.csr(), a_transposed, b.dense(), b_transposed);
  }
  if (a.is_dense() && !b.is_dense()) {
    return MultiplyDenseCsr(a.dense(), a_transposed, b.csr(), b_transposed);
  }
  const CsrMatrix& sa = a.csr();
  const CsrMatrix& sb = b.csr();
  if (a_transposed && b_transposed) {
    const CscView at(sa);
    const CscView bt(sb);
    return Matrix::FromCsr(
        MultiplySparseSparseCore(at, bt, sa.cols(), sb.rows()));
  }
  if (a_transposed) {
    const CscView at(sa);
    return Matrix::FromCsr(
        MultiplySparseSparseCore(at, CsrRows(sb), sa.cols(), sb.cols()));
  }
  const CscView bt(sb);
  return Matrix::FromCsr(
      MultiplySparseSparseCore(CsrRows(sa), bt, sa.rows(), sb.rows()));
}

}  // namespace remac
