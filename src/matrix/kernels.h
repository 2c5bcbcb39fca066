#ifndef REMAC_MATRIX_KERNELS_H_
#define REMAC_MATRIX_KERNELS_H_

#include "common/status.h"
#include "matrix/fused_tape.h"
#include "matrix/matrix.h"

namespace remac {

/// Local (single-node) matrix kernels. All binary kernels validate
/// dimensions and return DimensionMismatch on incompatible shapes.
///
/// Format selection: results involving a dense operand are computed
/// densely; sparse x sparse uses a Gustavson row-merge. Output wrappers
/// re-normalize the storage format from the actual result sparsity.
///
/// Dense cell-wise results (elementwise ops, scalar ops, ApplyCellwise)
/// are built in one pass: dense operands are read in place, never copied,
/// and non-zeros are counted as the cells are stored.

/// C = A * B (matrix multiplication).
Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

/// C = op(A) * op(B) where op is an optional transpose, computed without
/// materializing either transposed operand (fused kernels; see
/// docs/INTERNALS.md Section 12). Bitwise-identical to
/// Multiply(Transpose(a), b) and friends.
Result<Matrix> MultiplyTransposed(const Matrix& a, bool a_transposed,
                                  const Matrix& b, bool b_transposed);

/// Reference multiply: the pre-blocking naive i-j-x GEMM for dense-dense
/// operands (other combos fall through to Multiply). Kept as the bitwise
/// oracle for equivalence tests and as the bench_kernels baseline.
Result<Matrix> MultiplyReferenceNaive(const Matrix& a, const Matrix& b);

/// C = A^T.
Matrix Transpose(const Matrix& a);

/// C = A + B.
Result<Matrix> Add(const Matrix& a, const Matrix& b);

/// C = A - B.
Result<Matrix> Subtract(const Matrix& a, const Matrix& b);

/// C = A .* B (element-wise product).
Result<Matrix> ElementwiseMultiply(const Matrix& a, const Matrix& b);

/// C = A ./ B (element-wise quotient; zero denominators yield 0 to match
/// the "safe divide" semantics of ML systems).
Result<Matrix> ElementwiseDivide(const Matrix& a, const Matrix& b);

/// C = min(A, B) element-wise (ties and NaNs resolve to the left operand,
/// matching FusedApply — the shared per-cell semantics).
Result<Matrix> ElementwiseMin(const Matrix& a, const Matrix& b);

/// C = max(A, B) element-wise.
Result<Matrix> ElementwiseMax(const Matrix& a, const Matrix& b);

/// C = s * A.
Matrix ScalarMultiply(const Matrix& a, double s);

/// C = A + s (applied to every cell; densifies).
Matrix ScalarAdd(const Matrix& a, double s);

/// C = op(A, s) for every cell, or op(s, A) when `scalar_left`, with
/// FusedApply's per-cell semantics (unary ops ignore s). Densifies.
Matrix ApplyCellwise(const Matrix& a, FusedOp op, double s = 0.0,
                     bool scalar_left = false);

/// C = -A.
Matrix Negate(const Matrix& a);

/// Sum of all cells.
double SumAll(const Matrix& a);

/// sqrt(sum of squared cells).
double FrobeniusNorm(const Matrix& a);

/// Exact number of non-zeros in A * B without materializing values
/// (row-merge on sparsity patterns). Used by the exact estimator oracle.
Result<int64_t> MultiplyNnzExact(const Matrix& a, const Matrix& b);

/// Number of worker threads the local kernels use (>= 1).
int KernelThreads();
/// Overrides the kernel thread count (0 restores the hardware default).
void SetKernelThreads(int threads);

}  // namespace remac

#endif  // REMAC_MATRIX_KERNELS_H_
