#include "matrix/kernel_internal.h"
#include "matrix/kernels.h"

/// Fused transpose-multiply kernels: AᵀB, ABᵀ and AᵀBᵀ for every
/// dense/CSR operand combination, so the executor never materializes a
/// transposed operand (docs/INTERNALS.md Section 12).
///
/// Every kernel reproduces the exact floating-point operation sequence of
/// the materialize-then-multiply path it replaces: per output element the
/// shared-index terms are accumulated in ascending order with the same
/// v == 0.0 skip, so results are bitwise-identical (asserted by
/// tests/kernels_fused_test.cc across formats, shapes and thread counts).
/// Dense x dense runs the tiled core in gemm.cc (Aᵀ read in place, Bᵀ
/// packed into a transient panel); other dense transposed operands are
/// traversed in place; sparse transposed operands go through a transient
/// CscView (column-grouped index/value arrays, identical ordering to
/// TransposeCsr) so the shared sparse cores run unchanged and
/// row-parallelism is preserved.

namespace remac {

namespace internal {
namespace {

/// C = AᵀB with A sparse, B dense: A's column view stands in for the
/// transposed rows; the shared sparse-dense core runs unchanged.
DenseMatrix FusedSparseDenseATB(const CsrMatrix& a, const DenseMatrix& b) {
  const CscView at(a);
  return MultiplySparseDenseCore(at, a.cols(), b);
}

/// C = ABᵀ with A sparse (m x k), B dense (n x k): per output row the
/// stored entries of A's row gather from B's rows — no transpose copy.
DenseMatrix FusedSparseDenseABT(const CsrMatrix& a, const DenseMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(m, n);
  const double* pb = b.data();
  double* pc = c.data();
  const int64_t row_work =
      n * std::max<int64_t>(1, a.nnz() / std::max<int64_t>(1, m));
  ParallelForRows(m, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      const int64_t pa0 = a.row_ptr()[i];
      const int64_t pa1 = a.row_ptr()[i + 1];
      for (int64_t x = 0; x < n; ++x) {
        const double* bx = pb + x * k;
        double s = 0.0;
        for (int64_t p = pa0; p < pa1; ++p) {
          s += a.values()[p] * bx[a.col_idx()[p]];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

/// C = AᵀBᵀ with A sparse (m x k), B dense (n x m).
DenseMatrix FusedSparseDenseATBT(const CsrMatrix& a, const DenseMatrix& b) {
  const CscView at(a);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(k, n);
  const double* pb = b.data();
  double* pc = c.data();
  const int64_t row_work =
      n * std::max<int64_t>(1, a.nnz() / std::max<int64_t>(1, k));
  ParallelForRows(k, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      const int64_t pa0 = at.begin(i);
      const int64_t pa1 = at.end(i);
      for (int64_t x = 0; x < n; ++x) {
        const double* bx = pb + x * m;
        double s = 0.0;
        for (int64_t p = pa0; p < pa1; ++p) {
          s += at.value(p) * bx[at.col(p)];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

/// C = AᵀB with A dense (m x k), B sparse (m x n), C: k x n. Walks the
/// shared index with strided A reads, blocked so A loads stay contiguous.
DenseMatrix FusedDenseSparseATB(const DenseMatrix& a, const CsrMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  DenseMatrix c(k, n);
  const double* pa = a.data();
  double* pc = c.data();
  const int64_t row_work =
      std::max<int64_t>(m, b.nnz());  // each output row scans all of B
  ParallelForRows(k, row_work, [&](int64_t r0, int64_t r1) {
    constexpr int64_t kRowBlock = 8;
    for (int64_t i0 = r0; i0 < r1; i0 += kRowBlock) {
      const int64_t ib = std::min(kRowBlock, r1 - i0);
      for (int64_t j = 0; j < m; ++j) {
        const double* aj = pa + j * k + i0;  // A(j, i0 .. i0+ib)
        const int64_t q0 = b.row_ptr()[j];
        const int64_t q1 = b.row_ptr()[j + 1];
        if (q0 == q1) continue;
        for (int64_t r = 0; r < ib; ++r) {
          const double v = aj[r];
          if (v == 0.0) continue;
          double* ci = pc + (i0 + r) * n;
          for (int64_t q = q0; q < q1; ++q) {
            ci[b.col_idx()[q]] += v * b.values()[q];
          }
        }
      }
    }
  });
  return c;
}

/// C = ABᵀ with A dense (m x k), B sparse (n x k), C: m x n. B's rows are
/// the columns of the materialized transpose: a sparse dot per cell.
DenseMatrix FusedDenseSparseABT(const DenseMatrix& a, const CsrMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(m, n);
  const double* pa = a.data();
  double* pc = c.data();
  const int64_t row_work = std::max<int64_t>(k, b.nnz());
  ParallelForRows(m, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double* ai = pa + i * k;
      double* ci = pc + i * n;
      for (int64_t x = 0; x < n; ++x) {
        double s = 0.0;
        for (int64_t p = b.row_ptr()[x]; p < b.row_ptr()[x + 1]; ++p) {
          const double v = ai[b.col_idx()[p]];
          if (v == 0.0) continue;
          s += v * b.values()[p];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

/// C = AᵀBᵀ with A dense (m x k), B sparse (n x m), C: k x n.
DenseMatrix FusedDenseSparseATBT(const DenseMatrix& a, const CsrMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(k, n);
  const double* pa = a.data();
  double* pc = c.data();
  const int64_t row_work = std::max<int64_t>(m, b.nnz());
  ParallelForRows(k, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      for (int64_t x = 0; x < n; ++x) {
        double s = 0.0;
        for (int64_t p = b.row_ptr()[x]; p < b.row_ptr()[x + 1]; ++p) {
          const double v = pa[static_cast<int64_t>(b.col_idx()[p]) * k + i];
          if (v == 0.0) continue;
          s += v * b.values()[p];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

}  // namespace
}  // namespace internal

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
    const CsrMatrix& sa = a.csr();
    const DenseMatrix& db = b.dense();
    if (a_transposed && b_transposed) {
      return Matrix::FromDense(FusedSparseDenseATBT(sa, db));
    }
    if (a_transposed) return Matrix::FromDense(FusedSparseDenseATB(sa, db));
    return Matrix::FromDense(FusedSparseDenseABT(sa, db));
  }
  if (a.is_dense() && !b.is_dense()) {
    const DenseMatrix& da = a.dense();
    const CsrMatrix& sb = b.csr();
    if (a_transposed && b_transposed) {
      return Matrix::FromDense(FusedDenseSparseATBT(da, sb));
    }
    if (a_transposed) return Matrix::FromDense(FusedDenseSparseATB(da, sb));
    return Matrix::FromDense(FusedDenseSparseABT(da, sb));
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
