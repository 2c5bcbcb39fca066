#ifndef REMAC_MATRIX_KERNEL_INTERNAL_H_
#define REMAC_MATRIX_KERNEL_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "matrix/kernels.h"
#include "matrix/matrix.h"
#include "obs/metrics.h"
#include "sched/thread_pool.h"

/// \brief Internals shared by the local kernel translation units
/// (kernels.cc, gemm.cc, fused_multiply.cc). Not part of the public API.
///
/// Determinism contract (docs/INTERNALS.md Section 12): every kernel here
/// produces bitwise-identical results at any thread count. Parallel
/// kernels compute each output row (the dense multiply: each output tile)
/// serially, so chunk boundaries cannot change any floating-point
/// accumulation order; reductions always sum fixed-size chunks and fold
/// the partials in chunk order.

namespace remac {
namespace internal {

/// Work threshold (in touched elements / flops) below which a kernel runs
/// serially: row count alone mispredicts wide-and-short shapes (a
/// 200 x 100000 elementwise op is 20M elements of work).
inline constexpr int64_t kParallelGrainWork = 1 << 15;

/// Fixed reduction chunk length. Independent of the thread count, so
/// chunked SumAll / FrobeniusNorm are deterministic at any parallelism.
inline constexpr int64_t kReductionChunk = 1 << 15;

/// Kernel-layer telemetry (INTERNALS.md Section 12). Resolving the struct
/// once registers every name, so a metrics snapshot always carries the
/// full `remac.kernel.*` set even for counters still at zero.
struct KernelMetrics {
  Counter* multiplies =
      MetricsRegistry::Global().GetCounter("remac.kernel.multiplies");
  Counter* gemm_blocked =
      MetricsRegistry::Global().GetCounter("remac.kernel.gemm_blocked");
  /// Fused transpose-multiply executions (at least one transposed side).
  Counter* fused_transpose =
      MetricsRegistry::Global().GetCounter("remac.kernel.fused_transpose");
  /// Bytes of transpose materialization the fused kernels avoided
  /// (footprint of each transposed operand that was never copied).
  Counter* fused_bytes_avoided = MetricsRegistry::Global().GetCounter(
      "remac.kernel.fused_bytes_avoided");
  /// Transpose kernel invocations (each one materializes the result).
  Counter* transposes =
      MetricsRegistry::Global().GetCounter("remac.kernel.transposes");
  Counter* elementwise_ops =
      MetricsRegistry::Global().GetCounter("remac.kernel.elementwise_ops");
  Counter* scalar_ops =
      MetricsRegistry::Global().GetCounter("remac.kernel.scalar_ops");
  Counter* reductions =
      MetricsRegistry::Global().GetCounter("remac.kernel.reductions");
  /// Tasks ParallelForRows actually fanned out (0 increments = serial).
  Counter* parallel_tasks =
      MetricsRegistry::Global().GetCounter("remac.kernel.parallel_tasks");
};

inline KernelMetrics& Metrics() {
  static KernelMetrics metrics;
  return metrics;
}

inline Status ShapeErrorDims(const char* op, int64_t ar, int64_t ac,
                             int64_t br, int64_t bc) {
  return Status::DimensionMismatch(StringFormat(
      "%s: (%lld x %lld) vs (%lld x %lld)", op, static_cast<long long>(ar),
      static_cast<long long>(ac), static_cast<long long>(br),
      static_cast<long long>(bc)));
}

/// Runs fn(first_row, last_row) across KernelThreads() workers on the
/// shared scheduler pool. Chunk boundaries depend only on KernelThreads(),
/// never on the pool size, so results are bitwise-identical no matter how
/// many threads actually execute (and some kernels derive a worker index
/// from r0 / chunk). `row_work` approximates the elements (or flops)
/// touched per row; below kParallelGrainWork total the call runs inline.
void ParallelForRows(int64_t rows, int64_t row_work,
                     const std::function<void(int64_t, int64_t)>& fn);

/// --- sparse row providers -------------------------------------------------
///
/// The sparse multiply cores below are templated over a row provider, so
/// the same loop body (and therefore the exact same floating-point
/// operation sequence) runs for a CSR operand and for the column view of
/// a CSR operand that stands in for its transpose.

/// Rows of a CsrMatrix as stored.
struct CsrRows {
  const int64_t* ptr;
  const int32_t* idx;
  const double* val;
  int64_t rows_count;
  int64_t nnz_count;

  explicit CsrRows(const CsrMatrix& m)
      : ptr(m.row_ptr().data()),
        idx(m.col_idx().data()),
        val(m.values().data()),
        rows_count(m.rows()),
        nnz_count(m.nnz()) {}

  int64_t rows() const { return rows_count; }
  int64_t nnz() const { return nnz_count; }
  int64_t begin(int64_t r) const { return ptr[r]; }
  int64_t end(int64_t r) const { return ptr[r + 1]; }
  int32_t col(int64_t p) const { return idx[p]; }
  double value(int64_t p) const { return val[p]; }
};

/// Column-major view of a CsrMatrix: "row j" of the view enumerates the
/// entries of column j, ordered by original row index ascending — exactly
/// the rows TransposeCsr would produce, but without constructing a
/// CsrMatrix (no Matrix materialization, no format re-wrapping).
struct CscView {
  std::vector<int64_t> ptr;   // cols + 1
  std::vector<int32_t> idx;   // original row indices, ascending per column
  std::vector<double> val;

  explicit CscView(const CsrMatrix& a) {
    const int64_t n = a.cols();
    ptr.assign(static_cast<size_t>(n) + 1, 0);
    idx.resize(static_cast<size_t>(a.nnz()));
    val.resize(static_cast<size_t>(a.nnz()));
    // Counting sort by column; stable over rows, matching TransposeCsr.
    for (int32_t c : a.col_idx()) ++ptr[c + 1];
    for (int64_t i = 0; i < n; ++i) ptr[i + 1] += ptr[i];
    std::vector<int64_t> cursor(ptr.begin(), ptr.end() - 1);
    for (int64_t r = 0; r < a.rows(); ++r) {
      for (int64_t p = a.row_ptr()[r]; p < a.row_ptr()[r + 1]; ++p) {
        const int64_t dst = cursor[a.col_idx()[p]]++;
        idx[dst] = static_cast<int32_t>(r);
        val[dst] = a.values()[p];
      }
    }
  }

  int64_t rows() const { return static_cast<int64_t>(ptr.size()) - 1; }
  int64_t nnz() const { return static_cast<int64_t>(val.size()); }
  int64_t begin(int64_t r) const { return ptr[r]; }
  int64_t end(int64_t r) const { return ptr[r + 1]; }
  int32_t col(int64_t p) const { return idx[p]; }
  double value(int64_t p) const { return val[p]; }
};

/// --- shared multiply cores ------------------------------------------------

/// Sparse-left x dense-right: C(i, :) += v * B(j, :) for each stored
/// (j, v) in row i of `a`. `out_rows` x b.cols().
template <typename LeftRows>
DenseMatrix MultiplySparseDenseCore(const LeftRows& a, int64_t out_rows,
                                    const DenseMatrix& b) {
  const int64_t n = b.cols();
  DenseMatrix c(out_rows, n);
  const double* pb = b.data();
  double* pc = c.data();
  const int64_t row_work =
      n * std::max<int64_t>(1, a.nnz() / std::max<int64_t>(1, out_rows));
  ParallelForRows(out_rows, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      for (int64_t p = a.begin(i); p < a.end(i); ++p) {
        const double v = a.value(p);
        const double* bj = pb + static_cast<int64_t>(a.col(p)) * n;
        for (int64_t x = 0; x < n; ++x) ci[x] += v * bj[x];
      }
    }
  });
  return c;
}

/// Sparse x sparse Gustavson row-merge. Identical operation sequence to
/// the historical MultiplySparseSparse for CSR providers; the column-view
/// providers slot in for transposed operands. Per-part buffers are
/// reserved from nnz-based estimates and stitched through precomputed
/// offsets (single resize + memcpy, no incremental insert growth).
template <typename LeftRows, typename RightRows>
CsrMatrix MultiplySparseSparseCore(const LeftRows& a, const RightRows& b,
                                   int64_t out_rows, int64_t out_cols) {
  const int64_t m = out_rows;
  const int64_t n = out_cols;
  CsrMatrix c(m, n);
  auto& row_ptr = c.mutable_row_ptr();
  // First pass per thread-range into local buffers, then stitch.
  const int threads = std::max(1, KernelThreads());
  const int64_t chunk = (m + threads - 1) / threads;
  struct Part {
    std::vector<int32_t> cols;
    std::vector<double> vals;
    std::vector<int64_t> row_nnz;
  };
  std::vector<Part> parts(static_cast<size_t>(threads));
  const int64_t avg_a = a.nnz() / std::max<int64_t>(1, a.rows());
  const int64_t avg_b = b.nnz() / std::max<int64_t>(1, b.rows());
  const int64_t row_work = std::max<int64_t>(1, avg_a * std::max<int64_t>(
                                                           1, avg_b));
  ParallelForRows(m, row_work, [&](int64_t r0, int64_t r1) {
    const int tid = static_cast<int>(r0 / std::max<int64_t>(1, chunk));
    Part& part = parts[static_cast<size_t>(std::min(tid, threads - 1))];
    // Upper-bound estimate of this range's output entries: its stored
    // left entries times the average right-row fill, capped at dense.
    const int64_t range_entries = a.begin(r1) - a.begin(r0);
    const int64_t estimate =
        std::min((r1 - r0) * n, range_entries * std::max<int64_t>(1, avg_b));
    part.row_nnz.reserve(static_cast<size_t>(r1 - r0));
    part.cols.reserve(static_cast<size_t>(estimate));
    part.vals.reserve(static_cast<size_t>(estimate));
    std::vector<double> acc(static_cast<size_t>(n), 0.0);
    std::vector<int32_t> touched;
    for (int64_t i = r0; i < r1; ++i) {
      touched.clear();
      for (int64_t p = a.begin(i); p < a.end(i); ++p) {
        const double va = a.value(p);
        const int64_t j = a.col(p);
        for (int64_t q = b.begin(j); q < b.end(j); ++q) {
          const int32_t col = b.col(q);
          if (acc[col] == 0.0) touched.push_back(col);
          acc[col] += va * b.value(q);
        }
      }
      std::sort(touched.begin(), touched.end());
      int64_t nnz_row = 0;
      for (int32_t col : touched) {
        if (acc[col] != 0.0) {
          part.cols.push_back(col);
          part.vals.push_back(acc[col]);
          ++nnz_row;
        }
        acc[col] = 0.0;
      }
      part.row_nnz.push_back(nnz_row);
    }
  });
  // Stitch parts in row order: sizes first, then one resize + bulk copy.
  auto& out_cols_v = c.mutable_col_idx();
  auto& out_vals_v = c.mutable_values();
  int64_t total = 0;
  std::vector<int64_t> offsets(parts.size() + 1, 0);
  for (size_t t = 0; t < parts.size(); ++t) {
    total += static_cast<int64_t>(parts[t].cols.size());
    offsets[t + 1] = total;
  }
  out_cols_v.resize(static_cast<size_t>(total));
  out_vals_v.resize(static_cast<size_t>(total));
  int64_t row = 0;
  for (size_t t = 0; t < parts.size(); ++t) {
    const Part& part = parts[t];
    for (int64_t nnz_row : part.row_nnz) {
      row_ptr[row + 1] = row_ptr[row] + nnz_row;
      ++row;
    }
    if (!part.cols.empty()) {
      std::memcpy(out_cols_v.data() + offsets[t], part.cols.data(),
                  part.cols.size() * sizeof(int32_t));
      std::memcpy(out_vals_v.data() + offsets[t], part.vals.data(),
                  part.vals.size() * sizeof(double));
    }
  }
  for (; row < m; ++row) row_ptr[row + 1] = row_ptr[row];
  return c;
}

/// Instruction sets the dense multiply's register tiles are built for,
/// narrowest first. Every set computes the same bits (gemm.cc).
enum class GemmIsa { kScalar, kAvx2, kAvx512 };

/// The widest tile set the running CPU supports (detected once).
GemmIsa SupportedGemmIsa();
/// The tile set the dense multiply runs: SupportedGemmIsa(), capped by
/// SetGemmIsaLimit.
GemmIsa ActiveGemmIsa();
/// Caps the tile set at `isa` (kAvx512, the default, caps nothing) and
/// returns the previous cap. For tests that run every path the CPU has.
GemmIsa SetGemmIsaLimit(GemmIsa isa);
/// "scalar", "avx2" or "avx512f".
const char* GemmIsaName(GemmIsa isa);

/// Naive reference GEMM (the i-j-x loop). Kept as the bitwise oracle for
/// the tiled kernel and as the bench baseline.
DenseMatrix MultiplyDenseDenseNaive(const DenseMatrix& a,
                                    const DenseMatrix& b);

/// op(A) op(B) for dense operands, op = transpose where flagged: the
/// register-tiled core behind Multiply and MultiplyTransposed, bitwise
/// identical to MultiplyDenseDenseNaive on the materialized operands
/// (see gemm.cc). The tiles count the product's non-zeros as they store
/// it, so the result is wrapped by Matrix::FromDense(c, nnz) without a
/// scan.
Matrix MultiplyDenseDense(const DenseMatrix& a, bool a_transposed,
                          const DenseMatrix& b, bool b_transposed);

}  // namespace internal
}  // namespace remac

#endif  // REMAC_MATRIX_KERNEL_INTERNAL_H_
