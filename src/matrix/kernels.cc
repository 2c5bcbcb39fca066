#include "matrix/kernels.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "matrix/fused_tape.h"
#include "matrix/kernel_internal.h"
#include "sched/thread_pool.h"

namespace remac {

namespace internal {

void ParallelForRows(int64_t rows, int64_t row_work,
                     const std::function<void(int64_t, int64_t)>& fn) {
  const int threads = KernelThreads();
  const int64_t total_work = rows * std::max<int64_t>(1, row_work);
  if (threads <= 1 || rows <= 1 || total_work < kParallelGrainWork) {
    fn(0, rows);
    return;
  }
  const int64_t chunk = (rows + threads - 1) / threads;
  const int task_count =
      static_cast<int>((rows + chunk - 1) / std::max<int64_t>(1, chunk));
  // Stable range records first, then one exactly-reserved task vector whose
  // closures capture a single pointer each (fits the std::function small
  // buffer — no per-task heap allocation).
  struct RowRange {
    const std::function<void(int64_t, int64_t)>* fn;
    int64_t begin;
    int64_t end;
  };
  std::vector<RowRange> ranges;
  ranges.reserve(static_cast<size_t>(task_count));
  for (int t = 0; t < task_count; ++t) {
    const int64_t begin = t * chunk;
    const int64_t end = std::min(rows, begin + chunk);
    if (begin >= end) break;
    ranges.push_back(RowRange{&fn, begin, end});
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(ranges.size());
  for (const RowRange& range : ranges) {
    const RowRange* r = &range;
    tasks.emplace_back([r] { (*r->fn)(r->begin, r->end); });
  }
  Metrics().parallel_tasks->Add(static_cast<int64_t>(tasks.size()));
  ThreadPool::Global().RunAndWait(std::move(tasks));
}

}  // namespace internal

namespace {

using internal::kReductionChunk;
using internal::CsrRows;
using internal::Metrics;
using internal::MultiplyDenseDense;
using internal::MultiplyCsrDense;
using internal::MultiplyDenseCsr;
using internal::MultiplyDenseDenseNaive;
using internal::MultiplySparseSparseCore;
using internal::ParallelForRows;

std::atomic<int> g_kernel_threads{0};

Status ShapeError(const char* op, const Matrix& a, const Matrix& b) {
  return internal::ShapeErrorDims(op, a.rows(), a.cols(), b.rows(), b.cols());
}

CsrMatrix TransposeCsr(const CsrMatrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  CsrMatrix t(n, m);
  auto& row_ptr = t.mutable_row_ptr();
  auto& col_idx = t.mutable_col_idx();
  auto& values = t.mutable_values();
  col_idx.resize(static_cast<size_t>(a.nnz()));
  values.resize(static_cast<size_t>(a.nnz()));
  // Counting sort by column.
  for (int32_t c : a.col_idx()) ++row_ptr[c + 1];
  for (int64_t i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];
  std::vector<int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t p = a.row_ptr()[r]; p < a.row_ptr()[r + 1]; ++p) {
      const int64_t dst = cursor[a.col_idx()[p]]++;
      col_idx[dst] = static_cast<int32_t>(r);
      values[dst] = a.values()[p];
    }
  }
  return t;
}

/// Blocked transpose: the output is written row-contiguously in square
/// tiles so both source and destination stay within a few cache lines per
/// tile. Parallel over output rows; pure data movement, so there is no
/// floating-point ordering to preserve.
DenseMatrix TransposeDense(const DenseMatrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  DenseMatrix t(n, m);
  const double* pa = a.data();
  double* pt = t.data();
  constexpr int64_t kTile = 32;
  ParallelForRows(n, m, [&](int64_t r0, int64_t r1) {
    for (int64_t c0 = r0; c0 < r1; c0 += kTile) {
      const int64_t ce = std::min(r1, c0 + kTile);
      for (int64_t b0 = 0; b0 < m; b0 += kTile) {
        const int64_t be = std::min(m, b0 + kTile);
        for (int64_t c = c0; c < ce; ++c) {
          double* tr = pt + c * m;
          for (int64_t r = b0; r < be; ++r) tr[r] = pa[r * n + c];
        }
      }
    }
  });
  return t;
}

/// One-pass dense result construction (docs/INTERNALS.md Section 12):
/// stores out[i] = cell(i) for every flat cell exactly once and counts the
/// non-zeros (`!= 0.0`, Matrix's rule) in the same loop. Cells are
/// independent, so flat ranges run in parallel and the integer counts fold
/// in any order.
template <typename Cell>
int64_t StoreCountingNonZeros(int64_t count, double* out, Cell cell) {
  std::atomic<int64_t> nnz{0};
  ParallelForRows(count, 1, [&](int64_t i0, int64_t i1) {
    int64_t local = 0;
    for (int64_t i = i0; i < i1; ++i) {
      const double v = cell(i);
      out[i] = v;
      local += v != 0.0 ? 1 : 0;
    }
    nnz.fetch_add(local, std::memory_order_relaxed);
  });
  return nnz.load(std::memory_order_relaxed);
}

/// C = f(A) cell-wise, dense. A dense A is read in place into a fresh
/// output; a CSR A is densified into the output buffer, which the pass then
/// overwrites (each cell is read before it is stored).
template <typename F>
Matrix MapDense(const Matrix& a, F f) {
  DenseMatrix out =
      a.is_dense() ? DenseMatrix(a.rows(), a.cols()) : a.csr().ToDense();
  const double* pa = a.is_dense() ? a.dense().data() : out.data();
  const int64_t nnz = StoreCountingNonZeros(
      out.size(), out.data(), [&](int64_t i) { return f(pa[i]); });
  return Matrix::FromDense(std::move(out), nnz);
}

/// C = op(A, B) cell-wise, dense, for operands of which at least one is
/// dense. Dense operands are read in place (both sides may be the same
/// matrix); a CSR operand is densified into the output buffer, as in
/// MapDense.
template <typename Op>
Matrix ZipDense(const Matrix& a, const Matrix& b, Op op) {
  assert(a.is_dense() || b.is_dense());
  DenseMatrix out = a.is_dense() && b.is_dense()
                        ? DenseMatrix(a.rows(), a.cols())
                        : (a.is_dense() ? b : a).csr().ToDense();
  const double* pa = a.is_dense() ? a.dense().data() : out.data();
  const double* pb = b.is_dense() ? b.dense().data() : out.data();
  const int64_t nnz = StoreCountingNonZeros(
      out.size(), out.data(), [&](int64_t i) { return op(pa[i], pb[i]); });
  return Matrix::FromDense(std::move(out), nnz);
}

template <FusedOp Op>
Matrix ApplyCellwiseOp(const Matrix& a, double s, bool scalar_left) {
  if (scalar_left) {
    return MapDense(a, [s](double x) { return FusedApply(Op, s, x); });
  }
  return MapDense(a, [s](double x) { return FusedApply(Op, x, s); });
}

template <typename Op>
Result<Matrix> ElementwiseBinary(const char* name, const Matrix& a,
                                 const Matrix& b, Op op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ShapeError(name, a, b);
  }
  Metrics().elementwise_ops->Add();
  if (!a.is_dense() && !b.is_dense()) {
    // Every op maps (0, 0) to 0: merge the two CSR row lists, written
    // through raw pointers. A row stores at most min(its two lengths'
    // sum, cols) cells. The arrays start at the larger operand's nnz plus
    // one row, which two operands of one pattern (V * V) never outgrow,
    // and double only when a row's bound would overflow them; the stored
    // count trims them once at the end.
    const CsrMatrix& sa = a.csr();
    const CsrMatrix& sb = b.csr();
    CsrMatrix out(a.rows(), a.cols());
    auto& row_ptr = out.mutable_row_ptr();
    auto& cols = out.mutable_col_idx();
    auto& vals = out.mutable_values();
    const int64_t width = a.cols();
    int64_t capacity = std::max(sa.nnz(), sb.nnz()) + width;
    cols.resize(static_cast<size_t>(capacity));
    vals.resize(static_cast<size_t>(capacity));
    const int64_t* ra = sa.row_ptr().data();
    const int64_t* rb = sb.row_ptr().data();
    const int32_t* ia = sa.col_idx().data();
    const int32_t* ib = sb.col_idx().data();
    const double* xa = sa.values().data();
    const double* xb = sb.values().data();
    int32_t* oc = cols.data();
    double* ov = vals.data();
    int64_t count = 0;
    for (int64_t r = 0; r < a.rows(); ++r) {
      int64_t pa = ra[r];
      int64_t pb = rb[r];
      const int64_t ea = ra[r + 1];
      const int64_t eb = rb[r + 1];
      const int64_t bound = count + std::min(width, (ea - pa) + (eb - pb));
      if (bound > capacity) {
        capacity = std::max(2 * capacity, bound);
        cols.resize(static_cast<size_t>(capacity));
        vals.resize(static_cast<size_t>(capacity));
        oc = cols.data();
        ov = vals.data();
      }
      while (pa < ea || pb < eb) {
        const int32_t ca = pa < ea ? ia[pa] : INT32_MAX;
        const int32_t cb = pb < eb ? ib[pb] : INT32_MAX;
        const int32_t col = std::min(ca, cb);
        double va = 0.0;
        double vb = 0.0;
        if (ca == col) va = xa[pa++];
        if (cb == col) vb = xb[pb++];
        const double v = op(va, vb);
        if (v != 0.0) {
          oc[count] = col;
          ov[count] = v;
          ++count;
        }
      }
      row_ptr[r + 1] = count;
    }
    cols.resize(static_cast<size_t>(count));
    vals.resize(static_cast<size_t>(count));
    // A result that cancels most cells (a - a, .* over patterns that
    // barely overlap) gives the slack back, so the arrays hold at most
    // twice the cells that BytesUsed (their size) charges for.
    if (cols.capacity() > 2 * cols.size()) {
      cols.shrink_to_fit();
      vals.shrink_to_fit();
    }
    return Matrix::FromCsr(std::move(out));
  }
  return ZipDense(a, b, op);
}

/// Deterministic chunked reduction: data is split into fixed-size chunks
/// (independent of thread count), each chunk is summed serially in index
/// order, and the per-chunk partials are folded in chunk order. The result
/// therefore never depends on how many threads ran. `transform` maps each
/// element before accumulation (identity for SumAll, square for the norm).
template <typename Transform>
double ChunkedReduce(const double* data, int64_t count, Transform transform) {
  if (count == 0) return 0.0;
  const int64_t chunks = (count + kReductionChunk - 1) / kReductionChunk;
  std::vector<double> partials(static_cast<size_t>(chunks), 0.0);
  ParallelForRows(chunks, kReductionChunk, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t begin = c * kReductionChunk;
      const int64_t end = std::min(count, begin + kReductionChunk);
      double s = 0.0;
      for (int64_t i = begin; i < end; ++i) s += transform(data[i]);
      partials[static_cast<size_t>(c)] = s;
    }
  });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

}  // namespace

int KernelThreads() {
  const int override_threads = g_kernel_threads.load(std::memory_order_relaxed);
  if (override_threads > 0) return override_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 16u));
}

void SetKernelThreads(int threads) {
  g_kernel_threads.store(threads, std::memory_order_relaxed);
}

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) return ShapeError("multiply", a, b);
  Metrics().multiplies->Add();
  if (a.is_dense() && b.is_dense()) {
    return MultiplyDenseDense(a.dense(), false, b.dense(), false);
  }
  if (!a.is_dense() && b.is_dense()) {
    return MultiplyCsrDense(a.csr(), false, b.dense(), false);
  }
  if (a.is_dense() && !b.is_dense()) {
    return MultiplyDenseCsr(a.dense(), false, b.csr(), false);
  }
  return Matrix::FromCsr(MultiplySparseSparseCore(
      CsrRows(a.csr()), CsrRows(b.csr()), a.rows(), b.cols()));
}

Result<Matrix> MultiplyReferenceNaive(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) return ShapeError("multiply", a, b);
  if (a.is_dense() && b.is_dense()) {
    return Matrix::FromDense(MultiplyDenseDenseNaive(a.dense(), b.dense()));
  }
  return Multiply(a, b);
}

Matrix Transpose(const Matrix& a) {
  Metrics().transposes->Add();
  if (a.is_dense()) return Matrix::WrapDense(TransposeDense(a.dense()));
  return Matrix::WrapCsr(TransposeCsr(a.csr()));
}

Result<Matrix> Add(const Matrix& a, const Matrix& b) {
  return ElementwiseBinary(
      "add", a, b, [](double x, double y) { return x + y; });
}

Result<Matrix> Subtract(const Matrix& a, const Matrix& b) {
  return ElementwiseBinary(
      "subtract", a, b, [](double x, double y) { return x - y; });
}

Result<Matrix> ElementwiseMultiply(const Matrix& a, const Matrix& b) {
  return ElementwiseBinary(
      "elementwise multiply", a, b, [](double x, double y) { return x * y; });
}

Result<Matrix> ElementwiseDivide(const Matrix& a, const Matrix& b) {
  return ElementwiseBinary(
      "elementwise divide", a, b,
      [](double x, double y) { return y == 0.0 ? 0.0 : x / y; });
}

Result<Matrix> ElementwiseMin(const Matrix& a, const Matrix& b) {
  return ElementwiseBinary(
      "elementwise min", a, b,
      [](double x, double y) { return FusedApply(FusedOp::kMin, x, y); });
}

Result<Matrix> ElementwiseMax(const Matrix& a, const Matrix& b) {
  return ElementwiseBinary(
      "elementwise max", a, b,
      [](double x, double y) { return FusedApply(FusedOp::kMax, x, y); });
}

Matrix ScalarMultiply(const Matrix& a, double s) {
  Metrics().scalar_ops->Add();
  if (a.is_dense()) return MapDense(a, [s](double x) { return x * s; });
  CsrMatrix c = a.csr();
  double* pv = c.mutable_values().data();
  ParallelForRows(c.nnz(), 1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) pv[i] *= s;
  });
  return Matrix::FromCsr(std::move(c));
}

Matrix ScalarAdd(const Matrix& a, double s) {
  Metrics().scalar_ops->Add();
  return MapDense(a, [s](double x) { return x + s; });
}

Matrix ApplyCellwise(const Matrix& a, FusedOp op, double s,
                     bool scalar_left) {
  switch (op) {
    case FusedOp::kAdd: return ApplyCellwiseOp<FusedOp::kAdd>(a, s, scalar_left);
    case FusedOp::kSub: return ApplyCellwiseOp<FusedOp::kSub>(a, s, scalar_left);
    case FusedOp::kMul: return ApplyCellwiseOp<FusedOp::kMul>(a, s, scalar_left);
    case FusedOp::kDiv: return ApplyCellwiseOp<FusedOp::kDiv>(a, s, scalar_left);
    case FusedOp::kMin: return ApplyCellwiseOp<FusedOp::kMin>(a, s, scalar_left);
    case FusedOp::kMax: return ApplyCellwiseOp<FusedOp::kMax>(a, s, scalar_left);
    case FusedOp::kExp: return ApplyCellwiseOp<FusedOp::kExp>(a, s, scalar_left);
    case FusedOp::kLog: return ApplyCellwiseOp<FusedOp::kLog>(a, s, scalar_left);
  }
  return a;
}

Matrix Negate(const Matrix& a) { return ScalarMultiply(a, -1.0); }

double SumAll(const Matrix& a) {
  Metrics().reductions->Add();
  const double* data =
      a.is_dense() ? a.dense().data() : a.csr().values().data();
  const int64_t count = a.is_dense() ? a.dense().size() : a.csr().nnz();
  return ChunkedReduce(data, count, [](double v) { return v; });
}

double FrobeniusNorm(const Matrix& a) {
  Metrics().reductions->Add();
  const double* data =
      a.is_dense() ? a.dense().data() : a.csr().values().data();
  const int64_t count = a.is_dense() ? a.dense().size() : a.csr().nnz();
  return std::sqrt(ChunkedReduce(data, count, [](double v) { return v * v; }));
}

Result<int64_t> MultiplyNnzExact(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) return ShapeError("multiply-nnz", a, b);
  const CsrMatrix sa = a.ToCsr();
  const CsrMatrix sb = b.ToCsr();
  std::vector<char> seen(static_cast<size_t>(b.cols()), 0);
  std::vector<int32_t> touched;
  int64_t nnz = 0;
  for (int64_t i = 0; i < sa.rows(); ++i) {
    touched.clear();
    for (int64_t p = sa.row_ptr()[i]; p < sa.row_ptr()[i + 1]; ++p) {
      const int64_t j = sa.col_idx()[p];
      for (int64_t q = sb.row_ptr()[j]; q < sb.row_ptr()[j + 1]; ++q) {
        const int32_t col = sb.col_idx()[q];
        if (!seen[col]) {
          seen[col] = 1;
          touched.push_back(col);
        }
      }
    }
    nnz += static_cast<int64_t>(touched.size());
    for (int32_t col : touched) seen[col] = 0;
  }
  return nnz;
}

}  // namespace remac
