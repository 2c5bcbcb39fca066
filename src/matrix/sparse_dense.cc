#include <algorithm>
#include <atomic>
#include <optional>

#include "matrix/kernel_internal.h"
#include "matrix/simd_lanes.h"

/// The sparse x dense product family as two cores (docs/INTERNALS.md
/// Section 12), each built as a scalar, an AVX2 and an AVX-512F variant and
/// picked by ActiveGemmIsa() the way the dense multiply picks its tiles:
///
/// - core S: a sparse operand's rows times a dense panel, vector lanes
///   along C's columns. A B and Aᵀ B with A sparse read B in place; A Bᵀ
///   and Aᵀ Bᵀ read Bᵀ packed into a panel. Aᵀ's rows come from a CscView.
/// - core D: a dense operand times a sparse operand, vector lanes along
///   C's rows. For B it scatters B's live rows into a transposed tile;
///   for Bᵀ it reads B's rows in place, each one a column of C summed in
///   registers. The left lanes are read in place for Aᵀ and packed per
///   row tile for A.
///
/// Every variant is bitwise-identical to the reference loop on the
/// materialized operands: per C cell the terms add in the reference order
/// from +0.0, as separate multiplies and adds (never an FMA). Each C cell
/// is computed by one thread, so results do not depend on KernelThreads().

namespace remac {
namespace internal {
namespace {

/// The first 64-byte boundary at or after p (a buffer allocated 8 doubles
/// long has room for it).
double* AlignTo64(double* p) {
  return reinterpret_cast<double*>(
      (reinterpret_cast<uintptr_t>(p) + 63) & ~uintptr_t{63});
}

// --- core S ----------------------------------------------------------------

/// C (rows x n, row-major) = S P: S's rows from `s`, P(j, x) =
/// p[j * ldp + x].
struct SparseRowsOperands {
  CsrRows s;
  const double* p;
  int64_t ldp;
  double* c;
  int64_t n;
};

/// Stores C(i, x0 .. x0+cols) for every row i in [i0, i1): +0.0 plus
/// v * P(col, x) for each stored (col, v) of row i in stored order, with
/// no skip on v. Returns how many stored cells are non-zero (`!= 0.0`).
using SparseRowsFn = int64_t (*)(const SparseRowsOperands& g, int64_t i0,
                                 int64_t i1, int64_t x0, int64_t cols);

/// Core S column tile: the columns one sweep of a row's entries covers,
/// with the accumulators in registers: four on the scalar core, four
/// 4-double vectors on AVX2, four 8-double vectors on AVX-512F.
constexpr int64_t kSparseTileColsScalar = 4;
constexpr int64_t kSparseTileColsAvx2 = 16;
constexpr int64_t kSparseTileColsAvx512 = 32;
/// Rows per column sweep: a C wider than one tile sweeps its column tiles
/// over blocks of this many rows, so their entries stay in L1.
constexpr int64_t kSparseRowBlock = 128;

/// W columns (W == cols) in scalar registers. A one-column product (a
/// matrix-vector product) runs this on every instruction set: a lone lane
/// gains nothing from a vector.
template <int W>
int64_t SparseRowsScalar(const SparseRowsOperands& g, int64_t i0, int64_t i1,
                         int64_t x0, int64_t /*cols*/) {
  // Locals, not g's fields, so no store to C makes the compiler reload
  // them.
  const int64_t* ptr = g.s.ptr;
  const int32_t* idx = g.s.idx;
  const double* val = g.s.val;
  const double* p = g.p + x0;
  const int64_t ldp = g.ldp;
  int64_t nnz = 0;
  for (int64_t i = i0; i < i1; ++i) {
    double acc[W] = {};
    const int64_t q1 = ptr[i + 1];
    for (int64_t q = ptr[i]; q < q1; ++q) {
      const double v = val[q];
      const double* pj = p + static_cast<int64_t>(idx[q]) * ldp;
#pragma GCC unroll 4
      for (int x = 0; x < W; ++x) acc[x] += v * pj[x];
    }
    double* ci = g.c + i * g.n + x0;
#pragma GCC unroll 4
    for (int x = 0; x < W; ++x) {
      ci[x] = acc[x];
      nnz += acc[x] != 0.0 ? 1 : 0;
    }
  }
  return nnz;
}

/// Indexed by [cols - 1].
constexpr SparseRowsFn kSparseRowsScalar[4] = {
    SparseRowsScalar<1>, SparseRowsScalar<2>, SparseRowsScalar<3>,
    SparseRowsScalar<4>};

#if REMAC_KERNEL_X86
/// NV vectors of C's columns per row; the last one is masked to `cols`.
template <int NV>
REMAC_AVX2 int64_t SparseRowsAvx2(const SparseRowsOperands& g, int64_t i0,
                                  int64_t i1, int64_t x0, int64_t cols) {
  const int64_t tail_lanes = cols - 4 * (NV - 1);
  const bool partial = tail_lanes < 4;
  const __m256i tail = LaneMask(tail_lanes);
  const CsrRows& s = g.s;
  int64_t nnz = 0;
  for (int64_t i = i0; i < i1; ++i) {
    __m256d acc[NV];
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) acc[k] = _mm256_setzero_pd();
    for (int64_t q = s.ptr[i]; q < s.ptr[i + 1]; ++q) {
      const __m256d v = _mm256_broadcast_sd(s.val + q);
      const double* pj = g.p + static_cast<int64_t>(s.idx[q]) * g.ldp + x0;
#pragma GCC unroll 4
      for (int k = 0; k < NV; ++k) {
        acc[k] = MulAdd(acc[k], v, Load(pj + 4 * k, partial && k == NV - 1,
                                        tail));
      }
    }
    double* ci = g.c + i * g.n + x0;
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) {
      Store(ci + 4 * k, acc[k], partial && k == NV - 1, tail);
      nnz += NonZeroLanes(acc[k], k == NV - 1 ? tail_lanes : 4);
    }
  }
  return nnz;
}

/// SparseRowsAvx2 with 8-double vectors.
template <int NV>
REMAC_AVX512 int64_t SparseRowsAvx512(const SparseRowsOperands& g, int64_t i0,
                                      int64_t i1, int64_t x0, int64_t cols) {
  const int64_t tail_lanes = cols - 8 * (NV - 1);
  const bool partial = tail_lanes < 8;
  const __mmask8 tail = LaneMask8(tail_lanes);
  const CsrRows& s = g.s;
  int64_t nnz = 0;
  for (int64_t i = i0; i < i1; ++i) {
    __m512d acc[NV];
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) acc[k] = _mm512_setzero_pd();
    for (int64_t q = s.ptr[i]; q < s.ptr[i + 1]; ++q) {
      const __m512d v = _mm512_set1_pd(s.val[q]);
      const double* pj = g.p + static_cast<int64_t>(s.idx[q]) * g.ldp + x0;
#pragma GCC unroll 4
      for (int k = 0; k < NV; ++k) {
        acc[k] = MulAdd8(acc[k], v, Load8(pj + 8 * k, partial && k == NV - 1,
                                          tail));
      }
    }
    double* ci = g.c + i * g.n + x0;
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) {
      const bool last = k == NV - 1;
      Store8(ci + 8 * k, acc[k], partial && last, tail);
      const __mmask8 lanes = last ? tail : __mmask8{0xff};
      nnz += std::popcount(static_cast<unsigned>(NonZero8(acc[k]) & lanes));
    }
  }
  return nnz;
}

/// Indexed by [vectors - 1].
constexpr SparseRowsFn kSparseRowsAvx2[4] = {
    SparseRowsAvx2<1>, SparseRowsAvx2<2>, SparseRowsAvx2<3>,
    SparseRowsAvx2<4>};
constexpr SparseRowsFn kSparseRowsAvx512[4] = {
    SparseRowsAvx512<1>, SparseRowsAvx512<2>, SparseRowsAvx512<3>,
    SparseRowsAvx512<4>};
#endif  // REMAC_KERNEL_X86

SparseRowsFn PickSparseRows(GemmIsa isa, int64_t cols) {
#if REMAC_KERNEL_X86
  if (cols > 1 && isa == GemmIsa::kAvx512) {
    return kSparseRowsAvx512[(cols + 7) / 8 - 1];
  }
  if (cols > 1 && isa == GemmIsa::kAvx2) {
    return kSparseRowsAvx2[(cols + 3) / 4 - 1];
  }
#endif
  return kSparseRowsScalar[cols - 1];
}

/// Column tile width of core S on `isa`.
int64_t SparseTileCols(GemmIsa isa) {
  if (isa == GemmIsa::kAvx512) return kSparseTileColsAvx512;
  if (isa == GemmIsa::kAvx2) return kSparseTileColsAvx2;
  return kSparseTileColsScalar;
}

// --- core D ----------------------------------------------------------------

/// One row tile and column block [x0, x1) of C = L B, accumulated
/// transposed: tile[(col - x0) * height + l] holds C(i0 + l, col) and
/// starts at +0.0. The lanes of L(i0 .., j) for B's live row j = live[t]
/// start at lanes + t * t_stride + j * j_stride: in place in A's row j
/// when L is Aᵀ (t_stride 0), or a packed panel row when L is A (j_stride
/// 0). Lanes at or past `lanes_valid` are never loaded. cursor[t] is the
/// first stored entry of row live[t] at or past column x0; the kernel
/// moves it to the first one at or past x1 (or to the row's end when
/// every lane skips the row, which then adds nothing in any block).
struct LaneTileOperands {
  CsrRows r;
  const int64_t* live;
  int64_t live_count;
  const double* lanes;
  int64_t t_stride;
  int64_t j_stride;
  int64_t lanes_valid;
  int64_t height;
  double* tile;
  int64_t* cursor;
  int64_t x0;
  int64_t x1;
};

/// Adds L(i, j) * v into tile cell (col, i) for each live row j ascending
/// and each stored (col, v) of B's row j in the block, in stored order,
/// skipping the lanes whose L(i, j) is ±0 (the reference's `v == 0.0`
/// skip; NaN is not skipped).
using LaneTileFn = void (*)(const LaneTileOperands& g);

/// Core D's transposed tile holds at most this many cells (256 KiB, so it
/// stays in L2); a wider C is swept in column blocks, each C cell still
/// adding its terms in ascending j.
constexpr int64_t kLaneTileCells = int64_t{1} << 15;

void LaneTileScalar(const LaneTileOperands& g) {
  const CsrRows& r = g.r;
  for (int64_t t = 0; t < g.live_count; ++t) {
    const int64_t j = g.live[t];
    const double* lv = g.lanes + t * g.t_stride + j * g.j_stride;
    const int64_t q0 = g.cursor[t];
    const int64_t q_end =
        std::lower_bound(r.idx + q0, r.idx + r.ptr[j + 1], g.x1) - r.idx;
    g.cursor[t] = q_end;
    // Lane by lane: each tile cell still gets row j's term after row
    // live[t - 1]'s, and L(i, j) stays in a register.
    for (int64_t l = 0; l < g.lanes_valid; ++l) {
      const double x = lv[l];
      if (x == 0.0) continue;
      double* tl = g.tile + l;
      for (int64_t q = q0; q < q_end; ++q) {
        tl[(r.idx[q] - g.x0) * g.height] += x * r.val[q];
      }
    }
  }
}

#if REMAC_KERNEL_X86
/// NV vectors of C's rows (height 4 * NV); MulAddSkip's +0.0 addend keeps
/// every skipped lane's bits, since no tile cell is ever -0.0.
template <int NV>
REMAC_AVX2 void LaneTileAvx2(const LaneTileOperands& g) {
  constexpr int64_t kHeight = 4 * NV;
  const int64_t tail_lanes = g.lanes_valid - 4 * (NV - 1);
  const bool partial = tail_lanes < 4;
  const __m256i tail = LaneMask(tail_lanes);
  // Locals, not g's fields: a vector store may alias anything, so the
  // compiler would reload every field after each tile store.
  const int64_t* ptr = g.r.ptr;
  const int32_t* idx = g.r.idx;
  const double* val = g.r.val;
  const int64_t* live = g.live;
  const double* lanes = g.lanes;
  const int64_t t_stride = g.t_stride;
  const int64_t j_stride = g.j_stride;
  double* tile = g.tile;
  int64_t* cursor = g.cursor;
  const int64_t x0 = g.x0;
  const int64_t x1 = g.x1;
  for (int64_t t = 0; t < g.live_count; ++t) {
    const int64_t j = live[t];
    const double* lp = lanes + t * t_stride + j * j_stride;
    __m256d lv[NV];
    int any = 0;
#pragma GCC unroll 2
    for (int k = 0; k < NV; ++k) {
      lv[k] = Load(lp + 4 * k, partial && k == NV - 1, tail);
      any |= _mm256_movemask_pd(
          _mm256_cmp_pd(lv[k], _mm256_setzero_pd(), _CMP_NEQ_UQ));
    }
    const int64_t q1 = ptr[j + 1];
    int64_t q = cursor[t];
    if (any == 0) q = q1;  // every lane skips this row, in every block
    for (; q < q1 && idx[q] < x1; ++q) {
      const __m256d v = _mm256_broadcast_sd(val + q);
      double* tc = tile + (idx[q] - x0) * kHeight;
#pragma GCC unroll 2
      for (int k = 0; k < NV; ++k) {
        _mm256_storeu_pd(tc + 4 * k,
                         MulAddSkip(_mm256_loadu_pd(tc + 4 * k), lv[k], v));
      }
    }
    cursor[t] = q;
  }
}

/// LaneTileAvx2 with 8-double vectors and the skip as an add mask.
template <int NV>
REMAC_AVX512 void LaneTileAvx512(const LaneTileOperands& g) {
  constexpr int64_t kHeight = 8 * NV;
  const int64_t tail_lanes = g.lanes_valid - 8 * (NV - 1);
  const bool partial = tail_lanes < 8;
  const __mmask8 tail = LaneMask8(tail_lanes);
  const int64_t* ptr = g.r.ptr;
  const int32_t* idx = g.r.idx;
  const double* val = g.r.val;
  const int64_t* live = g.live;
  const double* lanes = g.lanes;
  const int64_t t_stride = g.t_stride;
  const int64_t j_stride = g.j_stride;
  double* tile = g.tile;
  int64_t* cursor = g.cursor;
  const int64_t x0 = g.x0;
  const int64_t x1 = g.x1;
  for (int64_t t = 0; t < g.live_count; ++t) {
    const int64_t j = live[t];
    const double* lp = lanes + t * t_stride + j * j_stride;
    __m512d lv[NV];
    __mmask8 nonzero[NV];
    unsigned any = 0;
#pragma GCC unroll 2
    for (int k = 0; k < NV; ++k) {
      lv[k] = Load8(lp + 8 * k, partial && k == NV - 1, tail);
      nonzero[k] = NonZero8(lv[k]);
      any |= nonzero[k];
    }
    const int64_t q1 = ptr[j + 1];
    int64_t q = cursor[t];
    if (any == 0) q = q1;  // every lane skips this row, in every block
    for (; q < q1 && idx[q] < x1; ++q) {
      const __m512d v = _mm512_set1_pd(val[q]);
      double* tc = tile + (idx[q] - x0) * kHeight;
#pragma GCC unroll 2
      for (int k = 0; k < NV; ++k) {
        _mm512_storeu_pd(tc + 8 * k, MulAddSkip8(_mm512_loadu_pd(tc + 8 * k),
                                                 nonzero[k], lv[k], v));
      }
    }
    cursor[t] = q;
  }
}

/// Indexed by [vectors - 1].
constexpr LaneTileFn kLaneTilesAvx2[2] = {LaneTileAvx2<1>, LaneTileAvx2<2>};
constexpr LaneTileFn kLaneTilesAvx512[2] = {LaneTileAvx512<1>,
                                            LaneTileAvx512<2>};
#endif  // REMAC_KERNEL_X86

LaneTileFn PickLaneTile(GemmIsa isa, [[maybe_unused]] int64_t vectors) {
#if REMAC_KERNEL_X86
  if (isa == GemmIsa::kAvx512) return kLaneTilesAvx512[vectors - 1];
  if (isa == GemmIsa::kAvx2) return kLaneTilesAvx2[vectors - 1];
#endif
  return LaneTileScalar;
}

/// One row tile of C = L Bᵀ with B's rows read in place: B's row col is
/// C's column col, so C(i0 + l, col) is the sum, from +0.0, of L(i0 + l, j)
/// * v over the stored (j, v) of B's row col, j ascending, skipping the
/// lanes whose L(i0 + l, j) is ±0. That is the term order of the tile
/// scatter over Bᵀ's rows (j ascending per C cell), without building Bᵀ.
/// The lanes of L(i0 .., j) start at lanes + j * j_stride; lanes at or
/// past `lanes_valid` are never loaded. C(i0 + l, col) is c[l * ldc + col].
struct LaneColumnsOperands {
  CsrRows b;
  const double* lanes;
  int64_t j_stride;
  int64_t lanes_valid;
  double* c;
  int64_t ldc;
};

/// Stores C(i0 + l, col) for every l < lanes_valid and every column of C;
/// returns how many are non-zero (`!= 0.0`).
using LaneColumnsFn = int64_t (*)(const LaneColumnsOperands& g);

int64_t LaneColumnsScalar(const LaneColumnsOperands& g) {
  const CsrRows& b = g.b;
  int64_t nnz = 0;
  for (int64_t l = 0; l < g.lanes_valid; ++l) {
    const double* lv = g.lanes + l;
    double* cl = g.c + l * g.ldc;
    for (int64_t col = 0; col < b.rows(); ++col) {
      double acc = 0.0;
      for (int64_t q = b.ptr[col]; q < b.ptr[col + 1]; ++q) {
        const double x = lv[static_cast<int64_t>(b.idx[q]) * g.j_stride];
        if (x == 0.0) continue;
        acc += x * b.val[q];
      }
      cl[col] = acc;
      nnz += acc != 0.0 ? 1 : 0;
    }
  }
  return nnz;
}

#if REMAC_KERNEL_X86
/// NV vectors of C's rows; the last one is masked to `lanes_valid`.
template <int NV>
REMAC_AVX2 int64_t LaneColumnsAvx2(const LaneColumnsOperands& g) {
  const int64_t tail_lanes = g.lanes_valid - 4 * (NV - 1);
  const bool partial = tail_lanes < 4;
  const __m256i tail = LaneMask(tail_lanes);
  // Locals, not g's fields, so no store to C makes the compiler reload
  // them.
  const int64_t* ptr = g.b.ptr;
  const int32_t* idx = g.b.idx;
  const double* val = g.b.val;
  const double* lanes = g.lanes;
  const int64_t j_stride = g.j_stride;
  const int64_t lanes_valid = g.lanes_valid;
  double* c = g.c;
  const int64_t ldc = g.ldc;
  const int64_t n = g.b.rows();
  alignas(32) double out[4 * NV];
  int64_t nnz = 0;
  for (int64_t col = 0; col < n; ++col) {
    __m256d acc[NV];
#pragma GCC unroll 2
    for (int k = 0; k < NV; ++k) acc[k] = _mm256_setzero_pd();
    const int64_t q1 = ptr[col + 1];
    for (int64_t q = ptr[col]; q < q1; ++q) {
      const __m256d v = _mm256_broadcast_sd(val + q);
      const double* lp = lanes + static_cast<int64_t>(idx[q]) * j_stride;
#pragma GCC unroll 2
      for (int k = 0; k < NV; ++k) {
        acc[k] = MulAddSkip(
            acc[k], Load(lp + 4 * k, partial && k == NV - 1, tail), v);
      }
    }
#pragma GCC unroll 2
    for (int k = 0; k < NV; ++k) _mm256_store_pd(out + 4 * k, acc[k]);
    for (int64_t l = 0; l < lanes_valid; ++l) {
      c[l * ldc + col] = out[l];
      nnz += out[l] != 0.0 ? 1 : 0;
    }
  }
  return nnz;
}

/// LaneColumnsAvx2 with 8-double vectors and the skip as an add mask.
template <int NV>
REMAC_AVX512 int64_t LaneColumnsAvx512(const LaneColumnsOperands& g) {
  const int64_t tail_lanes = g.lanes_valid - 8 * (NV - 1);
  const bool partial = tail_lanes < 8;
  const __mmask8 tail = LaneMask8(tail_lanes);
  const int64_t* ptr = g.b.ptr;
  const int32_t* idx = g.b.idx;
  const double* val = g.b.val;
  const double* lanes = g.lanes;
  const int64_t j_stride = g.j_stride;
  const int64_t lanes_valid = g.lanes_valid;
  double* c = g.c;
  const int64_t ldc = g.ldc;
  const int64_t n = g.b.rows();
  alignas(64) double out[8 * NV];
  int64_t nnz = 0;
  for (int64_t col = 0; col < n; ++col) {
    __m512d acc[NV];
#pragma GCC unroll 2
    for (int k = 0; k < NV; ++k) acc[k] = _mm512_setzero_pd();
    const int64_t q1 = ptr[col + 1];
    for (int64_t q = ptr[col]; q < q1; ++q) {
      const __m512d v = _mm512_set1_pd(val[q]);
      const double* lp = lanes + static_cast<int64_t>(idx[q]) * j_stride;
#pragma GCC unroll 2
      for (int k = 0; k < NV; ++k) {
        const __m512d lv = Load8(lp + 8 * k, partial && k == NV - 1, tail);
        acc[k] = MulAddSkip8(acc[k], NonZero8(lv), lv, v);
      }
    }
#pragma GCC unroll 2
    for (int k = 0; k < NV; ++k) _mm512_store_pd(out + 8 * k, acc[k]);
    for (int64_t l = 0; l < lanes_valid; ++l) {
      c[l * ldc + col] = out[l];
      nnz += out[l] != 0.0 ? 1 : 0;
    }
  }
  return nnz;
}

/// Indexed by [vectors - 1].
constexpr LaneColumnsFn kLaneColumnsAvx2[2] = {LaneColumnsAvx2<1>,
                                               LaneColumnsAvx2<2>};
constexpr LaneColumnsFn kLaneColumnsAvx512[2] = {LaneColumnsAvx512<1>,
                                                 LaneColumnsAvx512<2>};
#endif  // REMAC_KERNEL_X86

LaneColumnsFn PickLaneColumns(GemmIsa isa,
                              [[maybe_unused]] int64_t vectors) {
#if REMAC_KERNEL_X86
  if (isa == GemmIsa::kAvx512) return kLaneColumnsAvx512[vectors - 1];
  if (isa == GemmIsa::kAvx2) return kLaneColumnsAvx2[vectors - 1];
#endif
  return LaneColumnsScalar;
}

}  // namespace

Matrix MultiplyCsrDense(const CsrMatrix& a, bool a_transposed,
                        const DenseMatrix& b, bool b_transposed) {
  std::optional<CscView> at;
  if (a_transposed) at.emplace(a);
  const CsrRows s = a_transposed ? at->Rows() : CsrRows(a);
  const int64_t rows = s.rows();
  const int64_t depth = a_transposed ? a.rows() : a.cols();
  const int64_t n = b_transposed ? b.rows() : b.cols();
  DenseMatrix c(rows, n);
  // Bᵀ is packed into a depth x n panel holding exactly the cells of
  // Transpose(B), so this is the path Multiply(op(A), Transpose(B)) runs.
  // Its rows start on 64-byte boundaries, so a row of up to 8 doubles is
  // one cache line.
  std::vector<double> panel_buffer;
  const double* p = b.data();
  int64_t ldp = n;
  if (b_transposed) {
    ldp = (n + 7) / 8 * 8;
    panel_buffer.resize(static_cast<size_t>(depth * ldp + 8));
    double* panel = AlignTo64(panel_buffer.data());
    for (int64_t x = 0; x < n; ++x) {
      for (int64_t j = 0; j < depth; ++j) {
        panel[j * ldp + x] = p[x * depth + j];
      }
    }
    p = panel;
  }
  const SparseRowsOperands g{s, p, ldp, c.data(), n};
  const GemmIsa isa = ActiveGemmIsa();
  const int64_t tile_cols = SparseTileCols(isa);
  const int64_t row_work =
      n * std::max<int64_t>(1, s.nnz() / std::max<int64_t>(1, rows));
  std::atomic<int64_t> nnz{0};
  ParallelForRows(rows, row_work, [&](int64_t r0, int64_t r1) {
    int64_t local = 0;
    for (int64_t b0 = r0; b0 < r1; b0 += kSparseRowBlock) {
      const int64_t b1 = std::min(r1, b0 + kSparseRowBlock);
      for (int64_t x0 = 0; x0 < n; x0 += tile_cols) {
        const int64_t cols = std::min(tile_cols, n - x0);
        local += PickSparseRows(isa, cols)(g, b0, b1, x0, cols);
      }
    }
    nnz.fetch_add(local, std::memory_order_relaxed);
  });
  return Matrix::FromDense(std::move(c), nnz.load(std::memory_order_relaxed));
}

Matrix MultiplyDenseCsr(const DenseMatrix& a, bool a_transposed,
                        const CsrMatrix& b, bool b_transposed) {
  const int64_t rows = a_transposed ? a.cols() : a.rows();
  const int64_t depth = a_transposed ? a.rows() : a.cols();
  const int64_t n = b_transposed ? b.rows() : b.cols();
  DenseMatrix c(rows, n);
  if (b.nnz() == 0 || rows == 0) return Matrix::FromDense(std::move(c), 0);
  const CsrRows r(b);
  // For B, only its live rows are visited: an empty row adds no term,
  // even against a NaN or Inf in L. (For Bᵀ, an empty row of Bᵀ is a
  // column j that no row of B stores, so it is never read either.)
  std::vector<int64_t> live;
  if (!b_transposed) {
    live.reserve(static_cast<size_t>(depth));
    for (int64_t j = 0; j < depth; ++j) {
      if (r.ptr[j] < r.ptr[j + 1]) live.push_back(j);
    }
  }
  const int64_t live_count = static_cast<int64_t>(live.size());
  // L(i, j) = pa[i * rs + j * js].
  const double* pa = a.data();
  const int64_t rs = a_transposed ? 1 : depth;
  const int64_t js = a_transposed ? rows : 1;
  double* pc = c.data();
  const int64_t tile_work = (b_transposed ? n : live_count) + r.nnz();
  // A one-row C (a vector-matrix product) runs the scalar kernels on
  // one-lane tiles on every instruction set: a lone lane gains nothing
  // from a vector.
  const GemmIsa isa = rows == 1 ? GemmIsa::kScalar : ActiveGemmIsa();
  const int64_t lanes = rows == 1 ? 1 : isa == GemmIsa::kAvx512 ? 8 : 4;
  const int64_t max_height =
      std::min(2 * lanes, (rows + lanes - 1) / lanes * lanes);
  // Lanes of A (not transposed) are strided by depth: each row tile packs
  // them into a panel, one panel row per live row of B (addressed by live
  // position) or per column j of A for Bᵀ.
  const int64_t panel_rows = a_transposed ? 0 : b_transposed ? depth
                                                             : live_count;
  const int64_t row_tiles = (rows + max_height - 1) / max_height;
  // A one-row C is its own tile: at height 1 the tile is laid out like
  // C's row, which starts at +0.0, so it accumulates there in one block.
  const bool row_is_tile = rows == 1;
  const int64_t block_cols =
      row_is_tile ? n
                  : std::min(n, std::max<int64_t>(
                                    1, kLaneTileCells / max_height));
  std::atomic<int64_t> nnz{0};
  ParallelForRows(
      row_tiles, max_height * tile_work, [&](int64_t t0, int64_t t1) {
        // Tile and panel rows start on 64-byte boundaries, so no vector
        // access splits a cache line.
        std::vector<double> tile_buffer(
            b_transposed || row_is_tile
                ? 0
                : static_cast<size_t>(block_cols * max_height + 8));
        double* tile = AlignTo64(tile_buffer.data());
        std::vector<int64_t> cursor(static_cast<size_t>(live_count));
        std::vector<double> panel_buffer(
            static_cast<size_t>(panel_rows * max_height + 8));
        double* panel = AlignTo64(panel_buffer.data());
        int64_t local = 0;
        for (int64_t tt = t0; tt < t1; ++tt) {
          const int64_t i0 = tt * max_height;
          const int64_t tile_rows = std::min(max_height, rows - i0);
          const int64_t vectors = (tile_rows + lanes - 1) / lanes;
          const int64_t height = vectors * lanes;
          const double* lane_base = pa + i0;
          int64_t t_stride = 0;
          int64_t j_stride = js;
          if (!a_transposed) {
            for (int64_t l = 0; l < height; ++l) {
              for (int64_t t = 0; t < panel_rows; ++t) {
                const int64_t j = b_transposed ? t : live[t];
                panel[t * height + l] =
                    l < tile_rows ? pa[(i0 + l) * rs + j] : 0.0;
              }
            }
            lane_base = panel;
            t_stride = b_transposed ? 0 : height;
            j_stride = b_transposed ? height : 0;
          }
          if (b_transposed) {
            local += PickLaneColumns(isa, vectors)(
                {r, lane_base, j_stride, tile_rows, pc + i0 * n, n});
            continue;
          }
          for (int64_t t = 0; t < live_count; ++t) cursor[t] = r.ptr[live[t]];
          const LaneTileFn tile_fn = PickLaneTile(isa, vectors);
          for (int64_t x0 = 0; x0 < n; x0 += block_cols) {
            const int64_t x1 = std::min(n, x0 + block_cols);
            double* block = row_is_tile ? pc + x0 : tile;
            if (!row_is_tile) std::fill(tile, tile + (x1 - x0) * height, 0.0);
            tile_fn({r, live.data(), live_count, lane_base, t_stride,
                     j_stride, tile_rows, height, block, cursor.data(), x0,
                     x1});
            for (int64_t l = 0; l < tile_rows; ++l) {
              double* ci = pc + (i0 + l) * n;
              for (int64_t x = x0; x < x1; ++x) {
                const double v = block[(x - x0) * height + l];
                ci[x] = v;
                local += v != 0.0 ? 1 : 0;
              }
            }
          }
        }
        nnz.fetch_add(local, std::memory_order_relaxed);
      });
  return Matrix::FromDense(std::move(c), nnz.load(std::memory_order_relaxed));
}

}  // namespace internal
}  // namespace remac
