#include "matrix/kernel_internal.h"

#include <atomic>
#include <bit>

#include "matrix/simd_lanes.h"

namespace remac {
namespace internal {
namespace {

/// A tile is kGemmTileRows output rows (kAvx512TileRows on AVX-512F,
/// whose 32 vector registers hold twice the accumulators) x kGemmTileCols
/// columns (kGemvTileRows rows x 1 column when n = 1), held in registers
/// while it accumulates one kGemmDepthBlock-long block of the shared
/// index. Per block, the left rows of a group of kGemmGroupTiles row tiles
/// (at most 128 x 256 doubles = 256 KB) stay in L2 and a 256 x 16 slice
/// of B (32 KB) in L1 while the group's tiles sweep them (sized for 48 KB
/// L1d and 2 MiB L2 per core).
constexpr int64_t kGemmTileRows = 4;
constexpr int64_t kAvx512TileRows = 8;
constexpr int64_t kGemmTileCols = 16;
constexpr int64_t kGemvTileRows = 16;
constexpr int64_t kGemmDepthBlock = 256;
constexpr int64_t kGemmGroupTiles = 16;

/// One dense product C (rows x n) = L (rows x depth) * R (depth x n) as
/// strided views: L(i, j) = a[i * rs + j * js], so rs = 1 walks a stored
/// row of A in place when L is Aᵀ; R(j, x) = b[j * ldb + x]; C is
/// row-major with row stride ldc.
struct GemmOperands {
  const double* a;
  int64_t rs;
  int64_t js;
  const double* b;
  int64_t ldb;
  double* c;
  int64_t ldc;
};

/// Accumulates tile C(i0 .. i0+rows, x0 .. x0+cols) over j in [j0, j1):
/// loads the tile, adds the j-terms in ascending order, stores it back.
/// With `count` set (the tile's last j-block) it returns how many stored
/// cells are non-zero (`!= 0.0`, so NaN counts and -0.0 does not);
/// otherwise it returns 0.
using TileFn = int64_t (*)(const GemmOperands& g, int64_t i0, int64_t x0,
                           int64_t j0, int64_t j1, int64_t rows, int64_t cols,
                           bool count);

int64_t TileScalar(const GemmOperands& g, int64_t i0, int64_t x0, int64_t j0,
                   int64_t j1, int64_t rows, int64_t cols, bool count) {
  double acc[kGemvTileRows][kGemmTileCols];
  for (int64_t r = 0; r < rows; ++r) {
    const double* cr = g.c + (i0 + r) * g.ldc + x0;
    for (int64_t x = 0; x < cols; ++x) acc[r][x] = cr[x];
  }
  for (int64_t j = j0; j < j1; ++j) {
    const double* bj = g.b + j * g.ldb + x0;
    for (int64_t r = 0; r < rows; ++r) {
      const double v = g.a[(i0 + r) * g.rs + j * g.js];
      if (v == 0.0) continue;
      for (int64_t x = 0; x < cols; ++x) acc[r][x] += v * bj[x];
    }
  }
  int64_t nnz = 0;
  for (int64_t r = 0; r < rows; ++r) {
    double* cr = g.c + (i0 + r) * g.ldc + x0;
    for (int64_t x = 0; x < cols; ++x) {
      cr[x] = acc[r][x];
      nnz += acc[r][x] != 0.0 ? 1 : 0;
    }
  }
  return count ? nnz : 0;
}

#if REMAC_KERNEL_X86
/// R rows x NV vectors of columns, columns in the lanes: per j one
/// broadcast of each row's left value times the R-row slice of B. The
/// last vector is masked to the tile's column count.
template <int R, int NV>
REMAC_AVX2 int64_t TileAvx2(const GemmOperands& g, int64_t i0, int64_t x0,
                            int64_t j0, int64_t j1, int64_t /*rows*/,
                            int64_t cols, bool count) {
  const int64_t tail_lanes = cols - 4 * (NV - 1);
  const __m256i tail = LaneMask(tail_lanes);
  const int64_t rs = g.rs, js = g.js, ldb = g.ldb, ldc = g.ldc;
  const double* a = g.a + i0 * rs + j0 * js;
  const double* bj = g.b + j0 * ldb + x0;
  double* c = g.c + i0 * ldc + x0;
  __m256d acc[R][NV];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) {
      acc[r][q] = Load(c + r * ldc + 4 * q, q == NV - 1, tail);
    }
  }
  for (int64_t j = j0; j < j1; ++j, a += js, bj += ldb) {
    __m256d bv[NV];
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) bv[q] = Load(bj + 4 * q, q == NV - 1, tail);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d v = _mm256_broadcast_sd(a + r * rs);
#pragma GCC unroll 4
      for (int q = 0; q < NV; ++q) acc[r][q] = MulAddSkip(acc[r][q], v, bv[q]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) {
      Store(c + r * ldc + 4 * q, acc[r][q], q == NV - 1, tail);
    }
  }
  if (!count) return 0;
  int64_t nnz = 0;
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < NV; ++q) {
      nnz += NonZeroLanes(acc[r][q], q == NV - 1 ? tail_lanes : 4);
    }
  }
  return nnz;
}

/// n = 1 (GEMV): up to 16 output rows in the lanes of NV vectors. Each
/// row's left value is a contiguous load when L is Aᵀ (rs = 1) and a
/// gather otherwise; the one right value per j is broadcast.
template <bool kContiguous, int NV>
REMAC_AVX2 int64_t GemvAvx2(const GemmOperands& g, int64_t i0, int64_t x0,
                            int64_t j0, int64_t j1, int64_t rows,
                            int64_t /*cols*/, bool count) {
  const int64_t tail_lanes = rows - 4 * (NV - 1);
  const __m256i tail = LaneMask(tail_lanes);
  const int64_t rs = g.rs, js = g.js, ldb = g.ldb;
  const __m256i offsets = _mm256_setr_epi64x(0, rs, 2 * rs, 3 * rs);
  const double* aj = g.a + i0 * rs + j0 * js;
  const double* bj = g.b + j0 * ldb + x0;
  double* c = g.c + i0 * g.ldc + x0;  // ldc = 1: the rows are contiguous
  __m256d acc[NV];
#pragma GCC unroll 4
  for (int q = 0; q < NV; ++q) acc[q] = Load(c + 4 * q, q == NV - 1, tail);
  for (int64_t j = j0; j < j1; ++j, aj += js, bj += ldb) {
    const __m256d b = _mm256_broadcast_sd(bj);
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) {
      const __m256i mask = q == NV - 1 ? tail : _mm256_set1_epi64x(-1);
      const __m256d v =
          kContiguous ? Load(aj + 4 * q, q == NV - 1, tail)
                      : _mm256_mask_i64gather_pd(
                            _mm256_setzero_pd(), aj + 4 * q * rs, offsets,
                            _mm256_castsi256_pd(mask), 8);
      acc[q] = MulAddSkip(acc[q], v, b);
    }
  }
#pragma GCC unroll 4
  for (int q = 0; q < NV; ++q) Store(c + 4 * q, acc[q], q == NV - 1, tail);
  if (!count) return 0;
  int64_t nnz = 0;
  for (int q = 0; q < NV; ++q) {
    nnz += NonZeroLanes(acc[q], q == NV - 1 ? tail_lanes : 4);
  }
  return nnz;
}

/// Indexed by [rows - 1][vectors - 1] and [contiguous][vectors - 1].
constexpr TileFn kTilesAvx2[4][4] = {
    {TileAvx2<1, 1>, TileAvx2<1, 2>, TileAvx2<1, 3>, TileAvx2<1, 4>},
    {TileAvx2<2, 1>, TileAvx2<2, 2>, TileAvx2<2, 3>, TileAvx2<2, 4>},
    {TileAvx2<3, 1>, TileAvx2<3, 2>, TileAvx2<3, 3>, TileAvx2<3, 4>},
    {TileAvx2<4, 1>, TileAvx2<4, 2>, TileAvx2<4, 3>, TileAvx2<4, 4>}};
constexpr TileFn kGemvAvx2[2][4] = {
    {GemvAvx2<false, 1>, GemvAvx2<false, 2>, GemvAvx2<false, 3>,
     GemvAvx2<false, 4>},
    {GemvAvx2<true, 1>, GemvAvx2<true, 2>, GemvAvx2<true, 3>,
     GemvAvx2<true, 4>}};

/// TileAvx2 with 8-double vectors: R rows x NV vectors of columns.
template <int R, int NV>
REMAC_AVX512 int64_t TileAvx512(const GemmOperands& g, int64_t i0, int64_t x0,
                                int64_t j0, int64_t j1, int64_t /*rows*/,
                                int64_t cols, bool count) {
  const __mmask8 tail = LaneMask8(cols - 8 * (NV - 1));
  const int64_t rs = g.rs, js = g.js, ldb = g.ldb, ldc = g.ldc;
  const double* a = g.a + i0 * rs + j0 * js;
  const double* bj = g.b + j0 * ldb + x0;
  double* c = g.c + i0 * ldc + x0;
  __m512d acc[R][NV];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int q = 0; q < NV; ++q) {
      acc[r][q] = Load8(c + r * ldc + 8 * q, q == NV - 1, tail);
    }
  }
  for (int64_t j = j0; j < j1; ++j, a += js, bj += ldb) {
    __m512d bv[NV];
#pragma GCC unroll 2
    for (int q = 0; q < NV; ++q) bv[q] = Load8(bj + 8 * q, q == NV - 1, tail);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m512d v = _mm512_set1_pd(a[r * rs]);
      const __mmask8 nonzero = NonZero8(v);
#pragma GCC unroll 2
      for (int q = 0; q < NV; ++q) {
        acc[r][q] = MulAddSkip8(acc[r][q], nonzero, v, bv[q]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int q = 0; q < NV; ++q) {
      Store8(c + r * ldc + 8 * q, acc[r][q], q == NV - 1, tail);
    }
  }
  if (!count) return 0;
  int64_t nnz = 0;
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < NV; ++q) {
      const __mmask8 lanes = q == NV - 1 ? tail : __mmask8{0xff};
      nnz += std::popcount(static_cast<unsigned>(NonZero8(acc[r][q]) & lanes));
    }
  }
  return nnz;
}

/// GemvAvx2 with 8-double vectors: up to 16 output rows in NV vectors.
template <bool kContiguous, int NV>
REMAC_AVX512 int64_t GemvAvx512(const GemmOperands& g, int64_t i0, int64_t x0,
                                int64_t j0, int64_t j1, int64_t rows,
                                int64_t /*cols*/, bool count) {
  const __mmask8 tail = LaneMask8(rows - 8 * (NV - 1));
  const int64_t rs = g.rs, js = g.js, ldb = g.ldb;
  const __m512i offsets =
      _mm512_setr_epi64(0, rs, 2 * rs, 3 * rs, 4 * rs, 5 * rs, 6 * rs, 7 * rs);
  const double* aj = g.a + i0 * rs + j0 * js;
  const double* bj = g.b + j0 * ldb + x0;
  double* c = g.c + i0 * g.ldc + x0;  // ldc = 1: the rows are contiguous
  __m512d acc[NV];
#pragma GCC unroll 2
  for (int q = 0; q < NV; ++q) acc[q] = Load8(c + 8 * q, q == NV - 1, tail);
  for (int64_t j = j0; j < j1; ++j, aj += js, bj += ldb) {
    const __m512d b = _mm512_set1_pd(*bj);
#pragma GCC unroll 2
    for (int q = 0; q < NV; ++q) {
      const __mmask8 lanes = q == NV - 1 ? tail : __mmask8{0xff};
      const __m512d v =
          kContiguous ? Load8(aj + 8 * q, q == NV - 1, tail)
                      : _mm512_mask_i64gather_pd(_mm512_setzero_pd(), lanes,
                                                 offsets, aj + 8 * q * rs, 8);
      acc[q] = MulAddSkip8(acc[q], NonZero8(v) & lanes, v, b);
    }
  }
#pragma GCC unroll 2
  for (int q = 0; q < NV; ++q) Store8(c + 8 * q, acc[q], q == NV - 1, tail);
  if (!count) return 0;
  int64_t nnz = 0;
  for (int q = 0; q < NV; ++q) {
    const __mmask8 lanes = q == NV - 1 ? tail : __mmask8{0xff};
    nnz += std::popcount(static_cast<unsigned>(NonZero8(acc[q]) & lanes));
  }
  return nnz;
}

/// Indexed by [rows - 1][vectors - 1] and [contiguous][vectors - 1].
constexpr TileFn kTilesAvx512[kAvx512TileRows][2] = {{TileAvx512<1, 1>, TileAvx512<1, 2>},
                                       {TileAvx512<2, 1>, TileAvx512<2, 2>},
                                       {TileAvx512<3, 1>, TileAvx512<3, 2>},
                                       {TileAvx512<4, 1>, TileAvx512<4, 2>},
                                       {TileAvx512<5, 1>, TileAvx512<5, 2>},
                                       {TileAvx512<6, 1>, TileAvx512<6, 2>},
                                       {TileAvx512<7, 1>, TileAvx512<7, 2>},
                                       {TileAvx512<8, 1>, TileAvx512<8, 2>}};
constexpr TileFn kGemvAvx512[2][2] = {
    {GemvAvx512<false, 1>, GemvAvx512<false, 2>},
    {GemvAvx512<true, 1>, GemvAvx512<true, 2>}};
#endif  // REMAC_KERNEL_X86

/// The widest tile set the running CPU supports. Dispatching on it cannot
/// change any result: every vector tile is bitwise-identical to the scalar
/// one lane for lane.
GemmIsa DetectGemmIsa() {
#if REMAC_KERNEL_X86
  if (__builtin_cpu_supports("avx512f")) return GemmIsa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return GemmIsa::kAvx2;
#endif
  return GemmIsa::kScalar;
}

std::atomic<GemmIsa> gemm_isa_limit{GemmIsa::kAvx512};

}  // namespace

GemmIsa SupportedGemmIsa() {
  static const GemmIsa isa = DetectGemmIsa();
  return isa;
}

GemmIsa ActiveGemmIsa() {
  return std::min(SupportedGemmIsa(),
                  gemm_isa_limit.load(std::memory_order_relaxed));
}

GemmIsa SetGemmIsaLimit(GemmIsa isa) {
  return gemm_isa_limit.exchange(isa, std::memory_order_relaxed);
}

const char* GemmIsaName(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kScalar:
      return "scalar";
    case GemmIsa::kAvx2:
      return "avx2";
    case GemmIsa::kAvx512:
      return "avx512f";
  }
  return "?";
}

DenseMatrix MultiplyDenseDenseNaive(const DenseMatrix& a,
                                    const DenseMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  DenseMatrix c(m, n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  ParallelForRows(m, n * std::max<int64_t>(1, k), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      const double* ai = pa + i * k;
      for (int64_t j = 0; j < k; ++j) {
        const double v = ai[j];
        if (v == 0.0) continue;
        const double* bj = pb + j * n;
        for (int64_t x = 0; x < n; ++x) ci[x] += v * bj[x];
      }
    }
  });
  return c;
}

Matrix MultiplyDenseDense(const DenseMatrix& a, bool a_transposed,
                          const DenseMatrix& b, bool b_transposed) {
  const int64_t rows = a_transposed ? a.cols() : a.rows();
  const int64_t depth = a_transposed ? a.rows() : a.cols();
  const int64_t n = b_transposed ? b.rows() : b.cols();
  DenseMatrix c(rows, n);
  Metrics().gemm_blocked->Add();
  // Bᵀ is packed once into a depth x n panel, so every variant runs the
  // AB tiles; Aᵀ is read in place through the strides.
  std::vector<double> panel;
  const double* pb = b.data();
  if (b_transposed) {
    panel.resize(static_cast<size_t>(depth * n));
    for (int64_t x = 0; x < n; ++x) {
      for (int64_t j = 0; j < depth; ++j) panel[j * n + x] = pb[x * depth + j];
    }
    pb = panel.data();
  }
  const GemmOperands g{a.data(), a_transposed ? 1 : depth,
                       a_transposed ? rows : 1, pb, n, c.data(), n};
  const bool gemv = n == 1;
  const GemmIsa isa = ActiveGemmIsa();
  const int64_t tile_rows =
      gemv ? kGemvTileRows
           : (isa == GemmIsa::kAvx512 ? kAvx512TileRows : kGemmTileRows);
  const int64_t tile_cols = gemv ? 1 : kGemmTileCols;
  // Each tile counts its non-zeros as it stores its last j-block (with
  // depth 0 no block runs and C stays all zero).
  auto run_tile = [&](int64_t i0, int64_t x0, int64_t j0, int64_t j1) {
    const int64_t tr = std::min(tile_rows, rows - i0);
    const int64_t tc = std::min(tile_cols, n - x0);
    TileFn tile = TileScalar;
#if REMAC_KERNEL_X86
    if (isa == GemmIsa::kAvx512) {
      tile = gemv ? kGemvAvx512[g.rs == 1][(tr + 7) / 8 - 1]
                  : kTilesAvx512[tr - 1][(tc + 7) / 8 - 1];
    } else if (isa == GemmIsa::kAvx2) {
      tile = gemv ? kGemvAvx2[g.rs == 1][(tr + 3) / 4 - 1]
                  : kTilesAvx2[tr - 1][(tc + 3) / 4 - 1];
    }
#endif
    return tile(g, i0, x0, j0, j1, tr, tc, j1 == depth);
  };
  // Parallel chunks are whole row tiles. Within a chunk, groups of row
  // tiles sweep the j-blocks in ascending order, each tile storing its C
  // between blocks: a stored double reloads exactly, so per element the
  // j-terms still accumulate in ascending order from +0.0.
  const int64_t row_tiles = (rows + tile_rows - 1) / tile_rows;
  std::atomic<int64_t> nnz{0};
  ParallelForRows(
      row_tiles, tile_rows * n * std::max<int64_t>(1, depth),
      [&](int64_t t0, int64_t t1) {
        int64_t local = 0;
        for (int64_t g0 = t0; g0 < t1; g0 += kGemmGroupTiles) {
          const int64_t g1 = std::min(t1, g0 + kGemmGroupTiles);
          for (int64_t j0 = 0; j0 < depth; j0 += kGemmDepthBlock) {
            const int64_t j1 = std::min(depth, j0 + kGemmDepthBlock);
            for (int64_t x0 = 0; x0 < n; x0 += tile_cols) {
              for (int64_t t = g0; t < g1; ++t) {
                local += run_tile(t * tile_rows, x0, j0, j1);
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
