#include "matrix/kernel_internal.h"

#include <atomic>
#include <bit>

/// AVX2 tiles are compiled (behind a runtime CPU check) only for x86-64
/// GCC/Clang; everything else runs the scalar tile.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REMAC_KERNEL_AVX2 1
#include <immintrin.h>
#else
#define REMAC_KERNEL_AVX2 0
#endif

namespace remac {
namespace internal {
namespace {

/// A tile is kGemmTileRows output rows x kGemmTileCols columns
/// (kGemvTileRows rows x 1 column when n = 1), held in registers while it
/// accumulates one kGemmDepthBlock-long block of the shared index. Per
/// block, the left rows of a group of kGemmGroupTiles row tiles
/// (64 x 256 doubles = 128 KB) stay in L2 and a 256 x 16 slice of B
/// (32 KB) in L1 while the group's tiles sweep them (sized for 48 KB L1d
/// and 2 MiB L2 per core).
constexpr int64_t kGemmTileRows = 4;
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

#if REMAC_KERNEL_AVX2
// Compiled for AVX2 via the target attribute instead of a TU-wide flag, so
// the rest of the build keeps the baseline ISA. AVX2 does not imply FMA,
// so nothing here can be contracted: every lane rounds exactly like the
// scalar `acc += v * b`.
#define REMAC_AVX2 __attribute__((target("avx2")))

/// Lanes [0, count) set: the mask of a partial vector (count in 1..4).
REMAC_AVX2 inline __m256i LaneMask(int64_t count) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(count),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

REMAC_AVX2 inline __m256d Load(const double* p, bool masked, __m256i mask) {
  return masked ? _mm256_maskload_pd(p, mask) : _mm256_loadu_pd(p);
}

REMAC_AVX2 inline void Store(double* p, __m256d v, bool masked, __m256i mask) {
  if (masked) {
    _mm256_maskstore_pd(p, mask, v);
  } else {
    _mm256_storeu_pd(p, v);
  }
}

/// Non-zero (`!= 0.0`: unordered compare, so NaN counts) lanes among the
/// first `lanes` of v.
REMAC_AVX2 inline int64_t NonZeroLanes(__m256d v, int64_t lanes) {
  const int bits = _mm256_movemask_pd(
      _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ));
  return std::popcount(static_cast<unsigned>(bits) & ((1u << lanes) - 1u));
}

/// The reference kernel's `if (v == 0.0) continue; acc += v * b;` without
/// a branch, in separate mul and add (never FMA). Lanes whose left value is
/// ±0 add +0.0 instead of v * b, so 0 * Inf and 0 * NaN never reach acc,
/// and acc + (+0.0) == acc bit for bit because an accumulator is never
/// -0.0: it starts at +0.0, and under round-to-nearest a sum is -0.0 only
/// when both addends are. This masked addend measured about 20% faster on
/// the tall-skinny shapes than blendv(acc + v * b, acc, v == 0).
REMAC_AVX2 inline __m256d MulAddSkip(__m256d acc, __m256d v, __m256d b) {
  const __m256d skip = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_EQ_OQ);
  return _mm256_add_pd(acc, _mm256_andnot_pd(skip, _mm256_mul_pd(v, b)));
}

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
#endif  // REMAC_KERNEL_AVX2

/// True when the running CPU supports AVX2 (cached after the first call).
/// Dispatching on this cannot change any result: the AVX2 tiles are
/// bitwise-identical to the scalar one lane-for-lane.
bool HasAvx2() {
#if REMAC_KERNEL_AVX2
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

}  // namespace

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
  const int64_t tile_rows = gemv ? kGemvTileRows : kGemmTileRows;
  const int64_t tile_cols = gemv ? 1 : kGemmTileCols;
  [[maybe_unused]] const bool avx = HasAvx2();
  // Each tile counts its non-zeros as it stores its last j-block (with
  // depth 0 no block runs and C stays all zero).
  auto run_tile = [&](int64_t i0, int64_t x0, int64_t j0, int64_t j1) {
    const int64_t tr = std::min(tile_rows, rows - i0);
    const int64_t tc = std::min(tile_cols, n - x0);
    TileFn tile = TileScalar;
#if REMAC_KERNEL_AVX2
    if (avx) {
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
