#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"

/// Bitwise-identity tests for the kernel layer: fused transpose-multiply
/// vs materialize-then-multiply-naive for every format combo and transpose
/// pattern, the tiled dense GEMM vs the naive reference and vs a textbook
/// loop on tall-skinny shapes, and thread-count determinism for the
/// parallel/chunked kernels. Suites are named Kernels* so
/// scripts/check.sh runs them under TSan/ASan/UBSan.

namespace remac {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, double sparsity,
                    uint64_t seed, bool force_dense_format) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (rng.NextDouble() < sparsity) m.data()[i] = rng.NextGaussian();
  }
  if (force_dense_format) return Matrix::WrapDense(std::move(m));
  return Matrix::WrapCsr(CsrMatrix::FromDense(m));
}

/// Exact equality: same storage format, same structure, and bit-identical
/// value arrays (memcmp, so -0.0 vs 0.0 or differing NaN payloads fail).
::testing::AssertionResult BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.is_dense() != b.is_dense()) {
    return ::testing::AssertionFailure()
           << "format mismatch: " << (a.is_dense() ? "dense" : "csr") << " vs "
           << (b.is_dense() ? "dense" : "csr");
  }
  if (a.is_dense()) {
    const int64_t bytes = a.dense().size() * static_cast<int64_t>(sizeof(double));
    if (bytes > 0 &&
        std::memcmp(a.dense().data(), b.dense().data(), bytes) != 0) {
      return ::testing::AssertionFailure() << "dense payload differs";
    }
    return ::testing::AssertionSuccess();
  }
  const CsrMatrix& sa = a.csr();
  const CsrMatrix& sb = b.csr();
  if (sa.row_ptr() != sb.row_ptr()) {
    return ::testing::AssertionFailure() << "row_ptr differs";
  }
  if (sa.col_idx() != sb.col_idx()) {
    return ::testing::AssertionFailure() << "col_idx differs";
  }
  if (sa.nnz() > 0 && std::memcmp(sa.values().data(), sb.values().data(),
                                  sa.nnz() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "csr values differ";
  }
  return ::testing::AssertionSuccess();
}

/// Restores the hardware-default thread count even on test failure.
struct ThreadGuard {
  ~ThreadGuard() { SetKernelThreads(0); }
};

/// Fused vs materialized across all 4 format combos x 3 transpose
/// patterns x {1, 2, 8} threads.
class KernelsFusedTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

/// The oracle multiplies the materialized operands with the naive
/// reference, so a bug in the tiled dense core cannot hide on both sides.
void CheckFusedAgainstMaterialized(const Matrix& a, bool a_t, const Matrix& b,
                                   bool b_t) {
  const Matrix ea = a_t ? Transpose(a) : a;
  const Matrix eb = b_t ? Transpose(b) : b;
  auto expected = MultiplyReferenceNaive(ea, eb);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto fused = MultiplyTransposed(a, a_t, b, b_t);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_TRUE(BitwiseEqual(*fused, *expected))
      << "a_t=" << a_t << " b_t=" << b_t << " a_dense=" << a.is_dense()
      << " b_dense=" << b.is_dense();
}

TEST_P(KernelsFusedTest, BitwiseMatchesMaterializedMultiply) {
  const auto [a_dense, b_dense, threads] = GetParam();
  ThreadGuard guard;
  SetKernelThreads(threads);
  // Effective product: (17 x 23) * (23 x 11).
  const int64_t m = 17, k = 23, n = 11;
  // AᵀB: stored A is k x m.
  CheckFusedAgainstMaterialized(RandomMatrix(k, m, 0.35, 21, a_dense), true,
                                RandomMatrix(k, n, 0.35, 22, b_dense), false);
  // ABᵀ: stored B is n x k.
  CheckFusedAgainstMaterialized(RandomMatrix(m, k, 0.35, 23, a_dense), false,
                                RandomMatrix(n, k, 0.35, 24, b_dense), true);
  // AᵀBᵀ: both stored transposed.
  CheckFusedAgainstMaterialized(RandomMatrix(k, m, 0.35, 25, a_dense), true,
                                RandomMatrix(n, k, 0.35, 26, b_dense), true);
}

TEST_P(KernelsFusedTest, EdgeShapes) {
  const auto [a_dense, b_dense, threads] = GetParam();
  ThreadGuard guard;
  SetKernelThreads(threads);
  // Empty output rows: effective (0 x 5) * (5 x 3).
  CheckFusedAgainstMaterialized(RandomMatrix(5, 0, 1.0, 31, a_dense), true,
                                RandomMatrix(5, 3, 1.0, 32, b_dense), false);
  // Empty shared dimension: effective (4 x 0) * (0 x 3).
  CheckFusedAgainstMaterialized(RandomMatrix(0, 4, 1.0, 33, a_dense), true,
                                RandomMatrix(3, 0, 1.0, 34, b_dense), true);
  // Single row / column: effective (1 x 7) * (7 x 1).
  CheckFusedAgainstMaterialized(RandomMatrix(7, 1, 0.8, 35, a_dense), true,
                                RandomMatrix(1, 7, 0.8, 36, b_dense), true);
  // 1 x N times N x N (vector-matrix through the fused path).
  CheckFusedAgainstMaterialized(RandomMatrix(1, 9, 0.8, 37, a_dense), false,
                                RandomMatrix(9, 9, 0.5, 38, b_dense), true);
}

INSTANTIATE_TEST_SUITE_P(AllFormatsAndThreads, KernelsFusedTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 2, 8)));

TEST(KernelsFused, DimensionMismatchUsesEffectiveDims) {
  const Matrix a = RandomMatrix(3, 4, 1.0, 41, true);
  const Matrix b = RandomMatrix(3, 4, 1.0, 42, true);
  // Aᵀ (4 x 3) times B (3 x 4) is valid; A times B is not.
  EXPECT_TRUE(MultiplyTransposed(a, true, b, false).ok());
  EXPECT_EQ(MultiplyTransposed(a, false, b, false).status().code(),
            StatusCode::kDimensionMismatch);
  // Aᵀ (4 x 3) times Bᵀ (4 x 3) is not valid.
  EXPECT_EQ(MultiplyTransposed(a, true, b, true).status().code(),
            StatusCode::kDimensionMismatch);
}

TEST(KernelsFused, NoTransposeFlagsDelegatesToMultiply) {
  const Matrix a = RandomMatrix(6, 7, 0.5, 43, true);
  const Matrix b = RandomMatrix(7, 5, 0.5, 44, false);
  auto plain = Multiply(a, b);
  auto fused = MultiplyTransposed(a, false, b, false);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(BitwiseEqual(*fused, *plain));
}

TEST(KernelsFused, BumpsFusedMetricsAndAvoidsTransposeKernel) {
  auto& reg = MetricsRegistry::Global();
  Counter* fused = reg.GetCounter("remac.kernel.fused_transpose");
  Counter* transposes = reg.GetCounter("remac.kernel.transposes");
  Counter* bytes_avoided = reg.GetCounter("remac.kernel.fused_bytes_avoided");
  const Matrix a = RandomMatrix(40, 30, 0.5, 45, true);
  const Matrix b = RandomMatrix(40, 20, 0.5, 46, true);
  const int64_t fused_before = fused->Value();
  const int64_t transposes_before = transposes->Value();
  const int64_t bytes_before = bytes_avoided->Value();
  ASSERT_TRUE(MultiplyTransposed(a, true, b, false).ok());
  EXPECT_EQ(fused->Value(), fused_before + 1);
  EXPECT_EQ(transposes->Value(), transposes_before);
  EXPECT_EQ(bytes_avoided->Value() - bytes_before,
            static_cast<int64_t>(a.SizeInBytes()));
}

/// The tiled GEMM must be bit-identical to the naive reference, which is
/// in turn bit-identical to a textbook triple loop (per output element the
/// shared index ascends and the accumulator starts at +0.0).
class KernelsBlockedGemmTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelsBlockedGemmTest, BitwiseMatchesNaive) {
  ThreadGuard guard;
  SetKernelThreads(GetParam());
  // Shapes straddling the 4 x 16 tile and 256-deep j-block boundaries,
  // with zeros so the v == 0.0 skip path is exercised.
  const struct {
    int64_t m, k, n;
  } shapes[] = {{150, 70, 130}, {8, 64, 64},  {9, 65, 65},
                {1, 40, 200},   {6, 513, 18}, {33, 257, 1}};
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 0.6, 51 + s.m, true);
    const Matrix b = RandomMatrix(s.k, s.n, 0.6, 52 + s.n, true);
    auto blocked = Multiply(a, b);
    auto naive = MultiplyReferenceNaive(a, b);
    ASSERT_TRUE(blocked.ok());
    ASSERT_TRUE(naive.ok());
    EXPECT_TRUE(BitwiseEqual(*blocked, *naive))
        << s.m << "x" << s.k << "x" << s.n;
    // Cross-check the reference against a textbook triple loop.
    DenseMatrix c(s.m, s.n);
    const DenseMatrix da = a.ToDense();
    const DenseMatrix db = b.ToDense();
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.k; ++j) {
        const double v = da.At(i, j);
        if (v == 0.0) continue;
        for (int64_t x = 0; x < s.n; ++x) c.At(i, x) += v * db.At(j, x);
      }
    }
    EXPECT_TRUE(BitwiseEqual(*naive, Matrix::WrapDense(std::move(c))));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelsBlockedGemmTest,
                         ::testing::Values(1, 2, 8));

/// --- tall-skinny dense products vs a textbook loop ------------------------

/// Equal bits, or both NaN: which NaN an add of two NaNs returns depends on
/// its operand order, which the compiler may commute, so payloads are not
/// part of the contract. Signed zeros and infinities are.
::testing::AssertionResult SameValues(const DenseMatrix& got,
                                      const DenseMatrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (int64_t i = 0; i < got.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    if (std::memcmp(&g, &w, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element (" << i / got.cols() << ", " << i % got.cols()
             << "): got " << g << " want " << w;
    }
  }
  return ::testing::AssertionSuccess();
}

DenseMatrix TransposeCopy(const DenseMatrix& m) {
  DenseMatrix t(m.cols(), m.rows());
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) t.At(j, i) = m.At(i, j);
  }
  return t;
}

/// C = L R the textbook way: per element, j ascending from +0.0, skipping
/// zero left values.
DenseMatrix TextbookMultiply(const DenseMatrix& l, const DenseMatrix& r) {
  DenseMatrix c(l.rows(), r.cols());
  for (int64_t i = 0; i < l.rows(); ++i) {
    for (int64_t x = 0; x < r.cols(); ++x) {
      double sum = 0.0;
      for (int64_t j = 0; j < l.cols(); ++j) {
        const double v = l.At(i, j);
        if (v == 0.0) continue;
        sum += v * r.At(j, x);
      }
      c.At(i, x) = sum;
    }
  }
  return c;
}

/// Effective left operand (rows x depth): about 40% zeros, a tenth of them
/// -0.0. Row 0 is nonzero only at j = 0, where it is negative.
DenseMatrix SkinnyLeft(int64_t rows, int64_t depth, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix l(rows, depth);
  for (int64_t i = 0; i < l.size(); ++i) {
    const bool zero = rng.NextDouble() < 0.4 || (i < depth && i > 0);
    l.data()[i] = zero ? (rng.NextDouble() < 0.1 ? -0.0 : 0.0)
                       : rng.NextGaussian();
  }
  if (rows > 0 && depth > 0) l.At(0, 0) = -1.5;
  return l;
}

/// Effective right operand (depth x n). Row 0 is all +0.0, so output row 0
/// sums only -0.0 products and must come out +0.0. The last column holds
/// +Inf, -Inf and NaN at j = 1, depth / 2 and depth - 1: output row 0's
/// left values are zero there, so the skip must keep them out of it,
/// while other rows pick them up wherever their left value is nonzero.
DenseMatrix SkinnyRight(int64_t depth, int64_t n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix r(depth, n);
  for (int64_t i = n; i < r.size(); ++i) r.data()[i] = rng.NextGaussian();
  const double specials[] = {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  const int64_t rows[] = {1, depth / 2, depth - 1};
  for (int s = 0; s < 3; ++s) {
    if (n > 0 && rows[s] > 0 && rows[s] < depth) {
      r.At(rows[s], n - 1) = specials[s];
    }
  }
  return r;
}

/// AB, AᵀB, ABᵀ and AᵀBᵀ with the long dimension m against the textbook
/// loop at 1, 2, 3, 4 and 8 threads. m is the output row count of AB /
/// ABᵀ and the shared dimension of AᵀB / AᵀBᵀ (257, 1000 and 4099 cross
/// the 256-deep j-blocks); k and n run over every tail mod 4 and mod 16.
class KernelsTallSkinnyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(KernelsTallSkinnyTest, AllVariantsMatchTextbookLoop) {
  ThreadGuard guard;
  const int64_t m = GetParam();
  const int64_t dims[] = {1, 2, 3, 4, 5, 9, 10, 15, 16, 17, 47};
  constexpr int kDims = 11;
  // Every (k, n) pair for the short m; for the long ones a permutation
  // pairing that still covers each value once on both sides.
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int i = 0; i < kDims; ++i) {
    if (m <= 257) {
      for (int64_t n : dims) pairs.emplace_back(dims[i], n);
    } else {
      pairs.emplace_back(dims[i], dims[(3 * i + 5) % kDims]);
    }
  }
  uint64_t seed = 1000 + static_cast<uint64_t>(m);
  for (const auto& [k, n] : pairs) {
    for (const bool a_t : {false, true}) {
      for (const bool b_t : {false, true}) {
        const int64_t rows = a_t ? k : m;
        const int64_t depth = a_t ? m : k;
        const DenseMatrix l = SkinnyLeft(rows, depth, ++seed);
        const DenseMatrix r = SkinnyRight(depth, n, ++seed);
        const DenseMatrix expected = TextbookMultiply(l, r);
        const Matrix a = Matrix::WrapDense(a_t ? TransposeCopy(l) : l);
        const Matrix b = Matrix::WrapDense(b_t ? TransposeCopy(r) : r);
        for (int threads : {1, 2, 3, 4, 8}) {
          SetKernelThreads(threads);
          auto got = MultiplyTransposed(a, a_t, b, b_t);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(SameValues(got->ToDense(), expected))
              << "m=" << m << " k=" << k << " n=" << n << " a_t=" << a_t
              << " b_t=" << b_t << " threads=" << threads;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, KernelsTallSkinnyTest,
                         ::testing::Values(1, 3, 257, 1000, 4099));

/// t(W) %*% V with rank 10, bitwise at 3 and 4 threads, where the 10
/// output rows split into whole tiles of 4/4/2 rows (a plain row split
/// would give 3/3/3/1-row chunks that hold no whole tile).
TEST(KernelsTallSkinny, RankTenAtBAtThreeAndFourThreads) {
  ThreadGuard guard;
  const DenseMatrix w = SkinnyLeft(10, 3000, 81);  // Wᵀ
  const DenseMatrix v = SkinnyRight(3000, 47, 82);
  const DenseMatrix expected = TextbookMultiply(w, v);
  const Matrix stored_w = Matrix::WrapDense(TransposeCopy(w));
  const Matrix stored_v = Matrix::WrapDense(v);
  for (int threads : {3, 4}) {
    SetKernelThreads(threads);
    auto got = MultiplyTransposed(stored_w, true, stored_v, false);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameValues(got->ToDense(), expected)) << threads;
  }
}

/// Every parallelized kernel must produce the same bits at any thread
/// count (chunk boundaries depend only on KernelThreads(); reductions use
/// fixed-size chunks folded in order).
TEST(KernelsDeterminism, ThreadCountInvariance) {
  ThreadGuard guard;
  // Big enough to parallelize and to span many reduction chunks.
  const Matrix dense = RandomMatrix(300, 500, 0.7, 61, true);
  const Matrix sparse = RandomMatrix(300, 500, 0.05, 62, false);
  const Matrix dense2 = RandomMatrix(300, 500, 0.7, 63, true);

  SetKernelThreads(1);
  const double sum1 = SumAll(dense);
  const double norm1 = FrobeniusNorm(dense);
  const double ssum1 = SumAll(sparse);
  const Matrix t1 = Transpose(dense);
  const Matrix add1 = Add(dense, dense2).value();
  const Matrix scale1 = ScalarMultiply(dense, 1.7);
  const Matrix shift1 = ScalarAdd(sparse, 0.25);

  for (int threads : {2, 8}) {
    SetKernelThreads(threads);
    EXPECT_EQ(SumAll(dense), sum1) << threads;
    EXPECT_EQ(FrobeniusNorm(dense), norm1) << threads;
    EXPECT_EQ(SumAll(sparse), ssum1) << threads;
    EXPECT_TRUE(BitwiseEqual(Transpose(dense), t1)) << threads;
    EXPECT_TRUE(BitwiseEqual(Add(dense, dense2).value(), add1)) << threads;
    EXPECT_TRUE(BitwiseEqual(ScalarMultiply(dense, 1.7), scale1)) << threads;
    EXPECT_TRUE(BitwiseEqual(ScalarAdd(sparse, 0.25), shift1)) << threads;
  }
}

TEST(KernelsDeterminism, WideShortShapesStillExact) {
  ThreadGuard guard;
  // 20 x 30000: the old rows < 256 cutoff kept this serial; the
  // element-count heuristic parallelizes it. Results must not change.
  const Matrix a = RandomMatrix(20, 30000, 0.9, 64, true);
  const Matrix b = RandomMatrix(20, 30000, 0.9, 65, true);
  SetKernelThreads(1);
  const Matrix sum_serial = Add(a, b).value();
  const double norm_serial = FrobeniusNorm(a);
  SetKernelThreads(8);
  EXPECT_TRUE(BitwiseEqual(Add(a, b).value(), sum_serial));
  EXPECT_EQ(FrobeniusNorm(a), norm_serial);
}

TEST(KernelsDeterminism, SparseMultiplyThreadInvariant) {
  ThreadGuard guard;
  const Matrix a = RandomMatrix(400, 300, 0.05, 66, false);
  const Matrix b = RandomMatrix(300, 350, 0.05, 67, false);
  SetKernelThreads(1);
  const Matrix serial = Multiply(a, b).value();
  for (int threads : {2, 8}) {
    SetKernelThreads(threads);
    EXPECT_TRUE(BitwiseEqual(Multiply(a, b).value(), serial)) << threads;
  }
}

/// End-to-end: a t(X) %*% X script goes through the executor's transpose
/// unwrapping into the fused kernels — zero transpose materializations.
TEST(KernelsExecutorFusion, ScriptNeverMaterializesTranspose) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "X";
  spec.rows = 60;
  spec.cols = 8;
  spec.sparsity = 0.6;
  spec.seed = 71;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  auto program = CompileScript("X = read(\"X\");\nG = t(X) %*% X;\n", catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto& reg = MetricsRegistry::Global();
  Counter* fused = reg.GetCounter("remac.kernel.fused_transpose");
  Counter* transposes = reg.GetCounter("remac.kernel.transposes");
  const int64_t fused_before = fused->Value();
  const int64_t transposes_before = transposes->Value();

  Executor executor(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(executor.Run(program->statements, 100).ok());

  EXPECT_GE(fused->Value(), fused_before + 1);
  EXPECT_EQ(transposes->Value(), transposes_before);

  // And the fused result matches the explicitly materialized product.
  auto g = executor.Get("G");
  ASSERT_TRUE(g.ok());
  auto program2 = CompileScript(
      "X = read(\"X\");\nT = t(X);\nG2 = T %*% X;\n", catalog);
  ASSERT_TRUE(program2.ok());
  Executor executor2(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(executor2.Run(program2->statements, 100).ok());
  auto g2 = executor2.Get("G2");
  ASSERT_TRUE(g2.ok());
  EXPECT_TRUE(BitwiseEqual(g->matrix, g2->matrix));
}

}  // namespace
}  // namespace remac
