#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "matrix/kernel_internal.h"
#include "matrix/kernels.h"

/// Every register-tile shape of the dense multiply, on every instruction
/// set the running CPU supports, against the naive reference: bitwise
/// (NaN payloads aside) and with the same non-zero count, at 1, 2 and 4
/// threads. Suites are named Kernels* so scripts/check.sh runs them under
/// TSan/ASan/UBSan.

namespace remac {
namespace {

using internal::GemmIsa;

/// Left values: a third ±0 (a tenth of those -0.0), the rest Gaussian, with
/// `specials` of them replaced by NaN, +Inf or -Inf.
DenseMatrix LeftOperand(int64_t rows, int64_t cols, uint64_t seed,
                        bool specials) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (int64_t i = 0; i < m.size(); ++i) {
    const double u = rng.NextDouble();
    if (u < 0.33) {
      m.data()[i] = rng.NextDouble() < 0.1 ? -0.0 : 0.0;
    } else if (specials && u > 0.97) {
      m.data()[i] = special[rng.NextBounded(3)];
    } else {
      m.data()[i] = rng.NextGaussian();
    }
  }
  return m;
}

/// Right values: Gaussian with a fifth +0.0, so a non-zero left value times
/// a zero right value still adds a (signed) zero product.
DenseMatrix RightOperand(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.NextDouble() < 0.2 ? 0.0 : rng.NextGaussian();
  }
  return m;
}

DenseMatrix TransposeCopy(const DenseMatrix& m) {
  DenseMatrix t(m.cols(), m.rows());
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) t.At(j, i) = m.At(i, j);
  }
  return t;
}

/// Equal bits, or both NaN (which NaN an add of two NaNs returns is not
/// part of the contract; signed zeros and infinities are), and equal
/// non-zero counts.
::testing::AssertionResult SameProduct(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (got.nnz() != want.nnz()) {
    return ::testing::AssertionFailure()
           << "nnz " << got.nnz() << " vs " << want.nnz();
  }
  const DenseMatrix g = got.ToDense();
  const DenseMatrix w = want.ToDense();
  for (int64_t i = 0; i < g.size(); ++i) {
    const double x = g.data()[i];
    const double y = w.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element (" << i / g.cols() << ", " << i % g.cols()
             << "): got " << x << " want " << y;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs the test body with the tiles capped at one instruction set, and
/// restores the default cap and thread count afterwards.
class KernelsIsaTest : public ::testing::TestWithParam<GemmIsa> {
 protected:
  void SetUp() override {
    if (GetParam() > internal::SupportedGemmIsa()) {
      GTEST_SKIP() << internal::GemmIsaName(GetParam())
                   << " is not supported by this CPU";
    }
    previous_ = internal::SetGemmIsaLimit(GetParam());
    ASSERT_EQ(internal::ActiveGemmIsa(), GetParam());
  }
  void TearDown() override {
    internal::SetGemmIsaLimit(previous_);
    SetKernelThreads(0);
  }

  /// op(L) op(R) through the tiles vs the naive reference on the
  /// materialized operands, for all four transpose variants and 1, 2 and
  /// 4 threads. `l` is rows x depth and `r` depth x n as the product
  /// sees them.
  void CheckAllVariants(const DenseMatrix& l, const DenseMatrix& r,
                        const std::string& what) {
    const Matrix want = MultiplyReferenceNaive(Matrix::WrapDense(l),
                                               Matrix::WrapDense(r))
                            .value();
    const DenseMatrix lt = TransposeCopy(l);
    const DenseMatrix rt = TransposeCopy(r);
    for (const bool a_t : {false, true}) {
      for (const bool b_t : {false, true}) {
        for (const int threads : {1, 2, 4}) {
          SetKernelThreads(threads);
          const Matrix got = internal::MultiplyDenseDense(
              a_t ? lt : l, a_t, b_t ? rt : r, b_t);
          ASSERT_TRUE(SameProduct(got, want))
              << what << " a_t=" << a_t << " b_t=" << b_t
              << " threads=" << threads;
        }
      }
    }
  }

 private:
  GemmIsa previous_ = GemmIsa::kAvx512;
};

/// Row counts 1-17 cover every tile height (1-4, or 1-8 on AVX-512F)
/// alone and after whole tiles; n = 2-33 covers every column tail of one
/// and of two 16-wide column tiles; depth 300 crosses the 256-deep
/// j-block.
TEST_P(KernelsIsaTest, EveryTileShapeMatchesNaive) {
  uint64_t seed = 7000;
  for (const int64_t depth : {3, 300}) {
    for (int64_t rows = 1; rows <= 17; ++rows) {
      for (int64_t n = 2; n <= 33; ++n) {
        const DenseMatrix l = LeftOperand(rows, depth, ++seed, false);
        const DenseMatrix r = RightOperand(depth, n, ++seed);
        CheckAllVariants(l, r,
                         "rows=" + std::to_string(rows) + " n=" +
                             std::to_string(n) + " depth=" +
                             std::to_string(depth));
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// n = 1 with the left operand read contiguously (Aᵀ in place) and strided
/// (A by rows), for every GEMV tile height 1-16 alone and after whole
/// tiles.
TEST_P(KernelsIsaTest, GemvContiguousAndStridedMatchNaive) {
  uint64_t seed = 8000;
  for (const int64_t depth : {1, 5, 300}) {
    for (int64_t rows = 1; rows <= 35; ++rows) {
      const DenseMatrix l = LeftOperand(rows, depth, ++seed, false);
      const DenseMatrix r = RightOperand(depth, 1, ++seed);
      CheckAllVariants(l, r,
                       "gemv rows=" + std::to_string(rows) + " depth=" +
                           std::to_string(depth));
      if (HasFatalFailure()) return;
    }
  }
}

/// Left operands holding ±0, NaN and ±Inf: the skip keeps 0 * Inf and
/// 0 * NaN out of every sum, and non-zero specials propagate like the
/// scalar loop's.
TEST_P(KernelsIsaTest, SpecialLeftValuesMatchNaive) {
  uint64_t seed = 9000;
  const struct {
    int64_t rows, depth, n;
  } shapes[] = {{1, 7, 1},   {9, 40, 1},  {17, 300, 1}, {3, 11, 5},
                {4, 40, 16}, {7, 300, 9}, {9, 65, 33}};
  for (const auto& s : shapes) {
    const DenseMatrix l = LeftOperand(s.rows, s.depth, ++seed, true);
    DenseMatrix r = RightOperand(s.depth, s.n, ++seed);
    // Right-hand infinities and NaN where some left values are zero.
    r.data()[0] = std::numeric_limits<double>::infinity();
    r.data()[r.size() - 1] = std::numeric_limits<double>::quiet_NaN();
    CheckAllVariants(l, r,
                     "specials rows=" + std::to_string(s.rows) + " depth=" +
                         std::to_string(s.depth) + " n=" +
                         std::to_string(s.n));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, KernelsIsaTest,
    ::testing::Values(GemmIsa::kScalar, GemmIsa::kAvx2, GemmIsa::kAvx512),
    [](const ::testing::TestParamInfo<GemmIsa>& info) {
      return std::string(internal::GemmIsaName(info.param));
    });

}  // namespace
}  // namespace remac
