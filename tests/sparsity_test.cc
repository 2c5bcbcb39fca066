#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "sparsity/estimator.h"
#include "sparsity/sketch.h"

namespace remac {
namespace {

Matrix UniformSparse(int64_t rows, int64_t cols, double sp, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (rng.NextDouble() < sp) m.data()[i] = 1.0 + rng.NextDouble();
  }
  return Matrix::FromDense(std::move(m));
}

Matrix SkewedSparse(int64_t rows, int64_t cols, double sp, double zipf,
                    uint64_t seed) {
  DatasetSpec spec;
  spec.name = "skewed";
  spec.rows = rows;
  spec.cols = cols;
  spec.sparsity = sp;
  spec.zipf_rows = zipf;
  spec.zipf_cols = zipf;
  spec.seed = seed;
  return GenerateMatrix(spec);
}

MatrixStats StatsOf(const Matrix& m) {
  MatrixStats stats;
  stats.rows = m.rows();
  stats.cols = m.cols();
  stats.sparsity = m.Sparsity();
  RowColCounts counts = m.CountRowsAndCols();
  stats.row_counts = std::move(counts.row_counts);
  stats.col_counts = std::move(counts.col_counts);
  return stats;
}

double TrueProductSparsity(const Matrix& a, const Matrix& b) {
  const int64_t nnz = MultiplyNnzExact(a, b).value();
  return static_cast<double>(nnz) /
         (static_cast<double>(a.rows()) * static_cast<double>(b.cols()));
}

TEST(Sketch, FromMatrixExactCounts) {
  const Matrix m = UniformSparse(30, 20, 0.2, 1);
  auto sketch = MncSketch::FromMatrix(m);
  EXPECT_EQ(sketch->rows, 30);
  EXPECT_EQ(sketch->cols, 20);
  EXPECT_DOUBLE_EQ(sketch->nnz, static_cast<double>(m.nnz()));
  double row_sum = 0.0;
  for (double c : sketch->row_counts) row_sum += c;
  EXPECT_DOUBLE_EQ(row_sum, sketch->nnz);
}

TEST(Sketch, TransposeSwapsCounts) {
  const Matrix m = UniformSparse(10, 40, 0.1, 2);
  auto sketch = MncSketch::FromMatrix(m);
  auto t = SketchTranspose(*sketch);
  EXPECT_EQ(t->rows, 40);
  EXPECT_EQ(t->cols, 10);
  EXPECT_EQ(t->row_counts, sketch->col_counts);
  EXPECT_EQ(t->col_counts, sketch->row_counts);
}

TEST(Metadata, UniformMultiplyCloseToTruth) {
  const Matrix a = UniformSparse(200, 150, 0.05, 3);
  const Matrix b = UniformSparse(150, 180, 0.05, 4);
  const MetadataEstimator estimator;
  const NodeStats sa = estimator.LeafStats("a", StatsOf(a));
  const NodeStats sb = estimator.LeafStats("b", StatsOf(b));
  const NodeStats product = estimator.Multiply(sa, sb);
  const double truth = TrueProductSparsity(a, b);
  // On uniformly distributed non-zeros the metadata formula is accurate.
  EXPECT_NEAR(product.sparsity, truth, 0.05 * std::max(0.05, truth) + 0.02);
}

TEST(Metadata, ElementwiseRules) {
  const MetadataEstimator estimator;
  NodeStats a;
  a.rows = a.cols = 100;
  a.sparsity = 0.2;
  NodeStats b = a;
  b.sparsity = 0.3;
  EXPECT_NEAR(estimator.Elementwise(PlanOp::kAdd, a, b).sparsity,
              0.2 + 0.3 - 0.06, 1e-12);
  EXPECT_NEAR(estimator.Elementwise(PlanOp::kMul, a, b).sparsity, 0.06,
              1e-12);
  EXPECT_NEAR(estimator.Elementwise(PlanOp::kDiv, a, b).sparsity, 0.2,
              1e-12);
}

TEST(Metadata, ScalarBroadcastDensifiesAddition) {
  const MetadataEstimator estimator;
  NodeStats a;
  a.rows = a.cols = 10;
  a.sparsity = 0.1;
  EXPECT_DOUBLE_EQ(estimator.ScalarBroadcast(PlanOp::kAdd, a).sparsity, 1.0);
  EXPECT_DOUBLE_EQ(estimator.ScalarBroadcast(PlanOp::kMul, a).sparsity, 0.1);
}

TEST(Generators, GeneratorStats) {
  const MetadataEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.GeneratorStats(PlanOp::kEye, 10, 10).sparsity,
                   0.1);
  EXPECT_DOUBLE_EQ(estimator.GeneratorStats(PlanOp::kZeros, 5, 5).sparsity,
                   0.0);
  EXPECT_DOUBLE_EQ(estimator.GeneratorStats(PlanOp::kOnes, 5, 5).sparsity,
                   1.0);
}

/// MNC must beat metadata on skewed inputs (the paper's reason for
/// adopting it) while matching it on uniform inputs.
class EstimatorAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(EstimatorAccuracyTest, MncAtLeastAsGoodOnAtA) {
  const double zipf = GetParam();
  const Matrix a = zipf == 0.0 ? UniformSparse(2000, 200, 0.01, 5)
                               : SkewedSparse(2000, 200, 0.01, zipf, 5);
  const Matrix at = Transpose(a);
  const double truth = TrueProductSparsity(at, a);

  const MetadataEstimator md;
  const MncEstimator mnc;
  const MatrixStats stats = StatsOf(a);
  const double md_est =
      md.Multiply(md.Transpose(md.LeafStats("a", stats)),
                  md.LeafStats("a", stats))
          .sparsity;
  const double mnc_est =
      mnc.Multiply(mnc.Transpose(mnc.LeafStats("a", stats)),
                   mnc.LeafStats("a", stats))
          .sparsity;
  const double md_err = std::fabs(md_est - truth);
  const double mnc_err = std::fabs(mnc_est - truth);
  // MNC exploits the count structure: allow it a tiny slack on uniform
  // data, require clear dominance under skew.
  if (zipf >= 1.5) {
    EXPECT_LT(mnc_err, md_err)
        << "zipf=" << zipf << " truth=" << truth << " md=" << md_est
        << " mnc=" << mnc_est;
  } else {
    EXPECT_LE(mnc_err, md_err + 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(ZipfSweep, EstimatorAccuracyTest,
                         ::testing::Values(0.0, 1.5, 2.0, 2.5));

TEST(Exact, OracleMatchesTruth) {
  DataCatalog catalog;
  const Matrix a = UniformSparse(100, 60, 0.05, 6);
  const Matrix b = UniformSparse(60, 80, 0.05, 7);
  catalog.Register("a", a);
  catalog.Register("b", b);
  ExactEstimator exact;
  exact.AttachCatalog(&catalog);
  const NodeStats sa = exact.LeafStats("a", StatsOf(a));
  const NodeStats sb = exact.LeafStats("b", StatsOf(b));
  const NodeStats product = exact.Multiply(sa, sb);
  EXPECT_NEAR(product.sparsity, TrueProductSparsity(a, b), 1e-12);
}

TEST(Exact, DegradesGracefullyWithoutValues) {
  ExactEstimator exact;  // no catalog attached
  MatrixStats stats;
  stats.rows = 10;
  stats.cols = 10;
  stats.sparsity = 0.5;
  const NodeStats s = exact.LeafStats("nope", stats);
  EXPECT_DOUBLE_EQ(s.sparsity, 0.5);
  EXPECT_EQ(s.pattern, nullptr);
}

TEST(Sketch, AddUnionBound) {
  const Matrix a = UniformSparse(100, 100, 0.1, 8);
  const Matrix b = UniformSparse(100, 100, 0.1, 9);
  auto sum = SketchAdd(*MncSketch::FromMatrix(a), *MncSketch::FromMatrix(b));
  const double truth = Add(a, b).value().Sparsity();
  EXPECT_NEAR(sum->Sparsity(), truth, 0.03);
}

TEST(Sketch, ElemMulIntersection) {
  const Matrix a = UniformSparse(100, 100, 0.3, 10);
  const Matrix b = UniformSparse(100, 100, 0.3, 11);
  auto prod =
      SketchElemMul(*MncSketch::FromMatrix(a), *MncSketch::FromMatrix(b));
  const double truth = ElementwiseMultiply(a, b).value().Sparsity();
  EXPECT_NEAR(prod->Sparsity(), truth, 0.03);
}

// ---------------------------------------------------------------------------
// SketchMultiply memoizes its per-row and per-column bucket sums by count
// value. The reference below is the same propagation rule with no memo,
// so the two must agree bit for bit.

std::vector<std::pair<double, double>> ReferenceBuckets(
    const std::vector<double>& counts) {
  constexpr size_t kMaxSample = 4096;
  constexpr size_t kMaxBuckets = 64;
  std::vector<double> sorted;
  if (counts.size() > kMaxSample) {
    const size_t stride = counts.size() / kMaxSample;
    for (size_t i = 0; i < counts.size(); i += stride) {
      sorted.push_back(counts[i]);
    }
  } else {
    sorted = counts;
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<double, double>> buckets;
  const size_t n = sorted.size();
  if (n == 0) return buckets;
  const double weight =
      static_cast<double>(counts.size()) / static_cast<double>(n);
  const size_t per = std::max<size_t>(1, n / kMaxBuckets);
  for (size_t i = 0; i < n;) {
    const size_t end = std::min(n, i + per);
    double sum = 0.0;
    for (size_t k = i; k < end; ++k) sum += sorted[k];
    buckets.emplace_back(sum / static_cast<double>(end - i),
                         static_cast<double>(end - i) * weight);
    i = end;
  }
  return buckets;
}

void ReferenceScaleTo(std::vector<double>* counts, double target_total,
                      double cap) {
  double total = 0.0;
  for (double c : *counts) total += c;
  if (total <= 0.0) return;
  const double factor = target_total / total;
  double overflow = 0.0;
  double headroom_total = 0.0;
  for (double& c : *counts) {
    c *= factor;
    if (c > cap) {
      overflow += c - cap;
      c = cap;
    } else {
      headroom_total += cap - c;
    }
  }
  if (overflow > 0.0 && headroom_total > 0.0) {
    const double redistribute = std::min(1.0, overflow / headroom_total);
    for (double& c : *counts) c += (cap - c) * redistribute;
  }
}

/// SketchMultiply without any memo (inputs have positive nnz and products).
MncSketch ReferenceSketchMultiply(const MncSketch& a, const MncSketch& b) {
  MncSketch out;
  out.rows = a.rows;
  out.cols = b.cols;
  double total_products = 0.0;
  const size_t inner = std::min(a.col_counts.size(), b.row_counts.size());
  for (size_t j = 0; j < inner; ++j) {
    total_products += a.col_counts[j] * b.row_counts[j];
  }
  const double alpha = total_products / (a.nnz * b.nnz);
  const auto col_buckets = ReferenceBuckets(b.col_counts);
  for (const double r : a.row_counts) {
    double expected = 0.0;
    for (const auto& [value, count] : col_buckets) {
      expected += count * -std::expm1(-alpha * r * value);
    }
    out.row_counts.push_back(expected);
    out.nnz += expected;
  }
  const auto row_buckets = ReferenceBuckets(a.row_counts);
  for (const double c : b.col_counts) {
    double expected = 0.0;
    for (const auto& [value, count] : row_buckets) {
      expected += count * -std::expm1(-alpha * value * c);
    }
    out.col_counts.push_back(expected);
  }
  ReferenceScaleTo(&out.col_counts, out.nnz, static_cast<double>(a.rows));
  return out;
}

/// A rows x cols sketch with the given count vectors; nnz sums the rows.
MncSketch SketchWith(std::vector<double> row_counts,
                     std::vector<double> col_counts) {
  MncSketch s;
  s.rows = static_cast<int64_t>(row_counts.size());
  s.cols = static_cast<int64_t>(col_counts.size());
  s.row_counts = std::move(row_counts);
  s.col_counts = std::move(col_counts);
  for (double c : s.row_counts) s.nnz += c;
  return s;
}

/// `n` counts drawn from `values` in a scrambled order, so equal counts
/// repeat but rarely back to back.
std::vector<double> ScrambledCounts(size_t n, const std::vector<double>& values,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<double> counts(n);
  for (double& c : counts) {
    c = values[static_cast<size_t>(rng.NextBounded(values.size()))];
  }
  return counts;
}

/// Bitwise equality; any two NaNs match (payloads carry no estimate).
bool SameBits(double x, double y) {
  if (std::isnan(x) && std::isnan(y)) return true;
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameBits(got[i], want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

void ExpectMatchesReference(const MncSketch& a, const MncSketch& b) {
  const auto got = SketchMultiply(a, b);
  const MncSketch want = ReferenceSketchMultiply(a, b);
  ExpectBitwiseEqual(got->row_counts, want.row_counts, "row_counts");
  ExpectBitwiseEqual(got->col_counts, want.col_counts, "col_counts");
  EXPECT_TRUE(SameBits(got->nnz, want.nnz)) << got->nnz << " vs " << want.nnz;
}

// Counts that repeat out of order (including both zeros, and 2.0 next
// to 2.5), on a 120000-row left operand and a right operand wider than
// 8192 columns, so both memos and both sampled bucket paths run.
TEST(Sketch, MultiplyMemoMatchesUnmemoizedOnRepeatedCounts) {
  const std::vector<double> values = {0.0, -0.0, 1.0, 2.0, 2.5, 3.0,
                                      7.0, 12.0, 20.0, 33.0, 47.0};
  MncSketch a = SketchWith(ScrambledCounts(120000, values, 1),
                           ScrambledCounts(47, {900.0, 1500.0, 4000.0}, 2));
  MncSketch b = SketchWith(ScrambledCounts(47, {10.0, 300.0, 9000.0}, 3),
                           ScrambledCounts(9000, values, 4));
  ExpectMatchesReference(a, b);
}

// Every count distinct: the table's slots collide and evict constantly.
TEST(Sketch, MultiplyMemoMatchesUnmemoizedOnDistinctCounts) {
  std::vector<double> rows(100000);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = 0.5 + 1e-3 * i;
  std::vector<double> cols(10000);
  for (size_t k = 0; k < cols.size(); ++k) cols[k] = 3.0 + 7e-3 * k;
  std::vector<double> inner(50);
  for (size_t j = 0; j < inner.size(); ++j) inner[j] = 100.0 + j;
  MncSketch a = SketchWith(rows, inner);
  MncSketch b = SketchWith(inner, cols);
  ExpectMatchesReference(a, b);
}

// NaN counts are never served from the table. They sit at positions the
// bucket sampling skips (index 1 is off any stride above 1), so the buckets
// stay finite and the non-NaN counts stay meaningful.
TEST(Sketch, MultiplyMemoNeverServesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {0.0, -0.0, 1.0, 4.0, 9.0};
  std::vector<double> rows = ScrambledCounts(120000, values, 5);
  rows[1] = nan;
  rows[5001] = nan;
  const std::vector<double> inner = ScrambledCounts(40, {50.0, 700.0}, 6);
  MncSketch a = SketchWith(rows, inner);
  MncSketch b = SketchWith(inner, ScrambledCounts(300, values, 7));
  a.nnz = 1e5;  // keep alpha finite
  ExpectMatchesReference(a, b);

  // A NaN column count in the column memo (9000 columns: stride 2).
  std::vector<double> cols = ScrambledCounts(9000, values, 8);
  cols[1] = nan;
  cols[4001] = nan;
  MncSketch finite_a = SketchWith(ScrambledCounts(120000, values, 9), inner);
  ExpectMatchesReference(finite_a, SketchWith(inner, cols));
}

// Bucket multiplicities count entries, not samples: once the right
// operand is wide enough to be stride-sampled, the estimate must not
// shrink by the stride.
TEST(Sketch, MultiplyEstimateIndependentOfSampledWidth) {
  const auto a = MncSketch::Uniform(100, 50, 0.05);
  const double base = SketchMultiply(*a, *MncSketch::Uniform(50, 1000, 0.05))
                          ->Sparsity();
  EXPECT_NEAR(base, 0.1175, 1e-4);
  for (const int64_t n : {4096, 8191, 8192, 20000, 60001, 120000}) {
    const auto b = MncSketch::Uniform(50, n, 0.05);
    EXPECT_NEAR(SketchMultiply(*a, *b)->Sparsity(), base, 1e-12 * base)
        << "n=" << n;
  }
}

}  // namespace
}  // namespace remac
