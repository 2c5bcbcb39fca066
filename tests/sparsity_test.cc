#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/scripts.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "cost/cost_model.h"
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
  for (double c : *sketch->row_counts) row_sum += c;
  EXPECT_DOUBLE_EQ(row_sum, sketch->nnz);
}

TEST(Sketch, TransposeSwapsCounts) {
  const Matrix m = UniformSparse(10, 40, 0.1, 2);
  auto sketch = MncSketch::FromMatrix(m);
  auto t = SketchTranspose(*sketch);
  EXPECT_EQ(t->rows, 40);
  EXPECT_EQ(t->cols, 10);
  EXPECT_EQ(*t->row_counts, *sketch->col_counts);
  EXPECT_EQ(*t->col_counts, *sketch->row_counts);
}

// A transpose swaps its operand's count vectors without copying them,
// and transposing twice gives back the original counts bit for bit.
TEST(Sketch, TransposeSharesCountVectors) {
  const auto sketch = MncSketch::FromMatrix(UniformSparse(10, 40, 0.1, 2));
  const auto t = SketchTranspose(*sketch);
  EXPECT_EQ(t->row_counts.get(), sketch->col_counts.get());
  EXPECT_EQ(t->col_counts.get(), sketch->row_counts.get());
  const auto tt = SketchTranspose(*t);
  EXPECT_EQ(tt->rows, sketch->rows);
  EXPECT_EQ(tt->cols, sketch->cols);
  EXPECT_EQ(std::bit_cast<uint64_t>(tt->nnz),
            std::bit_cast<uint64_t>(sketch->nnz));
  EXPECT_EQ(tt->row_counts.get(), sketch->row_counts.get());
  EXPECT_EQ(tt->col_counts.get(), sketch->col_counts.get());
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
  const std::vector<double>& a_rows = *a.row_counts;
  const std::vector<double>& a_cols = *a.col_counts;
  const std::vector<double>& b_rows = *b.row_counts;
  const std::vector<double>& b_cols = *b.col_counts;
  double total_products = 0.0;
  const size_t inner = std::min(a_cols.size(), b_rows.size());
  for (size_t j = 0; j < inner; ++j) {
    total_products += a_cols[j] * b_rows[j];
  }
  const double alpha = total_products / (a.nnz * b.nnz);
  const auto col_buckets = ReferenceBuckets(b_cols);
  std::vector<double> row_counts;
  for (const double r : a_rows) {
    double expected = 0.0;
    for (const auto& [value, count] : col_buckets) {
      expected += count * -std::expm1(-alpha * r * value);
    }
    row_counts.push_back(expected);
    out.nnz += expected;
  }
  const auto row_buckets = ReferenceBuckets(a_rows);
  std::vector<double> col_counts;
  for (const double c : b_cols) {
    double expected = 0.0;
    for (const auto& [value, count] : row_buckets) {
      expected += count * -std::expm1(-alpha * value * c);
    }
    col_counts.push_back(expected);
  }
  ReferenceScaleTo(&col_counts, out.nnz, static_cast<double>(a.rows));
  out.row_counts = std::make_shared<const std::vector<double>>(row_counts);
  out.col_counts = std::make_shared<const std::vector<double>>(col_counts);
  return out;
}

/// A rows x cols sketch with the given count vectors; nnz sums the rows.
MncSketch SketchWith(std::vector<double> row_counts,
                     std::vector<double> col_counts) {
  MncSketch s;
  s.rows = static_cast<int64_t>(row_counts.size());
  s.cols = static_cast<int64_t>(col_counts.size());
  for (double c : row_counts) s.nnz += c;
  s.row_counts =
      std::make_shared<const std::vector<double>>(std::move(row_counts));
  s.col_counts =
      std::make_shared<const std::vector<double>>(std::move(col_counts));
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
  ExpectBitwiseEqual(*got->row_counts, *want.row_counts, "row_counts");
  ExpectBitwiseEqual(*got->col_counts, *want.col_counts, "col_counts");
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

// ---------------------------------------------------------------------------
// One MNC estimator computes each propagation once per distinct input
// sketches. Propagation is pure, so the memo must change no estimate.

/// Hands every call to a new MncEstimator, so nothing is memoized.
class FreshMncEstimator : public SparsityEstimator {
 public:
  const char* Name() const override { return "MNC"; }
  NodeStats LeafStats(const std::string& name,
                      const MatrixStats& stats) const override {
    return MncEstimator().LeafStats(name, stats);
  }
  NodeStats Multiply(const NodeStats& a, const NodeStats& b) const override {
    return MncEstimator().Multiply(a, b);
  }
  NodeStats Transpose(const NodeStats& a) const override {
    return MncEstimator().Transpose(a);
  }
  NodeStats Elementwise(PlanOp op, const NodeStats& a,
                        const NodeStats& b) const override {
    return MncEstimator().Elementwise(op, a, b);
  }
};

/// PropagateProgramStats of `program`, one line per variable, in %a.
std::string PropagatedStats(const CompiledProgram& program,
                            const SparsityEstimator& estimator,
                            const DataCatalog& catalog) {
  const CostModel model(ClusterModel(), &estimator, &catalog);
  const Result<VarStats> vars = PropagateProgramStats(program, model);
  if (!vars.ok()) return vars.status().ToString();
  std::string out;
  for (const auto& [name, costed] : vars->vars) {
    out += StringFormat("%s %a %a %a %d %a\n", name.c_str(),
                        costed.stats.rows, costed.stats.cols,
                        costed.stats.sparsity, costed.distributed ? 1 : 0,
                        costed.seconds);
  }
  return out;
}

TEST(EstimatorMnc, MemoizedPropagationMatchesFreshPerCall) {
  DataCatalog catalog;
  for (const char* ds : {"cri1", "cri3"}) {
    ASSERT_TRUE(RegisterDataset(&catalog, PaperDatasetSpec(ds).value()).ok());
  }
  for (const std::string ds : {"cri1", "cri3"}) {
    for (const std::string& script :
         {GdScript(ds, 5), DfpScript(ds, 5), BfgsScript(ds, 5),
          GnmfScript(ds, 10, 5)}) {
      const Result<CompiledProgram> program = CompileScript(script, catalog);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      const MncEstimator memoized;
      const std::string want =
          PropagatedStats(*program, FreshMncEstimator(), catalog);
      EXPECT_EQ(PropagatedStats(*program, memoized, catalog), want)
          << ds << ":\n" << script;
      // A second pass over the same estimator is served from its memo.
      EXPECT_EQ(PropagatedStats(*program, memoized, catalog), want) << ds;
    }
  }
}

TEST(EstimatorMnc, RepeatedSubexpressionReturnsTheSameSketch) {
  const MncEstimator mnc;
  const NodeStats a =
      mnc.LeafStats("a", StatsOf(SkewedSparse(500, 40, 0.05, 1.5, 12)));
  const NodeStats at = mnc.Transpose(a);
  EXPECT_EQ(mnc.Transpose(a).sketch, at.sketch);
  const NodeStats gram = mnc.Multiply(at, a);
  EXPECT_EQ(mnc.Multiply(mnc.Transpose(a), a).sketch, gram.sketch);
  EXPECT_EQ(mnc.Elementwise(PlanOp::kAdd, a, a).sketch,
            mnc.Elementwise(PlanOp::kAdd, a, a).sketch);
  EXPECT_EQ(mnc.Elementwise(PlanOp::kMul, a, a).sketch,
            mnc.Elementwise(PlanOp::kMul, a, a).sketch);
  // Inputs without a sketch share one uniform stand-in per shape and
  // sparsity, so their products are memoized too.
  NodeStats dense;
  dense.rows = 40;
  dense.cols = 3;
  const NodeStats product = mnc.Multiply(a, dense);
  EXPECT_EQ(mnc.Multiply(a, dense).sketch, product.sketch);
  // A different estimator computes its own, equal, sketch.
  const MncEstimator other;
  const NodeStats again = other.Multiply(other.Transpose(a), a);
  EXPECT_NE(again.sketch, gram.sketch);
  EXPECT_EQ(*again.sketch->row_counts, *gram.sketch->row_counts);
  EXPECT_EQ(*again.sketch->col_counts, *gram.sketch->col_counts);
  EXPECT_EQ(std::bit_cast<uint64_t>(again.sparsity),
            std::bit_cast<uint64_t>(gram.sparsity));
}

// The transpose of an estimate without a sketch keeps its sparsity bit
// for bit; a uniform stand-in would report (sp*r*c)/(c*r) instead.
TEST(EstimatorMnc, SketchlessTransposeKeepsSparsity) {
  const MncEstimator mnc;
  Rng rng(27);
  for (int draw = 0; draw < 200; ++draw) {
    NodeStats s;
    s.rows = static_cast<double>(1 + rng.NextBounded(100000));
    s.cols = static_cast<double>(1 + rng.NextBounded(5000));
    s.sparsity = rng.NextDouble();
    const NodeStats t = mnc.Transpose(s);
    EXPECT_EQ(t.rows, s.cols);
    EXPECT_EQ(t.cols, s.rows);
    ASSERT_EQ(std::bit_cast<uint64_t>(t.sparsity),
              std::bit_cast<uint64_t>(s.sparsity))
        << "draw " << draw << ": " << s.rows << " x " << s.cols << " sp "
        << s.sparsity << " -> " << t.sparsity;
  }
}

}  // namespace
}  // namespace remac
