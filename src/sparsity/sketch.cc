#include "sparsity/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>

namespace remac {

namespace {

double SumOf(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// Scales `counts` so it sums to `target_total`, capping entries at `cap`.
void ScaleTo(std::vector<double>* counts, double target_total, double cap) {
  double total = SumOf(*counts);
  if (total <= 0.0) return;
  // One capped-rescale round is enough for estimation purposes.
  double factor = target_total / total;
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

/// A count vector of `n` copies of `value`.
MncSketch::Counts Filled(int64_t n, double value) {
  return std::make_shared<const std::vector<double>>(static_cast<size_t>(n),
                                                     value);
}

/// Freezes a count vector built in place (its buffer moves, no copy).
MncSketch::Counts Share(std::vector<double> counts) {
  return std::make_shared<const std::vector<double>>(std::move(counts));
}

}  // namespace

std::shared_ptr<const MncSketch> MncSketch::FromMatrix(const Matrix& m) {
  const RowColCounts counts = m.CountRowsAndCols();
  return FromCounts(m.rows(), m.cols(), counts.row_counts, counts.col_counts);
}

std::shared_ptr<const MncSketch> MncSketch::FromCounts(
    int64_t rows, int64_t cols, const std::vector<int64_t>& row_counts,
    const std::vector<int64_t>& col_counts) {
  auto s = std::make_shared<MncSketch>();
  s->rows = rows;
  s->cols = cols;
  s->row_counts = std::make_shared<const std::vector<double>>(
      row_counts.begin(), row_counts.end());
  s->col_counts = std::make_shared<const std::vector<double>>(
      col_counts.begin(), col_counts.end());
  s->nnz = SumOf(*s->row_counts);
  return s;
}

std::shared_ptr<const MncSketch> MncSketch::Uniform(int64_t rows, int64_t cols,
                                                    double sparsity) {
  auto s = std::make_shared<MncSketch>();
  s->rows = rows;
  s->cols = cols;
  s->nnz = sparsity * static_cast<double>(rows) * static_cast<double>(cols);
  s->row_counts = Filled(rows, sparsity * static_cast<double>(cols));
  s->col_counts = Filled(cols, sparsity * static_cast<double>(rows));
  return s;
}

namespace {

/// Compresses a count vector into (value, multiplicity) buckets so the
/// bilinear collision sums below cost O(K^2) instead of O(m * l).
std::vector<std::pair<double, double>> BucketCounts(
    const std::vector<double>& counts, int max_buckets = 64) {
  // Long vectors are stride-sampled before sorting: the buckets only feed
  // an estimation formula, and O(n log n) per propagation step would make
  // the optimizer's interval tables quadratic in the data size.
  std::vector<double> sorted;
  constexpr size_t kMaxSample = 4096;
  if (counts.size() > kMaxSample) {
    const size_t stride = counts.size() / kMaxSample;
    sorted.reserve(kMaxSample + 1);
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
  // Each sample stands for counts.size() / n entries, so a bucket's
  // multiplicity counts entries, not samples (exactly 1 when unsampled).
  const double weight =
      static_cast<double>(counts.size()) / static_cast<double>(n);
  const size_t per = std::max<size_t>(1, n / static_cast<size_t>(max_buckets));
  size_t i = 0;
  while (i < n) {
    const size_t end = std::min(n, i + per);
    double sum = 0.0;
    for (size_t k = i; k < end; ++k) sum += sorted[k];
    buckets.emplace_back(sum / static_cast<double>(end - i),
                         static_cast<double>(end - i) * weight);
    i = end;
  }
  return buckets;
}

/// Exact memo of a pure function of one count, keyed by the count's
/// value: a direct-mapped table that lives on the stack, so a lookup
/// never allocates. Keys compare by bit pattern after folding -0.0 onto
/// +0.0 (the bucket sums are +0.0 for both). A colliding key evicts the
/// slot's entry and a miss recomputes, so a hit returns exactly what
/// `compute` would. Empty slots hold the quiet-NaN pattern, which is why
/// NaN keys bypass the table and are never cached.
class CountMemo {
 public:
  CountMemo() { std::fill(std::begin(keys_), std::end(keys_), kEmpty); }

  template <typename Compute>
  double Get(double key, const Compute& compute) {
    if (std::isnan(key)) return compute(key);
    // `key + 0.0` is +0.0 for both zeros and `key` otherwise.
    const uint64_t bits = std::bit_cast<uint64_t>(key + 0.0);
    const size_t slot =
        static_cast<size_t>((bits * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits));
    if (keys_[slot] == bits) return values_[slot];
    const double value = compute(key);
    keys_[slot] = bits;
    values_[slot] = value;
    return value;
  }

 private:
  static constexpr int kSlotBits = 8;
  static constexpr uint64_t kEmpty =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());

  uint64_t keys_[size_t{1} << kSlotBits];
  double values_[size_t{1} << kSlotBits] = {};
};

}  // namespace

std::shared_ptr<const MncSketch> SketchMultiply(const MncSketch& a,
                                                const MncSketch& b) {
  auto out = std::make_shared<MncSketch>();
  out->rows = a.rows;
  out->cols = b.cols;
  const std::vector<double>& a_rows = *a.row_counts;
  const std::vector<double>& a_cols = *a.col_counts;
  const std::vector<double>& b_rows = *b.row_counts;
  const std::vector<double>& b_cols = *b.col_counts;
  const auto empty = [&] {
    out->nnz = 0;
    out->row_counts = Filled(a.rows, 0.0);
    out->col_counts = Filled(b.cols, 0.0);
    return out;
  };
  const double cells =
      static_cast<double>(a.rows) * static_cast<double>(b.cols);
  if (cells <= 0.0 || a.nnz <= 0.0 || b.nnz <= 0.0) return empty();
  // Structure-exploiting collision model (MNC's key idea): approximate
  // the expected number of scalar products landing in output cell (i, k)
  // by a rank-1 intensity
  //   lambda_{ik} = alpha * h_r^A[i] * h_c^B[k],
  // calibrated so the total intensity equals the exact total number of
  // products S = sum_j h_c^A[j] * h_r^B[j]. Then
  //   P(C[i,k] != 0) ~= 1 - exp(-lambda_{ik}),
  // which saturates for heavy rows/columns — exactly the concentration a
  // uniform model misses on skewed data.
  double total_products = 0.0;
  const size_t inner = std::min(a_cols.size(), b_rows.size());
  for (size_t j = 0; j < inner; ++j) {
    total_products += a_cols[j] * b_rows[j];
  }
  if (total_products <= 0.0) return empty();
  const double alpha = total_products / (a.nnz * b.nnz);
  const auto col_buckets = BucketCounts(b_cols);
  // Per-output-row expected counts: h_r^C[i] = sum_k P(C[i,k] != 0).
  // Rows with equal input counts get equal outputs, so the (expensive)
  // bucket sum is memoized per distinct input count; nnz still sums the
  // rows in index order.
  std::vector<double> row_counts;
  row_counts.reserve(a_rows.size());
  double nnz = 0.0;
  CountMemo row_memo;
  const auto row_expected = [&](double r) {
    double expected = 0.0;
    for (const auto& [value, count] : col_buckets) {
      expected += count * -std::expm1(-alpha * r * value);
    }
    return expected;
  };
  for (const double r : a_rows) {
    row_counts.push_back(row_memo.Get(r, row_expected));
    nnz += row_counts.back();
  }
  out->nnz = nnz;
  // Per-output-column expected counts, from the row buckets of A.
  const auto row_buckets = BucketCounts(a_rows);
  std::vector<double> col_counts;
  col_counts.reserve(b_cols.size());
  CountMemo col_memo;
  const auto col_expected = [&](double c) {
    double expected = 0.0;
    for (const auto& [value, count] : row_buckets) {
      expected += count * -std::expm1(-alpha * value * c);
    }
    return expected;
  };
  for (const double c : b_cols) {
    col_counts.push_back(col_memo.Get(c, col_expected));
  }
  ScaleTo(&col_counts, out->nnz, static_cast<double>(a.rows));
  out->row_counts = Share(std::move(row_counts));
  out->col_counts = Share(std::move(col_counts));
  return out;
}

std::shared_ptr<const MncSketch> SketchTranspose(const MncSketch& a) {
  auto out = std::make_shared<MncSketch>();
  out->rows = a.cols;
  out->cols = a.rows;
  out->nnz = a.nnz;
  out->row_counts = a.col_counts;
  out->col_counts = a.row_counts;
  return out;
}

std::shared_ptr<const MncSketch> SketchAdd(const MncSketch& a,
                                           const MncSketch& b) {
  auto out = std::make_shared<MncSketch>();
  out->rows = a.rows;
  out->cols = a.cols;
  const std::vector<double>& a_rows = *a.row_counts;
  const std::vector<double>& a_cols = *a.col_counts;
  const std::vector<double>& b_rows = *b.row_counts;
  const std::vector<double>& b_cols = *b.col_counts;
  std::vector<double> row_counts;
  row_counts.reserve(a_rows.size());
  const double cols = static_cast<double>(a.cols);
  for (size_t i = 0; i < a_rows.size(); ++i) {
    const double bc = i < b_rows.size() ? b_rows[i] : 0.0;
    // Union under independence within the row.
    const double pa = std::min(1.0, a_rows[i] / std::max(1.0, cols));
    const double pb = std::min(1.0, bc / std::max(1.0, cols));
    row_counts.push_back(cols * (pa + pb - pa * pb));
  }
  out->nnz = SumOf(row_counts);
  const double rows = static_cast<double>(a.rows);
  std::vector<double> col_counts;
  col_counts.reserve(a_cols.size());
  for (size_t j = 0; j < a_cols.size(); ++j) {
    const double bc = j < b_cols.size() ? b_cols[j] : 0.0;
    const double pa = std::min(1.0, a_cols[j] / std::max(1.0, rows));
    const double pb = std::min(1.0, bc / std::max(1.0, rows));
    col_counts.push_back(rows * (pa + pb - pa * pb));
  }
  ScaleTo(&col_counts, out->nnz, rows);
  out->row_counts = Share(std::move(row_counts));
  out->col_counts = Share(std::move(col_counts));
  return out;
}

std::shared_ptr<const MncSketch> SketchElemMul(const MncSketch& a,
                                               const MncSketch& b) {
  auto out = std::make_shared<MncSketch>();
  out->rows = a.rows;
  out->cols = a.cols;
  const std::vector<double>& a_rows = *a.row_counts;
  const std::vector<double>& a_cols = *a.col_counts;
  const std::vector<double>& b_rows = *b.row_counts;
  const std::vector<double>& b_cols = *b.col_counts;
  std::vector<double> row_counts;
  row_counts.reserve(a_rows.size());
  const double cols = std::max<double>(1, a.cols);
  for (size_t i = 0; i < a_rows.size(); ++i) {
    const double bc = i < b_rows.size() ? b_rows[i] : 0.0;
    row_counts.push_back(a_rows[i] * bc / cols);  // intersection
  }
  out->nnz = SumOf(row_counts);
  const double rows = std::max<double>(1, a.rows);
  std::vector<double> col_counts;
  col_counts.reserve(a_cols.size());
  for (size_t j = 0; j < a_cols.size(); ++j) {
    const double bc = j < b_cols.size() ? b_cols[j] : 0.0;
    col_counts.push_back(a_cols[j] * bc / rows);
  }
  ScaleTo(&col_counts, out->nnz, rows);
  out->row_counts = Share(std::move(row_counts));
  out->col_counts = Share(std::move(col_counts));
  return out;
}

}  // namespace remac
