#include "sparsity/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>

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
  s->row_counts.assign(row_counts.begin(), row_counts.end());
  s->col_counts.assign(col_counts.begin(), col_counts.end());
  s->nnz = SumOf(s->row_counts);
  return s;
}

std::shared_ptr<const MncSketch> MncSketch::Uniform(int64_t rows, int64_t cols,
                                                    double sparsity) {
  auto s = std::make_shared<MncSketch>();
  s->rows = rows;
  s->cols = cols;
  s->nnz = sparsity * static_cast<double>(rows) * static_cast<double>(cols);
  s->row_counts.assign(static_cast<size_t>(rows),
                       sparsity * static_cast<double>(cols));
  s->col_counts.assign(static_cast<size_t>(cols),
                       sparsity * static_cast<double>(rows));
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
  const double cells =
      static_cast<double>(a.rows) * static_cast<double>(b.cols);
  if (cells <= 0.0 || a.nnz <= 0.0 || b.nnz <= 0.0) {
    out->nnz = 0;
    out->row_counts.assign(static_cast<size_t>(a.rows), 0.0);
    out->col_counts.assign(static_cast<size_t>(b.cols), 0.0);
    return out;
  }
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
  const size_t inner = std::min(a.col_counts.size(), b.row_counts.size());
  for (size_t j = 0; j < inner; ++j) {
    total_products += a.col_counts[j] * b.row_counts[j];
  }
  if (total_products <= 0.0) {
    out->nnz = 0;
    out->row_counts.assign(static_cast<size_t>(a.rows), 0.0);
    out->col_counts.assign(static_cast<size_t>(b.cols), 0.0);
    return out;
  }
  const double alpha = total_products / (a.nnz * b.nnz);
  const auto col_buckets = BucketCounts(b.col_counts);
  // Per-output-row expected counts: h_r^C[i] = sum_k P(C[i,k] != 0).
  // Rows with equal input counts get equal outputs, so the (expensive)
  // bucket sum is memoized per distinct input count; nnz still sums the
  // rows in index order.
  out->row_counts.resize(a.row_counts.size());
  double nnz = 0.0;
  CountMemo row_memo;
  const auto row_expected = [&](double r) {
    double expected = 0.0;
    for (const auto& [value, count] : col_buckets) {
      expected += count * -std::expm1(-alpha * r * value);
    }
    return expected;
  };
  for (size_t i = 0; i < a.row_counts.size(); ++i) {
    out->row_counts[i] = row_memo.Get(a.row_counts[i], row_expected);
    nnz += out->row_counts[i];
  }
  out->nnz = nnz;
  // Per-output-column expected counts, from the row buckets of A.
  const auto row_buckets = BucketCounts(a.row_counts);
  out->col_counts.resize(b.col_counts.size());
  CountMemo col_memo;
  const auto col_expected = [&](double c) {
    double expected = 0.0;
    for (const auto& [value, count] : row_buckets) {
      expected += count * -std::expm1(-alpha * value * c);
    }
    return expected;
  };
  for (size_t k = 0; k < b.col_counts.size(); ++k) {
    out->col_counts[k] = col_memo.Get(b.col_counts[k], col_expected);
  }
  ScaleTo(&out->col_counts, out->nnz, static_cast<double>(a.rows));
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
  out->row_counts.resize(a.row_counts.size());
  const double cols = static_cast<double>(a.cols);
  for (size_t i = 0; i < a.row_counts.size(); ++i) {
    const double bc = i < b.row_counts.size() ? b.row_counts[i] : 0.0;
    // Union under independence within the row.
    const double pa = std::min(1.0, a.row_counts[i] / std::max(1.0, cols));
    const double pb = std::min(1.0, bc / std::max(1.0, cols));
    out->row_counts[i] = cols * (pa + pb - pa * pb);
  }
  out->nnz = SumOf(out->row_counts);
  const double rows = static_cast<double>(a.rows);
  out->col_counts.resize(a.col_counts.size());
  for (size_t j = 0; j < a.col_counts.size(); ++j) {
    const double bc = j < b.col_counts.size() ? b.col_counts[j] : 0.0;
    const double pa = std::min(1.0, a.col_counts[j] / std::max(1.0, rows));
    const double pb = std::min(1.0, bc / std::max(1.0, rows));
    out->col_counts[j] = rows * (pa + pb - pa * pb);
  }
  ScaleTo(&out->col_counts, out->nnz, rows);
  return out;
}

std::shared_ptr<const MncSketch> SketchElemMul(const MncSketch& a,
                                               const MncSketch& b) {
  auto out = std::make_shared<MncSketch>();
  out->rows = a.rows;
  out->cols = a.cols;
  out->row_counts.resize(a.row_counts.size());
  const double cols = std::max<double>(1, a.cols);
  for (size_t i = 0; i < a.row_counts.size(); ++i) {
    const double bc = i < b.row_counts.size() ? b.row_counts[i] : 0.0;
    out->row_counts[i] = a.row_counts[i] * bc / cols;  // intersection
  }
  out->nnz = SumOf(out->row_counts);
  const double rows = std::max<double>(1, a.rows);
  out->col_counts.resize(a.col_counts.size());
  for (size_t j = 0; j < a.col_counts.size(); ++j) {
    const double bc = j < b.col_counts.size() ? b.col_counts[j] : 0.0;
    out->col_counts[j] = a.col_counts[j] * bc / rows;
  }
  ScaleTo(&out->col_counts, out->nnz, rows);
  return out;
}

}  // namespace remac
