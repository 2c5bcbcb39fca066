#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "sparsity/estimator.h"

namespace remac {

NodeStats SamplingEstimator::LeafStats(const std::string& name,
                                       const MatrixStats& stats) const {
  NodeStats s;
  s.rows = static_cast<double>(stats.rows);
  s.cols = static_cast<double>(stats.cols);
  s.sparsity = stats.sparsity;
  if (stats.row_counts.empty() || stats.col_counts.empty()) {
    s.sketch = MncSketch::Uniform(stats.rows, stats.cols, stats.sparsity);
    (void)name;
    return s;
  }
  // Sample `sample_size` rows and columns of the exact count vectors and
  // scale up: a cheaper (and noisier) stand-in for the full MNC sketch,
  // in the spirit of MATFAST's sampling-based estimation.
  auto sketch = std::make_shared<MncSketch>();
  sketch->rows = stats.rows;
  sketch->cols = stats.cols;
  sketch->nnz = stats.sparsity * static_cast<double>(stats.rows) *
                static_cast<double>(stats.cols);
  Rng rng(0x5a3f11ULL ^ static_cast<uint64_t>(stats.rows * 131 + stats.cols));
  auto sample = [&](const std::vector<int64_t>& counts, int64_t dim) {
    const int n = std::min<int>(sample_size_, static_cast<int>(dim));
    double mean = 0.0;
    if (n > 0) {
      double total = 0.0;
      for (int k = 0; k < n; ++k) {
        total += static_cast<double>(
            counts[rng.NextBounded(static_cast<uint64_t>(counts.size()))]);
      }
      mean = total / n;
    }
    // Spread the sampled mean uniformly; skew within the vector is lost,
    // which is exactly the estimation error the sampling trades for speed.
    return std::make_shared<const std::vector<double>>(
        static_cast<size_t>(dim), mean);
  };
  sketch->row_counts = sample(stats.row_counts, stats.rows);
  sketch->col_counts = sample(stats.col_counts, stats.cols);
  s.sketch = std::move(sketch);
  return s;
}

NodeStats SamplingEstimator::Multiply(const NodeStats& a,
                                      const NodeStats& b) const {
  return mnc_rules_.Multiply(a, b);
}

NodeStats SamplingEstimator::Transpose(const NodeStats& a) const {
  return mnc_rules_.Transpose(a);
}

NodeStats SamplingEstimator::Elementwise(PlanOp op, const NodeStats& a,
                                         const NodeStats& b) const {
  return mnc_rules_.Elementwise(op, a, b);
}

}  // namespace remac
