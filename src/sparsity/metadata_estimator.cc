#include <algorithm>
#include <cmath>

#include "sparsity/estimator.h"

namespace remac {

NodeStats MetadataEstimator::LeafStats(const std::string& name,
                                       const MatrixStats& stats) const {
  (void)name;
  NodeStats s;
  s.rows = static_cast<double>(stats.rows);
  s.cols = static_cast<double>(stats.cols);
  s.sparsity = stats.sparsity;
  return s;
}

NodeStats MetadataEstimator::Multiply(const NodeStats& a,
                                      const NodeStats& b) const {
  NodeStats s;
  s.rows = a.rows;
  s.cols = b.cols;
  // Uniform non-zeros: an output cell is non-zero unless all k inner
  // products miss, so sp = 1 - (1 - sA*sB)^k (SystemML's worst-case
  // metadata propagation).
  const double k = a.cols;
  const double p = std::clamp(a.sparsity * b.sparsity, 0.0, 1.0);
  if (p >= 1.0) {
    s.sparsity = 1.0;
  } else {
    s.sparsity = 1.0 - std::exp(k * std::log1p(-p));
  }
  return s;
}

NodeStats MetadataEstimator::Transpose(const NodeStats& a) const {
  NodeStats s = a;
  std::swap(s.rows, s.cols);
  return s;
}

NodeStats MetadataEstimator::Elementwise(PlanOp op, const NodeStats& a,
                                         const NodeStats& b) const {
  NodeStats s;
  s.rows = a.rows;
  s.cols = a.cols;
  switch (OpInfo(op).pattern) {
    case PatternRule::kUnion:
      // Union under independence (min/max can surface either operand's
      // non-zeros, so the union is the conservative pattern).
      s.sparsity = a.sparsity + b.sparsity - a.sparsity * b.sparsity;
      break;
    case PatternRule::kIntersect:
      s.sparsity = a.sparsity * b.sparsity;
      break;
    case PatternRule::kNumerator:
      // Safe divide: zeros of the numerator stay zero.
      s.sparsity = a.sparsity;
      break;
    default:
      s.sparsity = std::max(a.sparsity, b.sparsity);
      break;
  }
  s.sparsity = std::clamp(s.sparsity, 0.0, 1.0);
  return s;
}

}  // namespace remac
