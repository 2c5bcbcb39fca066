#include <algorithm>

#include "matrix/kernels.h"
#include "sparsity/estimator.h"

namespace remac {

namespace {

NodeStats FromPattern(Matrix pattern) {
  NodeStats s;
  s.rows = static_cast<double>(pattern.rows());
  s.cols = static_cast<double>(pattern.cols());
  s.sparsity = pattern.Sparsity();
  s.pattern = std::make_shared<const Matrix>(std::move(pattern));
  return s;
}

/// Replaces all stored values with 1.0 (boolean pattern).
Matrix Booleanize(const Matrix& m) {
  CsrMatrix csr = m.ToCsr();
  for (auto& v : csr.mutable_values()) v = 1.0;
  return Matrix::WrapCsr(std::move(csr));
}

}  // namespace

NodeStats ExactEstimator::LeafStats(const std::string& name,
                                    const MatrixStats& stats) const {
  if (catalog_ != nullptr) {
    Result<Matrix> value = catalog_->Value(name);
    if (value.ok()) {
      return FromPattern(Booleanize(value.value()));
    }
  }
  // No value available: degrade to the metadata behaviour.
  NodeStats s;
  s.rows = static_cast<double>(stats.rows);
  s.cols = static_cast<double>(stats.cols);
  s.sparsity = stats.sparsity;
  return s;
}

NodeStats ExactEstimator::Multiply(const NodeStats& a,
                                   const NodeStats& b) const {
  if (a.pattern && b.pattern) {
    Result<Matrix> product = remac::Multiply(*a.pattern, *b.pattern);
    if (product.ok()) {
      return FromPattern(Booleanize(product.value()));
    }
  }
  NodeStats s;
  s.rows = a.rows;
  s.cols = b.cols;
  s.sparsity = std::min(1.0, a.sparsity * b.sparsity * a.cols);
  return s;
}

NodeStats ExactEstimator::Transpose(const NodeStats& a) const {
  if (a.pattern) {
    return FromPattern(remac::Transpose(*a.pattern));
  }
  NodeStats s = a;
  std::swap(s.rows, s.cols);
  return s;
}

NodeStats ExactEstimator::Elementwise(PlanOp op, const NodeStats& a,
                                      const NodeStats& b) const {
  if (a.pattern && b.pattern) {
    Result<Matrix> out = [&]() -> Result<Matrix> {
      switch (OpInfo(op).pattern) {
        case PatternRule::kUnion:
          // Union of the patterns bounds the min/max result.
          return Add(*a.pattern, *b.pattern);
        case PatternRule::kIntersect:
          return ElementwiseMultiply(*a.pattern, *b.pattern);
        default:
          return *a.pattern;
      }
    }();
    if (out.ok()) return FromPattern(Booleanize(out.value()));
  }
  // An operand without a pattern (e.g. a scalar-broadcast result): safe
  // divide still keeps the numerator's pattern; the other ops fall back
  // to the metadata estimator's independence rules.
  if (OpInfo(op).pattern == PatternRule::kNumerator) return a;
  return MetadataEstimator().Elementwise(op, a, b);
}

}  // namespace remac
