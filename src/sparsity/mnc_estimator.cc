#include <algorithm>
#include <bit>

#include "sparsity/estimator.h"

namespace remac {

NodeStats MncEstimator::LeafStats(const std::string& name,
                                  const MatrixStats& stats) const {
  (void)name;
  NodeStats s;
  s.rows = static_cast<double>(stats.rows);
  s.cols = static_cast<double>(stats.cols);
  s.sparsity = stats.sparsity;
  if (stats.sketch != nullptr) {
    s.sketch = stats.sketch;
  } else if (!stats.row_counts.empty() && !stats.col_counts.empty()) {
    s.sketch = MncSketch::FromCounts(stats.rows, stats.cols, stats.row_counts,
                                     stats.col_counts);
  } else {
    const std::lock_guard<std::mutex> lock(mu_);
    s.sketch = UniformSketch(stats.rows, stats.cols, stats.sparsity);
  }
  return s;
}

MncEstimator::SketchPtr MncEstimator::UniformSketch(int64_t rows, int64_t cols,
                                                    double sparsity) const {
  SketchPtr& sketch =
      uniform_[{rows, cols, std::bit_cast<uint64_t>(sparsity)}];
  if (sketch == nullptr) sketch = MncSketch::Uniform(rows, cols, sparsity);
  return sketch;
}

/// Falls back to a uniform sketch if a stats object lost its sketch
/// (e.g., after a densifying scalar op).
MncEstimator::SketchPtr MncEstimator::SketchOf(const NodeStats& s) const {
  if (s.sketch) return s.sketch;
  return UniformSketch(static_cast<int64_t>(s.rows),
                       static_cast<int64_t>(s.cols), s.sparsity);
}

namespace {

NodeStats FromSketch(std::shared_ptr<const MncSketch> sketch) {
  NodeStats s;
  s.rows = static_cast<double>(sketch->rows);
  s.cols = static_cast<double>(sketch->cols);
  s.sparsity = std::clamp(sketch->Sparsity(), 0.0, 1.0);
  s.sketch = std::move(sketch);
  return s;
}

}  // namespace

NodeStats MncEstimator::Propagate(Rule rule, const NodeStats& a,
                                  const NodeStats* b) const {
  const std::lock_guard<std::mutex> lock(mu_);
  SketchPtr sa = SketchOf(a);
  SketchPtr sb = b != nullptr ? SketchOf(*b) : nullptr;
  Propagated& memo = propagated_[{rule, sa.get(), sb.get()}];
  if (memo.out == nullptr) {
    switch (rule) {
      case Rule::kMultiply: memo.out = SketchMultiply(*sa, *sb); break;
      case Rule::kTranspose: memo.out = SketchTranspose(*sa); break;
      case Rule::kUnion: memo.out = SketchAdd(*sa, *sb); break;
      case Rule::kIntersect: memo.out = SketchElemMul(*sa, *sb); break;
    }
    memo.a = std::move(sa);
    memo.b = std::move(sb);
  }
  return FromSketch(memo.out);
}

NodeStats MncEstimator::Multiply(const NodeStats& a,
                                 const NodeStats& b) const {
  return Propagate(Rule::kMultiply, a, &b);
}

NodeStats MncEstimator::Transpose(const NodeStats& a) const {
  if (a.sketch == nullptr) {
    // Swap the dims and keep the sparsity: a uniform stand-in would
    // report (sp*r*c)/(c*r), which can be one ULP off sp.
    NodeStats t;
    t.rows = a.cols;
    t.cols = a.rows;
    t.sparsity = a.sparsity;
    return t;
  }
  return Propagate(Rule::kTranspose, a, nullptr);
}

NodeStats MncEstimator::Elementwise(PlanOp op, const NodeStats& a,
                                    const NodeStats& b) const {
  switch (OpInfo(op).pattern) {
    case PatternRule::kUnion:
      // min/max patterns are bounded by the union, like add.
      return Propagate(Rule::kUnion, a, &b);
    case PatternRule::kIntersect:
      return Propagate(Rule::kIntersect, a, &b);
    default:
      return a;  // safe divide keeps the numerator's pattern
  }
}

}  // namespace remac
