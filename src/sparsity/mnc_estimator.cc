#include <algorithm>

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
    s.sketch = MncSketch::Uniform(stats.rows, stats.cols, stats.sparsity);
  }
  return s;
}

namespace {

/// Falls back to a uniform sketch if a stats object lost its sketch
/// (e.g., after a densifying scalar op).
std::shared_ptr<const MncSketch> SketchOf(const NodeStats& s) {
  if (s.sketch) return s.sketch;
  return MncSketch::Uniform(static_cast<int64_t>(s.rows),
                            static_cast<int64_t>(s.cols), s.sparsity);
}

NodeStats FromSketch(std::shared_ptr<const MncSketch> sketch) {
  NodeStats s;
  s.rows = static_cast<double>(sketch->rows);
  s.cols = static_cast<double>(sketch->cols);
  s.sparsity = std::clamp(sketch->Sparsity(), 0.0, 1.0);
  s.sketch = std::move(sketch);
  return s;
}

}  // namespace

NodeStats MncEstimator::Multiply(const NodeStats& a,
                                 const NodeStats& b) const {
  return FromSketch(SketchMultiply(*SketchOf(a), *SketchOf(b)));
}

NodeStats MncEstimator::Transpose(const NodeStats& a) const {
  return FromSketch(SketchTranspose(*SketchOf(a)));
}

NodeStats MncEstimator::Elementwise(PlanOp op, const NodeStats& a,
                                    const NodeStats& b) const {
  switch (OpInfo(op).pattern) {
    case PatternRule::kUnion:
      // min/max patterns are bounded by the union, like add.
      return FromSketch(SketchAdd(*SketchOf(a), *SketchOf(b)));
    case PatternRule::kIntersect:
      return FromSketch(SketchElemMul(*SketchOf(a), *SketchOf(b)));
    default:
      return a;  // safe divide keeps the numerator's pattern
  }
}

}  // namespace remac
