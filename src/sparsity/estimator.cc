#include "sparsity/estimator.h"

namespace remac {

NodeStats SparsityEstimator::GeneratorStats(PlanOp op, int64_t rows,
                                            int64_t cols) const {
  NodeStats s;
  s.rows = static_cast<double>(rows);
  s.cols = static_cast<double>(cols);
  if (op == PlanOp::kEye) {
    s.sparsity = rows > 0 ? 1.0 / static_cast<double>(rows) : 0.0;
  } else if (op == PlanOp::kZeros) {
    s.sparsity = 0.0;
  }  // ones and rand keep the default: dense
  return s;
}

NodeStats SparsityEstimator::ScalarBroadcast(PlanOp op,
                                             const NodeStats& matrix) const {
  NodeStats s = matrix;
  if (OpInfo(op).pattern == PatternRule::kUnion) {
    // Adding (or min/max against) a generally non-zero scalar densifies.
    s.sparsity = 1.0;
    s.sketch.reset();
    s.pattern.reset();
  }
  return s;
}

}  // namespace remac
