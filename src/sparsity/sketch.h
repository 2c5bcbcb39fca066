#ifndef REMAC_SPARSITY_SKETCH_H_
#define REMAC_SPARSITY_SKETCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "matrix/matrix.h"

namespace remac {

/// \brief MNC-style structural sparsity sketch (Sommer et al., SIGMOD'19):
/// exact per-row and per-column non-zero counts of a matrix.
///
/// The paper's ReMac uses the MNC estimator variant with extended counts
/// for accuracy (footnote 1); we keep the row/column count vectors, which
/// capture the skew structure the experiments in Sections 6.3.2 / 6.5
/// depend on.
///
/// The count vectors are immutable once built, so sketches share them:
/// a transpose swaps its operand's two pointers and copies no count.
struct MncSketch {
  using Counts = std::shared_ptr<const std::vector<double>>;

  int64_t rows = 0;
  int64_t cols = 0;
  double nnz = 0;  // fractional after propagation
  Counts row_counts;  // length rows (may be scaled estimates)
  Counts col_counts;  // length cols

  double Sparsity() const {
    if (rows == 0 || cols == 0) return 0.0;
    return nnz / (static_cast<double>(rows) * static_cast<double>(cols));
  }

  /// Builds the exact sketch of an in-memory matrix.
  static std::shared_ptr<const MncSketch> FromMatrix(const Matrix& m);

  /// Builds from precomputed exact counts.
  static std::shared_ptr<const MncSketch> FromCounts(
      int64_t rows, int64_t cols, const std::vector<int64_t>& row_counts,
      const std::vector<int64_t>& col_counts);

  /// A synthetic sketch with uniformly spread non-zeros (fallback when a
  /// leaf has no exact counts).
  static std::shared_ptr<const MncSketch> Uniform(int64_t rows, int64_t cols,
                                                  double sparsity);
};

/// Sketch propagation rules. Estimates are heuristic but skew-aware.
std::shared_ptr<const MncSketch> SketchMultiply(const MncSketch& a,
                                                const MncSketch& b);
std::shared_ptr<const MncSketch> SketchTranspose(const MncSketch& a);
std::shared_ptr<const MncSketch> SketchAdd(const MncSketch& a,
                                           const MncSketch& b);
std::shared_ptr<const MncSketch> SketchElemMul(const MncSketch& a,
                                               const MncSketch& b);

}  // namespace remac

#endif  // REMAC_SPARSITY_SKETCH_H_
