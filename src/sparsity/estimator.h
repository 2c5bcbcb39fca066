#ifndef REMAC_SPARSITY_ESTIMATOR_H_
#define REMAC_SPARSITY_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "matrix/matrix.h"
#include "plan/plan_builder.h"
#include "plan/plan_node.h"
#include "sparsity/sketch.h"

namespace remac {

/// \brief Per-node statistics propagated by a sparsity estimator.
///
/// Every estimator fills rows/cols/sparsity; the MNC estimator
/// additionally carries a structural sketch, and the exact oracle carries
/// the boolean non-zero pattern.
struct NodeStats {
  double rows = 1;
  double cols = 1;
  double sparsity = 1.0;
  std::shared_ptr<const MncSketch> sketch;
  std::shared_ptr<const Matrix> pattern;  // exact oracle only

  double Nnz() const { return rows * cols * sparsity; }
};

/// \brief Pluggable sparsity estimator (paper Section 4.2).
///
/// The cost model walks plan trees bottom-up calling these propagation
/// rules. Choosing the estimator trades compile time against plan
/// quality; Figure 10 compares the metadata-based estimator (fast,
/// uniform-assumption) with MNC (slower, structure-exploiting).
class SparsityEstimator {
 public:
  virtual ~SparsityEstimator() = default;

  virtual const char* Name() const = 0;

  /// Statistics of a catalog dataset.
  virtual NodeStats LeafStats(const std::string& name,
                              const MatrixStats& stats) const = 0;

  /// Statistics of a generator output (eye/zeros/ones/rand).
  virtual NodeStats GeneratorStats(PlanOp op, int64_t rows,
                                   int64_t cols) const;

  virtual NodeStats Multiply(const NodeStats& a, const NodeStats& b) const = 0;
  virtual NodeStats Transpose(const NodeStats& a) const = 0;
  /// op is a binary elementwise op; the estimate follows its PatternRule.
  virtual NodeStats Elementwise(PlanOp op, const NodeStats& a,
                                const NodeStats& b) const = 0;
  /// Scalar (1x1) broadcast against a matrix: sparsity is preserved for
  /// * and /, densified for the union-pattern ops (+, -, min, max) with a
  /// non-zero scalar.
  virtual NodeStats ScalarBroadcast(PlanOp op, const NodeStats& matrix) const;
};

/// Metadata-based estimator: assumes uniformly distributed non-zeros and
/// derives output sparsity from input sparsities alone. Negligible
/// overhead; inaccurate under skew.
class MetadataEstimator : public SparsityEstimator {
 public:
  const char* Name() const override { return "MD"; }
  NodeStats LeafStats(const std::string& name,
                      const MatrixStats& stats) const override;
  NodeStats Multiply(const NodeStats& a, const NodeStats& b) const override;
  NodeStats Transpose(const NodeStats& a) const override;
  NodeStats Elementwise(PlanOp op, const NodeStats& a,
                        const NodeStats& b) const override;
};

/// MNC estimator: exploits exact row/column non-zero counts of the leaf
/// matrices and propagates skew-aware sketches.
///
/// Each propagation is a pure function of its input sketches, so the
/// estimator computes it once: a repeated Multiply, Transpose, union or
/// intersect of the same input sketches (by identity) returns the sketch
/// built the first time, and the uniform sketch that stands in for a
/// sketch-less input is built once per (rows, cols, sparsity). The memo
/// holds its inputs alive, so no address is reused while it lives. It has
/// no bound: one estimator serves one optimize, layout or audit call. A
/// mutex guards it; no caller shares an instance across threads, so it is
/// never contended.
class MncEstimator : public SparsityEstimator {
 public:
  const char* Name() const override { return "MNC"; }
  NodeStats LeafStats(const std::string& name,
                      const MatrixStats& stats) const override;
  NodeStats Multiply(const NodeStats& a, const NodeStats& b) const override;
  NodeStats Transpose(const NodeStats& a) const override;
  NodeStats Elementwise(PlanOp op, const NodeStats& a,
                        const NodeStats& b) const override;

 private:
  using SketchPtr = std::shared_ptr<const MncSketch>;
  enum class Rule : uint8_t { kMultiply, kTranspose, kUnion, kIntersect };
  struct Propagated {
    SketchPtr a, b, out;  // b is null for a transpose
  };

  /// The memoized `rule` of a and b (b is null for a transpose).
  NodeStats Propagate(Rule rule, const NodeStats& a,
                      const NodeStats* b) const;
  /// The sketch of `s`, or the memoized uniform one; `mu_` is held.
  SketchPtr SketchOf(const NodeStats& s) const;
  SketchPtr UniformSketch(int64_t rows, int64_t cols, double sparsity) const;

  mutable std::mutex mu_;
  mutable std::map<std::tuple<Rule, const MncSketch*, const MncSketch*>,
                   Propagated>
      propagated_;
  mutable std::map<std::tuple<int64_t, int64_t, uint64_t>, SketchPtr>
      uniform_;
};

/// Sampling-based estimator (in the spirit of MATFAST): samples the leaf
/// count vectors instead of reading them fully, then propagates with the
/// MNC rules. Cheaper than MNC, loses the skew structure the sample
/// misses — the middle ground of the paper's efficiency/accuracy spectrum
/// (Section 4.2's estimator survey).
class SamplingEstimator : public SparsityEstimator {
 public:
  explicit SamplingEstimator(int sample_size = 64)
      : sample_size_(sample_size) {}
  const char* Name() const override { return "Sample"; }
  NodeStats LeafStats(const std::string& name,
                      const MatrixStats& stats) const override;
  NodeStats Multiply(const NodeStats& a, const NodeStats& b) const override;
  NodeStats Transpose(const NodeStats& a) const override;
  NodeStats Elementwise(PlanOp op, const NodeStats& a,
                        const NodeStats& b) const override;

 private:
  int sample_size_;
  MncEstimator mnc_rules_;
};

/// Exact oracle: propagates true boolean non-zero patterns with sparse
/// kernel operations. Accurate and expensive; used as the accuracy
/// baseline in tests and the ablation bench. Leaf patterns must be
/// attached via SetLeafPattern before use.
class ExactEstimator : public SparsityEstimator {
 public:
  const char* Name() const override { return "Exact"; }

  /// Registers the actual matrix backing a dataset so leaves get true
  /// patterns. (The estimator keys patterns by dimensions + nnz, which is
  /// unambiguous within one catalog in practice; prefer attaching stats
  /// with unique shapes in tests.)
  void AttachCatalog(const DataCatalog* catalog) { catalog_ = catalog; }

  NodeStats LeafStats(const std::string& name,
                      const MatrixStats& stats) const override;
  NodeStats Multiply(const NodeStats& a, const NodeStats& b) const override;
  NodeStats Transpose(const NodeStats& a) const override;
  NodeStats Elementwise(PlanOp op, const NodeStats& a,
                        const NodeStats& b) const override;

 private:
  const DataCatalog* catalog_ = nullptr;
};

}  // namespace remac

#endif  // REMAC_SPARSITY_ESTIMATOR_H_
