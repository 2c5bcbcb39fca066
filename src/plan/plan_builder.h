#ifndef REMAC_PLAN_PLAN_BUILDER_H_
#define REMAC_PLAN_PLAN_BUILDER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "lang/ast.h"
#include "matrix/matrix.h"
#include "plan/plan_node.h"

namespace remac {

struct MncSketch;

/// \brief Statistics of a named dataset, as the optimizer sees it before
/// execution: dimensions and sparsity (plus, optionally, the exact
/// per-row/per-column non-zero counts consumed by the MNC estimator).
struct MatrixStats {
  int64_t rows = 0;
  int64_t cols = 0;
  double sparsity = 1.0;
  std::vector<int64_t> row_counts;  // may be empty if sketches not built
  std::vector<int64_t> col_counts;
  /// The MNC leaf sketch of the counts, built once when a catalog
  /// registers them; null without counts or outside a catalog.
  std::shared_ptr<const MncSketch> sketch;
};

/// A catalog's statistics of one dataset version: immutable and shared,
/// so readers never copy the count vectors.
using MatrixStatsPtr = std::shared_ptr<const MatrixStats>;

/// \brief Registry of datasets available to read("...").
///
/// Holds both the statistics (for the optimizer) and the actual matrix
/// values (for the executor). Statistics are derived from the value when
/// one is registered.
class DataCatalog {
 public:
  /// Registers a dataset with its value; derives stats and MNC counts.
  void Register(const std::string& name, Matrix value);

  /// Registers statistics only (optimizer-only usage, e.g., cost studies
  /// on paper-scale shapes that are never executed).
  void RegisterStats(const std::string& name, MatrixStats stats);

  bool Contains(const std::string& name) const;
  Result<MatrixStatsPtr> Stats(const std::string& name) const;
  Result<Matrix> Value(const std::string& name) const;

  /// Monotonic registration count of `name` (0 if never registered).
  /// Every Register/RegisterStats bumps it, so value caches keyed on the
  /// version can never serve a result computed from superseded data even
  /// when the new data lands in the same dimensions and sparsity bucket.
  int64_t Version(const std::string& name) const;

  std::vector<std::string> Names() const;

 private:
  std::map<std::string, MatrixStatsPtr> stats_;
  std::map<std::string, Matrix> values_;
  std::map<std::string, int64_t> versions_;
};

/// One compiled statement: either an assignment of a plan tree to a
/// variable, or a loop.
struct CompiledStmt {
  enum class Kind { kAssign, kLoop };
  Kind kind = Kind::kAssign;

  // kAssign.
  std::string target;
  PlanNodePtr plan;
  /// True for optimizer-introduced temporaries (assigned immediately even
  /// inside barrier-commit loops).
  bool is_temp = false;

  // kLoop.
  PlanNodePtr condition;  // scalar-valued; null for unconditional for-loops
  std::vector<CompiledStmt> body;
  /// True when the loop body was emitted over start-of-iteration values
  /// (fully inlined outputs): non-temp assignments commit together at the
  /// end of each iteration.
  bool barrier_commit = false;
  /// Trip count when statically known (for-loops over constant ranges);
  /// -1 otherwise.
  int64_t static_trip_count = -1;
  std::string loop_var;  // for-loops: counter variable (empty for while)
  double loop_begin = 0;

  std::string ToString(int indent = 0) const;
};

/// A compiled program: the statement list with plan trees.
struct CompiledProgram {
  std::vector<CompiledStmt> statements;
  std::string ToString() const;
};

/// \brief Lowers a parsed script into plan trees with inferred shapes.
///
/// - resolves read("name") shapes against the catalog,
/// - folds ncol/nrow of known shapes into constants,
/// - rewrites unary minus into (-1) * x,
/// - tracks variable shapes through assignments (loop bodies are assumed
///   shape-stable, which holds for fixed-shape iterative algorithms).
Result<CompiledProgram> BuildPlans(const Program& program,
                                   const DataCatalog& catalog);

/// Convenience: parse + build in one step.
Result<CompiledProgram> CompileScript(std::string_view source,
                                      const DataCatalog& catalog);

}  // namespace remac

#endif  // REMAC_PLAN_PLAN_BUILDER_H_
