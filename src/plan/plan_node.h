#ifndef REMAC_PLAN_PLAN_NODE_H_
#define REMAC_PLAN_PLAN_NODE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "matrix/fused_tape.h"

namespace remac {

/// Operators of the logical plan (HOP-level, mirroring SystemDS).
enum class PlanOp {
  kInput,      // named variable reference
  kConst,      // scalar literal
  kMatMul,     // matrix multiplication
  kTranspose,  // t(X)
  kAdd,        // element-wise + (scalar-broadcast when one side is 1x1)
  kSub,        // element-wise -
  kMul,        // element-wise * (scalar-broadcast)
  kDiv,        // element-wise / (scalar-broadcast)
  kMin,        // element-wise min (scalar-broadcast)
  kMax,        // element-wise max (scalar-broadcast)
  // Scalar-valued reductions / functions.
  kNcol,
  kNrow,
  kSum,
  kNorm,   // Frobenius norm
  kTrace,  // sum of the diagonal
  kSqrt,
  kAbs,
  // Element-wise unary matrix functions.
  kExp,
  kLog,
  // Structured reductions / constructors.
  kRowSums,  // (r x c) -> (r x 1)
  kColSums,  // (r x c) -> (1 x c)
  kDiag,     // square matrix -> diagonal column vector; vector -> diag matrix
  // Comparisons (scalar result 0/1; used in loop conditions).
  kLess,
  kGreater,
  kLessEq,
  kGreaterEq,
  kEqual,
  kNotEqual,
  // Generators.
  kReadData,  // read("name"): a dataset from the catalog
  kEye,       // eye(n)
  kZeros,     // zeros(r, c)
  kOnes,      // ones(r, c)
  kRand,      // rand(r, c): dense matrix uniform on [0.1, 1.1)
  // Internal: a reference to a decomposed block (value = block index).
  // Never produced by the plan builder; used by chain decomposition.
  kBlockRef,
  // Internal: a fused region of elementwise ops carrying a post-order
  // FusedTape (`fused`); children are the region inputs in slot order.
  // Produced only by FuseElementwiseChains, after optimization.
  kFusedMap,
};

/// How a node renders (PlanNode::ToString) and is spelled in DML.
enum class OpSyntax {
  kLeaf,   // a name, a literal or a block reference
  kInfix,  // (lhs op rhs)
  kCall,   // name(args)
};

/// What an op computes; the plan walk evaluates each family alike.
enum class OpFamily {
  kLeaf,            // input, const
  kGenerator,       // read, eye, zeros, ones, rand
  kMatrix,          // %*%, t, diag
  kElementwise,     // a cell op over matrices: + - * / min max exp log
  kComparison,      // < > <= >= == != (scalar 0/1)
  kScalarFunction,  // sqrt, abs, ncol, nrow
  kReduction,       // sum, norm, trace
  kLineSum,         // rowSums, colSums
  kInternal,        // block references and fused regions
};

/// How InferShapes derives a node's shape from its children.
enum class ShapeRule {
  kGiven,      // assigned at construction (symbol table, catalog, block)
  kMatMul,     // (r x k) (k x c) -> r x c
  kTranspose,  // (r x c) -> c x r
  kBroadcast,  // equal shapes, or one ScalarLike side broadcast
  kScalar,     // any argument -> scalar
  kSame,       // the argument's shape
  kScalarArg,  // a ScalarLike argument's shape; a matrix is an error
  kRowSums,    // (r x c) -> r x 1
  kColSums,    // (r x c) -> 1 x c
  kDiag,       // vector -> diagonal matrix; square matrix -> its diagonal
  kCompare,    // two ScalarLike arguments -> scalar
  kSquare,     // eye(n): n x n
  kDims,       // zeros/ones/rand(r, c): r x c
  kFused,      // the fused tape's region shape
};

/// Non-zero pattern of an elementwise result, as the sparsity estimators
/// and the executor's unary maps read it.
enum class PatternRule {
  kNone,       // not an elementwise op
  kUnion,      // either operand's non-zeros (+, -, and min/max's bound);
               // a non-zero scalar broadcast densifies
  kIntersect,  // both operands' non-zeros (*)
  kNumerator,  // the first operand's non-zeros (safe divide, log)
  kDense,      // every cell (exp: exp(0) = 1)
};

/// How transpose push-down (PushDownTransposes) treats a pending t().
enum class TransposeRule {
  kOpaque,     // stays below t(): wrapped unless scalar or symmetric
  kFlip,       // t itself: toggles the pending transpose
  kReverse,    // t(XY) = t(Y) t(X)
  kThrough,    // a cell-wise map: the transpose moves into every argument
  kOutside,    // argument untouched, the result transposed (rowSums...)
  kAbsorb,     // scalar-valued: a pending transpose is dropped
  kSymmetric,  // t(I) = I
  kSwapDims,   // zeros/ones(r, c) transposed is zeros/ones(c, r)
};

/// \brief One row of the op table: every per-op fact the layers share.
struct PlanOpInfo {
  PlanOp op;
  const char* name;  // DML spelling (call name or infix token)
  OpSyntax syntax;
  OpFamily family;
  int arity;  // plan children; -1 for the variadic fused region
  std::optional<FusedOp> cell;  // per-cell semantics (FusedApply)
  ShapeRule shape;
  PatternRule pattern;
  TransposeRule transpose;
};

inline constexpr size_t kNumPlanOps =
    static_cast<size_t>(PlanOp::kFusedMap) + 1;

/// The op table, one row per PlanOp in enumerator order. Adding an op
/// that reuses existing rules is a one-row change.
extern const std::array<PlanOpInfo, kNumPlanOps> kPlanOps;

inline const PlanOpInfo& OpInfo(PlanOp op) {
  return kPlanOps[static_cast<size_t>(op)];
}

const char* PlanOpName(PlanOp op);

/// The tape opcode of a fusable element-wise PlanOp (its row's cell op),
/// or nullopt for every other op; PlanOpOf is its inverse.
std::optional<FusedOp> FusedOpOf(PlanOp op);
PlanOp PlanOpOf(FusedOp op);

/// Inferred shape of a plan node. A scalar is 1 x 1 with is_scalar set;
/// 1 x 1 matrices (e.g., d^T A^T A d) are freely usable in scalar
/// positions.
struct Shape {
  int64_t rows = 1;
  int64_t cols = 1;
  bool is_scalar = false;

  bool IsOneByOne() const { return rows == 1 && cols == 1; }
  bool ScalarLike() const { return is_scalar || IsOneByOne(); }
  bool operator==(const Shape&) const = default;
};

/// Physical layout the cost model chose for a kMatMul node (stamped on
/// the optimized plan by AnnotateMultiplyLayouts so tooling can report
/// the decision; purely advisory metadata — execution re-derives the
/// same choice from actual statistics, and Equals ignores it).
enum class MultiplyLayout { kUnset, kLocal, kBmm1D, kCpmm1D };

const char* MultiplyLayoutName(MultiplyLayout layout);

struct PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// \brief A node of the logical plan tree.
///
/// Plans are trees (not DAGs): sharing is introduced later, by the
/// redundancy-elimination machinery, in the form of explicit temporary
/// assignments. Nodes are immutable by convention once built; rewrites
/// construct fresh nodes.
struct PlanNode {
  PlanOp op;
  std::string name;      // kInput / kReadData
  double value = 0.0;    // kConst
  std::vector<PlanNodePtr> children;
  Shape shape;
  /// True if every input reachable from this node is loop-constant
  /// (set by the LSE labeling pass, paper Section 3.3 step 1*).
  bool loop_constant = false;
  /// True if the node provably equals its own transpose.
  bool symmetric = false;
  /// Chosen physical layout for kMatMul nodes (see MultiplyLayout).
  MultiplyLayout layout = MultiplyLayout::kUnset;
  /// kFusedMap only: the post-order elementwise tape (immutable, shared
  /// by Clone).
  std::shared_ptr<const FusedTape> fused;

  /// Structural one-line rendering, e.g., "(H %*% t(A))".
  std::string ToString() const;

  /// Deep structural equality (names, values, ops, children).
  static bool Equals(const PlanNode& a, const PlanNode& b);

  /// Deep copy.
  PlanNodePtr Clone() const;
};

/// Node constructors (shapes must be filled by InferShapes afterwards
/// unless stated otherwise).
PlanNodePtr MakeInput(std::string name, Shape shape);
PlanNodePtr MakeConst(double value);
PlanNodePtr MakeUnary(PlanOp op, PlanNodePtr child);
PlanNodePtr MakeBinary(PlanOp op, PlanNodePtr lhs, PlanNodePtr rhs);

/// True for the comparison family.
inline bool IsComparisonOp(PlanOp op) {
  return OpInfo(op).family == OpFamily::kComparison;
}
/// True for generator nodes (read/eye/zeros/ones/rand).
inline bool IsGeneratorOp(PlanOp op) {
  return OpInfo(op).family == OpFamily::kGenerator;
}

/// The operands a kMatMul node multiplies once its t() children are
/// fused into it: t(X) %*% Y and X %*% t(Y) multiply X or Y with a
/// transpose flag instead of materializing the transpose (SystemDS's
/// fused transpose-multiply). A t() over a scalar-shaped child is left
/// in place.
struct MultiplyOperands {
  const PlanNode* lhs = nullptr;
  const PlanNode* rhs = nullptr;
  bool lhs_transposed = false;
  bool rhs_transposed = false;
};
MultiplyOperands FusedMultiplyOperands(const PlanNode& matmul);

/// Recomputes `shape` bottom-up. Fails on dimension mismatches.
/// Generator dimension arguments must be constants by this point.
Status InferShapes(PlanNode* node);

/// Counts nodes in the tree.
int64_t CountNodes(const PlanNode& node);

}  // namespace remac

#endif  // REMAC_PLAN_PLAN_NODE_H_
