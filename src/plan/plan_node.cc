#include "plan/plan_node.h"

#include <cmath>

#include "common/string_util.h"

namespace remac {

namespace {

using F = OpFamily;
using P = PatternRule;
using S = ShapeRule;
using T = TransposeRule;
using X = OpSyntax;
constexpr std::optional<FusedOp> kNoCell;

}  // namespace

// min and max stay opaque to transpose push-down, and only + - * / fold
// as constants (FoldConstants): the rows record the rules the optimizer
// has always applied, so plans do not move.
constexpr std::array<PlanOpInfo, kNumPlanOps> kPlanOps = {{
    {PlanOp::kInput, "input", X::kLeaf, F::kLeaf, 0, kNoCell, S::kGiven,
     P::kNone, T::kOpaque},
    {PlanOp::kConst, "const", X::kLeaf, F::kLeaf, 0, kNoCell, S::kGiven,
     P::kNone, T::kOpaque},
    {PlanOp::kMatMul, "%*%", X::kInfix, F::kMatrix, 2, kNoCell, S::kMatMul,
     P::kNone, T::kReverse},
    {PlanOp::kTranspose, "t", X::kCall, F::kMatrix, 1, kNoCell,
     S::kTranspose, P::kNone, T::kFlip},
    {PlanOp::kAdd, "+", X::kInfix, F::kElementwise, 2, FusedOp::kAdd,
     S::kBroadcast, P::kUnion, T::kThrough},
    {PlanOp::kSub, "-", X::kInfix, F::kElementwise, 2, FusedOp::kSub,
     S::kBroadcast, P::kUnion, T::kThrough},
    {PlanOp::kMul, "*", X::kInfix, F::kElementwise, 2, FusedOp::kMul,
     S::kBroadcast, P::kIntersect, T::kThrough},
    {PlanOp::kDiv, "/", X::kInfix, F::kElementwise, 2, FusedOp::kDiv,
     S::kBroadcast, P::kNumerator, T::kThrough},
    {PlanOp::kMin, "min", X::kCall, F::kElementwise, 2, FusedOp::kMin,
     S::kBroadcast, P::kUnion, T::kOpaque},
    {PlanOp::kMax, "max", X::kCall, F::kElementwise, 2, FusedOp::kMax,
     S::kBroadcast, P::kUnion, T::kOpaque},
    {PlanOp::kNcol, "ncol", X::kCall, F::kScalarFunction, 1, kNoCell,
     S::kScalar, P::kNone, T::kOpaque},
    {PlanOp::kNrow, "nrow", X::kCall, F::kScalarFunction, 1, kNoCell,
     S::kScalar, P::kNone, T::kOpaque},
    {PlanOp::kSum, "sum", X::kCall, F::kReduction, 1, kNoCell, S::kScalar,
     P::kNone, T::kAbsorb},
    {PlanOp::kNorm, "norm", X::kCall, F::kReduction, 1, kNoCell, S::kScalar,
     P::kNone, T::kAbsorb},
    {PlanOp::kTrace, "trace", X::kCall, F::kReduction, 1, kNoCell,
     S::kScalar, P::kNone, T::kAbsorb},
    {PlanOp::kSqrt, "sqrt", X::kCall, F::kScalarFunction, 1, kNoCell,
     S::kScalarArg, P::kNone, T::kThrough},
    {PlanOp::kAbs, "abs", X::kCall, F::kScalarFunction, 1, kNoCell,
     S::kScalarArg, P::kNone, T::kThrough},
    {PlanOp::kExp, "exp", X::kCall, F::kElementwise, 1, FusedOp::kExp,
     S::kSame, P::kDense, T::kThrough},
    {PlanOp::kLog, "log", X::kCall, F::kElementwise, 1, FusedOp::kLog,
     S::kSame, P::kNumerator, T::kThrough},
    {PlanOp::kRowSums, "rowSums", X::kCall, F::kLineSum, 1, kNoCell,
     S::kRowSums, P::kNone, T::kOutside},
    {PlanOp::kColSums, "colSums", X::kCall, F::kLineSum, 1, kNoCell,
     S::kColSums, P::kNone, T::kOutside},
    {PlanOp::kDiag, "diag", X::kCall, F::kMatrix, 1, kNoCell, S::kDiag,
     P::kNone, T::kOutside},
    {PlanOp::kLess, "<", X::kInfix, F::kComparison, 2, kNoCell, S::kCompare,
     P::kNone, T::kAbsorb},
    {PlanOp::kGreater, ">", X::kInfix, F::kComparison, 2, kNoCell,
     S::kCompare, P::kNone, T::kAbsorb},
    {PlanOp::kLessEq, "<=", X::kInfix, F::kComparison, 2, kNoCell,
     S::kCompare, P::kNone, T::kAbsorb},
    {PlanOp::kGreaterEq, ">=", X::kInfix, F::kComparison, 2, kNoCell,
     S::kCompare, P::kNone, T::kAbsorb},
    {PlanOp::kEqual, "==", X::kInfix, F::kComparison, 2, kNoCell,
     S::kCompare, P::kNone, T::kAbsorb},
    {PlanOp::kNotEqual, "!=", X::kInfix, F::kComparison, 2, kNoCell,
     S::kCompare, P::kNone, T::kAbsorb},
    {PlanOp::kReadData, "read", X::kCall, F::kGenerator, 0, kNoCell,
     S::kGiven, P::kNone, T::kOpaque},
    {PlanOp::kEye, "eye", X::kCall, F::kGenerator, 1, kNoCell, S::kSquare,
     P::kNone, T::kSymmetric},
    {PlanOp::kZeros, "zeros", X::kCall, F::kGenerator, 2, kNoCell, S::kDims,
     P::kNone, T::kSwapDims},
    {PlanOp::kOnes, "ones", X::kCall, F::kGenerator, 2, kNoCell, S::kDims,
     P::kNone, T::kSwapDims},
    {PlanOp::kRand, "rand", X::kCall, F::kGenerator, 2, kNoCell, S::kDims,
     P::kNone, T::kOpaque},
    {PlanOp::kBlockRef, "block", X::kLeaf, F::kInternal, 0, kNoCell,
     S::kGiven, P::kNone, T::kOpaque},
    {PlanOp::kFusedMap, "fused", X::kCall, F::kInternal, -1, kNoCell,
     S::kFused, P::kNone, T::kOpaque},
}};

constexpr bool RowsInEnumeratorOrder() {
  for (size_t i = 0; i < kNumPlanOps; ++i) {
    if (static_cast<size_t>(kPlanOps[i].op) != i) return false;
  }
  return true;
}
static_assert(RowsInEnumeratorOrder(),
              "kPlanOps needs exactly one row per PlanOp, in order");

const char* PlanOpName(PlanOp op) { return OpInfo(op).name; }

std::optional<FusedOp> FusedOpOf(PlanOp op) { return OpInfo(op).cell; }

PlanOp PlanOpOf(FusedOp op) {
  for (const PlanOpInfo& info : kPlanOps) {
    if (info.cell == op) return info.op;
  }
  return PlanOp::kAdd;  // unreachable: every FusedOp is some row's cell op
}

std::string PlanNode::ToString() const {
  switch (op) {
    case PlanOp::kInput:
      return name;
    case PlanOp::kConst:
      return ExactDoubleString(value);
    case PlanOp::kReadData:
      return "read(\"" + name + "\")";
    case PlanOp::kBlockRef:
      return StringFormat("B%d", static_cast<int>(value));
    default:
      break;
  }
  if (OpInfo(op).syntax == OpSyntax::kInfix) {
    return "(" + children[0]->ToString() + " " + PlanOpName(op) + " " +
           children[1]->ToString() + ")";
  }
  std::string out = PlanOpName(op);
  if (op == PlanOp::kFusedMap) {
    out += "{" + (fused != nullptr ? fused->ToString() : "") + "}";
  }
  out += "(";
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0) out += ", ";
    out += children[i]->ToString();
  }
  return out + ")";
}

const char* MultiplyLayoutName(MultiplyLayout layout) {
  switch (layout) {
    case MultiplyLayout::kUnset:
      return "?";
    case MultiplyLayout::kLocal:
      return "local";
    case MultiplyLayout::kBmm1D:
      return "BMM/1D";
    case MultiplyLayout::kCpmm1D:
      return "CPMM/1D";
  }
  return "?";
}

bool PlanNode::Equals(const PlanNode& a, const PlanNode& b) {
  if (a.op != b.op || a.name != b.name ||
      a.children.size() != b.children.size()) {
    return false;
  }
  if (a.op == PlanOp::kConst && a.value != b.value) return false;
  if (a.op == PlanOp::kFusedMap) {
    if ((a.fused == nullptr) != (b.fused == nullptr)) return false;
    if (a.fused != nullptr && !(*a.fused == *b.fused)) return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!Equals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

PlanNodePtr PlanNode::Clone() const {
  auto node = std::make_shared<PlanNode>();
  node->op = op;
  node->name = name;
  node->value = value;
  node->shape = shape;
  node->loop_constant = loop_constant;
  node->symmetric = symmetric;
  node->layout = layout;
  node->fused = fused;  // immutable, shared
  node->children.reserve(children.size());
  for (const auto& child : children) node->children.push_back(child->Clone());
  return node;
}

PlanNodePtr MakeInput(std::string name, Shape shape) {
  auto node = std::make_shared<PlanNode>();
  node->op = PlanOp::kInput;
  node->name = std::move(name);
  node->shape = shape;
  return node;
}

PlanNodePtr MakeConst(double value) {
  auto node = std::make_shared<PlanNode>();
  node->op = PlanOp::kConst;
  node->value = value;
  node->shape = Shape{1, 1, true};
  node->loop_constant = true;
  node->symmetric = true;
  return node;
}

PlanNodePtr MakeUnary(PlanOp op, PlanNodePtr child) {
  auto node = std::make_shared<PlanNode>();
  node->op = op;
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeBinary(PlanOp op, PlanNodePtr lhs, PlanNodePtr rhs) {
  auto node = std::make_shared<PlanNode>();
  node->op = op;
  node->children.push_back(std::move(lhs));
  node->children.push_back(std::move(rhs));
  return node;
}

MultiplyOperands FusedMultiplyOperands(const PlanNode& matmul) {
  MultiplyOperands out;
  out.lhs = matmul.children[0].get();
  out.rhs = matmul.children[1].get();
  const auto unwrap = [](const PlanNode** side, bool* transposed) {
    if ((*side)->op == PlanOp::kTranspose &&
        !(*side)->children[0]->shape.ScalarLike()) {
      *side = (*side)->children[0].get();
      *transposed = true;
    }
  };
  unwrap(&out.lhs, &out.lhs_transposed);
  unwrap(&out.rhs, &out.rhs_transposed);
  return out;
}

namespace {

Status ShapeErrorAt(const PlanNode& node, const std::string& what) {
  return Status::DimensionMismatch(what + " in " + node.ToString());
}

Result<int64_t> ConstDim(const PlanNode& node, size_t child) {
  if (child >= node.children.size() ||
      node.children[child]->op != PlanOp::kConst) {
    return Status::InvalidArgument(
        "generator dimensions must be constants by shape-inference time: " +
        node.ToString());
  }
  return static_cast<int64_t>(std::llround(node.children[child]->value));
}

}  // namespace

Status InferShapes(PlanNode* node) {
  for (auto& child : node->children) {
    REMAC_RETURN_NOT_OK(InferShapes(child.get()));
  }
  const auto arg = [node](size_t i) -> const Shape& {
    return node->children[i]->shape;
  };
  switch (OpInfo(node->op).shape) {
    case ShapeRule::kGiven:
      return Status::OK();
    case ShapeRule::kMatMul: {
      const Shape& l = arg(0);
      const Shape& r = arg(1);
      if (l.cols != r.rows) {
        return ShapeErrorAt(*node, StringFormat("inner dims %lld vs %lld",
                                                static_cast<long long>(l.cols),
                                                static_cast<long long>(r.rows)));
      }
      node->shape = Shape{l.rows, r.cols, false};
      return Status::OK();
    }
    case ShapeRule::kTranspose:
      node->shape = Shape{arg(0).cols, arg(0).rows, arg(0).is_scalar};
      return Status::OK();
    case ShapeRule::kBroadcast: {
      const Shape& l = arg(0);
      const Shape& r = arg(1);
      if (l.ScalarLike() && r.ScalarLike()) {
        node->shape = Shape{1, 1, l.is_scalar && r.is_scalar};
      } else if (l.ScalarLike()) {
        node->shape = r;
        node->shape.is_scalar = false;
      } else if (r.ScalarLike()) {
        node->shape = l;
        node->shape.is_scalar = false;
      } else if (l.rows == r.rows && l.cols == r.cols) {
        node->shape = Shape{l.rows, l.cols, false};
      } else {
        return ShapeErrorAt(*node, "element-wise shape mismatch");
      }
      return Status::OK();
    }
    case ShapeRule::kScalar:
      node->shape = Shape{1, 1, true};
      return Status::OK();
    case ShapeRule::kScalarArg:
      if (!arg(0).ScalarLike()) {
        return ShapeErrorAt(*node, "scalar function of a matrix");
      }
      node->shape = arg(0);
      return Status::OK();
    case ShapeRule::kSame:
      node->shape = arg(0);
      return Status::OK();
    case ShapeRule::kRowSums:
      node->shape = Shape{arg(0).rows, 1, false};
      return Status::OK();
    case ShapeRule::kColSums:
      node->shape = Shape{1, arg(0).cols, false};
      return Status::OK();
    case ShapeRule::kDiag: {
      const Shape& c = arg(0);
      if (c.cols == 1) {
        node->shape = Shape{c.rows, c.rows, false};  // vector -> diag matrix
      } else if (c.rows == c.cols) {
        node->shape = Shape{c.rows, 1, false};  // matrix -> diagonal vector
      } else {
        return ShapeErrorAt(*node, "diag of a non-square matrix");
      }
      return Status::OK();
    }
    case ShapeRule::kCompare:
      if (!arg(0).ScalarLike() || !arg(1).ScalarLike()) {
        return ShapeErrorAt(*node, "comparison of non-scalars");
      }
      node->shape = Shape{1, 1, true};
      return Status::OK();
    case ShapeRule::kSquare: {
      REMAC_ASSIGN_OR_RETURN(const int64_t n, ConstDim(*node, 0));
      node->shape = Shape{n, n, false};
      return Status::OK();
    }
    case ShapeRule::kDims: {
      REMAC_ASSIGN_OR_RETURN(const int64_t r, ConstDim(*node, 0));
      REMAC_ASSIGN_OR_RETURN(const int64_t c, ConstDim(*node, 1));
      node->shape = Shape{r, c, false};
      return Status::OK();
    }
    case ShapeRule::kFused:
      if (node->fused == nullptr) {
        return Status::Internal("kFusedMap node without a tape");
      }
      node->shape = Shape{node->fused->rows, node->fused->cols, false};
      return Status::OK();
  }
  return Status::Internal("unhandled op in InferShapes");
}

int64_t CountNodes(const PlanNode& node) {
  int64_t count = 1;
  for (const auto& child : node.children) count += CountNodes(*child);
  return count;
}

}  // namespace remac
