#include "plan/plan_node.h"

#include <cmath>

#include "common/string_util.h"
#include "matrix/fused_tape.h"

namespace remac {

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kInput: return "input";
    case PlanOp::kConst: return "const";
    case PlanOp::kMatMul: return "%*%";
    case PlanOp::kTranspose: return "t";
    case PlanOp::kAdd: return "+";
    case PlanOp::kSub: return "-";
    case PlanOp::kMul: return "*";
    case PlanOp::kDiv: return "/";
    case PlanOp::kMin: return "min";
    case PlanOp::kMax: return "max";
    case PlanOp::kNcol: return "ncol";
    case PlanOp::kNrow: return "nrow";
    case PlanOp::kSum: return "sum";
    case PlanOp::kNorm: return "norm";
    case PlanOp::kTrace: return "trace";
    case PlanOp::kExp: return "exp";
    case PlanOp::kLog: return "log";
    case PlanOp::kRowSums: return "rowSums";
    case PlanOp::kColSums: return "colSums";
    case PlanOp::kDiag: return "diag";
    case PlanOp::kSqrt: return "sqrt";
    case PlanOp::kAbs: return "abs";
    case PlanOp::kLess: return "<";
    case PlanOp::kGreater: return ">";
    case PlanOp::kLessEq: return "<=";
    case PlanOp::kGreaterEq: return ">=";
    case PlanOp::kEqual: return "==";
    case PlanOp::kNotEqual: return "!=";
    case PlanOp::kReadData: return "read";
    case PlanOp::kEye: return "eye";
    case PlanOp::kZeros: return "zeros";
    case PlanOp::kOnes: return "ones";
    case PlanOp::kRand: return "rand";
    case PlanOp::kBlockRef: return "block";
    case PlanOp::kFusedMap: return "fused";
  }
  return "?";
}

std::string PlanNode::ToString() const {
  switch (op) {
    case PlanOp::kInput:
      return name;
    case PlanOp::kConst:
      return StringFormat("%g", value);
    case PlanOp::kReadData:
      return "read(\"" + name + "\")";
    case PlanOp::kBlockRef:
      return StringFormat("B%d", static_cast<int>(value));
    case PlanOp::kTranspose:
      return "t(" + children[0]->ToString() + ")";
    case PlanOp::kFusedMap: {
      std::vector<std::string> args;
      args.reserve(children.size());
      for (const auto& child : children) args.push_back(child->ToString());
      return "fused{" + (fused != nullptr ? fused->ToString() : "") + "}(" +
             Join(args, ", ") + ")";
    }
    case PlanOp::kMatMul:
    case PlanOp::kAdd:
    case PlanOp::kSub:
    case PlanOp::kMul:
    case PlanOp::kDiv:
    case PlanOp::kLess:
    case PlanOp::kGreater:
    case PlanOp::kLessEq:
    case PlanOp::kGreaterEq:
    case PlanOp::kEqual:
    case PlanOp::kNotEqual:
      return "(" + children[0]->ToString() + " " + PlanOpName(op) + " " +
             children[1]->ToString() + ")";
    default: {
      std::vector<std::string> args;
      args.reserve(children.size());
      for (const auto& child : children) args.push_back(child->ToString());
      return std::string(PlanOpName(op)) + "(" + Join(args, ", ") + ")";
    }
  }
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

bool IsElementwiseOp(PlanOp op) {
  return op == PlanOp::kAdd || op == PlanOp::kSub || op == PlanOp::kMul ||
         op == PlanOp::kDiv || op == PlanOp::kMin || op == PlanOp::kMax;
}

bool IsComparisonOp(PlanOp op) {
  return op == PlanOp::kLess || op == PlanOp::kGreater ||
         op == PlanOp::kLessEq || op == PlanOp::kGreaterEq ||
         op == PlanOp::kEqual || op == PlanOp::kNotEqual;
}

bool IsGeneratorOp(PlanOp op) {
  return op == PlanOp::kReadData || op == PlanOp::kEye ||
         op == PlanOp::kZeros || op == PlanOp::kOnes || op == PlanOp::kRand;
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
  switch (node->op) {
    case PlanOp::kInput:
    case PlanOp::kConst:
    case PlanOp::kReadData:
    case PlanOp::kBlockRef:
      // Shapes assigned at construction (from the symbol table / catalog).
      return Status::OK();
    case PlanOp::kMatMul: {
      const Shape& l = node->children[0]->shape;
      const Shape& r = node->children[1]->shape;
      if (l.cols != r.rows) {
        return ShapeErrorAt(*node, StringFormat("inner dims %lld vs %lld",
                                                static_cast<long long>(l.cols),
                                                static_cast<long long>(r.rows)));
      }
      node->shape = Shape{l.rows, r.cols, false};
      return Status::OK();
    }
    case PlanOp::kTranspose: {
      const Shape& c = node->children[0]->shape;
      node->shape = Shape{c.cols, c.rows, c.is_scalar};
      return Status::OK();
    }
    case PlanOp::kAdd:
    case PlanOp::kSub:
    case PlanOp::kMul:
    case PlanOp::kDiv:
    case PlanOp::kMin:
    case PlanOp::kMax: {
      const Shape& l = node->children[0]->shape;
      const Shape& r = node->children[1]->shape;
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
    case PlanOp::kNcol:
    case PlanOp::kNrow:
    case PlanOp::kSum:
    case PlanOp::kNorm:
    case PlanOp::kTrace:
      node->shape = Shape{1, 1, true};
      return Status::OK();
    case PlanOp::kExp:
    case PlanOp::kLog:
      node->shape = node->children[0]->shape;
      node->shape.is_scalar = node->children[0]->shape.is_scalar;
      return Status::OK();
    case PlanOp::kRowSums:
      node->shape = Shape{node->children[0]->shape.rows, 1, false};
      return Status::OK();
    case PlanOp::kColSums:
      node->shape = Shape{1, node->children[0]->shape.cols, false};
      return Status::OK();
    case PlanOp::kDiag: {
      const Shape& c = node->children[0]->shape;
      if (c.cols == 1) {
        node->shape = Shape{c.rows, c.rows, false};  // vector -> diag matrix
      } else if (c.rows == c.cols) {
        node->shape = Shape{c.rows, 1, false};  // matrix -> diagonal vector
      } else {
        return ShapeErrorAt(*node, "diag of a non-square matrix");
      }
      return Status::OK();
    }
    case PlanOp::kSqrt:
    case PlanOp::kAbs: {
      node->shape = node->children[0]->shape;
      return Status::OK();
    }
    case PlanOp::kLess:
    case PlanOp::kGreater:
    case PlanOp::kLessEq:
    case PlanOp::kGreaterEq:
    case PlanOp::kEqual:
    case PlanOp::kNotEqual: {
      if (!node->children[0]->shape.ScalarLike() ||
          !node->children[1]->shape.ScalarLike()) {
        return ShapeErrorAt(*node, "comparison of non-scalars");
      }
      node->shape = Shape{1, 1, true};
      return Status::OK();
    }
    case PlanOp::kEye: {
      REMAC_ASSIGN_OR_RETURN(const int64_t n, ConstDim(*node, 0));
      node->shape = Shape{n, n, false};
      return Status::OK();
    }
    case PlanOp::kZeros:
    case PlanOp::kOnes:
    case PlanOp::kRand: {
      REMAC_ASSIGN_OR_RETURN(const int64_t r, ConstDim(*node, 0));
      REMAC_ASSIGN_OR_RETURN(const int64_t c, ConstDim(*node, 1));
      node->shape = Shape{r, c, false};
      return Status::OK();
    }
    case PlanOp::kFusedMap: {
      if (node->fused == nullptr) {
        return Status::Internal("kFusedMap node without a tape");
      }
      node->shape = Shape{node->fused->rows, node->fused->cols, false};
      return Status::OK();
    }
  }
  return Status::Internal("unhandled op in InferShapes");
}

int64_t CountNodes(const PlanNode& node) {
  int64_t count = 1;
  for (const auto& child : node.children) count += CountNodes(*child);
  return count;
}

}  // namespace remac
