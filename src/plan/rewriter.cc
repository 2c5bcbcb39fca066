#include "plan/rewriter.h"

#include <cassert>
#include <cmath>

namespace remac {

namespace {

/// Counts additive terms a node would expand into (an upper-bound guide
/// for the expansion limit).
int64_t TermCount(const PlanNode& node) {
  const std::optional<FusedOp> cell = OpInfo(node.op).cell;
  if (cell == FusedOp::kAdd || cell == FusedOp::kSub) {
    return TermCount(*node.children[0]) + TermCount(*node.children[1]);
  }
  if (cell == FusedOp::kMul || node.op == PlanOp::kMatMul) {
    return TermCount(*node.children[0]) * TermCount(*node.children[1]);
  }
  return 1;
}

PlanNodePtr WithShape(PlanNodePtr node) {
  const Status st = InferShapes(node.get());
  assert(st.ok());
  (void)st;
  return node;
}

PlanNodePtr ApplyPushDown(const PlanNodePtr& node, bool pending);

/// A fresh `node` over its children, each pushed down with `pending`.
PlanNodePtr Rebuild(const PlanNode& node, bool pending) {
  auto out = std::make_shared<PlanNode>();
  out->op = node.op;
  out->children.reserve(node.children.size());
  for (const auto& child : node.children) {
    out->children.push_back(ApplyPushDown(child, pending));
  }
  return WithShape(std::move(out));
}

PlanNodePtr ApplyPushDown(const PlanNodePtr& node, bool pending) {
  switch (OpInfo(node->op).transpose) {
    case TransposeRule::kFlip:
      return ApplyPushDown(node->children[0], !pending);
    case TransposeRule::kReverse:
      if (pending) {
        // t(XY) = t(Y) t(X).
        return WithShape(MakeBinary(node->op,
                                    ApplyPushDown(node->children[1], true),
                                    ApplyPushDown(node->children[0], true)));
      }
      return Rebuild(*node, false);
    case TransposeRule::kThrough:
      return Rebuild(*node, pending);
    case TransposeRule::kAbsorb:
      // Scalar-valued: a pending transpose is a no-op; the arguments' own
      // transposes still push down (sum(t(X)) = sum(X), norm likewise).
      return Rebuild(*node, false);
    case TransposeRule::kOutside: {
      PlanNodePtr out = Rebuild(*node, false);
      if (pending && !out->shape.ScalarLike()) {
        return WithShape(MakeUnary(PlanOp::kTranspose, std::move(out)));
      }
      return out;
    }
    case TransposeRule::kSymmetric:
      return node->Clone();
    case TransposeRule::kSwapDims: {
      PlanNodePtr out = node->Clone();
      if (pending && node->children.size() == 2) {
        std::swap(out->children[0], out->children[1]);
        return WithShape(std::move(out));
      }
      return out;
    }
    case TransposeRule::kOpaque:
      break;
  }
  PlanNodePtr out = node->Clone();
  if (pending && !node->shape.ScalarLike() && !node->symmetric) {
    return WithShape(MakeUnary(PlanOp::kTranspose, std::move(out)));
  }
  return out;
}

bool IsScalarLike(const PlanNode& node) { return node.shape.ScalarLike(); }

/// One rewrite step of the expansion; sets *changed when it fired.
PlanNodePtr ExpandStep(const PlanNodePtr& node, bool* changed, int max_terms);

PlanNodePtr ExpandChildren(const PlanNodePtr& node, bool* changed,
                           int max_terms) {
  PlanNodePtr out = std::make_shared<PlanNode>();
  out->op = node->op;
  out->name = node->name;
  out->value = node->value;
  out->shape = node->shape;
  out->children.reserve(node->children.size());
  for (const auto& child : node->children) {
    out->children.push_back(ExpandStep(child, changed, max_terms));
  }
  return WithShape(std::move(out));
}

PlanNodePtr ExpandStep(const PlanNodePtr& node, bool* changed, int max_terms) {
  PlanNodePtr n = ExpandChildren(node, changed, max_terms);
  if (n->op == PlanOp::kMatMul) {
    PlanNodePtr l = n->children[0];
    PlanNodePtr r = n->children[1];
    // Pull scalar coefficients out: (s * X) %*% Y -> s * (X %*% Y).
    if (l->op == PlanOp::kMul && IsScalarLike(*l->children[0])) {
      *changed = true;
      return WithShape(MakeBinary(
          PlanOp::kMul, l->children[0],
          WithShape(MakeBinary(PlanOp::kMatMul, l->children[1], r))));
    }
    if (l->op == PlanOp::kMul && IsScalarLike(*l->children[1])) {
      *changed = true;
      return WithShape(MakeBinary(
          PlanOp::kMul, l->children[1],
          WithShape(MakeBinary(PlanOp::kMatMul, l->children[0], r))));
    }
    if (r->op == PlanOp::kMul && IsScalarLike(*r->children[0])) {
      *changed = true;
      return WithShape(MakeBinary(
          PlanOp::kMul, r->children[0],
          WithShape(MakeBinary(PlanOp::kMatMul, l, r->children[1]))));
    }
    if (r->op == PlanOp::kMul && IsScalarLike(*r->children[1])) {
      *changed = true;
      return WithShape(MakeBinary(
          PlanOp::kMul, r->children[1],
          WithShape(MakeBinary(PlanOp::kMatMul, l, r->children[0]))));
    }
    // Distribute over sums, within the term budget.
    if ((l->op == PlanOp::kAdd || l->op == PlanOp::kSub) &&
        TermCount(*n) <= max_terms) {
      *changed = true;
      return WithShape(MakeBinary(
          l->op,
          WithShape(MakeBinary(PlanOp::kMatMul, l->children[0], r)),
          WithShape(MakeBinary(PlanOp::kMatMul, l->children[1], r))));
    }
    if ((r->op == PlanOp::kAdd || r->op == PlanOp::kSub) &&
        TermCount(*n) <= max_terms) {
      *changed = true;
      return WithShape(MakeBinary(
          r->op,
          WithShape(MakeBinary(PlanOp::kMatMul, l, r->children[0])),
          WithShape(MakeBinary(PlanOp::kMatMul, l, r->children[1]))));
    }
  }
  if (n->op == PlanOp::kMul) {
    PlanNodePtr l = n->children[0];
    PlanNodePtr r = n->children[1];
    // s * (X + Y) -> s * X + s * Y (scalar coefficient only; element-wise
    // matrix products stay put, they are block boundaries anyway).
    if (IsScalarLike(*l) && (r->op == PlanOp::kAdd || r->op == PlanOp::kSub) &&
        TermCount(*n) <= max_terms) {
      *changed = true;
      return WithShape(
          MakeBinary(r->op, WithShape(MakeBinary(PlanOp::kMul, l, r->children[0])),
                     WithShape(MakeBinary(PlanOp::kMul, l, r->children[1]))));
    }
    if (IsScalarLike(*r) && (l->op == PlanOp::kAdd || l->op == PlanOp::kSub) &&
        TermCount(*n) <= max_terms) {
      *changed = true;
      return WithShape(
          MakeBinary(l->op, WithShape(MakeBinary(PlanOp::kMul, l->children[0], r)),
                     WithShape(MakeBinary(PlanOp::kMul, l->children[1], r))));
    }
  }
  return n;
}

}  // namespace

PlanNodePtr PushDownTransposes(const PlanNodePtr& node) {
  return ApplyPushDown(node, false);
}

PlanNodePtr ExpandDistributive(const PlanNodePtr& node, int max_terms) {
  PlanNodePtr current = node->Clone();
  for (int round = 0; round < 64; ++round) {
    bool changed = false;
    current = ExpandStep(current, &changed, max_terms);
    if (!changed) break;
  }
  return current;
}

PlanNodePtr FoldConstants(const PlanNodePtr& node) {
  PlanNodePtr out = std::make_shared<PlanNode>();
  out->op = node->op;
  out->name = node->name;
  out->value = node->value;
  out->shape = node->shape;
  out->children.reserve(node->children.size());
  for (const auto& child : node->children) {
    out->children.push_back(FoldConstants(child));
  }
  auto is_const = [](const PlanNodePtr& n) { return n->op == PlanOp::kConst; };
  if (out->children.size() == 2 && is_const(out->children[0]) &&
      is_const(out->children[1])) {
    const double a = out->children[0]->value;
    const double b = out->children[1]->value;
    // Only + - * / fold; min and max never have.
    const std::optional<FusedOp> cell = OpInfo(out->op).cell;
    if (cell.has_value() && *cell != FusedOp::kMin && *cell != FusedOp::kMax) {
      return MakeConst(FusedApply(*cell, a, b));
    }
  }
  if (out->op == PlanOp::kMul && out->children.size() == 2) {
    // 1 * X -> X.
    if (is_const(out->children[0]) && out->children[0]->value == 1.0) {
      return out->children[1];
    }
    if (is_const(out->children[1]) && out->children[1]->value == 1.0) {
      return out->children[0];
    }
    // (c1 * (c2 * X)) -> (c1*c2) * X.
    if (is_const(out->children[0]) && out->children[1]->op == PlanOp::kMul &&
        is_const(out->children[1]->children[0])) {
      const double c = out->children[0]->value *
                       out->children[1]->children[0]->value;
      if (c == 1.0) return out->children[1]->children[1];
      return WithShape(MakeBinary(PlanOp::kMul, MakeConst(c),
                                  out->children[1]->children[1]));
    }
  }
  if (out->op == PlanOp::kSqrt && !out->children.empty() &&
      is_const(out->children[0])) {
    return MakeConst(std::sqrt(out->children[0]->value));
  }
  if (out->op == PlanOp::kAbs && !out->children.empty() &&
      is_const(out->children[0])) {
    return MakeConst(std::fabs(out->children[0]->value));
  }
  return WithShape(std::move(out));
}

PlanNodePtr NormalizeForSearch(const PlanNodePtr& node, int max_terms) {
  PlanNodePtr out = PushDownTransposes(node);
  out = FoldConstants(out);
  out = ExpandDistributive(out, max_terms);
  out = FoldConstants(out);
  return out;
}

}  // namespace remac
