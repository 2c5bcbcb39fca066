#include "core/analysis.h"

#include <cassert>
#include <functional>

#include "common/string_util.h"
#include "plan/rewriter.h"

namespace remac {

LoopStructure FindLoop(const CompiledProgram& program) {
  LoopStructure out;
  bool seen_loop = false;
  for (const auto& stmt : program.statements) {
    if (!seen_loop && stmt.kind == CompiledStmt::Kind::kLoop) {
      out.loop = &stmt;
      seen_loop = true;
      for (const auto& body_stmt : stmt.body) {
        if (body_stmt.kind == CompiledStmt::Kind::kAssign) {
          out.loop_assigned.insert(body_stmt.target);
        }
      }
      if (!stmt.loop_var.empty()) out.loop_assigned.insert(stmt.loop_var);
      continue;
    }
    if (!seen_loop) {
      out.preamble.push_back(&stmt);
    } else {
      out.postamble.push_back(&stmt);
    }
  }
  return out;
}

namespace {

/// Substitutes current intra-iteration definitions into a plan tree.
PlanNodePtr Substitute(const PlanNode& node,
                       const std::map<std::string, PlanNodePtr>& defs) {
  if (node.op == PlanOp::kInput) {
    auto it = defs.find(node.name);
    if (it != defs.end()) return it->second->Clone();
  }
  auto out = std::make_shared<PlanNode>();
  out->op = node.op;
  out->name = node.name;
  out->value = node.value;
  out->shape = node.shape;
  out->loop_constant = node.loop_constant;
  out->symmetric = node.symmetric;
  out->children.reserve(node.children.size());
  for (const auto& child : node.children) {
    out->children.push_back(Substitute(*child, defs));
  }
  return out;
}

/// True for definitions that are pure multiplication chains (matmuls,
/// transposes, scalar coefficients over leaves). Only these are inlined
/// into later statements: substituting d = Hg extends the chains the
/// block-wise search sees (paper Figure 4 substitutes exactly this kind
/// of definition), while substituting additive expressions like
/// g = t(A)(Ax - b) would explode the expansion with cross terms the
/// paper's coordinates do not contain.
bool IsChainLike(const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kInput:
    case PlanOp::kReadData:
    case PlanOp::kConst:
      return true;
    case PlanOp::kTranspose:
      return IsChainLike(*node.children[0]);
    case PlanOp::kMatMul:
      return IsChainLike(*node.children[0]) && IsChainLike(*node.children[1]);
    case PlanOp::kMul:
      // Scalar coefficient only.
      return (node.children[0]->shape.ScalarLike() ||
              node.children[1]->shape.ScalarLike()) &&
             IsChainLike(*node.children[0]) && IsChainLike(*node.children[1]);
    default:
      return false;
  }
}

}  // namespace

Result<std::vector<InlinedOutput>> InlineLoopBody(
    const std::vector<CompiledStmt>& body) {
  std::vector<InlinedOutput> outputs;
  std::map<std::string, PlanNodePtr> defs;
  for (const auto& stmt : body) {
    if (stmt.kind != CompiledStmt::Kind::kAssign) {
      return Status::Unsupported(
          "nested loops inside an optimized loop body are not supported");
    }
    PlanNodePtr inlined = Substitute(*stmt.plan, defs);
    REMAC_RETURN_NOT_OK(InferShapes(inlined.get()));
    InlinedOutput out;
    out.target = stmt.target;
    out.plan = inlined;
    out.scalar = inlined->shape.is_scalar;
    outputs.push_back(out);
    if (IsChainLike(*inlined) && CountNodes(*inlined) <= 32) {
      defs[stmt.target] = inlined;
    } else {
      defs.erase(stmt.target);
    }
    // Stale-safety: an inlined tree must evaluate identically wherever it
    // is substituted, so reassigning a variable invalidates every cached
    // definition that reads it (including a self-referential one).
    for (auto it = defs.begin(); it != defs.end();) {
      bool stale = false;
      std::function<void(const PlanNode&)> scan = [&](const PlanNode& n) {
        if (n.op == PlanOp::kInput && n.name == stmt.target) stale = true;
        for (const auto& child : n.children) scan(*child);
      };
      scan(*it->second);
      if (stale) {
        it = defs.erase(it);
      } else {
        ++it;
      }
    }
  }
  return outputs;
}

void LabelLoopConstants(PlanNode* node,
                        const std::set<std::string>& loop_assigned) {
  for (auto& child : node->children) {
    LabelLoopConstants(child.get(), loop_assigned);
  }
  switch (node->op) {
    case PlanOp::kInput:
      node->loop_constant = loop_assigned.count(node->name) == 0;
      return;
    case PlanOp::kReadData:
      node->loop_constant = true;
      return;
    case PlanOp::kConst:
      node->loop_constant = true;
      return;
    case PlanOp::kRand:
      node->loop_constant = false;
      return;
    default: {
      bool all = true;
      for (const auto& child : node->children) {
        all = all && child->loop_constant;
      }
      node->loop_constant = all && !node->children.empty();
      return;
    }
  }
}

namespace {

/// Renders a tree with symmetric-leaf transpose normalization: used to
/// compare a tree with its own transpose.
std::string SymRender(const PlanNode& node);

/// Flattens nested matrix multiplications into one factor list so the
/// rendering is associativity-insensitive (H(A^T A) and (H A^T)A must
/// compare equal).
void FlattenMatMulRender(const PlanNode& node, std::string* out) {
  if (node.op == PlanOp::kMatMul) {
    FlattenMatMulRender(*node.children[0], out);
    FlattenMatMulRender(*node.children[1], out);
    return;
  }
  if (!out->empty() && out->back() != '(') *out += ",";
  *out += SymRender(node);
}

std::string SymRender(const PlanNode& node) {
  if (node.op == PlanOp::kTranspose) {
    const PlanNode& child = *node.children[0];
    if (child.symmetric || child.shape.ScalarLike()) return SymRender(child);
    return "t(" + SymRender(child) + ")";
  }
  if (node.op == PlanOp::kMatMul) {
    std::string out = "mm(";
    FlattenMatMulRender(node, &out);
    out += ")";
    return out;
  }
  std::string out = PlanOpName(node.op);
  if (node.op == PlanOp::kInput || node.op == PlanOp::kReadData) {
    out += ":" + node.name;
  }
  if (node.op == PlanOp::kConst) {
    out += ":" + ExactDoubleString(node.value);
  }
  if (node.children.empty()) return out;
  out += "(";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ",";
    out += SymRender(*node.children[i]);
  }
  out += ")";
  return out;
}

PlanNodePtr TransposeOf(const PlanNode& node) {
  auto t = MakeUnary(PlanOp::kTranspose, node.Clone());
  const Status st = InferShapes(t.get());
  assert(st.ok());
  (void)st;
  return t;
}

}  // namespace

bool IsStructurallySymmetric(const PlanNode& node) {
  if (node.shape.rows != node.shape.cols) return false;
  if (node.shape.ScalarLike()) return true;
  if (node.op == PlanOp::kEye) return true;
  if (node.op == PlanOp::kZeros || node.op == PlanOp::kOnes) return true;
  if (node.op == PlanOp::kInput || node.op == PlanOp::kReadData) {
    return node.symmetric;
  }
  const PlanNodePtr self = PushDownTransposes(node.Clone());
  const PlanNodePtr transposed = PushDownTransposes(TransposeOf(node));
  return SymRender(*self) == SymRender(*transposed);
}

void LabelSymmetry(PlanNode* node,
                   const std::map<std::string, bool>& symmetric_vars) {
  for (auto& child : node->children) {
    LabelSymmetry(child.get(), symmetric_vars);
  }
  switch (node->op) {
    case PlanOp::kInput: {
      auto it = symmetric_vars.find(node->name);
      node->symmetric = it != symmetric_vars.end() && it->second &&
                        node->shape.rows == node->shape.cols;
      return;
    }
    case PlanOp::kReadData:
      node->symmetric = false;  // datasets are not assumed symmetric
      return;
    default:
      node->symmetric = IsStructurallySymmetric(*node);
      return;
  }
}

std::map<std::string, bool> InferSymmetricVars(const LoopStructure& loop) {
  std::map<std::string, bool> symmetric;
  // Seed from preamble definitions, assuming loop-assigned vars symmetric
  // (the fixpoint below retracts wrong assumptions monotonically).
  for (const std::string& var : loop.loop_assigned) symmetric[var] = true;
  for (const CompiledStmt* stmt : loop.preamble) {
    if (stmt->kind != CompiledStmt::Kind::kAssign) continue;
    PlanNodePtr plan = stmt->plan->Clone();
    LabelSymmetry(plan.get(), symmetric);
    symmetric[stmt->target] = IsStructurallySymmetric(*plan);
  }
  if (loop.loop == nullptr) return symmetric;
  // Loop-assigned vars with no preamble definition keep the optimistic
  // seed; iterate the body to a (descending) fixpoint.
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    for (const auto& stmt : loop.loop->body) {
      if (stmt.kind != CompiledStmt::Kind::kAssign) continue;
      PlanNodePtr plan = stmt.plan->Clone();
      LabelSymmetry(plan.get(), symmetric);
      const bool sym = IsStructurallySymmetric(*plan);
      auto it = symmetric.find(stmt.target);
      const bool prev = it != symmetric.end() && it->second;
      if (prev && !sym) {
        symmetric[stmt.target] = false;
        changed = true;
      } else if (it == symmetric.end()) {
        symmetric[stmt.target] = sym;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return symmetric;
}

}  // namespace remac
