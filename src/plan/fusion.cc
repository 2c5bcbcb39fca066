#include "plan/fusion.h"

#include <map>
#include <utility>
#include <vector>

#include "matrix/fused_tape.h"
#include "obs/metrics.h"

namespace remac {

namespace {

/// Registry handles resolved once, process-wide.
struct FusionMetrics {
  Counter* regions =
      MetricsRegistry::Global().GetCounter("remac.fusion.regions");
  Counter* ops_fused =
      MetricsRegistry::Global().GetCounter("remac.fusion.ops_fused");
};

FusionMetrics& Metrics() {
  static FusionMetrics metrics;
  return metrics;
}

/// True when `node` can be an interior op of a fused region: an
/// element-wise binary or unary map producing a real matrix. Scalar-shaped
/// results stay on the executor's scalar paths.
bool FusableOp(const PlanNode& node) {
  if (node.shape.ScalarLike() || node.shape.rows <= 0 ||
      node.shape.cols <= 0) {
    return false;
  }
  const PlanOpInfo& info = OpInfo(node.op);
  return info.cell.has_value() &&
         node.children.size() == static_cast<size_t>(info.arity);
}

/// True when `node` belongs to the region rooted at `root`: fusable and
/// exactly the region shape (broadcast guarantees this for non-ScalarLike
/// operands; the check is defensive).
bool InRegion(const PlanNode& node, const PlanNode& root) {
  return FusableOp(node) && node.shape.rows == root.shape.rows &&
         node.shape.cols == root.shape.cols;
}

class Fuser {
 public:
  explicit Fuser(FusionReport* report) : report_(report) {}

  /// Rewrites the tree rooted at `node`, sharing unchanged subtrees.
  PlanNodePtr Rewrite(const PlanNodePtr& node) {
    if (InRegion(*node, *node)) {
      // Count the region first; only fuse when it spans >= 2 ops (a lone
      // elementwise op gains nothing from the tape interpreter).
      int64_t ops = 0;
      CountOps(*node, *node, &ops);
      if (ops >= 2) return BuildRegion(node);
    }
    return RewriteChildren(node);
  }

 private:
  /// Shallow-copies `node` with rewritten children; returns the original
  /// pointer when nothing underneath changed.
  PlanNodePtr RewriteChildren(const PlanNodePtr& node) {
    std::vector<PlanNodePtr> children;
    children.reserve(node->children.size());
    bool changed = false;
    for (const auto& child : node->children) {
      PlanNodePtr rewritten = Rewrite(child);
      changed = changed || rewritten.get() != child.get();
      children.push_back(std::move(rewritten));
    }
    if (!changed) return node;
    auto copy = std::make_shared<PlanNode>();
    copy->op = node->op;
    copy->name = node->name;
    copy->value = node->value;
    copy->shape = node->shape;
    copy->loop_constant = node->loop_constant;
    copy->symmetric = node->symmetric;
    copy->layout = node->layout;
    copy->fused = node->fused;
    copy->children = std::move(children);
    return copy;
  }

  void CountOps(const PlanNode& node, const PlanNode& root, int64_t* ops) {
    ++*ops;
    for (const auto& child : node.children) {
      if (InRegion(*child, root)) CountOps(*child, root, ops);
    }
  }

  /// Collects region inputs in DFS first-occurrence order. Plans are
  /// trees, so pointers are unique and no dedup is wanted: every input
  /// occurrence gets its own slot.
  void CollectInputs(const PlanNodePtr& node, const PlanNode& root,
                     std::vector<PlanNodePtr>* inputs) {
    for (const auto& child : node->children) {
      if (InRegion(*child, root)) {
        CollectInputs(child, root, inputs);
      } else {
        inputs->push_back(child);
      }
    }
  }

  /// Emits tape steps post-order; returns the slot holding `node`'s value.
  int32_t Emit(const PlanNode& node, const PlanNode& root,
               const std::map<const PlanNode*, int32_t>& input_slot,
               FusedTape* tape) {
    auto it = input_slot.find(&node);
    if (it != input_slot.end()) return it->second;
    FusedStep step;
    step.op = *FusedOpOf(node.op);
    step.lhs = Emit(*node.children[0], root, input_slot, tape);
    if (node.children.size() == 2) {
      step.rhs = Emit(*node.children[1], root, input_slot, tape);
    }
    tape->steps.push_back(step);
    return tape->num_inputs +
           static_cast<int32_t>(tape->steps.size()) - 1;
  }

  PlanNodePtr BuildRegion(const PlanNodePtr& root) {
    std::vector<PlanNodePtr> inputs;
    CollectInputs(root, *root, &inputs);
    auto tape = std::make_shared<FusedTape>();
    tape->rows = root->shape.rows;
    tape->cols = root->shape.cols;
    tape->num_inputs = static_cast<int32_t>(inputs.size());
    std::map<const PlanNode*, int32_t> input_slot;
    for (size_t i = 0; i < inputs.size(); ++i) {
      input_slot[inputs[i].get()] = static_cast<int32_t>(i);
      tape->input_scalar.push_back(
          inputs[i]->shape.ScalarLike() ? 1 : 0);
    }
    Emit(*root, *root, input_slot, tape.get());
    Metrics().regions->Add();
    Metrics().ops_fused->Add(static_cast<int64_t>(tape->steps.size()));
    if (report_ != nullptr) {
      ++report_->regions;
      report_->ops_fused += static_cast<int64_t>(tape->steps.size());
    }
    auto node = std::make_shared<PlanNode>();
    node->op = PlanOp::kFusedMap;
    node->shape = root->shape;
    node->loop_constant = root->loop_constant;
    node->fused = std::move(tape);
    node->children.reserve(inputs.size());
    // Nested regions inside the inputs (e.g. on the far side of a
    // multiply) fuse independently.
    for (const auto& input : inputs) node->children.push_back(Rewrite(input));
    return node;
  }

  FusionReport* report_;
};

void FuseStatements(std::vector<CompiledStmt>* statements, Fuser* fuser) {
  for (auto& stmt : *statements) {
    if (stmt.plan != nullptr) stmt.plan = fuser->Rewrite(stmt.plan);
    if (stmt.condition != nullptr) {
      stmt.condition = fuser->Rewrite(stmt.condition);
    }
    FuseStatements(&stmt.body, fuser);
  }
}

}  // namespace

PlanNodePtr FuseElementwiseTree(const PlanNodePtr& node,
                                FusionReport* report) {
  Metrics();  // resolve the counter family even when nothing fuses
  Fuser fuser(report);
  return fuser.Rewrite(node);
}

void FuseElementwiseChains(CompiledProgram* program, FusionReport* report) {
  Metrics();  // resolve the counter family even when nothing fuses
  Fuser fuser(report);
  FuseStatements(&program->statements, &fuser);
}

}  // namespace remac
