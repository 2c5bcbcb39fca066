#include "cost/cost_model.h"

#include "cost/cost_predictor.h"

namespace remac {

namespace {

MatInfo ToMatInfo(const CostedStats& s) {
  return InfoOf(s.stats, s.distributed);
}

}  // namespace

MatInfo InfoOf(const NodeStats& stats, bool distributed) {
  return MatInfo{stats.rows, stats.cols, stats.sparsity, distributed};
}

EstimatedProduct EstimateMultiply(const SparsityEstimator& estimator,
                                  const NodeStats& a, bool a_distributed,
                                  bool a_transposed, const NodeStats& b,
                                  bool b_distributed, bool b_transposed,
                                  const ClusterModel& model) {
  NodeStats ta;
  NodeStats tb;
  const NodeStats& ea = a_transposed ? (ta = estimator.Transpose(a)) : a;
  const NodeStats& eb = b_transposed ? (tb = estimator.Transpose(b)) : b;
  EstimatedProduct out;
  out.stats = estimator.Multiply(ea, eb);
  out.costing = CostMultiply(InfoOf(ea, a_distributed),
                             InfoOf(eb, b_distributed), out.stats.sparsity,
                             model);
  return out;
}

CostModel::CostModel(const ClusterModel& model,
                     const SparsityEstimator* estimator,
                     const DataCatalog* catalog)
    : model_(model), estimator_(estimator), catalog_(catalog) {}

Result<CostedStats> CostModel::DatasetStats(const std::string& name) const {
  if (catalog_ == nullptr) {
    return Status::Internal("cost model has no catalog");
  }
  REMAC_ASSIGN_OR_RETURN(const MatrixStatsPtr stats, catalog_->Stats(name));
  CostedStats out;
  out.stats = estimator_->LeafStats(name, *stats);
  // Input datasets live distributed (the executor's read() contract:
  // they are the cluster-scale payloads).
  out.distributed = true;
  out.seconds = 0.0;
  return out;
}

CostedStats CostModel::MultiplyCost(const CostedStats& a,
                                    const CostedStats& b) const {
  const EstimatedProduct product =
      EstimateMultiply(*estimator_, a.stats, a.distributed, false, b.stats,
                       b.distributed, false, model_);
  return CostedStats{product.stats, product.costing.result_distributed,
                     product.costing.Seconds(model_)};
}

double CostModel::MultiplySeconds(const CostedStats& a, const CostedStats& b,
                                  double sp_out) const {
  return CostMultiply(ToMatInfo(a), ToMatInfo(b), sp_out, model_)
      .Seconds(model_);
}

CostedStats CostModel::TransposeCost(const CostedStats& a) const {
  CostedStats out;
  out.stats = estimator_->Transpose(a.stats);
  const OpCosting costing = remac::CostTranspose(ToMatInfo(a), model_);
  out.distributed = costing.result_distributed;
  out.seconds = costing.Seconds(model_);
  return out;
}

Result<CostedStats> CostModel::CostTree(const PlanNode& node,
                                        const VarStats& vars,
                                        const BlockResolver& resolver) const {
  CostPredictor walk(*this);
  walk.ReadLeavesFrom(&vars, &resolver);
  REMAC_ASSIGN_OR_RETURN(const CostPredictor::Value value, walk.Eval(node));
  return CostPredictor::Costed(value, walk.seconds());
}

namespace {

MultiplyLayout LayoutOf(MultiplyMethod method) {
  switch (method) {
    case MultiplyMethod::kLocalOp:
      return MultiplyLayout::kLocal;
    case MultiplyMethod::kBmm:
      return MultiplyLayout::kBmm1D;
    case MultiplyMethod::kCpmm:
      return MultiplyLayout::kCpmm1D;
  }
  return MultiplyLayout::kUnset;
}

void AnnotateNode(PlanNode* node, const VarStats& vars,
                  const CostModel& cost_model) {
  for (const PlanNodePtr& child : node->children) {
    AnnotateNode(child.get(), vars, cost_model);
  }
  if (node->op != PlanOp::kMatMul) return;
  // Price the operands the runtime actually multiplies.
  const MultiplyOperands ops = FusedMultiplyOperands(*node);
  const Result<CostedStats> a = cost_model.CostTree(*ops.lhs, vars);
  const Result<CostedStats> b = cost_model.CostTree(*ops.rhs, vars);
  if (!a.ok() || !b.ok()) return;  // stays kUnset
  const EstimatedProduct product = EstimateMultiply(
      cost_model.estimator(), a->stats, a->distributed, ops.lhs_transposed,
      b->stats, b->distributed, ops.rhs_transposed, cost_model.cluster());
  node->layout = LayoutOf(product.costing.method);
}

}  // namespace

Status AnnotateMultiplyLayouts(CompiledProgram* program,
                               const CostModel& cost_model) {
  REMAC_ASSIGN_OR_RETURN(const VarStats vars,
                         PropagateProgramStats(*program, cost_model));
  std::function<void(std::vector<CompiledStmt>&)> walk =
      [&](std::vector<CompiledStmt>& stmts) {
        for (CompiledStmt& stmt : stmts) {
          if (stmt.kind == CompiledStmt::Kind::kAssign) {
            if (stmt.plan) AnnotateNode(stmt.plan.get(), vars, cost_model);
            continue;
          }
          if (stmt.condition) {
            AnnotateNode(stmt.condition.get(), vars, cost_model);
          }
          walk(stmt.body);
        }
      };
  walk(program->statements);
  return Status::OK();
}

Result<VarStats> PropagateProgramStats(const CompiledProgram& program,
                                       const CostModel& cost_model,
                                       int loop_sweeps) {
  CostPredictor walk(cost_model);
  walk.SweepLoops();
  REMAC_RETURN_NOT_OK(walk.Run(program.statements, loop_sweeps));
  VarStats vars;
  for (const auto& [name, value] : walk.env()) {
    vars.vars.emplace(name, CostPredictor::Costed(value));
  }
  return vars;
}

}  // namespace remac
