#include "cost/cost_model.h"

#include <cmath>

#include "cost/physical_model.h"

namespace remac {

namespace {

MatInfo ToMatInfo(const CostedStats& s) {
  return InfoOf(s.stats, s.distributed);
}

bool ScalarLike(const NodeStats& s) { return s.rows == 1 && s.cols == 1; }

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
  out.costing =
      SelectMultiplyCosting(InfoOf(ea, a_distributed),
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
  REMAC_ASSIGN_OR_RETURN(const MatrixStats stats, catalog_->Stats(name));
  CostedStats out;
  out.stats = estimator_->LeafStats(name, stats);
  // Input datasets live distributed (the executor's read() contract:
  // they are the cluster-scale payloads).
  out.distributed = true;
  out.seconds = 0.0;
  return out;
}

CostedStats CostModel::MultiplyCost(const CostedStats& a,
                                    const CostedStats& b) const {
  CostedStats out;
  out.stats = estimator_->Multiply(a.stats, b.stats);
  const OpCosting costing = SelectMultiplyCosting(
      ToMatInfo(a), ToMatInfo(b), out.stats.sparsity, model_);
  out.distributed = costing.result_distributed;
  out.seconds = costing.Seconds(model_);
  return out;
}

double CostModel::MultiplySeconds(const CostedStats& a, const CostedStats& b,
                                  double sp_out) const {
  const OpCosting costing =
      SelectMultiplyCosting(ToMatInfo(a), ToMatInfo(b), sp_out, model_);
  return costing.Seconds(model_);
}

CostedStats CostModel::ElementwiseCost(PlanOp op, const CostedStats& a,
                                       const CostedStats& b) const {
  CostedStats out;
  const bool a_scalar = ScalarLike(a.stats);
  const bool b_scalar = ScalarLike(b.stats);
  if (a_scalar && !b_scalar) {
    out.stats = estimator_->ScalarBroadcast(op, b.stats);
    const OpCosting costing = CostScalarOp(ToMatInfo(b));
    out.distributed = costing.result_distributed;
    out.seconds = costing.Seconds(model_);
    return out;
  }
  if (b_scalar && !a_scalar) {
    out.stats = estimator_->ScalarBroadcast(op, a.stats);
    const OpCosting costing = CostScalarOp(ToMatInfo(a));
    out.distributed = costing.result_distributed;
    out.seconds = costing.Seconds(model_);
    return out;
  }
  if (a_scalar && b_scalar) {
    out.stats.rows = 1;
    out.stats.cols = 1;
    out.stats.sparsity = 1.0;
    return out;
  }
  out.stats = estimator_->Elementwise(op, a.stats, b.stats);
  const OpCosting costing = remac::CostElementwise(
      ToMatInfo(a), ToMatInfo(b), out.stats.sparsity, model_);
  out.distributed = costing.result_distributed;
  out.seconds = costing.Seconds(model_);
  return out;
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
  switch (node.op) {
    case PlanOp::kInput: {
      auto it = vars.vars.find(node.name);
      if (it == vars.vars.end()) {
        return Status::NotFound("no stats for variable '" + node.name + "'");
      }
      CostedStats out = it->second;
      out.seconds = 0.0;  // referencing a variable is free
      return out;
    }
    case PlanOp::kReadData:
      return DatasetStats(node.name);
    case PlanOp::kConst: {
      CostedStats out;
      out.stats.rows = 1;
      out.stats.cols = 1;
      out.stats.sparsity = node.value != 0.0 ? 1.0 : 0.0;
      return out;
    }
    case PlanOp::kBlockRef: {
      if (!resolver) {
        return Status::Internal("kBlockRef costed without a resolver");
      }
      return resolver(static_cast<int>(node.value));
    }
    case PlanOp::kMatMul: {
      REMAC_ASSIGN_OR_RETURN(const CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      REMAC_ASSIGN_OR_RETURN(const CostedStats b,
                             CostTree(*node.children[1], vars, resolver));
      CostedStats out = MultiplyCost(a, b);
      out.seconds += a.seconds + b.seconds;
      return out;
    }
    case PlanOp::kAdd:
    case PlanOp::kSub:
    case PlanOp::kMul:
    case PlanOp::kDiv:
    case PlanOp::kMin:
    case PlanOp::kMax: {
      REMAC_ASSIGN_OR_RETURN(const CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      REMAC_ASSIGN_OR_RETURN(const CostedStats b,
                             CostTree(*node.children[1], vars, resolver));
      CostedStats out = ElementwiseCost(node.op, a, b);
      out.seconds += a.seconds + b.seconds;
      return out;
    }
    case PlanOp::kTranspose: {
      REMAC_ASSIGN_OR_RETURN(const CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      CostedStats out = TransposeCost(a);
      out.seconds += a.seconds;
      return out;
    }
    case PlanOp::kSum:
    case PlanOp::kNorm:
    case PlanOp::kTrace: {
      REMAC_ASSIGN_OR_RETURN(const CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      CostedStats out;
      out.stats.rows = 1;
      out.stats.cols = 1;
      out.stats.sparsity = 1.0;
      out.seconds = a.seconds + a.stats.Nnz() * model_.WFlop();
      return out;
    }
    case PlanOp::kSqrt:
    case PlanOp::kAbs: {
      REMAC_ASSIGN_OR_RETURN(CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      a.seconds += a.stats.Nnz() * model_.WFlop();
      return a;
    }
    case PlanOp::kExp:
    case PlanOp::kLog: {
      REMAC_ASSIGN_OR_RETURN(CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      // exp(0) = 1: the result densifies; log keeps the pattern (safe
      // log over the non-zeros).
      if (node.op == PlanOp::kExp) a.stats.sparsity = 1.0;
      a.stats.sketch.reset();
      a.stats.pattern.reset();
      a.seconds += a.stats.rows * a.stats.cols * model_.WFlop();
      return a;
    }
    case PlanOp::kRowSums:
    case PlanOp::kColSums: {
      REMAC_ASSIGN_OR_RETURN(const CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      CostedStats out;
      out.stats.rows = node.op == PlanOp::kRowSums ? a.stats.rows : 1;
      out.stats.cols = node.op == PlanOp::kColSums ? a.stats.cols : 1;
      out.stats.sparsity = std::min(1.0, a.stats.sparsity *
                                             (node.op == PlanOp::kRowSums
                                                  ? a.stats.cols
                                                  : a.stats.rows));
      out.distributed = IsDistributedSize(
          MatrixBytes(out.stats.rows, out.stats.cols, out.stats.sparsity),
          model_);
      out.seconds = a.seconds + a.stats.Nnz() * model_.WFlop();
      return out;
    }
    case PlanOp::kDiag: {
      REMAC_ASSIGN_OR_RETURN(const CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      CostedStats out;
      if (a.stats.cols == 1) {
        out.stats.rows = a.stats.rows;
        out.stats.cols = a.stats.rows;
        out.stats.sparsity =
            a.stats.rows > 0 ? a.stats.sparsity / a.stats.rows : 0.0;
      } else {
        out.stats.rows = a.stats.rows;
        out.stats.cols = 1;
        out.stats.sparsity = std::min(1.0, a.stats.sparsity * a.stats.cols);
      }
      out.seconds =
          a.seconds + std::min(a.stats.rows, a.stats.cols) * model_.WFlop();
      return out;
    }
    case PlanOp::kLess:
    case PlanOp::kGreater:
    case PlanOp::kLessEq:
    case PlanOp::kGreaterEq:
    case PlanOp::kEqual:
    case PlanOp::kNotEqual: {
      REMAC_ASSIGN_OR_RETURN(const CostedStats a,
                             CostTree(*node.children[0], vars, resolver));
      REMAC_ASSIGN_OR_RETURN(const CostedStats b,
                             CostTree(*node.children[1], vars, resolver));
      CostedStats out;
      out.stats.rows = 1;
      out.stats.cols = 1;
      out.stats.sparsity = 1.0;
      out.seconds = a.seconds + b.seconds;
      return out;
    }
    case PlanOp::kEye:
    case PlanOp::kZeros:
    case PlanOp::kOnes:
    case PlanOp::kRand: {
      CostedStats out;
      out.stats = estimator_->GeneratorStats(node.op, node.shape.rows,
                                             node.shape.cols);
      const double bytes =
          MatrixBytes(out.stats.rows, out.stats.cols, out.stats.sparsity);
      out.distributed = IsDistributedSize(bytes, model_);
      out.seconds = out.stats.Nnz() * model_.WLocalFlop();
      return out;
    }
    case PlanOp::kNcol:
    case PlanOp::kNrow: {
      CostedStats out;
      out.stats.rows = 1;
      out.stats.cols = 1;
      return out;
    }
    case PlanOp::kFusedMap:
      // Fusion runs after optimization; the optimizer never prices a
      // fused region.
      break;
  }
  return Status::Internal("unhandled op in CostTree");
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
    case MultiplyMethod::kSumma2D:
      return MultiplyLayout::kSumma2D;
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
  VarStats vars;
  std::function<Status(const std::vector<CompiledStmt>&)> sweep =
      [&](const std::vector<CompiledStmt>& stmts) -> Status {
    for (const auto& stmt : stmts) {
      if (stmt.kind == CompiledStmt::Kind::kAssign) {
        auto costed = cost_model.CostTree(*stmt.plan, vars);
        if (!costed.ok()) return costed.status();
        CostedStats value = std::move(costed).value();
        value.seconds = 0.0;
        vars.vars.insert_or_assign(stmt.target, std::move(value));
      } else {
        if (!stmt.loop_var.empty()) {
          CostedStats counter;
          counter.stats.rows = 1;
          counter.stats.cols = 1;
          vars.vars.insert_or_assign(stmt.loop_var, counter);
        }
        for (int pass = 0; pass < loop_sweeps; ++pass) {
          REMAC_RETURN_NOT_OK(sweep(stmt.body));
        }
      }
    }
    return Status::OK();
  };
  REMAC_RETURN_NOT_OK(sweep(program.statements));
  return vars;
}

}  // namespace remac
