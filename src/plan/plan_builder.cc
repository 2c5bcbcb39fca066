#include "plan/plan_builder.h"

#include <cmath>

#include "common/string_util.h"
#include "lang/parser.h"
#include "sparsity/sketch.h"

namespace remac {

void DataCatalog::Register(const std::string& name, Matrix value) {
  MatrixStats stats;
  stats.rows = value.rows();
  stats.cols = value.cols();
  stats.sparsity = value.Sparsity();
  RowColCounts counts = value.CountRowsAndCols();
  stats.row_counts = std::move(counts.row_counts);
  stats.col_counts = std::move(counts.col_counts);
  values_.insert_or_assign(name, std::move(value));
  RegisterStats(name, std::move(stats));
}

void DataCatalog::RegisterStats(const std::string& name, MatrixStats stats) {
  if (stats.sketch == nullptr && !stats.row_counts.empty() &&
      !stats.col_counts.empty()) {
    stats.sketch = MncSketch::FromCounts(stats.rows, stats.cols,
                                         stats.row_counts, stats.col_counts);
  }
  stats_[name] = std::make_shared<const MatrixStats>(std::move(stats));
  ++versions_[name];
}

int64_t DataCatalog::Version(const std::string& name) const {
  auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second;
}

bool DataCatalog::Contains(const std::string& name) const {
  return stats_.count(name) > 0;
}

Result<MatrixStatsPtr> DataCatalog::Stats(const std::string& name) const {
  auto it = stats_.find(name);
  if (it == stats_.end()) {
    return Status::NotFound("no dataset named '" + name + "' in catalog");
  }
  return it->second;
}

Result<Matrix> DataCatalog::Value(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return Status::NotFound("no value registered for dataset '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> DataCatalog::Names() const {
  std::vector<std::string> names;
  names.reserve(stats_.size());
  for (const auto& [name, _] : stats_) names.push_back(name);
  return names;
}

std::string CompiledStmt::ToString(int indent) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (kind == Kind::kAssign) {
    return pad + target + " = " + plan->ToString() + ";\n";
  }
  std::string out =
      pad + (condition ? "while (" + condition->ToString() + ")"
                       : StringFormat("for (%s in %g:%g)", loop_var.c_str(),
                                      loop_begin,
                                      loop_begin + static_trip_count - 1)) +
      " {\n";
  for (const auto& stmt : body) out += stmt.ToString(indent + 1);
  out += pad + "}\n";
  return out;
}

std::string CompiledProgram::ToString() const {
  std::string out;
  for (const auto& stmt : statements) out += stmt.ToString();
  return out;
}

namespace {

/// The op a DML call name lowers to, or null for an unknown name.
const PlanOpInfo* CallOp(const std::string& name) {
  for (const PlanOpInfo& info : kPlanOps) {
    if (info.syntax == OpSyntax::kCall && info.family != OpFamily::kInternal &&
        name == info.name) {
      return &info;
    }
  }
  return nullptr;
}

/// Tracks variable shapes while lowering statements in order.
class Builder {
 public:
  explicit Builder(const DataCatalog& catalog) : catalog_(catalog) {}

  Result<CompiledProgram> Build(const Program& program) {
    CompiledProgram out;
    REMAC_RETURN_NOT_OK(BuildInto(program.statements, &out.statements));
    return out;
  }

 private:
  Status BuildInto(const std::vector<std::unique_ptr<Stmt>>& stmts,
                   std::vector<CompiledStmt>* out) {
    for (const auto& stmt : stmts) {
      switch (stmt->kind) {
        case StmtKind::kAssign: {
          auto plan = BuildExpr(*stmt->value);
          if (!plan.ok()) return plan.status();
          CompiledStmt cs;
          cs.kind = CompiledStmt::Kind::kAssign;
          cs.target = stmt->target;
          cs.plan = std::move(plan).value();
          shapes_[stmt->target] = cs.plan->shape;
          out->push_back(std::move(cs));
          break;
        }
        case StmtKind::kWhile: {
          CompiledStmt cs;
          cs.kind = CompiledStmt::Kind::kLoop;
          // Loop bodies may reference variables they assign (previous
          // iteration values); pre-scan assignments that already have
          // shapes from the preamble. Shapes are assumed stable across
          // iterations, so one body pass suffices.
          auto condition = BuildExpr(*stmt->condition);
          if (!condition.ok()) return condition.status();
          cs.condition = std::move(condition).value();
          REMAC_RETURN_NOT_OK(BuildInto(stmt->body, &cs.body));
          out->push_back(std::move(cs));
          break;
        }
        case StmtKind::kFor: {
          CompiledStmt cs;
          cs.kind = CompiledStmt::Kind::kLoop;
          cs.loop_var = stmt->loop_var;
          auto begin = BuildExpr(*stmt->range_begin);
          if (!begin.ok()) return begin.status();
          auto end = BuildExpr(*stmt->range_end);
          if (!end.ok()) return end.status();
          if (begin.value()->op != PlanOp::kConst ||
              end.value()->op != PlanOp::kConst) {
            return Status::Unsupported(
                "for-loop ranges must be constants");
          }
          cs.loop_begin = begin.value()->value;
          cs.static_trip_count = static_cast<int64_t>(
              std::llround(end.value()->value - begin.value()->value + 1));
          shapes_[stmt->loop_var] = Shape{1, 1, true};
          REMAC_RETURN_NOT_OK(BuildInto(stmt->body, &cs.body));
          out->push_back(std::move(cs));
          break;
        }
      }
    }
    return Status::OK();
  }

  Result<PlanNodePtr> BuildExpr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kNumber:
        return MakeConst(expr.number);
      case ExprKind::kString:
        return Status::ParseError(
            "string literal outside read(): \"" + expr.name + "\"");
      case ExprKind::kIdentifier: {
        auto it = shapes_.find(expr.name);
        if (it == shapes_.end()) {
          return Status::NotFound(StringFormat(
              "line %d: undefined variable '%s'", expr.line,
              expr.name.c_str()));
        }
        return MakeInput(expr.name, it->second);
      }
      case ExprKind::kUnaryMinus: {
        REMAC_ASSIGN_OR_RETURN(PlanNodePtr child, BuildExpr(*expr.children[0]));
        return Finish(MakeBinary(PlanOp::kMul, MakeConst(-1.0),
                                 std::move(child)));
      }
      case ExprKind::kBinary: {
        REMAC_ASSIGN_OR_RETURN(PlanNodePtr lhs, BuildExpr(*expr.children[0]));
        REMAC_ASSIGN_OR_RETURN(PlanNodePtr rhs, BuildExpr(*expr.children[1]));
        PlanOp op = PlanOp::kAdd;
        switch (expr.op) {
          case BinaryOp::kAdd: op = PlanOp::kAdd; break;
          case BinaryOp::kSub: op = PlanOp::kSub; break;
          case BinaryOp::kElemMul: op = PlanOp::kMul; break;
          case BinaryOp::kDiv: op = PlanOp::kDiv; break;
          case BinaryOp::kMatMul: op = PlanOp::kMatMul; break;
          case BinaryOp::kLess: op = PlanOp::kLess; break;
          case BinaryOp::kGreater: op = PlanOp::kGreater; break;
          case BinaryOp::kLessEq: op = PlanOp::kLessEq; break;
          case BinaryOp::kGreaterEq: op = PlanOp::kGreaterEq; break;
          case BinaryOp::kEqual: op = PlanOp::kEqual; break;
          case BinaryOp::kNotEqual: op = PlanOp::kNotEqual; break;
        }
        // Scalar %*% scalar and mat %*% scalar degenerate to '*'.
        if (op == PlanOp::kMatMul &&
            (lhs->shape.is_scalar || rhs->shape.is_scalar)) {
          op = PlanOp::kMul;
        }
        return Finish(MakeBinary(op, std::move(lhs), std::move(rhs)));
      }
      case ExprKind::kCall:
        return BuildCall(expr);
    }
    return Status::Internal("unhandled expr kind");
  }

  Result<PlanNodePtr> BuildCall(const Expr& expr) {
    auto arity = [&](size_t n) -> Status {
      if (expr.children.size() != n) {
        return Status::InvalidArgument(StringFormat(
            "line %d: %s expects %zu argument(s), got %zu", expr.line,
            expr.name.c_str(), n, expr.children.size()));
      }
      return Status::OK();
    };
    if (expr.name == "read") {
      REMAC_RETURN_NOT_OK(arity(1));
      if (expr.children[0]->kind != ExprKind::kString) {
        return Status::InvalidArgument("read() expects a string literal");
      }
      const std::string& dataset = expr.children[0]->name;
      REMAC_ASSIGN_OR_RETURN(const MatrixStatsPtr stats,
                             catalog_.Stats(dataset));
      auto node = std::make_shared<PlanNode>();
      node->op = PlanOp::kReadData;
      node->name = dataset;
      node->shape = Shape{stats->rows, stats->cols, false};
      return node;
    }
    const PlanOpInfo* info = CallOp(expr.name);
    if (info == nullptr) {
      return Status::NotFound(StringFormat("line %d: unknown function '%s'",
                                           expr.line, expr.name.c_str()));
    }
    REMAC_RETURN_NOT_OK(arity(static_cast<size_t>(info->arity)));
    auto node = std::make_shared<PlanNode>();
    node->op = info->op;
    for (const auto& arg : expr.children) {
      REMAC_ASSIGN_OR_RETURN(PlanNodePtr child, BuildExpr(*arg));
      node->children.push_back(std::move(child));
    }
    // Fold ncol/nrow of a known shape into a constant so generator
    // dimensions are static.
    if (info->op == PlanOp::kNcol || info->op == PlanOp::kNrow) {
      const Shape& of = node->children[0]->shape;
      return MakeConst(static_cast<double>(
          info->op == PlanOp::kNcol ? of.cols : of.rows));
    }
    return Finish(std::move(node));
  }

  Result<PlanNodePtr> Finish(PlanNodePtr node) {
    REMAC_RETURN_NOT_OK(InferShapes(node.get()));
    return node;
  }

  const DataCatalog& catalog_;
  std::map<std::string, Shape> shapes_;
};

}  // namespace

Result<CompiledProgram> BuildPlans(const Program& program,
                                   const DataCatalog& catalog) {
  Builder builder(catalog);
  return builder.Build(program);
}

Result<CompiledProgram> CompileScript(std::string_view source,
                                      const DataCatalog& catalog) {
  auto program = ParseProgram(source);
  if (!program.ok()) return program.status();
  return BuildPlans(program.value(), catalog);
}

}  // namespace remac
