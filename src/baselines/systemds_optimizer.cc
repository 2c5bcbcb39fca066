#include "baselines/systemds_optimizer.h"

#include <chrono>
#include <functional>
#include <map>
#include <vector>

#include "common/string_util.h"
#include "cost/cost_model.h"

namespace remac {

namespace {

/// Signature of a subtree at a program point: its structure plus the
/// version of every variable it reads, so textually identical subtrees
/// with different underlying values never unify.
std::string Signature(const PlanNode& node,
                      const std::map<std::string, int>& versions) {
  std::string out = PlanOpName(node.op);
  if (node.op == PlanOp::kInput) {
    auto it = versions.find(node.name);
    out += ":" + node.name + "@" +
           std::to_string(it == versions.end() ? 0 : it->second);
  } else if (node.op == PlanOp::kReadData) {
    out += ":" + node.name;
  } else if (node.op == PlanOp::kConst) {
    out += ":" + ExactDoubleString(node.value);
  }
  if (node.children.empty()) return out;
  out += "(";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ",";
    out += Signature(*node.children[i], versions);
  }
  out += ")";
  return out;
}

/// A subtree is worth materializing only if it contains a matrix
/// multiplication. Bare transposes are excluded: SystemDS fuses t() into
/// the consuming multiply and never materializes a distributed transpose
/// just to share it.
bool ContainsMatMul(const PlanNode& node) {
  if (node.op == PlanOp::kMatMul) return true;
  for (const auto& child : node.children) {
    if (ContainsMatMul(*child)) return true;
  }
  return false;
}

bool WorthEliminating(const PlanNode& node) {
  if (node.shape.ScalarLike()) return false;
  return ContainsMatMul(node);
}

/// Explicit CSE over a statement sequence: identical (same-version)
/// subtrees occurring at least twice become temporaries inserted before
/// their first occurrence. This is what SystemDS's HOP DAG construction
/// achieves by hash-consing identical subtrees.
void ExplicitCse(std::vector<CompiledStmt>* statements) {
  // Count signatures.
  std::map<std::string, int> versions;
  std::map<std::string, int> counts;
  std::function<void(const PlanNode&)> count =
      [&](const PlanNode& node) {
        if (WorthEliminating(node)) {
          ++counts[Signature(node, versions)];
        }
        for (const auto& child : node.children) count(*child);
      };
  for (const auto& stmt : *statements) {
    if (stmt.kind != CompiledStmt::Kind::kAssign) continue;
    count(*stmt.plan);
    ++versions[stmt.target];
  }
  // Rewrite, outermost-first: a repeated subtree becomes a temp; nested
  // repeats inside the temp body are handled by the recursion as well.
  versions.clear();
  std::map<std::string, std::string> temp_of_signature;
  int next_temp = 0;
  std::vector<CompiledStmt> out;
  for (auto& stmt : *statements) {
    if (stmt.kind != CompiledStmt::Kind::kAssign) {
      out.push_back(std::move(stmt));
      continue;
    }
    std::vector<CompiledStmt> temps;
    std::function<PlanNodePtr(const PlanNode&)> rewrite =
        [&](const PlanNode& node) -> PlanNodePtr {
      if (WorthEliminating(node)) {
        const std::string sig = Signature(node, versions);
        auto counted = counts.find(sig);
        if (counted != counts.end() && counted->second >= 2) {
          auto named = temp_of_signature.find(sig);
          if (named == temp_of_signature.end()) {
            const std::string temp = StringFormat("__sds%d", next_temp++);
            // Build the temp's own plan (with nested CSE applied).
            CompiledStmt tstmt;
            tstmt.kind = CompiledStmt::Kind::kAssign;
            tstmt.target = temp;
            tstmt.is_temp = true;
            PlanNodePtr body = std::make_shared<PlanNode>();
            body->op = node.op;
            body->name = node.name;
            body->value = node.value;
            body->shape = node.shape;
            for (const auto& child : node.children) {
              body->children.push_back(rewrite(*child));
            }
            tstmt.plan = std::move(body);
            temps.push_back(std::move(tstmt));
            named = temp_of_signature.emplace(sig, temp).first;
          }
          return MakeInput(named->second, node.shape);
        }
      }
      auto copy = std::make_shared<PlanNode>();
      copy->op = node.op;
      copy->name = node.name;
      copy->value = node.value;
      copy->shape = node.shape;
      for (const auto& child : node.children) {
        copy->children.push_back(rewrite(*child));
      }
      return copy;
    };
    CompiledStmt rewritten = stmt;
    rewritten.plan = rewrite(*stmt.plan);
    for (auto& tstmt : temps) out.push_back(std::move(tstmt));
    ++versions[stmt.target];
    // Version bump invalidates signatures mentioning the target.
    for (auto it = temp_of_signature.begin();
         it != temp_of_signature.end();) {
      if (it->first.find(":" + rewritten.target + "@") !=
          std::string::npos) {
        it = temp_of_signature.erase(it);
      } else {
        ++it;
      }
    }
    out.push_back(std::move(rewritten));
  }
  *statements = std::move(out);
}

/// Flattens as-written multiplication chains and reorders them with the
/// interval DP (SystemDS's mmchain optimization). Atoms are anything
/// that is not a kMatMul (transposed leaves stay fused atoms).
class ChainReorderer {
 public:
  ChainReorderer(const CostModel* cost_model, VarStats* vars)
      : cost_model_(cost_model), vars_(vars) {}

  Result<PlanNodePtr> Reorder(const PlanNode& node) {
    if (node.op != PlanOp::kMatMul) {
      auto copy = std::make_shared<PlanNode>();
      copy->op = node.op;
      copy->name = node.name;
      copy->value = node.value;
      copy->shape = node.shape;
      for (const auto& child : node.children) {
        REMAC_ASSIGN_OR_RETURN(PlanNodePtr sub, Reorder(*child));
        copy->children.push_back(std::move(sub));
      }
      return copy;
    }
    // Flatten the chain.
    std::vector<PlanNodePtr> atoms;
    std::function<Status(const PlanNode&)> flatten =
        [&](const PlanNode& n) -> Status {
      if (n.op == PlanOp::kMatMul) {
        REMAC_RETURN_NOT_OK(flatten(*n.children[0]));
        return flatten(*n.children[1]);
      }
      REMAC_ASSIGN_OR_RETURN(PlanNodePtr atom, Reorder(n));
      atoms.push_back(std::move(atom));
      return Status::OK();
    };
    REMAC_RETURN_NOT_OK(flatten(node));
    const int n = static_cast<int>(atoms.size());
    if (n <= 2) return RebuildLeftDeep(atoms);
    // Stats per atom and per interval (left fold).
    std::vector<CostedStats> stats(static_cast<size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
      auto s = cost_model_->CostTree(*atoms[i], *vars_);
      if (!s.ok()) return s.status();
      stats[static_cast<size_t>(i) * n + i] = std::move(s).value();
    }
    for (int len = 2; len <= n; ++len) {
      for (int i = 0; i + len <= n; ++i) {
        const int j = i + len - 1;
        stats[static_cast<size_t>(i) * n + j] = cost_model_->MultiplyCost(
            stats[static_cast<size_t>(i) * n + j - 1],
            stats[static_cast<size_t>(j) * n + j]);
      }
    }
    std::vector<double> best(static_cast<size_t>(n) * n, 0.0);
    std::vector<int> choice(static_cast<size_t>(n) * n, -1);
    auto idx = [n](int i, int j) { return static_cast<size_t>(i) * n + j; };
    for (int len = 2; len <= n; ++len) {
      for (int i = 0; i + len <= n; ++i) {
        const int j = i + len - 1;
        double best_cost = -1.0;
        for (int k = i; k < j; ++k) {
          const double op = cost_model_->MultiplySeconds(
              stats[idx(i, k)], stats[idx(k + 1, j)],
              stats[idx(i, j)].stats.sparsity);
          const double total = best[idx(i, k)] + best[idx(k + 1, j)] + op;
          if (choice[idx(i, j)] < 0 || total < best_cost) {
            best_cost = total;
            choice[idx(i, j)] = k;
          }
        }
        best[idx(i, j)] = best_cost;
      }
    }
    std::function<PlanNodePtr(int, int)> build = [&](int i,
                                                     int j) -> PlanNodePtr {
      if (i == j) return atoms[i];
      const int k = choice[idx(i, j)];
      PlanNodePtr out = MakeBinary(PlanOp::kMatMul, build(i, k),
                                   build(k + 1, j));
      const Status st = InferShapes(out.get());
      (void)st;
      return out;
    };
    return build(0, n - 1);
  }

 private:
  Result<PlanNodePtr> RebuildLeftDeep(const std::vector<PlanNodePtr>& atoms) {
    PlanNodePtr acc = atoms[0];
    for (size_t i = 1; i < atoms.size(); ++i) {
      acc = MakeBinary(PlanOp::kMatMul, acc, atoms[i]);
      REMAC_RETURN_NOT_OK(InferShapes(acc.get()));
    }
    return acc;
  }

  const CostModel* cost_model_;
  VarStats* vars_;
};

Status ReorderStatements(std::vector<CompiledStmt>* statements,
                         const CostModel& cost_model, VarStats* vars) {
  ChainReorderer reorderer(&cost_model, vars);
  for (auto& stmt : *statements) {
    if (stmt.kind == CompiledStmt::Kind::kAssign) {
      REMAC_ASSIGN_OR_RETURN(stmt.plan, reorderer.Reorder(*stmt.plan));
      auto costed = cost_model.CostTree(*stmt.plan, *vars);
      if (!costed.ok()) continue;
      costed->seconds = 0.0;  // referencing a variable is free
      vars->vars.insert_or_assign(stmt.target, std::move(costed).value());
    } else {
      REMAC_RETURN_NOT_OK(ReorderStatements(&stmt.body, cost_model, vars));
    }
  }
  return Status::OK();
}

}  // namespace

Result<CompiledProgram> SystemDsOptimize(const CompiledProgram& program,
                                         const ClusterModel& cluster,
                                         const SparsityEstimator* estimator,
                                         const DataCatalog* catalog,
                                         const SystemDsConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  CompiledProgram out;
  out.statements = program.statements;  // deep enough: plans are immutable

  // SystemDS applies CSE before the order-improving rewrites, which is
  // why explicit CSE can block mmchain reordering (paper Section 6.2.2,
  // BFGS discussion).
  if (config.explicit_cse) {
    for (auto& stmt : out.statements) {
      if (stmt.kind == CompiledStmt::Kind::kLoop) {
        ExplicitCse(&stmt.body);
      }
    }
    ExplicitCse(&out.statements);
  }

  if (config.chain_reordering) {
    CostModel cost_model(cluster, estimator, catalog);
    auto vars = PropagateProgramStats(out, cost_model);
    if (!vars.ok()) return vars.status();
    VarStats var_stats = std::move(vars).value();
    REMAC_RETURN_NOT_OK(
        ReorderStatements(&out.statements, cost_model, &var_stats));
  }

  if (config.compile_seconds != nullptr) {
    *config.compile_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return out;
}

}  // namespace remac
