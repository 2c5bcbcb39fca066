#include "service/program_fingerprint.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/string_util.h"
#include "lang/parser.h"
#include "matrix/matrix.h"

namespace remac {

namespace {

/// Renders statements/expressions with identifiers alpha-renamed in
/// order of first appearance, collecting read("...") dataset names.
class Canonicalizer {
 public:
  std::string Render(const Program& program) {
    std::string out;
    for (const auto& stmt : program.statements) RenderStmt(*stmt, &out);
    return out;
  }

  std::vector<std::string> TakeDatasets() { return std::move(datasets_); }

 private:
  const std::string& NameFor(const std::string& ident) {
    auto it = names_.find(ident);
    if (it == names_.end()) {
      it = names_.emplace(ident, "$" + std::to_string(names_.size())).first;
    }
    return it->second;
  }

  void RenderExpr(const Expr& expr, std::string* out) {
    switch (expr.kind) {
      case ExprKind::kIdentifier:
        *out += NameFor(expr.name);
        return;
      case ExprKind::kNumber:
        *out += StringFormat("%.17g", expr.number);
        return;
      case ExprKind::kString:
        *out += '"';
        *out += expr.name;
        *out += '"';
        return;
      case ExprKind::kCall: {
        if (expr.name == "read" && expr.children.size() == 1 &&
            expr.children[0]->kind == ExprKind::kString) {
          const std::string& ds = expr.children[0]->name;
          if (std::find(datasets_.begin(), datasets_.end(), ds) ==
              datasets_.end()) {
            datasets_.push_back(ds);
          }
        }
        *out += expr.name;
        *out += '(';
        for (size_t i = 0; i < expr.children.size(); ++i) {
          if (i > 0) *out += ',';
          RenderExpr(*expr.children[i], out);
        }
        *out += ')';
        return;
      }
      case ExprKind::kBinary:
        *out += '(';
        RenderExpr(*expr.children[0], out);
        *out += BinaryOpName(expr.op);
        RenderExpr(*expr.children[1], out);
        *out += ')';
        return;
      case ExprKind::kUnaryMinus:
        *out += "(-";
        RenderExpr(*expr.children[0], out);
        *out += ')';
        return;
    }
  }

  void RenderStmt(const Stmt& stmt, std::string* out) {
    switch (stmt.kind) {
      case StmtKind::kAssign:
        *out += NameFor(stmt.target);
        *out += '=';
        RenderExpr(*stmt.value, out);
        *out += ";";
        return;
      case StmtKind::kWhile:
        *out += "while(";
        RenderExpr(*stmt.condition, out);
        *out += "){";
        for (const auto& s : stmt.body) RenderStmt(*s, out);
        *out += '}';
        return;
      case StmtKind::kFor:
        *out += "for(";
        *out += NameFor(stmt.loop_var);
        *out += " in ";
        RenderExpr(*stmt.range_begin, out);
        *out += ':';
        RenderExpr(*stmt.range_end, out);
        *out += "){";
        for (const auto& s : stmt.body) RenderStmt(*s, out);
        *out += '}';
        return;
    }
  }

  std::map<std::string, std::string> names_;
  std::vector<std::string> datasets_;
};

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

ProgramFingerprint FingerprintProgram(const Program& program) {
  Canonicalizer canon;
  ProgramFingerprint fp;
  fp.canonical = canon.Render(program);
  fp.datasets = canon.TakeDatasets();
  fp.hash = Fnv1a64(fp.canonical);
  return fp;
}

Result<ProgramFingerprint> FingerprintScript(std::string_view source) {
  REMAC_ASSIGN_OR_RETURN(const Program program, ParseProgram(source));
  return FingerprintProgram(program);
}

int SparsityBucket(double sparsity) {
  if (sparsity >= kDenseFormatThreshold) return 0;  // dense regime
  if (sparsity <= 1e-12) return -100;               // (near-)empty
  return static_cast<int>(std::floor(2.0 * std::log10(sparsity)));
}

Result<std::string> DatasetMetadataFragment(const std::string& name,
                                            const DataCatalog& catalog) {
  REMAC_ASSIGN_OR_RETURN(const MatrixStatsPtr stats, catalog.Stats(name));
  return StringFormat("%s=%lldx%lld,%s,b%d;", name.c_str(),
                      static_cast<long long>(stats->rows),
                      static_cast<long long>(stats->cols),
                      stats->rows == stats->cols ? "sq" : "rc",
                      SparsityBucket(stats->sparsity));
}

Result<std::string> InputMetadataKey(const std::vector<std::string>& datasets,
                                     const DataCatalog& catalog) {
  std::string key;
  for (const std::string& name : datasets) {
    REMAC_ASSIGN_OR_RETURN(const std::string fragment,
                           DatasetMetadataFragment(name, catalog));
    key += fragment;
  }
  return key;
}

}  // namespace remac
