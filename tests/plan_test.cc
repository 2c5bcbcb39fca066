#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "matrix/kernels.h"
#include "plan/plan_builder.h"
#include "plan/plan_node.h"
#include "runtime/program_runner.h"

namespace remac {
namespace {

DataCatalog TestCatalog() {
  DataCatalog catalog;
  DenseMatrix a(20, 5);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = 1.0 + i;
  catalog.Register("A", Matrix::WrapDense(std::move(a)));
  DenseMatrix b(20, 1);
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = 2.0;
  catalog.Register("b", Matrix::WrapDense(std::move(b)));
  return catalog;
}

TEST(Catalog, RegisterDerivesStats) {
  const DataCatalog catalog = TestCatalog();
  auto stats_result = catalog.Stats("A");
  ASSERT_TRUE(stats_result.ok());
  const MatrixStatsPtr stats = *stats_result;
  EXPECT_EQ(stats->rows, 20);
  EXPECT_EQ(stats->cols, 5);
  EXPECT_DOUBLE_EQ(stats->sparsity, 1.0);
  EXPECT_EQ(stats->row_counts, std::vector<int64_t>(20, 5));
  EXPECT_EQ(stats->col_counts, std::vector<int64_t>(5, 20));
  auto b_result = catalog.Stats("b");
  ASSERT_TRUE(b_result.ok());
  const MatrixStatsPtr b = *b_result;
  EXPECT_EQ(b->row_counts, std::vector<int64_t>(20, 1));
  EXPECT_EQ(b->col_counts, std::vector<int64_t>{20});

  // Counts come from the stored format: zeros (and -0.0) in a dense value
  // are skipped, entries of a CSR value count as stored.
  DataCatalog mixed;
  mixed.Register("D", Matrix::WrapDense(DenseMatrix(
                          2, 3, {0.0, 2.0, -0.0, 1.0, 0.0, 3.0})));
  mixed.Register("S", Matrix::WrapCsr(CsrMatrix::FromTriplets(
                          3, 2, {{0, 1, 4.0}, {2, 0, 5.0}, {2, 1, 6.0}})));
  auto d_result = mixed.Stats("D");
  ASSERT_TRUE(d_result.ok());
  const MatrixStatsPtr d = *d_result;
  EXPECT_DOUBLE_EQ(d->sparsity, 0.5);
  EXPECT_EQ(d->row_counts, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(d->col_counts, (std::vector<int64_t>{1, 1, 1}));
  auto s_result = mixed.Stats("S");
  ASSERT_TRUE(s_result.ok());
  const MatrixStatsPtr s = *s_result;
  EXPECT_DOUBLE_EQ(s->sparsity, 0.5);
  EXPECT_EQ(s->row_counts, (std::vector<int64_t>{1, 0, 2}));
  EXPECT_EQ(s->col_counts, (std::vector<int64_t>{1, 2}));
}

TEST(Catalog, MissingEntries) {
  const DataCatalog catalog = TestCatalog();
  EXPECT_FALSE(catalog.Contains("missing"));
  EXPECT_EQ(catalog.Stats("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.Value("missing").status().code(), StatusCode::kNotFound);
}

TEST(PlanBuilder, ShapesInferredThroughStatements) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript(
      "A = read(\"A\");\n"
      "x = zeros(ncol(A), 1);\n"
      "y = A %*% x;\n",
      catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledStmt& y = program->statements[2];
  EXPECT_EQ(y.plan->shape.rows, 20);
  EXPECT_EQ(y.plan->shape.cols, 1);
}

TEST(PlanBuilder, NcolFoldsToConstant) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript("A = read(\"A\");\nn = ncol(A);\n", catalog);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->statements[1].plan->op, PlanOp::kConst);
  EXPECT_DOUBLE_EQ(program->statements[1].plan->value, 5.0);
}

TEST(PlanBuilder, UnaryMinusBecomesScalarMultiply) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript(
      "A = read(\"A\");\ny = -A;\n", catalog);
  ASSERT_TRUE(program.ok());
  const PlanNode& plan = *program->statements[1].plan;
  EXPECT_EQ(plan.op, PlanOp::kMul);
  EXPECT_EQ(plan.children[0]->op, PlanOp::kConst);
  EXPECT_DOUBLE_EQ(plan.children[0]->value, -1.0);
}

TEST(PlanBuilder, MatMulDimensionMismatch) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript(
      "A = read(\"A\");\ny = A %*% A;\n", catalog);
  EXPECT_EQ(program.status().code(), StatusCode::kDimensionMismatch);
}

TEST(PlanBuilder, ScalarFunctionOfAMatrixIsADimensionMismatch) {
  const DataCatalog catalog = TestCatalog();
  for (const std::string fn : {"abs", "sqrt"}) {
    auto program =
        CompileScript("X = read(\"A\");\ny = " + fn + "(X);\n", catalog);
    ASSERT_EQ(program.status().code(), StatusCode::kDimensionMismatch) << fn;
    EXPECT_NE(program.status().message().find("in " + fn + "(X)"),
              std::string::npos)
        << program.status().ToString();
  }
  // A 1x1 matrix is a scalar argument.
  auto program = CompileScript(
      "b = read(\"b\");\ny = sqrt(t(b) %*% b) + abs(t(b) %*% b);\n", catalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
}

TEST(PlanBuilder, UndefinedVariable) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript("y = nope + 1;\n", catalog);
  EXPECT_EQ(program.status().code(), StatusCode::kNotFound);
}

TEST(PlanBuilder, UnknownDataset) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript("y = read(\"nope\");\n", catalog);
  EXPECT_EQ(program.status().code(), StatusCode::kNotFound);
}

TEST(PlanBuilder, UnknownFunction) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript("y = frobnicate(1);\n", catalog);
  EXPECT_EQ(program.status().code(), StatusCode::kNotFound);
}

TEST(PlanBuilder, ScalarMatMulDegradesToMul) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript(
      "A = read(\"A\");\ns = 2;\ny = s %*% A;\n", catalog);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->statements[2].plan->op, PlanOp::kMul);
}

TEST(PlanBuilder, WhileConditionCompiles) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript(
      "i = 0;\nwhile (i < 3) {\n  i = i + 1;\n}\n", catalog);
  ASSERT_TRUE(program.ok());
  const CompiledStmt& loop = program->statements[1];
  EXPECT_EQ(loop.kind, CompiledStmt::Kind::kLoop);
  ASSERT_NE(loop.condition, nullptr);
  EXPECT_EQ(loop.condition->op, PlanOp::kLess);
}

TEST(PlanBuilder, ForLoopStaticTripCount) {
  const DataCatalog catalog = TestCatalog();
  auto program = CompileScript(
      "x = 1;\nfor (k in 2:6) {\n  x = x + k;\n}\n", catalog);
  ASSERT_TRUE(program.ok());
  const CompiledStmt& loop = program->statements[1];
  EXPECT_EQ(loop.static_trip_count, 5);
  EXPECT_DOUBLE_EQ(loop.loop_begin, 2.0);
}

TEST(PlanNode, EqualsAndClone) {
  const DataCatalog catalog = TestCatalog();
  auto p1 = CompileScript("A = read(\"A\");\ny = t(A) %*% A;\n", catalog);
  auto p2 = CompileScript("A = read(\"A\");\ny = t(A) %*% A;\n", catalog);
  ASSERT_TRUE(p1.ok() && p2.ok());
  const PlanNode& a = *p1->statements[1].plan;
  const PlanNode& b = *p2->statements[1].plan;
  EXPECT_TRUE(PlanNode::Equals(a, b));
  EXPECT_TRUE(PlanNode::Equals(a, *a.Clone()));
  EXPECT_FALSE(PlanNode::Equals(a, *p1->statements[0].plan));
}

TEST(PlanNode, CountNodes) {
  const DataCatalog catalog = TestCatalog();
  auto program =
      CompileScript("A = read(\"A\");\ny = t(A) %*% A;\n", catalog);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(CountNodes(*program->statements[1].plan), 4);  // mm, t, A, A
}

TEST(PlanNode, ShapeScalarLike) {
  Shape scalar{1, 1, true};
  Shape one_by_one{1, 1, false};
  Shape matrix{3, 4, false};
  EXPECT_TRUE(scalar.ScalarLike());
  EXPECT_TRUE(one_by_one.ScalarLike());
  EXPECT_FALSE(matrix.ScalarLike());
}

TEST(PlanOpTable, NamesAreUnique) {
  std::set<std::string> names;
  for (const PlanOpInfo& info : kPlanOps) {
    EXPECT_STRNE(info.name, "?");
    EXPECT_STREQ(PlanOpName(info.op), info.name);
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
  EXPECT_EQ(names.size(), kNumPlanOps);
}

TEST(PlanOpTable, FusedOpOfAndPlanOpOfAreInverses) {
  for (int i = 0; i <= static_cast<int>(FusedOp::kLog); ++i) {
    const FusedOp op = static_cast<FusedOp>(i);
    const std::optional<FusedOp> round_trip = FusedOpOf(PlanOpOf(op));
    ASSERT_TRUE(round_trip.has_value()) << FusedOpName(op);
    EXPECT_EQ(*round_trip, op) << FusedOpName(op);
  }
  for (const PlanOpInfo& info : kPlanOps) {
    if (const std::optional<FusedOp> cell = FusedOpOf(info.op)) {
      EXPECT_EQ(PlanOpOf(*cell), info.op) << info.name;
    }
  }
}

TEST(PlanOpTable, EveryCallRowCompilesFromItsName) {
  const DataCatalog catalog = TestCatalog();
  for (const PlanOpInfo& info : kPlanOps) {
    if (info.syntax != OpSyntax::kCall || info.family == OpFamily::kInternal) {
      continue;
    }
    std::vector<std::string> args;
    if (info.op == PlanOp::kReadData) {
      args = {"\"A\""};
    } else if (info.family == OpFamily::kGenerator) {
      args.assign(static_cast<size_t>(info.arity), "3");
    } else if (info.shape == ShapeRule::kScalarArg) {
      args = {"4"};
    } else {
      args.assign(static_cast<size_t>(info.arity), "b");
    }
    const std::string script = "b = read(\"b\");\ny = " +
                               std::string(info.name) + "(" +
                               Join(args, ", ") + ");\n";
    auto program = CompileScript(script, catalog);
    ASSERT_TRUE(program.ok()) << script << program.status().ToString();
    // ncol and nrow fold to constants at build time.
    const bool folds = info.op == PlanOp::kNcol || info.op == PlanOp::kNrow;
    EXPECT_EQ(program->statements.back().plan->op,
              folds ? PlanOp::kConst : info.op)
        << script;
  }
}

TEST(PlanOpTable, OptimizedStatementsRoundTripThroughToString) {
  const DataCatalog catalog = TestCatalog();
  // Every op the builder produces: leaves, generators, %*% and t, the
  // elementwise and comparison families, and every call.
  const std::string script =
      "A = read(\"A\");\n"
      "b = read(\"b\");\n"
      "I = eye(5);\n"
      "Z = zeros(5, 1);\n"
      "O = ones(20, 1);\n"
      "R = rand(5, 1);\n"
      "x = t(A) %*% b + I %*% Z - R * 2 / 4;\n"
      "m = min(O, b) + max(b, O);\n"
      "s = sum(x) + norm(A) + trace(t(A) %*% A) + sqrt(4) + abs(s0);\n"
      "e = exp(x) + log(x * x);\n"
      "r = rowSums(A) + t(colSums(A) %*% t(A));\n"
      "d = diag(t(A) %*% A) + diag(diag(Z));\n"
      "c = (s < 1) + (s > 1) + (s <= 1) + (s >= 1) + (s == 1) + (s != 1);\n";
  auto program = CompileScript("s0 = 2;\n" + script, catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::set<PlanOp> used;
  std::function<void(const PlanNode&)> collect = [&](const PlanNode& node) {
    used.insert(node.op);
    for (const auto& child : node.children) collect(*child);
  };
  for (const CompiledStmt& stmt : program->statements) collect(*stmt.plan);
  for (const PlanOpInfo& info : kPlanOps) {
    const bool reachable = info.family != OpFamily::kInternal &&
                           info.op != PlanOp::kNcol && info.op != PlanOp::kNrow;
    EXPECT_EQ(used.count(info.op), reachable ? 1u : 0u) << info.name;
  }
  RunConfig config;
  config.fuse_elementwise = false;  // fused regions have no DML spelling
  auto optimized = OptimizeCompiled(*program, catalog, config, nullptr);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  const std::string rendered = optimized->ToString();
  auto recompiled = CompileScript(rendered, catalog);
  ASSERT_TRUE(recompiled.ok()) << rendered << recompiled.status().ToString();
  ASSERT_EQ(recompiled->statements.size(), optimized->statements.size());
  for (size_t i = 0; i < optimized->statements.size(); ++i) {
    const CompiledStmt& want = optimized->statements[i];
    const CompiledStmt& got = recompiled->statements[i];
    EXPECT_EQ(got.target, want.target);
    EXPECT_TRUE(PlanNode::Equals(*got.plan, *want.plan))
        << want.plan->ToString() << " recompiled as " << got.plan->ToString();
  }
}

}  // namespace
}  // namespace remac
