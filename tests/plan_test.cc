#include <gtest/gtest.h>

#include "matrix/kernels.h"
#include "plan/plan_builder.h"
#include "plan/plan_node.h"

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
  auto stats = catalog.Stats("A");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows, 20);
  EXPECT_EQ(stats->cols, 5);
  EXPECT_DOUBLE_EQ(stats->sparsity, 1.0);
  EXPECT_EQ(stats->row_counts, std::vector<int64_t>(20, 5));
  EXPECT_EQ(stats->col_counts, std::vector<int64_t>(5, 20));
  auto b = catalog.Stats("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->row_counts, std::vector<int64_t>(20, 1));
  EXPECT_EQ(b->col_counts, std::vector<int64_t>{20});

  // Counts come from the stored format: zeros (and -0.0) in a dense value
  // are skipped, entries of a CSR value count as stored.
  DataCatalog mixed;
  mixed.Register("D", Matrix::WrapDense(DenseMatrix(
                          2, 3, {0.0, 2.0, -0.0, 1.0, 0.0, 3.0})));
  mixed.Register("S", Matrix::WrapCsr(CsrMatrix::FromTriplets(
                          3, 2, {{0, 1, 4.0}, {2, 0, 5.0}, {2, 1, 6.0}})));
  auto d = mixed.Stats("D");
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->sparsity, 0.5);
  EXPECT_EQ(d->row_counts, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(d->col_counts, (std::vector<int64_t>{1, 1, 1}));
  auto s = mixed.Stats("S");
  ASSERT_TRUE(s.ok());
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

}  // namespace
}  // namespace remac
