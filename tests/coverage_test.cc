// Focused edge-case coverage across modules: degenerate shapes, empty
// inputs, rendering, and error paths not exercised elsewhere.

#include <gtest/gtest.h>

#include "cluster/transmission_ledger.h"
#include "core/adaptive_optimizer.h"
#include "core/block_search.h"
#include "data/generators.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "matrix/kernels.h"
#include "plan/chain.h"
#include "plan/plan_builder.h"
#include "plan/rewriter.h"
#include "runtime/program_runner.h"
#include "sparsity/sketch.h"

namespace remac {
namespace {

// ---------------------------------------------------------------- matrix

TEST(Coverage, EmptyMatrixOperations) {
  const Matrix empty = Matrix::Zeros(0, 0);
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.nnz(), 0);
  EXPECT_DOUBLE_EQ(empty.Sparsity(), 0.0);
  const Matrix t = Transpose(empty);
  EXPECT_EQ(t.rows(), 0);
}

TEST(Coverage, OneByOneMultiplication) {
  DenseMatrix a(1, 1, {3.0});
  DenseMatrix b(1, 1, {4.0});
  auto c = Multiply(Matrix::WrapDense(std::move(a)),
                    Matrix::WrapDense(std::move(b)));
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->At(0, 0), 12.0);
}

TEST(Coverage, VectorOuterAndInnerProducts) {
  DenseMatrix v(3, 1, {1.0, 2.0, 3.0});
  const Matrix vec = Matrix::WrapDense(std::move(v));
  auto outer = Multiply(vec, Transpose(vec));
  ASSERT_TRUE(outer.ok());
  EXPECT_EQ(outer->rows(), 3);
  EXPECT_EQ(outer->cols(), 3);
  EXPECT_DOUBLE_EQ(outer->At(2, 1), 6.0);
  auto inner = Multiply(Transpose(vec), vec);
  ASSERT_TRUE(inner.ok());
  EXPECT_DOUBLE_EQ(inner->At(0, 0), 14.0);
}

TEST(Coverage, AllZeroSparseMultiply) {
  const Matrix z = Matrix::Zeros(5, 5);
  auto c = Multiply(z, z);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->nnz(), 0);
}

// ----------------------------------------------------------------- sketch

TEST(Coverage, SketchOfEmptyMatrix) {
  auto sketch = MncSketch::FromMatrix(Matrix::Zeros(4, 4));
  EXPECT_DOUBLE_EQ(sketch->nnz, 0.0);
  auto product = SketchMultiply(*sketch, *sketch);
  EXPECT_DOUBLE_EQ(product->nnz, 0.0);
  EXPECT_DOUBLE_EQ(product->Sparsity(), 0.0);
}

TEST(Coverage, SketchUniformConsistency) {
  auto sketch = MncSketch::Uniform(100, 50, 0.1);
  EXPECT_NEAR(sketch->Sparsity(), 0.1, 1e-12);
  EXPECT_EQ(sketch->row_counts->size(), 100u);
  EXPECT_NEAR((*sketch->row_counts)[0], 5.0, 1e-12);
}

TEST(Coverage, SketchMultiplyBoundedBySize) {
  // The estimated nnz can never exceed the output size.
  auto a = MncSketch::Uniform(10, 10, 1.0);
  auto p = SketchMultiply(*a, *a);
  EXPECT_LE(p->nnz, 100.0 + 1e-9);
  EXPECT_GE(p->nnz, 99.0);  // dense x dense stays dense
}

// ------------------------------------------------------------------- lang

TEST(Coverage, DeeplyNestedExpressionParses) {
  std::string expr = "a";
  for (int i = 0; i < 40; ++i) expr = "(" + expr + " + a)";
  auto parsed = ParseExpression(expr);
  ASSERT_TRUE(parsed.ok());
}

TEST(Coverage, NumbersInScientificNotation) {
  auto parsed = ParseExpression("1e-6 + 2.5E+3 + .5");
  ASSERT_TRUE(parsed.ok());
}

TEST(Coverage, IdentifierWithDots) {
  // DML-style dotted names lex as one identifier.
  auto tokens = Tokenize("as.scalar");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "as.scalar");
}

// ------------------------------------------------------------------- plan

TEST(Coverage, InferShapesRejectsBadGeneratorDims) {
  DataCatalog catalog;
  auto program = CompileScript("A = ones(2, 2);\nB = eye(A);\n", catalog);
  EXPECT_FALSE(program.ok());
}

TEST(Coverage, TransposeOfScalarIsDropped) {
  DataCatalog catalog;
  auto program = CompileScript("s = 3;\nt_ = t(s);\n", catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const PlanNodePtr normalized =
      PushDownTransposes(program->statements[1].plan);
  // t() over a scalar vanishes; the scalar variable reference remains.
  EXPECT_EQ(normalized->op, PlanOp::kInput);
  EXPECT_EQ(normalized->name, "s");
}

TEST(Coverage, ChainWithGeneratorFactors) {
  DataCatalog catalog;
  auto program = CompileScript(
      "M = ones(4, 4);\ny = eye(4) %*% M %*% ones(4, 1);\n", catalog);
  ASSERT_TRUE(program.ok());
  auto d = DecomposeIntoBlocks(
      NormalizeForSearch(program->statements[1].plan));
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->blocks.size(), 1u);
  EXPECT_EQ(d->blocks[0].factors.size(), 3u);
  // Generators render as stable symbols.
  EXPECT_EQ(d->blocks[0].factors[0].base_symbol, "eye(4)");
}

TEST(Coverage, WindowKeySingleSymmetricFactor) {
  DataCatalog catalog;
  catalog.Register("S", Matrix::Identity(4));
  auto program = CompileScript("S = read(\"S\");\ny = t(S) %*% S;\n", catalog);
  ASSERT_TRUE(program.ok());
  auto d = DecomposeIntoBlocks(
      NormalizeForSearch(program->statements[1].plan));
  ASSERT_TRUE(d.ok());
  // Without a symmetry label, t(S) stays a transposed factor.
  EXPECT_TRUE(d->blocks[0].factors[0].transposed);
}

// ---------------------------------------------------------------- ledger

TEST(Coverage, BreakdownRendering) {
  TimeBreakdown b;
  b.computation_seconds = 1.5;
  b.transmission_seconds = 0.25;
  const std::string s = b.ToString();
  EXPECT_NE(s.find("compute=1.50s"), std::string::npos);
  EXPECT_NE(s.find("transmit=250.0ms"), std::string::npos);
}

// ------------------------------------------------------------- search/opt

TEST(Coverage, SearchSpaceOfScalarOnlyLoop) {
  DataCatalog catalog;
  auto program = CompileScript(
      "i = 0;\nwhile (i < 3) {\n  i = i + 1;\n}\n", catalog);
  ASSERT_TRUE(program.ok());
  const LoopStructure loop = FindLoop(*program);
  auto outputs = InlineLoopBody(loop.loop->body);
  ASSERT_TRUE(outputs.ok());
  auto space = BuildSearchSpace(*outputs, loop.loop_assigned, {});
  ASSERT_TRUE(space.ok());
  EXPECT_TRUE(space->blocks.empty());  // nothing matrix-valued
  EXPECT_TRUE(BlockWiseSearch(*space, nullptr).empty());
}

TEST(Coverage, OptimizerOnScalarOnlyProgramIsIdentityLike) {
  DataCatalog catalog;
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  auto run = RunScript(
      "i = 0;\nwhile (i < 5) {\n  i = i + 2;\n}\n", catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_DOUBLE_EQ(run->env.at("i").AsScalar().value(), 6.0);
}

TEST(Coverage, ForLoopProgramOptimizes) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 80;
  spec.cols = 8;
  spec.sparsity = 0.5;
  spec.seed = 17;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  const std::string script =
      "A = read(\"ds\");\nx = ones(8, 1);\n"
      "for (k in 1:4) {\n  x = x + 0.01 * (t(A) %*% (A %*% x));\n}\n";
  RunConfig reference;
  reference.optimizer = OptimizerKind::kAsWritten;
  auto expected = RunScript(script, catalog, reference);
  ASSERT_TRUE(expected.ok());
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  auto run = RunScript(script, catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->optimize.applied_lse, 0);  // A^T A hoists out of the for
  EXPECT_TRUE(run->env.at("x").AsMatrix().ApproxEquals(
      expected->env.at("x").AsMatrix(), 1e-8));
}

TEST(Coverage, RepeatedOptimizationIsDeterministic) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 100;
  spec.cols = 10;
  spec.sparsity = 0.4;
  spec.seed = 18;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.execute = false;
  const std::string script =
      "A = read(\"ds\");\nb = read(\"ds_b\");\nx = zeros(10, 1);\ni = 0;\n"
      "while (i < 5) {\n"
      "  x = x - 0.001 * (t(A) %*% (A %*% x) - t(A) %*% b);\n"
      "  i = i + 1;\n}\n";
  auto one = CompileOnly(script, catalog, config);
  auto two = CompileOnly(script, catalog, config);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(one->optimized_source, two->optimized_source);
}

// --------------------------------------------------------------- datasets

TEST(Coverage, AllPaperDatasetSpecsGenerate) {
  for (const DatasetSpec& spec : PaperDatasetSpecs()) {
    DatasetSpec small = spec;
    small.rows = std::min<int64_t>(spec.rows, 2000);
    const Matrix m = GenerateMatrix(small);
    EXPECT_EQ(m.rows(), small.rows);
    EXPECT_EQ(m.cols(), small.cols);
    EXPECT_GT(m.nnz(), 0);
  }
}

TEST(Coverage, ConvergenceConditionLoop) {
  // while (norm(g) > eps): a data-dependent trip count through the whole
  // pipeline — condition re-evaluated per iteration, optimizer applied.
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 200;
  spec.cols = 10;
  spec.sparsity = 0.5;
  spec.seed = 19;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  const std::string script =
      "A = read(\"ds\");\nb = read(\"ds_b\");\n"
      "x = zeros(10, 1);\n"
      "g = t(A) %*% (A %*% x) - t(A) %*% b;\n"
      "while (norm(g) > 0.0001) {\n"
      "  x = x - 0.001 * g;\n"
      "  g = t(A) %*% (A %*% x) - t(A) %*% b;\n"
      "}\n";
  for (OptimizerKind kind :
       {OptimizerKind::kAsWritten, OptimizerKind::kRemacAdaptive}) {
    RunConfig config;
    config.optimizer = kind;
    config.max_iterations = 2000;
    auto run = RunScript(script, catalog, config);
    ASSERT_TRUE(run.ok()) << OptimizerKindName(kind) << ": "
                          << run.status().ToString();
    // The loop exits by convergence, not by the cap.
    EXPECT_LT(run->env.at("g").AsMatrix().ToDense().ApproxEquals(
                  Matrix::Zeros(10, 1).ToDense(), 1e-3)
                  ? 0.0
                  : FrobeniusNorm(run->env.at("g").AsMatrix()),
              0.0001 + 1e-12)
        << OptimizerKindName(kind);
  }
}

TEST(Coverage, ZipfSpecNaming) {
  EXPECT_EQ(ZipfSpec(1.4).name, "zipf-1.4");
  EXPECT_EQ(ZipfSpec(0.0).name, "zipf-0.0");
}

}  // namespace
}  // namespace remac
