// Tests for the extended operator set (exp/log/rowSums/colSums/diag/
// trace), Matrix Market I/O, and the algorithms that use them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "io/matrix_market.h"
#include "plan/plan_builder.h"
#include "runtime/program_runner.h"

namespace remac {
namespace {

DataCatalog OpsCatalog() {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 150;
  spec.cols = 10;
  spec.sparsity = 0.5;
  spec.seed = 77;
  EXPECT_TRUE(RegisterDataset(&catalog, spec).ok());
  return catalog;
}

Result<RtValue> RunVar(const std::string& script, const std::string& var,
                    const DataCatalog& catalog) {
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  config.max_iterations = 10;
  auto run = RunScript(script, catalog, config);
  if (!run.ok()) return run.status();
  auto it = run->env.find(var);
  if (it == run->env.end()) return Status::NotFound(var);
  return it->second;
}

TEST(Ops, ExpAndLog) {
  const DataCatalog catalog = OpsCatalog();
  auto v = RunVar("M = ones(2, 2);\nE = exp(M);\nL = log(exp(M));\n", "L",
               catalog);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_NEAR(v->AsMatrix().At(0, 0), 1.0, 1e-12);
  auto e = RunVar("Z = zeros(2, 2);\nE = exp(Z);\n", "E", catalog);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->AsMatrix().At(1, 1), 1.0, 1e-12);  // exp(0) densifies
}

TEST(Ops, RowAndColSums) {
  const DataCatalog catalog = OpsCatalog();
  auto r = RunVar("M = ones(3, 4);\ns = rowSums(M);\n", "s", catalog);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsMatrix().rows(), 3);
  EXPECT_EQ(r->AsMatrix().cols(), 1);
  EXPECT_DOUBLE_EQ(r->AsMatrix().At(2, 0), 4.0);
  auto c = RunVar("M = ones(3, 4);\ns = colSums(M);\n", "s", catalog);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->AsMatrix().rows(), 1);
  EXPECT_DOUBLE_EQ(c->AsMatrix().At(0, 3), 3.0);
}

TEST(Ops, DiagBothDirections) {
  const DataCatalog catalog = OpsCatalog();
  auto d = RunVar("v = ones(3, 1);\nD = diag(2 * v);\n", "D", catalog);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->AsMatrix().rows(), 3);
  EXPECT_EQ(d->AsMatrix().cols(), 3);
  EXPECT_DOUBLE_EQ(d->AsMatrix().At(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(d->AsMatrix().At(0, 1), 0.0);
  auto v = RunVar("E = eye(4);\nd = diag(3 * E);\n", "d", catalog);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsMatrix().rows(), 4);
  EXPECT_EQ(v->AsMatrix().cols(), 1);
  EXPECT_DOUBLE_EQ(v->AsMatrix().At(2, 0), 3.0);
}

TEST(Ops, Trace) {
  const DataCatalog catalog = OpsCatalog();
  auto t = RunVar("E = eye(5);\ns = trace(2 * E);\n", "s", catalog);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->AsScalar().value(), 10.0);
}

TEST(Ops, SigmoidViaExp) {
  const DataCatalog catalog = OpsCatalog();
  auto p = RunVar("Z = zeros(2, 1);\np = 1 / (1 + exp(-Z));\n", "p", catalog);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_NEAR(p->AsMatrix().At(0, 0), 0.5, 1e-12);
}

TEST(Algorithms, LogisticRegressionOptimizedMatches) {
  const DataCatalog catalog = OpsCatalog();
  const std::string script = LogisticRegressionScript("ds", 3);
  RunConfig reference;
  reference.optimizer = OptimizerKind::kAsWritten;
  reference.max_iterations = 3;
  auto expected = RunScript(script, catalog, reference);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.max_iterations = 3;
  auto run = RunScript(script, catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->env.at("x").AsMatrix().ApproxEquals(
      expected->env.at("x").AsMatrix(), 1e-7));
}

TEST(Algorithms, RidgeRegressionHoistsLoopConstants) {
  const DataCatalog catalog = OpsCatalog();
  const std::string script = RidgeRegressionScript("ds", 3);
  RunConfig config;
  config.optimizer = OptimizerKind::kRemacAdaptive;
  config.max_iterations = 3;
  auto run = RunScript(script, catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->optimize.applied_lse, 0);  // A^T b at least
  RunConfig reference;
  reference.optimizer = OptimizerKind::kAsWritten;
  reference.max_iterations = 3;
  auto expected = RunScript(script, catalog, reference);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(run->env.at("x").AsMatrix().ApproxEquals(
      expected->env.at("x").AsMatrix(), 1e-7));
}

TEST(MatrixMarket, CoordinateRoundTrip) {
  auto m = CsrMatrix::FromTriplets(
      4, 3, {{0, 0, 1.5}, {2, 1, -2.25}, {3, 2, 1e-7}});
  const Matrix original = Matrix::WrapCsr(std::move(m));
  auto text = FormatMatrixMarket(original);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseMatrixMarket(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->ApproxEquals(original, 1e-15));
}

TEST(MatrixMarket, ArrayRoundTrip) {
  DenseMatrix d(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix original = Matrix::WrapDense(std::move(d));
  auto text = FormatMatrixMarket(original, /*dense=*/true);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseMatrixMarket(text.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ApproxEquals(original, 1e-15));
}

TEST(MatrixMarket, SymmetricMirrored) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% a comment\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n";
  auto parsed = ParseMatrixMarket(content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->At(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(parsed->At(0, 1), 5.0);  // mirrored
  EXPECT_DOUBLE_EQ(parsed->At(2, 2), 7.0);
  EXPECT_EQ(parsed->nnz(), 3);
}

TEST(MatrixMarket, PatternEntriesGetOnes) {
  const std::string content =
      "%%MatrixMarket matrix pattern real general\n";  // malformed on purpose
  EXPECT_FALSE(ParseMatrixMarket(content).ok());
  const std::string ok_content =
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 2\n";
  auto parsed = ParseMatrixMarket(ok_content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->At(0, 1), 1.0);
}

TEST(MatrixMarket, CommentsAndBlanksInterleavedWithData) {
  // The MatrixMarket spec allows '%' comments and blank lines anywhere
  // after the banner, including between coordinate entries.
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "% leading comment\n"
      "\n"
      "3 3 3\n"
      "1 1 1.0\n"
      "\n"
      "% mid-data comment\n"
      "2 2 2.0\n"
      "   \n"
      "3 3 3.0\n"
      "% trailing comment\n";
  auto parsed = ParseMatrixMarket(content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(parsed->At(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(parsed->At(2, 2), 3.0);
  EXPECT_EQ(parsed->nnz(), 3);
}

TEST(MatrixMarket, RejectsBadSizeLines) {
  const std::string array = "%%MatrixMarket matrix array real general\n";
  const std::string coord = "%%MatrixMarket matrix coordinate real general\n";
  struct Case {
    std::string content;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      // Negative rows, cols or nnz.
      {array + "-1 5\n", StatusCode::kParseError},
      {array + "5 -1\n", StatusCode::kParseError},
      {coord + "3 3 -2\n", StatusCode::kParseError},
      {coord + "-3 3 1\n1 1 1\n", StatusCode::kParseError},
      // rows * cols overflows int64.
      {array + "4000000000 4000000000\n1\n", StatusCode::kOutOfRange},
      {coord + "9223372036854775807 2 1\n1 1 1\n", StatusCode::kOutOfRange},
      // More coordinate entries than cells.
      {coord + "2 2 5\n1 1 1\n", StatusCode::kOutOfRange},
      // Huge dimensions over a two-value body: nothing may be sized from
      // the header (an 8e18-byte array, a 24 TB triplet reserve).
      {array + "1000000000 1000000000\n1\n2\n", StatusCode::kParseError},
      {coord + "1000000 1000000 1000000000000\n1 1 1\n2 2 2\n",
       StatusCode::kParseError},
      // Dimensions above kMaxMatrixMarketDim: the CSR row pointers are
      // sized from rows, 8 TB for the first header.
      {coord + "1000000000000 1 2\n1 1 1\n2 1 2\n", StatusCode::kOutOfRange},
      {coord + std::to_string(kMaxMatrixMarketDim + 1) + " 1 1\n1 1 1\n",
       StatusCode::kOutOfRange},
      {coord + "1 " + std::to_string(kMaxMatrixMarketDim + 1) + " 1\n1 1 1\n",
       StatusCode::kOutOfRange},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.content);
    const Result<Matrix> parsed = ParseMatrixMarket(c.content);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), c.code) << parsed.status().ToString();
  }
  // The bounds admit what they must: an empty matrix, a full one.
  ASSERT_TRUE(ParseMatrixMarket(array + "0 0\n").ok());
  ASSERT_TRUE(ParseMatrixMarket(coord + "0 7 0\n").ok());
  ASSERT_TRUE(ParseMatrixMarket(array + "2 1\n1 2").ok());
  ASSERT_TRUE(ParseMatrixMarket(coord + "1 2 2\n1 1 1\n1 2 2").ok());
  ASSERT_TRUE(ParseMatrixMarket(
                  coord + "1 " + std::to_string(kMaxMatrixMarketDim) +
                  " 1\n1 1 1\n")
                  .ok());
}

TEST(MatrixMarket, SymmetricPatternWithInterleavedComments) {
  const std::string content =
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "% off-diagonal, mirrored\n"
      "2 1\n"
      "\n"
      "3 3\n";
  auto parsed = ParseMatrixMarket(content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(parsed->At(0, 1), 1.0);  // mirrored
  EXPECT_DOUBLE_EQ(parsed->At(2, 2), 1.0);  // diagonal not duplicated
  EXPECT_EQ(parsed->nnz(), 3);
}

TEST(MatrixMarket, HeaderAndCommentsOnlyReportsMissingSizeLine) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "% only comments follow\n"
      "\n"
      "% nothing else\n";
  auto parsed = ParseMatrixMarket(content);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("missing size line"),
            std::string::npos);
}

TEST(MatrixMarket, Errors) {
  EXPECT_FALSE(ParseMatrixMarket("").ok());
  EXPECT_FALSE(ParseMatrixMarket("garbage\n1 1 1\n").ok());
  EXPECT_FALSE(ParseMatrixMarket("%%MatrixMarket matrix coordinate real "
                                 "general\n2 2 1\n5 5 1.0\n")
                   .ok());  // out of bounds
  EXPECT_FALSE(ParseMatrixMarket("%%MatrixMarket matrix coordinate real "
                                 "general\n2 2 3\n1 1 1.0\n")
                   .ok());  // truncated
  EXPECT_EQ(ReadMatrixMarket("/nonexistent/file.mtx").status().code(),
            StatusCode::kNotFound);
}

TEST(MatrixMarket, FileRoundTrip) {
  const std::string path = "/tmp/remac_mm_test.mtx";
  const Matrix original = Matrix::Identity(5);
  ASSERT_TRUE(WriteMatrixMarket(path, original).ok());
  auto parsed = ReadMatrixMarket(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ApproxEquals(original));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace remac
