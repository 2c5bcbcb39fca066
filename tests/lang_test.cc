#include <gtest/gtest.h>

#include <clocale>
#include <string>

#include "lang/lexer.h"
#include "lang/parser.h"

namespace remac {
namespace {

TEST(Lexer, BasicTokens) {
  auto tokens = Tokenize("x = a %*% t(B) + 2.5e-1;");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const auto& t : tokens.value()) kinds.push_back(t.kind);
  const std::vector<TokenKind> expected = {
      TokenKind::kIdentifier, TokenKind::kAssign, TokenKind::kIdentifier,
      TokenKind::kMatMul,     TokenKind::kIdentifier, TokenKind::kLParen,
      TokenKind::kIdentifier, TokenKind::kRParen, TokenKind::kPlus,
      TokenKind::kNumber,     TokenKind::kSemicolon, TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
  EXPECT_DOUBLE_EQ(tokens.value()[9].number, 0.25);
}

TEST(Lexer, CommentsAndWhitespace) {
  auto tokens = Tokenize("a = 1; # trailing comment\n# whole line\nb = 2;");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 9u);  // two statements + end
}

TEST(Lexer, Keywords) {
  auto tokens = Tokenize("while for in whiler");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kKeywordWhile);
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kKeywordFor);
  EXPECT_EQ(tokens.value()[2].kind, TokenKind::kKeywordIn);
  EXPECT_EQ(tokens.value()[3].kind, TokenKind::kIdentifier);  // not 'while'
}

TEST(Lexer, ComparisonOperators) {
  auto tokens = Tokenize("< <= > >= == !=");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kLess);
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kLessEq);
  EXPECT_EQ(tokens.value()[2].kind, TokenKind::kGreater);
  EXPECT_EQ(tokens.value()[3].kind, TokenKind::kGreaterEq);
  EXPECT_EQ(tokens.value()[4].kind, TokenKind::kEqual);
  EXPECT_EQ(tokens.value()[5].kind, TokenKind::kNotEqual);
}

TEST(Lexer, Strings) {
  auto tokens = Tokenize("A = read(\"my dataset\");");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[4].kind, TokenKind::kString);
  EXPECT_EQ(tokens.value()[4].text, "my dataset");
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(Tokenize("a % b").ok());          // stray %
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());          // stray !
  EXPECT_FALSE(Tokenize("a $ b").ok());
}

TEST(Lexer, TracksLineNumbers) {
  auto tokens = Tokenize("a = 1;\nb = 2;");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].line, 1);
  EXPECT_EQ(tokens.value()[4].line, 2);
}

TEST(Lexer, OutOfRangeNumberIsAnError) {
  auto tokens = Tokenize("a = 1e999;");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("out of range"),
            std::string::npos);
}

TEST(Lexer, NumbersParseUnderCommaDecimalLocale) {
  // strtod honors LC_NUMERIC: under a comma-decimal locale it reads
  // "0.5" as 0 and leaves ".5" behind. The lexer must be locale-proof.
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  const char* locale = nullptr;
  for (const char* candidate :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, candidate) != nullptr) {
      locale = candidate;
      break;
    }
  }
  if (locale == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  auto tokens = Tokenize("x = 0.5 + 2.5e-1;");
  std::setlocale(LC_NUMERIC, saved.c_str());
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  EXPECT_DOUBLE_EQ(tokens.value()[2].number, 0.5);
  EXPECT_DOUBLE_EQ(tokens.value()[4].number, 0.25);
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto expr = ParseExpression("a + b %*% c");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "(a + (b %*% c))");
}

TEST(Parser, LeftAssociativity) {
  auto expr = ParseExpression("a - b - c");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "((a - b) - c)");
  auto chain = ParseExpression("a %*% b %*% c");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.value()->ToString(), "((a %*% b) %*% c)");
}

TEST(Parser, ParenthesesOverride) {
  auto expr = ParseExpression("(a + b) %*% c");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "((a + b) %*% c)");
}

TEST(Parser, UnaryMinus) {
  auto expr = ParseExpression("-a %*% b");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "((-a) %*% b)");
  auto nested = ParseExpression("--x");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested.value()->ToString(), "(-(-x))");
}

TEST(Parser, CallsWithArguments) {
  auto expr = ParseExpression("zeros(ncol(A), 1)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "zeros(ncol(A), 1)");
}

TEST(Parser, Comparison) {
  auto expr = ParseExpression("i + 1 < n * 2");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->ToString(), "((i + 1) < (n * 2))");
}

TEST(Parser, WhileProgram) {
  auto program = ParseProgram(
      "i = 0;\nwhile (i < 10) {\n  x = x + 1;\n  i = i + 1;\n}\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->statements.size(), 2u);
  EXPECT_EQ(program->statements[1]->kind, StmtKind::kWhile);
  EXPECT_EQ(program->statements[1]->body.size(), 2u);
}

TEST(Parser, ForProgram) {
  auto program = ParseProgram("for (k in 1:5) { x = x %*% x; }");
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(program->statements.size(), 1u);
  const Stmt& loop = *program->statements[0];
  EXPECT_EQ(loop.kind, StmtKind::kFor);
  EXPECT_EQ(loop.loop_var, "k");
}

TEST(Parser, Errors) {
  EXPECT_FALSE(ParseProgram("x = ;").ok());
  EXPECT_FALSE(ParseProgram("x = 1").ok());              // missing ;
  EXPECT_FALSE(ParseProgram("while (x) x = 1;").ok());   // missing braces
  EXPECT_FALSE(ParseProgram("while (x { }").ok());
  EXPECT_FALSE(ParseProgram("= 3;").ok());
  EXPECT_FALSE(ParseExpression("a +").ok());
  EXPECT_FALSE(ParseExpression("f(a,").ok());
  EXPECT_FALSE(ParseExpression("a b").ok());  // trailing input
}

TEST(Parser, ErrorsMentionLine) {
  auto program = ParseProgram("a = 1;\nb = ;\n");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("line 2"), std::string::npos);
}

// Each of these used to overflow the stack (200 000 levels deep).
TEST(Parser, RejectsDeepNesting) {
  constexpr int kDeep = 200000;
  const std::string parens =
      "x = " + std::string(kDeep, '(') + "a" + std::string(kDeep, ')') + ";";
  const std::string negations = "x = " + std::string(kDeep, '-') + "a;";
  std::string sum = "x = a";
  for (int i = 1; i < kDeep; ++i) sum += " + a";
  sum += ";";
  std::string loops;
  for (int i = 0; i < kDeep; ++i) loops += "while (1) {";
  for (const std::string& script : {parens, negations, sum, loops}) {
    auto program = ParseProgram(script);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), StatusCode::kParseError);
    EXPECT_NE(program.status().message().find("nested deeper than 1000"),
              std::string::npos)
        << program.status().ToString();
  }
}

TEST(Parser, AcceptsModerateNesting) {
  constexpr int kDepth = 500;
  const std::string parens = "x = " + std::string(kDepth, '(') + "a" +
                             std::string(kDepth, ')') + ";";
  const std::string negations = "x = " + std::string(kDepth, '-') + "a;";
  std::string sum = "x = a";
  for (int i = 1; i < kDepth; ++i) sum += " + a";
  sum += ";";
  for (const std::string& script : {parens, negations, sum}) {
    auto program = ParseProgram(script);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_EQ(program->statements.size(), 1u);
  }
}

TEST(Ast, CloneIsDeep) {
  auto expr = ParseExpression("a %*% (b + c)").value();
  auto clone = expr->Clone();
  EXPECT_EQ(expr->ToString(), clone->ToString());
  clone->children[0]->name = "z";
  EXPECT_NE(expr->ToString(), clone->ToString());
}

TEST(Ast, ProgramRoundTripReparses) {
  const char* source =
      "A = read(\"ds\");\n"
      "x = zeros(ncol(A), 1);\n"
      "while ((i < 10)) {\n"
      "  x = (x + (A %*% x));\n"
      "}\n";
  auto program = ParseProgram(source);
  ASSERT_TRUE(program.ok());
  auto reparsed = ParseProgram(program->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(program->ToString(), reparsed->ToString());
}

}  // namespace
}  // namespace remac
