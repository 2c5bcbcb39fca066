#include "lang/parser.h"

#include "common/string_util.h"
#include "lang/lexer.h"

namespace remac {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> ParseProgram() {
    Program program;
    while (!Check(TokenKind::kEnd)) {
      auto stmt = ParseStmt();
      if (!stmt.ok()) return stmt.status();
      program.statements.push_back(std::move(stmt).value());
    }
    return program;
  }

  Result<std::unique_ptr<Expr>> ParseSingleExpression() {
    auto expr = ParseExpr();
    if (!expr.ok()) return expr.status();
    if (!Check(TokenKind::kEnd)) {
      return Error("trailing input after expression");
    }
    return expr;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }

  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }

  Status Error(const std::string& what) const {
    return Status::ParseError(StringFormat("line %d: %s (got %s '%s')",
                                           Peek().line, what.c_str(),
                                           TokenKindName(Peek().kind),
                                           Peek().text.c_str()));
  }

  Status Expect(TokenKind kind, const char* context) {
    if (Match(kind)) return Status::OK();
    return Error(StringFormat("expected %s %s", TokenKindName(kind), context));
  }

  /// Enters one nesting level: an expression, a unary minus, a chained
  /// binary operator or a block. Levels are released on success only; an
  /// error ends the parse.
  Status Nest() {
    if (++depth_ <= kMaxNesting) return Status::OK();
    return Error(StringFormat("nested deeper than %d levels", kMaxNesting));
  }

  Result<std::unique_ptr<Stmt>> ParseStmt() {
    if (Check(TokenKind::kKeywordWhile)) return ParseWhile();
    if (Check(TokenKind::kKeywordFor)) return ParseFor();
    if (!Check(TokenKind::kIdentifier)) {
      return Error("expected a statement");
    }
    const Token name = Advance();
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kAssign, "in assignment"));
    auto value = ParseExpr();
    if (!value.ok()) return value.status();
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kSemicolon, "after assignment"));
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kAssign;
    stmt->target = name.text;
    stmt->value = std::move(value).value();
    stmt->line = name.line;
    return stmt;
  }

  Result<std::unique_ptr<Stmt>> ParseWhile() {
    const Token kw = Advance();
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after 'while'"));
    auto condition = ParseExpr();
    if (!condition.ok()) return condition.status();
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after while condition"));
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kWhile;
    stmt->condition = std::move(condition).value();
    stmt->line = kw.line;
    REMAC_RETURN_NOT_OK(ParseBlock(&stmt->body));
    return stmt;
  }

  Result<std::unique_ptr<Stmt>> ParseFor() {
    const Token kw = Advance();
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after 'for'"));
    if (!Check(TokenKind::kIdentifier)) return Error("expected loop variable");
    const Token var = Advance();
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kKeywordIn, "in for header"));
    auto begin = ParseExpr();
    if (!begin.ok()) return begin.status();
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kColon, "in for range"));
    auto end = ParseExpr();
    if (!end.ok()) return end.status();
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after for header"));
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kFor;
    stmt->loop_var = var.text;
    stmt->range_begin = std::move(begin).value();
    stmt->range_end = std::move(end).value();
    stmt->line = kw.line;
    REMAC_RETURN_NOT_OK(ParseBlock(&stmt->body));
    return stmt;
  }

  Status ParseBlock(std::vector<std::unique_ptr<Stmt>>* body) {
    REMAC_RETURN_NOT_OK(Nest());
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kLBrace, "to open a block"));
    while (!Check(TokenKind::kRBrace)) {
      if (Check(TokenKind::kEnd)) return Error("unterminated block");
      auto stmt = ParseStmt();
      if (!stmt.ok()) return stmt.status();
      body->push_back(std::move(stmt).value());
    }
    REMAC_RETURN_NOT_OK(Expect(TokenKind::kRBrace, "to close a block"));
    --depth_;
    return Status::OK();
  }

  Result<std::unique_ptr<Expr>> ParseExpr() {
    REMAC_RETURN_NOT_OK(Nest());
    auto expr = ParseCmp();
    --depth_;
    return expr;
  }

  Result<std::unique_ptr<Expr>> ParseCmp() {
    auto lhs = ParseAddSub();
    if (!lhs.ok()) return lhs.status();
    BinaryOp op;
    if (Check(TokenKind::kLess)) op = BinaryOp::kLess;
    else if (Check(TokenKind::kGreater)) op = BinaryOp::kGreater;
    else if (Check(TokenKind::kLessEq)) op = BinaryOp::kLessEq;
    else if (Check(TokenKind::kGreaterEq)) op = BinaryOp::kGreaterEq;
    else if (Check(TokenKind::kEqual)) op = BinaryOp::kEqual;
    else if (Check(TokenKind::kNotEqual)) op = BinaryOp::kNotEqual;
    else return lhs;
    const int line = Advance().line;
    auto rhs = ParseAddSub();
    if (!rhs.ok()) return rhs.status();
    return Expr::Binary(op, std::move(lhs).value(), std::move(rhs).value(),
                        line);
  }

  Result<std::unique_ptr<Expr>> ParseAddSub() {
    auto lhs = ParseMulDiv();
    if (!lhs.ok()) return lhs.status();
    std::unique_ptr<Expr> acc = std::move(lhs).value();
    int levels = 0;  // each operator deepens the left-leaning tree
    for (;;) {
      BinaryOp op;
      if (Check(TokenKind::kPlus)) op = BinaryOp::kAdd;
      else if (Check(TokenKind::kMinus)) op = BinaryOp::kSub;
      else break;
      REMAC_RETURN_NOT_OK(Nest());
      ++levels;
      const int line = Advance().line;
      auto rhs = ParseMulDiv();
      if (!rhs.ok()) return rhs.status();
      acc = Expr::Binary(op, std::move(acc), std::move(rhs).value(), line);
    }
    depth_ -= levels;
    return acc;
  }

  Result<std::unique_ptr<Expr>> ParseMulDiv() {
    auto lhs = ParseUnary();
    if (!lhs.ok()) return lhs.status();
    std::unique_ptr<Expr> acc = std::move(lhs).value();
    int levels = 0;
    for (;;) {
      BinaryOp op;
      if (Check(TokenKind::kStar)) op = BinaryOp::kElemMul;
      else if (Check(TokenKind::kSlash)) op = BinaryOp::kDiv;
      else if (Check(TokenKind::kMatMul)) op = BinaryOp::kMatMul;
      else break;
      REMAC_RETURN_NOT_OK(Nest());
      ++levels;
      const int line = Advance().line;
      auto rhs = ParseUnary();
      if (!rhs.ok()) return rhs.status();
      acc = Expr::Binary(op, std::move(acc), std::move(rhs).value(), line);
    }
    depth_ -= levels;
    return acc;
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (Check(TokenKind::kMinus)) {
      REMAC_RETURN_NOT_OK(Nest());
      const int line = Advance().line;
      auto operand = ParseUnary();
      if (!operand.ok()) return operand.status();
      --depth_;
      return Expr::Neg(std::move(operand).value(), line);
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    if (Check(TokenKind::kNumber)) {
      const Token t = Advance();
      return Expr::Number(t.number, t.line);
    }
    if (Check(TokenKind::kString)) {
      const Token t = Advance();
      return Expr::Str(t.text, t.line);
    }
    if (Check(TokenKind::kLParen)) {
      Advance();
      auto inner = ParseExpr();
      if (!inner.ok()) return inner.status();
      REMAC_RETURN_NOT_OK(Expect(TokenKind::kRParen, "to close '('"));
      return inner;
    }
    if (Check(TokenKind::kIdentifier)) {
      const Token name = Advance();
      if (Match(TokenKind::kLParen)) {
        std::vector<std::unique_ptr<Expr>> args;
        if (!Check(TokenKind::kRParen)) {
          for (;;) {
            auto arg = ParseExpr();
            if (!arg.ok()) return arg.status();
            args.push_back(std::move(arg).value());
            if (!Match(TokenKind::kComma)) break;
          }
        }
        REMAC_RETURN_NOT_OK(Expect(TokenKind::kRParen, "to close call"));
        return Expr::Call(name.text, std::move(args), name.line);
      }
      return Expr::Ident(name.text, name.line);
    }
    return Error("expected an expression");
  }

  /// Deeper scripts would overflow the stack, here and in every
  /// recursive pass over the tree after parsing.
  static constexpr int kMaxNesting = 1000;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // nesting levels entered and not yet left
};

}  // namespace

Result<Program> ParseProgram(std::string_view source) {
  auto tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseProgram();
}

Result<std::unique_ptr<Expr>> ParseExpression(std::string_view source) {
  auto tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseSingleExpression();
}

}  // namespace remac
