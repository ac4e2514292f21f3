//===- frontend/Parser.cpp - Stencil DSL parser -----------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/StringUtils.h"

#include <cmath>
#include <limits>

using namespace stencilflow;

namespace {

/// Recursive-descent parser over a token stream.
class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  Expected<StencilCode> parseCode() {
    std::vector<Assignment> Statements;
    while (!at(TokenKind::EndOfInput)) {
      Expected<Assignment> Stmt = parseStatement();
      if (!Stmt)
        return Stmt.takeError();
      Statements.push_back(std::move(*Stmt));
    }
    if (Statements.empty())
      return makeError("stencil code contains no statements");
    return StencilCode(std::move(Statements));
  }

  Expected<ExprPtr> parseSingleExpression() {
    Expected<ExprPtr> Result = parseExpr();
    if (!Result)
      return Result;
    if (!at(TokenKind::EndOfInput))
      return error("trailing tokens after expression");
    return Result;
  }

private:
  std::vector<Token> Tokens;
  size_t Pos = 0;

  const Token &current() const { return Tokens[Pos]; }
  bool at(TokenKind Kind) const { return current().Kind == Kind; }

  bool consume(TokenKind Kind) {
    if (!at(Kind))
      return false;
    ++Pos;
    return true;
  }

  Error error(const std::string &Message) const {
    return error(ErrorCode::Unknown, Message);
  }

  Error error(ErrorCode Code, const std::string &Message) const {
    return makeError(Code, formatString("%u:%u: %s", current().Line,
                                        current().Column, Message.c_str()));
  }

  Error expectedError(TokenKind Kind) const {
    return error(formatString("expected %s, got %s",
                              std::string(tokenKindName(Kind)).c_str(),
                              std::string(tokenKindName(current().Kind))
                                  .c_str()));
  }

  Expected<Assignment> parseStatement() {
    if (!at(TokenKind::Identifier))
      return error("expected an assignment statement");
    std::string Target = current().Text;
    ++Pos;
    if (!consume(TokenKind::Assign))
      return expectedError(TokenKind::Assign);
    Expected<ExprPtr> Value = parseExpr();
    if (!Value)
      return Value.takeError();
    if (!consume(TokenKind::Semicolon))
      return expectedError(TokenKind::Semicolon);
    return Assignment{std::move(Target), Value.takeValue()};
  }

  Expected<ExprPtr> parseExpr() {
    Expected<ExprPtr> Cond = parseOr();
    if (!Cond)
      return Cond;
    if (!consume(TokenKind::Question))
      return Cond;
    Expected<ExprPtr> TrueValue = parseExpr();
    if (!TrueValue)
      return TrueValue;
    if (!consume(TokenKind::Colon))
      return expectedError(TokenKind::Colon);
    Expected<ExprPtr> FalseValue = parseExpr();
    if (!FalseValue)
      return FalseValue;
    return ExprPtr(std::make_unique<SelectExpr>(
        Cond.takeValue(), TrueValue.takeValue(), FalseValue.takeValue()));
  }

  Expected<ExprPtr> parseOr() {
    Expected<ExprPtr> LHS = parseAnd();
    if (!LHS)
      return LHS;
    while (consume(TokenKind::PipePipe)) {
      Expected<ExprPtr> RHS = parseAnd();
      if (!RHS)
        return RHS;
      LHS = ExprPtr(std::make_unique<BinaryExpr>(BinaryOp::Or, LHS.takeValue(),
                                                 RHS.takeValue()));
    }
    return LHS;
  }

  Expected<ExprPtr> parseAnd() {
    Expected<ExprPtr> LHS = parseCmp();
    if (!LHS)
      return LHS;
    while (consume(TokenKind::AmpAmp)) {
      Expected<ExprPtr> RHS = parseCmp();
      if (!RHS)
        return RHS;
      LHS = ExprPtr(std::make_unique<BinaryExpr>(BinaryOp::And,
                                                 LHS.takeValue(),
                                                 RHS.takeValue()));
    }
    return LHS;
  }

  Expected<ExprPtr> parseCmp() {
    Expected<ExprPtr> LHS = parseAdd();
    if (!LHS)
      return LHS;
    BinaryOp Op;
    switch (current().Kind) {
    case TokenKind::Less:
      Op = BinaryOp::Lt;
      break;
    case TokenKind::LessEqual:
      Op = BinaryOp::Le;
      break;
    case TokenKind::Greater:
      Op = BinaryOp::Gt;
      break;
    case TokenKind::GreaterEqual:
      Op = BinaryOp::Ge;
      break;
    case TokenKind::EqualEqual:
      Op = BinaryOp::Eq;
      break;
    case TokenKind::NotEqual:
      Op = BinaryOp::Ne;
      break;
    default:
      return LHS;
    }
    ++Pos;
    Expected<ExprPtr> RHS = parseAdd();
    if (!RHS)
      return RHS;
    return ExprPtr(std::make_unique<BinaryExpr>(Op, LHS.takeValue(),
                                                RHS.takeValue()));
  }

  Expected<ExprPtr> parseAdd() {
    Expected<ExprPtr> LHS = parseMul();
    if (!LHS)
      return LHS;
    while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
      BinaryOp Op = at(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
      ++Pos;
      Expected<ExprPtr> RHS = parseMul();
      if (!RHS)
        return RHS;
      LHS = ExprPtr(std::make_unique<BinaryExpr>(Op, LHS.takeValue(),
                                                 RHS.takeValue()));
    }
    return LHS;
  }

  Expected<ExprPtr> parseMul() {
    Expected<ExprPtr> LHS = parseUnary();
    if (!LHS)
      return LHS;
    while (at(TokenKind::Star) || at(TokenKind::Slash)) {
      BinaryOp Op = at(TokenKind::Star) ? BinaryOp::Mul : BinaryOp::Div;
      ++Pos;
      Expected<ExprPtr> RHS = parseUnary();
      if (!RHS)
        return RHS;
      LHS = ExprPtr(std::make_unique<BinaryExpr>(Op, LHS.takeValue(),
                                                 RHS.takeValue()));
    }
    return LHS;
  }

  Expected<ExprPtr> parseUnary() {
    if (consume(TokenKind::Minus)) {
      Expected<ExprPtr> Operand = parseUnary();
      if (!Operand)
        return Operand;
      // Fold negation of literals immediately so "-4.0" is a literal.
      if (auto *Lit = dyn_cast<LiteralExpr>(Operand->get()))
        return ExprPtr(std::make_unique<LiteralExpr>(-Lit->value()));
      return ExprPtr(
          std::make_unique<UnaryExpr>(UnaryOp::Neg, Operand.takeValue()));
    }
    if (consume(TokenKind::Not)) {
      Expected<ExprPtr> Operand = parseUnary();
      if (!Operand)
        return Operand;
      return ExprPtr(
          std::make_unique<UnaryExpr>(UnaryOp::Not, Operand.takeValue()));
    }
    return parsePrimary();
  }

  Expected<ExprPtr> parsePrimary() {
    if (at(TokenKind::Number)) {
      double Value = current().NumberValue;
      ++Pos;
      return ExprPtr(std::make_unique<LiteralExpr>(Value));
    }
    if (consume(TokenKind::LeftParen)) {
      Expected<ExprPtr> Inner = parseExpr();
      if (!Inner)
        return Inner;
      if (!consume(TokenKind::RightParen))
        return expectedError(TokenKind::RightParen);
      return Inner;
    }
    if (!at(TokenKind::Identifier))
      return error(formatString(
          "expected an expression, got %s",
          std::string(tokenKindName(current().Kind)).c_str()));

    std::string Name = current().Text;
    ++Pos;

    if (consume(TokenKind::LeftBracket)) {
      Offset Off;
      while (true) {
        bool Negative = consume(TokenKind::Minus);
        if (!at(TokenKind::Number))
          return error("field offsets must be integer constants");
        double Value = current().NumberValue;
        if (Value != std::floor(Value))
          return error("field offsets must be integer constants");
        // Offsets hold at most three int components inline.
        if (Off.size() == Offset::MaxRank)
          return error(ErrorCode::InvalidInput,
                       formatString("field '%s' is accessed with more than "
                                    "%zu indices",
                                    Name.c_str(), Offset::MaxRank));
        if (std::fabs(Value) > std::numeric_limits<int>::max())
          return error(ErrorCode::InvalidInput,
                       "field offset component out of range");
        ++Pos;
        int Component = static_cast<int>(Value);
        Off.push_back(Negative ? -Component : Component);
        if (consume(TokenKind::RightBracket))
          break;
        if (!consume(TokenKind::Comma))
          return expectedError(TokenKind::Comma);
      }
      return ExprPtr(
          std::make_unique<FieldAccessExpr>(std::move(Name), std::move(Off)));
    }

    if (consume(TokenKind::LeftParen)) {
      Expected<Intrinsic> Fn = parseIntrinsic(Name);
      if (!Fn)
        return Fn.takeError();
      std::vector<ExprPtr> Args;
      if (!consume(TokenKind::RightParen)) {
        while (true) {
          Expected<ExprPtr> Arg = parseExpr();
          if (!Arg)
            return Arg;
          Args.push_back(Arg.takeValue());
          if (consume(TokenKind::RightParen))
            break;
          if (!consume(TokenKind::Comma))
            return expectedError(TokenKind::Comma);
        }
      }
      if (Args.size() != intrinsicArity(*Fn))
        return error(formatString("%s expects %u argument(s), got %zu",
                                  Name.c_str(), intrinsicArity(*Fn),
                                  Args.size()));
      return ExprPtr(std::make_unique<CallExpr>(*Fn, std::move(Args)));
    }

    // Bare identifier: resolved by semantic analysis to a local temporary
    // or to a field access.
    return ExprPtr(std::make_unique<LocalRefExpr>(std::move(Name)));
  }
};

} // namespace

Expected<StencilCode> stencilflow::parseStencilCode(std::string_view Source) {
  Expected<std::vector<Token>> Tokens = tokenize(Source);
  if (!Tokens)
    return Tokens.takeError();
  return Parser(Tokens.takeValue()).parseCode();
}

Expected<ExprPtr> stencilflow::parseExpression(std::string_view Source) {
  Expected<std::vector<Token>> Tokens = tokenize(Source);
  if (!Tokens)
    return Tokens.takeError();
  return Parser(Tokens.takeValue()).parseSingleExpression();
}
