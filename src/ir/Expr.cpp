//===- ir/Expr.cpp - Stencil computation AST --------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include "support/StringUtils.h"

#include <charconv>
#include <cmath>

using namespace stencilflow;

// Out-of-line virtual anchor (see LLVM coding standards).
Expr::~Expr() = default;

void stencilflow::walkExpr(const Expr &Root,
                           const std::function<void(const Expr &)> &Fn) {
  Fn(Root);
  Root.visitChildren(
      [&](const Expr &Child) { walkExpr(Child, Fn); });
}

void stencilflow::walkExprMutable(ExprPtr &Root,
                                  const std::function<void(ExprPtr &)> &Fn) {
  Root->visitChildrenMutable(
      [&](ExprPtr &Child) { walkExprMutable(Child, Fn); });
  Fn(Root);
}

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

ExprPtr LiteralExpr::clone() const {
  return std::make_unique<LiteralExpr>(Value);
}

ExprPtr FieldAccessExpr::clone() const {
  return std::make_unique<FieldAccessExpr>(Field, Off);
}

ExprPtr LocalRefExpr::clone() const {
  return std::make_unique<LocalRefExpr>(Name);
}

ExprPtr UnaryExpr::clone() const {
  return std::make_unique<UnaryExpr>(Op, Operand->clone());
}

ExprPtr BinaryExpr::clone() const {
  return std::make_unique<BinaryExpr>(Op, LHS->clone(), RHS->clone());
}

ExprPtr CallExpr::clone() const {
  std::vector<ExprPtr> ClonedArgs;
  ClonedArgs.reserve(Args.size());
  for (const ExprPtr &Arg : Args)
    ClonedArgs.push_back(Arg->clone());
  return std::make_unique<CallExpr>(Fn, std::move(ClonedArgs));
}

ExprPtr SelectExpr::clone() const {
  return std::make_unique<SelectExpr>(Condition->clone(), TrueValue->clone(),
                                      FalseValue->clone());
}

//===----------------------------------------------------------------------===//
// Code blocks
//===----------------------------------------------------------------------===//

StencilCode::StencilCode(std::vector<Assignment> Statements) {
  CodeInstance Plain;
  // Made mutable: statements() may write it while this block owns it.
  Plain.Body = std::make_shared<std::vector<Assignment>>(std::move(Statements));
  Instances.push_back(std::move(Plain));
}

size_t StencilCode::size() const {
  size_t Count = 0;
  for (const CodeInstance &Instance : Instances)
    Count += Instance.Body->size();
  return Count;
}

bool StencilCode::finalTargetIs(std::string_view Name) const {
  if (Instances.empty() || Instances.back().Body->empty())
    return false;
  const CodeInstance &Last = Instances.back();
  const std::string &Target = Last.Body->back().Target;
  return Name.size() == Last.Prefix.size() + Target.size() &&
         Name.substr(0, Last.Prefix.size()) == Last.Prefix &&
         Name.substr(Last.Prefix.size()) == Target;
}

bool StencilCode::isPlain() const {
  return Instances.size() == 1 && Instances[0].Prefix.empty() &&
         Instances[0].Shifts.empty() && Instances[0].Inlined.empty();
}

std::shared_ptr<const std::vector<Assignment>>
StencilCode::materialize() const {
  if (isPlain())
    return Instances[0].Body;
  auto Statements = std::make_shared<std::vector<Assignment>>();
  Statements->reserve(size());
  for (const CodeInstance &Instance : Instances) {
    for (const Assignment &Stmt : *Instance.Body) {
      Assignment Copy = Stmt.clone();
      Copy.Target = Instance.Prefix + Copy.Target;
      walkExprMutable(Copy.Value, [&](ExprPtr &E) {
        if (auto *Ref = dyn_cast<LocalRefExpr>(E.get())) {
          Ref->setName(Instance.Prefix + Ref->name());
          return;
        }
        auto *Access = dyn_cast<FieldAccessExpr>(E.get());
        if (!Access)
          return;
        if (const CodeInstance::InlinedRead *Read =
                Instance.inlinedRead(Access->field(), Access->offset())) {
          const CodeInstance &Source = Instances[Read->Source];
          E = std::make_unique<LocalRefExpr>(Source.Prefix +
                                             Source.Body->back().Target);
          return;
        }
        Access->setOffset(
            Instance.shifted(Access->field(), Access->offset()));
      });
      Statements->push_back(std::move(Copy));
    }
  }
  return Statements;
}

std::vector<Assignment> &StencilCode::statements() {
  if (!isPlain()) {
    CodeInstance Only;
    Only.Body = materialize();
    Instances.assign(1, std::move(Only));
  } else if (Instances[0].Body.use_count() != 1) {
    // Shared with another block: copy before writing.
    auto Copy = std::make_shared<std::vector<Assignment>>();
    Copy->reserve(Instances[0].Body->size());
    for (const Assignment &Stmt : *Instances[0].Body)
      Copy->push_back(Stmt.clone());
    Instances[0].Body = std::move(Copy);
  }
  // Every body is made as a mutable vector, and this one is owned by this
  // block alone.
  return const_cast<std::vector<Assignment> &>(*Instances[0].Body);
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string_view stencilflow::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "<invalid>";
}

std::string_view stencilflow::intrinsicName(Intrinsic Fn) {
  switch (Fn) {
  case Intrinsic::Sqrt:
    return "sqrt";
  case Intrinsic::Abs:
    return "fabs";
  case Intrinsic::Exp:
    return "exp";
  case Intrinsic::Log:
    return "log";
  case Intrinsic::Sin:
    return "sin";
  case Intrinsic::Cos:
    return "cos";
  case Intrinsic::Tanh:
    return "tanh";
  case Intrinsic::Floor:
    return "floor";
  case Intrinsic::Ceil:
    return "ceil";
  case Intrinsic::Min:
    return "min";
  case Intrinsic::Max:
    return "max";
  case Intrinsic::Pow:
    return "pow";
  }
  return "<invalid>";
}

unsigned stencilflow::intrinsicArity(Intrinsic Fn) {
  switch (Fn) {
  case Intrinsic::Min:
  case Intrinsic::Max:
  case Intrinsic::Pow:
    return 2;
  default:
    return 1;
  }
}

Expected<Intrinsic> stencilflow::parseIntrinsic(std::string_view Name) {
  if (Name == "sqrt")
    return Intrinsic::Sqrt;
  if (Name == "fabs" || Name == "abs")
    return Intrinsic::Abs;
  if (Name == "exp")
    return Intrinsic::Exp;
  if (Name == "log")
    return Intrinsic::Log;
  if (Name == "sin")
    return Intrinsic::Sin;
  if (Name == "cos")
    return Intrinsic::Cos;
  if (Name == "tanh")
    return Intrinsic::Tanh;
  if (Name == "floor")
    return Intrinsic::Floor;
  if (Name == "ceil")
    return Intrinsic::Ceil;
  if (Name == "min" || Name == "fmin")
    return Intrinsic::Min;
  if (Name == "max" || Name == "fmax")
    return Intrinsic::Max;
  if (Name == "pow")
    return Intrinsic::Pow;
  return makeError("unknown function '" + std::string(Name) +
                   "' (stencil code may only call standard math functions)");
}

std::string LiteralExpr::toString() const {
  if (Value == std::floor(Value) && std::fabs(Value) < 1e15)
    return formatString("%.1f", Value);
  // The shortest text that parses back to the same double, so a program
  // survives a trip through its own printed form.
  char Text[32];
  char *End = std::to_chars(Text, Text + sizeof(Text), Value).ptr;
  return std::string(Text, End);
}

std::string FieldAccessExpr::toString() const {
  if (Off.empty())
    return Field;
  return Field + offsetToString(Off);
}

std::string LocalRefExpr::toString() const { return Name; }

std::string UnaryExpr::toString() const {
  const char *Spelling = Op == UnaryOp::Neg ? "-" : "!";
  return formatString("(%s%s)", Spelling, Operand->toString().c_str());
}

std::string BinaryExpr::toString() const {
  return formatString("(%s %s %s)", LHS->toString().c_str(),
                      std::string(binaryOpSpelling(Op)).c_str(),
                      RHS->toString().c_str());
}

std::string CallExpr::toString() const {
  std::string Result(intrinsicName(Fn));
  Result += "(";
  for (size_t I = 0, E = Args.size(); I != E; ++I) {
    if (I != 0)
      Result += ", ";
    Result += Args[I]->toString();
  }
  return Result + ")";
}

std::string SelectExpr::toString() const {
  return formatString("(%s ? %s : %s)", Condition->toString().c_str(),
                      TrueValue->toString().c_str(),
                      FalseValue->toString().c_str());
}

std::string StencilCode::toString() const {
  std::string Result;
  std::shared_ptr<const std::vector<Assignment>> Statements = materialize();
  for (const Assignment &Stmt : *Statements) {
    Result += Stmt.Target;
    Result += " = ";
    Result += Stmt.Value->toString();
    Result += ";\n";
  }
  return Result;
}
