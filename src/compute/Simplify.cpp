//===- compute/Simplify.cpp - Algebraic simplification -------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "compute/Simplify.h"

using namespace stencilflow;
using namespace stencilflow::compute;

namespace {

bool isLiteral(const Expr &E, double Value) {
  const auto *Lit = dyn_cast<LiteralExpr>(&E);
  return Lit && Lit->value() == Value;
}

/// Structural equality of small trees (used for `cond ? a : a`).
bool sameExpr(const Expr &A, const Expr &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case ExprKind::Literal:
    return cast<LiteralExpr>(&A)->value() == cast<LiteralExpr>(&B)->value();
  case ExprKind::LocalRef:
    return cast<LocalRefExpr>(&A)->name() == cast<LocalRefExpr>(&B)->name();
  case ExprKind::FieldAccess: {
    const auto *FA = cast<FieldAccessExpr>(&A);
    const auto *FB = cast<FieldAccessExpr>(&B);
    return FA->field() == FB->field() && FA->offset() == FB->offset();
  }
  case ExprKind::Unary: {
    const auto *UA = cast<UnaryExpr>(&A);
    const auto *UB = cast<UnaryExpr>(&B);
    return UA->op() == UB->op() && sameExpr(UA->operand(), UB->operand());
  }
  case ExprKind::Binary: {
    const auto *BA = cast<BinaryExpr>(&A);
    const auto *BB = cast<BinaryExpr>(&B);
    return BA->op() == BB->op() && sameExpr(BA->lhs(), BB->lhs()) &&
           sameExpr(BA->rhs(), BB->rhs());
  }
  case ExprKind::Call: {
    const auto *CA = cast<CallExpr>(&A);
    const auto *CB = cast<CallExpr>(&B);
    if (CA->intrinsic() != CB->intrinsic() ||
        CA->args().size() != CB->args().size())
      return false;
    for (size_t Arg = 0; Arg != CA->args().size(); ++Arg)
      if (!sameExpr(*CA->args()[Arg], *CB->args()[Arg]))
        return false;
    return true;
  }
  case ExprKind::Select: {
    const auto *SA = cast<SelectExpr>(&A);
    const auto *SB = cast<SelectExpr>(&B);
    return sameExpr(SA->condition(), SB->condition()) &&
           sameExpr(SA->trueValue(), SB->trueValue()) &&
           sameExpr(SA->falseValue(), SB->falseValue());
  }
  }
  return false;
}

/// Applies one local rewrite to \p E if a rule matches.
bool rewriteOnce(ExprPtr &E) {
  if (auto *Binary = dyn_cast<BinaryExpr>(E.get())) {
    ExprPtr *Kept = nullptr;
    // Extract mutable child handles via the visitor.
    ExprPtr *LHS = nullptr, *RHS = nullptr;
    Binary->visitChildrenMutable([&](ExprPtr &Child) {
      if (!LHS)
        LHS = &Child;
      else
        RHS = &Child;
    });
    switch (Binary->op()) {
    case BinaryOp::Add:
      if (isLiteral(**LHS, 0.0))
        Kept = RHS;
      else if (isLiteral(**RHS, 0.0))
        Kept = LHS;
      break;
    case BinaryOp::Sub:
      if (isLiteral(**RHS, 0.0))
        Kept = LHS;
      break;
    case BinaryOp::Mul:
      if (isLiteral(**LHS, 1.0))
        Kept = RHS;
      else if (isLiteral(**RHS, 1.0))
        Kept = LHS;
      else if (isLiteral(**LHS, 0.0) || isLiteral(**RHS, 0.0)) {
        E = std::make_unique<LiteralExpr>(0.0);
        return true;
      }
      break;
    case BinaryOp::Div:
      if (isLiteral(**RHS, 1.0))
        Kept = LHS;
      break;
    default:
      break;
    }
    if (Kept) {
      E = std::move(*Kept);
      return true;
    }
    return false;
  }

  if (auto *Unary = dyn_cast<UnaryExpr>(E.get())) {
    ExprPtr *Operand = nullptr;
    Unary->visitChildrenMutable([&](ExprPtr &Child) { Operand = &Child; });
    if (auto *Inner = dyn_cast<UnaryExpr>(Operand->get())) {
      if (Inner->op() == Unary->op()) {
        // -(-x) -> x; !(!x) would change 2.0 to 1.0, so only fold Neg.
        if (Unary->op() == UnaryOp::Neg) {
          ExprPtr *InnerOperand = nullptr;
          Inner->visitChildrenMutable(
              [&](ExprPtr &Child) { InnerOperand = &Child; });
          E = std::move(*InnerOperand);
          return true;
        }
      }
    }
    return false;
  }

  if (auto *Select = dyn_cast<SelectExpr>(E.get())) {
    ExprPtr *Cond = nullptr, *TrueValue = nullptr, *FalseValue = nullptr;
    Select->visitChildrenMutable([&](ExprPtr &Child) {
      if (!Cond)
        Cond = &Child;
      else if (!TrueValue)
        TrueValue = &Child;
      else
        FalseValue = &Child;
    });
    if (const auto *Lit = dyn_cast<LiteralExpr>(Cond->get())) {
      E = Lit->value() != 0.0 ? std::move(*TrueValue)
                              : std::move(*FalseValue);
      return true;
    }
    if (sameExpr(**TrueValue, **FalseValue)) {
      E = std::move(*TrueValue);
      return true;
    }
    return false;
  }
  return false;
}

} // namespace

int compute::simplifyExpr(ExprPtr &Root) {
  int Rewrites = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    walkExprMutable(Root, [&](ExprPtr &E) {
      while (rewriteOnce(E)) {
        ++Rewrites;
        Changed = true;
      }
    });
  }
  return Rewrites;
}

int compute::simplifyCode(StencilCode &Code) {
  int Rewrites = 0;
  for (Assignment &Stmt : Code.statements())
    Rewrites += simplifyExpr(Stmt.Value);
  return Rewrites;
}

int compute::simplifyNodeCode(StencilNode &Node) {
  return simplifyCode(Node.Code);
}
