//===- ir/Expr.h - Stencil computation AST -----------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax tree of a stencil's per-cell computation
/// (paper Sec. II). The code segment of a stencil node is restricted to be
/// analyzable: arithmetic, comparisons, standard math intrinsics, local
/// temporaries, and ternary conditionals (including data-dependent
/// branches). No external data structures or functions, so the critical
/// path and operation census can be computed exactly (Sec. IV-B, IX-A).
///
/// The hierarchy uses hand-rolled LLVM-style RTTI via support/Casting.h.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_IR_EXPR_H
#define STENCILFLOW_IR_EXPR_H

#include "ir/Shape.h"
#include "support/Casting.h"

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stencilflow {

class Expr;
/// Owning pointer to an expression node.
using ExprPtr = std::unique_ptr<Expr>;

/// Discriminator for the expression hierarchy.
enum class ExprKind {
  Literal,
  FieldAccess,
  LocalRef,
  Unary,
  Binary,
  Call,
  Select
};

/// Base class of all expression nodes.
class Expr {
public:
  virtual ~Expr();

  ExprKind kind() const { return Kind; }

  /// Deep-copies this expression.
  virtual ExprPtr clone() const = 0;

  /// Renders the expression as source text (parseable by the frontend).
  virtual std::string toString() const = 0;

  /// Invokes \p Fn on each direct child.
  virtual void
  visitChildren(const std::function<void(const Expr &)> &Fn) const = 0;

  /// Invokes \p Fn on each direct child pointer, allowing replacement.
  virtual void visitChildrenMutable(const std::function<void(ExprPtr &)> &Fn) = 0;

protected:
  explicit Expr(ExprKind Kind) : Kind(Kind) {}

private:
  const ExprKind Kind;
};

/// Recursively visits \p Root and all transitive children, pre-order.
void walkExpr(const Expr &Root, const std::function<void(const Expr &)> &Fn);

/// Recursively visits all expression slots (including \p Root itself),
/// post-order, allowing in-place replacement.
void walkExprMutable(ExprPtr &Root, const std::function<void(ExprPtr &)> &Fn);

/// A floating-point literal constant.
class LiteralExpr : public Expr {
public:
  explicit LiteralExpr(double Value) : Expr(ExprKind::Literal), Value(Value) {}

  double value() const { return Value; }

  ExprPtr clone() const override;
  std::string toString() const override;
  void visitChildren(const std::function<void(const Expr &)> &) const override {}
  void visitChildrenMutable(const std::function<void(ExprPtr &)> &) override {}

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Literal; }

private:
  double Value;
};

/// A relative access into an input field, e.g. `a[0, -1, 0]`, or a bare
/// reference `a` to a lower-dimensional (including scalar) field.
class FieldAccessExpr : public Expr {
public:
  FieldAccessExpr(std::string Field, Offset Off)
      : Expr(ExprKind::FieldAccess), Field(std::move(Field)),
        Off(std::move(Off)) {}

  const std::string &field() const { return Field; }
  void setField(std::string Name) { Field = std::move(Name); }
  const Offset &offset() const { return Off; }
  void setOffset(Offset NewOff) { Off = std::move(NewOff); }

  ExprPtr clone() const override;
  std::string toString() const override;
  void visitChildren(const std::function<void(const Expr &)> &) const override {}
  void visitChildrenMutable(const std::function<void(ExprPtr &)> &) override {}

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::FieldAccess;
  }

private:
  std::string Field;
  Offset Off;
};

/// A reference to a local temporary defined by an earlier assignment in the
/// same stencil code block.
class LocalRefExpr : public Expr {
public:
  explicit LocalRefExpr(std::string Name)
      : Expr(ExprKind::LocalRef), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }

  ExprPtr clone() const override;
  std::string toString() const override;
  void visitChildren(const std::function<void(const Expr &)> &) const override {}
  void visitChildrenMutable(const std::function<void(ExprPtr &)> &) override {}

  static bool classof(const Expr *E) { return E->kind() == ExprKind::LocalRef; }

private:
  std::string Name;
};

/// Unary operators.
enum class UnaryOp { Neg, Not };

/// A unary operation.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, ExprPtr Operand)
      : Expr(ExprKind::Unary), Op(Op), Operand(std::move(Operand)) {}

  UnaryOp op() const { return Op; }
  const Expr &operand() const { return *Operand; }

  ExprPtr clone() const override;
  std::string toString() const override;
  void visitChildren(const std::function<void(const Expr &)> &Fn) const override {
    Fn(*Operand);
  }
  void visitChildrenMutable(const std::function<void(ExprPtr &)> &Fn) override {
    Fn(Operand);
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  UnaryOp Op;
  ExprPtr Operand;
};

/// Binary operators, including comparisons and logical connectives.
enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or
};

/// Returns the source spelling of \p Op ("+", "<=", ...).
std::string_view binaryOpSpelling(BinaryOp Op);

/// Returns true for <, <=, >, >=, ==, !=.
bool isComparison(BinaryOp Op);

/// A binary operation.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, ExprPtr LHS, ExprPtr RHS)
      : Expr(ExprKind::Binary), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  BinaryOp op() const { return Op; }
  const Expr &lhs() const { return *LHS; }
  const Expr &rhs() const { return *RHS; }

  ExprPtr clone() const override;
  std::string toString() const override;
  void visitChildren(const std::function<void(const Expr &)> &Fn) const override {
    Fn(*LHS);
    Fn(*RHS);
  }
  void visitChildrenMutable(const std::function<void(ExprPtr &)> &Fn) override {
    Fn(LHS);
    Fn(RHS);
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  BinaryOp Op;
  ExprPtr LHS, RHS;
};

/// Math intrinsics permitted in stencil code (paper Sec. II: "standard math
/// functions").
enum class Intrinsic {
  Sqrt,
  Abs,
  Exp,
  Log,
  Sin,
  Cos,
  Tanh,
  Floor,
  Ceil,
  Min,
  Max,
  Pow
};

/// Returns the source spelling of \p Fn ("sqrt", "min", ...).
std::string_view intrinsicName(Intrinsic Fn);

/// Returns the arity of \p Fn (1 or 2).
unsigned intrinsicArity(Intrinsic Fn);

/// Looks up an intrinsic by name; returns an error for unknown functions,
/// enforcing the "no external functions" restriction.
Expected<Intrinsic> parseIntrinsic(std::string_view Name);

/// A call to a math intrinsic.
class CallExpr : public Expr {
public:
  CallExpr(Intrinsic Fn, std::vector<ExprPtr> Args)
      : Expr(ExprKind::Call), Fn(Fn), Args(std::move(Args)) {}

  Intrinsic intrinsic() const { return Fn; }
  const std::vector<ExprPtr> &args() const { return Args; }

  ExprPtr clone() const override;
  std::string toString() const override;
  void visitChildren(const std::function<void(const Expr &)> &Visit) const override {
    for (const ExprPtr &Arg : Args)
      Visit(*Arg);
  }
  void visitChildrenMutable(const std::function<void(ExprPtr &)> &Visit) override {
    for (ExprPtr &Arg : Args)
      Visit(Arg);
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }

private:
  Intrinsic Fn;
  std::vector<ExprPtr> Args;
};

/// A ternary conditional `cond ? a : b` — the data-dependent branches the
/// paper explicitly supports (Sec. II).
class SelectExpr : public Expr {
public:
  SelectExpr(ExprPtr Condition, ExprPtr TrueValue, ExprPtr FalseValue)
      : Expr(ExprKind::Select), Condition(std::move(Condition)),
        TrueValue(std::move(TrueValue)), FalseValue(std::move(FalseValue)) {}

  const Expr &condition() const { return *Condition; }
  const Expr &trueValue() const { return *TrueValue; }
  const Expr &falseValue() const { return *FalseValue; }

  ExprPtr clone() const override;
  std::string toString() const override;
  void visitChildren(const std::function<void(const Expr &)> &Fn) const override {
    Fn(*Condition);
    Fn(*TrueValue);
    Fn(*FalseValue);
  }
  void visitChildrenMutable(const std::function<void(ExprPtr &)> &Fn) override {
    Fn(Condition);
    Fn(TrueValue);
    Fn(FalseValue);
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Select; }

private:
  ExprPtr Condition, TrueValue, FalseValue;
};

/// One assignment statement in a stencil's code block. The final assignment
/// of a block defines the stencil's output value.
struct Assignment {
  std::string Target;
  ExprPtr Value;

  Assignment clone() const { return Assignment{Target, Value->clone()}; }
};

/// One instance of a statement body inside a code block: the statements a
/// stencil was written with, shared by reference, plus what fusion did to
/// them (paper Sec. V-B). Fusing a producer into its consumer places one
/// instance per offset the consumer reads it at; nothing is cloned or
/// renamed, so instances of the same body share it across nodes, fusion
/// levels and threads. The body itself is never mutated once shared.
struct CodeInstance {
  /// A field the body reads and the shift fusion added to its accesses,
  /// in the field's own rank. The name views into \c Body.
  struct FieldShift {
    std::string_view Field;
    Offset Shift;
  };

  /// An access the body makes to a fused-away producer: the access to
  /// \c Field at body offset \c Off reads the output (final statement) of
  /// instance \c Source of the same code block. The name views into
  /// \c Body.
  struct InlinedRead {
    std::string_view Field;
    Offset Off;
    size_t Source;
  };

  /// The shared, immutable statements.
  std::shared_ptr<const std::vector<Assignment>> Body;

  /// Prepended to every local name the body assigns or reads, outermost
  /// instance first ("b__f1__a__f0__"). Empty for a stencil's own body.
  std::string Prefix;

  /// One entry per field the body reads, in first-use order; empty while
  /// no access is shifted.
  std::vector<FieldShift> Shifts;

  /// The body's reads of fused-away producers.
  std::vector<InlinedRead> Inlined;

  /// The instance read at (\p Field, \p Off), or null when the access
  /// reads the field itself.
  const InlinedRead *inlinedRead(std::string_view Field,
                                 const Offset &Off) const {
    for (const InlinedRead &Read : Inlined)
      if (Read.Field == Field && Read.Off == Off)
        return &Read;
    return nullptr;
  }

  /// The offset the body's access (\p Field, \p Off) reads once shifted.
  Offset shifted(std::string_view Field, Offset Off) const {
    for (const FieldShift &S : Shifts)
      if (S.Field == Field) {
        for (size_t Dim = 0; Dim != Off.size(); ++Dim)
          Off[Dim] += S.Shift[Dim];
        break;
      }
    return Off;
  }
};

/// An entire stencil code block: an ordered list of assignments, held as
/// instances of shared statement bodies (see \c CodeInstance). A block
/// the parser built is one plain instance. Copies share the bodies.
class StencilCode {
public:
  StencilCode() = default;

  /// One plain instance of \p Statements.
  explicit StencilCode(std::vector<Assignment> Statements);

  /// A block of \p Instances, in evaluation order.
  explicit StencilCode(std::vector<CodeInstance> Instances)
      : Instances(std::move(Instances)) {}

  const std::vector<CodeInstance> &instances() const { return Instances; }

  /// Moves the instances out, leaving the block empty (for fusion, which
  /// rebuilds a node's code from its instances).
  std::vector<CodeInstance> takeInstances() {
    return std::exchange(Instances, {});
  }

  /// Number of statements across all instances.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// True if the final statement assigns \p Name.
  bool finalTargetIs(std::string_view Name) const;

  /// The statements as text shows them: each instance's locals prefixed,
  /// its field accesses shifted, and its inlined reads turned into reads
  /// of the source instance's final local. A plain block returns its body;
  /// fused code is deep-copied, for text and tests, not the compile path.
  std::shared_ptr<const std::vector<Assignment>> materialize() const;

  /// The statements, for passes that rewrite them in place: the block is
  /// first materialized into one plain instance that nothing else shares.
  std::vector<Assignment> &statements();

  /// Renders the block as source text, one statement per line.
  std::string toString() const;

private:
  /// One instance that fusion has not touched.
  bool isPlain() const;

  std::vector<CodeInstance> Instances;
};

} // namespace stencilflow

#endif // STENCILFLOW_IR_EXPR_H
