//===- frontend/SemanticAnalysis.cpp - Name resolution & access inference ---==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/SemanticAnalysis.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <set>

using namespace stencilflow;

namespace {

/// Compares offsets in memory order (outer dimensions first). Since
/// dimension extents dominate, lexicographic order on the offset vector is
/// exactly memory order.
bool offsetLess(const Offset &A, const Offset &B) {
  return std::lexicographical_compare(A.begin(), A.end(), B.begin(), B.end());
}

} // namespace

Error stencilflow::analyzeNode(const StencilProgram &Program,
                               StencilNode &Node) {
  std::set<std::string> Locals;
  // Field name -> deduplicated offsets, kept in first-use order.
  std::vector<FieldAccesses> Accesses;

  auto recordAccess = [&](const std::string &Field, const Offset &Off) {
    for (FieldAccesses &FA : Accesses) {
      if (FA.Field != Field)
        continue;
      if (std::find(FA.Offsets.begin(), FA.Offsets.end(), Off) ==
          FA.Offsets.end())
        FA.Offsets.push_back(Off);
      return;
    }
    Accesses.push_back(FieldAccesses{Field, {Off}});
  };

  for (size_t StmtIndex = 0, NumStmts = Node.Code.Statements.size();
       StmtIndex != NumStmts; ++StmtIndex) {
    Assignment &Stmt = Node.Code.Statements[StmtIndex];
    bool IsFinal = StmtIndex + 1 == NumStmts;

    // Resolve names and collect accesses in the right-hand side.
    Error DeferredError;
    walkExprMutable(Stmt.Value, [&](ExprPtr &E) {
      if (DeferredError)
        return;
      if (auto *Ref = dyn_cast<LocalRefExpr>(E.get())) {
        if (Locals.count(Ref->name()))
          return; // A local temporary; stays a LocalRefExpr.
        if (Program.isFieldDefined(Ref->name())) {
          Offset Zero(Program.fieldRank(Ref->name()), 0);
          std::string Field = Ref->name();
          E = std::make_unique<FieldAccessExpr>(Field, Zero);
          recordAccess(Field, Zero);
          return;
        }
        DeferredError = makeError(
            "stencil '" + Node.Name + "': use of undefined name '" +
            Ref->name() + "' (not a local temporary or a defined field)");
        return;
      }
      if (auto *Access = dyn_cast<FieldAccessExpr>(E.get())) {
        if (Locals.count(Access->field())) {
          DeferredError = makeError("stencil '" + Node.Name +
                                    "': local temporary '" + Access->field() +
                                    "' cannot be indexed with offsets");
          return;
        }
        if (!Program.isFieldDefined(Access->field())) {
          DeferredError = makeError("stencil '" + Node.Name +
                                    "': access to undefined field '" +
                                    Access->field() + "'");
          return;
        }
        size_t FieldRank = Program.fieldRank(Access->field());
        if (Access->offset().size() != FieldRank) {
          DeferredError = makeError(formatString(
              "stencil '%s': field '%s' has rank %zu but is accessed with "
              "offset %s",
              Node.Name.c_str(), Access->field().c_str(), FieldRank,
              offsetToString(Access->offset()).c_str()));
          return;
        }
        recordAccess(Access->field(), Access->offset());
      }
    });
    if (DeferredError)
      return DeferredError;

    // Register the assignment target.
    if (IsFinal) {
      if (Stmt.Target != Node.Name)
        return makeError("the final statement of stencil '" + Node.Name +
                         "' must assign to '" + Node.Name + "', not '" +
                         Stmt.Target + "'");
    } else {
      if (Program.isFieldDefined(Stmt.Target) || Stmt.Target == Node.Name)
        return makeError("stencil '" + Node.Name + "': local temporary '" +
                         Stmt.Target + "' shadows a field");
      Locals.insert(Stmt.Target);
    }
  }

  if (Accesses.empty())
    return makeError("stencil '" + Node.Name + "' reads no fields");

  if (std::any_of(Accesses.begin(), Accesses.end(),
                  [&](const FieldAccesses &FA) {
                    return FA.Field == Node.Name;
                  }))
    return makeError("stencil '" + Node.Name + "' reads its own output");

  for (FieldAccesses &FA : Accesses)
    std::sort(FA.Offsets.begin(), FA.Offsets.end(), offsetLess);
  Node.Accesses = std::move(Accesses);
  return Error::success();
}

Error stencilflow::analyzeProgram(StencilProgram &Program) {
  for (StencilNode &Node : Program.Nodes)
    if (Error Err = analyzeNode(Program, Node))
      return Err;
  return Program.validate();
}
