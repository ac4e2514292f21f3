//===- frontend/SemanticAnalysis.cpp - Name resolution & access inference ---==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/SemanticAnalysis.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace stencilflow;

Error stencilflow::analyzeNode(const StencilProgram &Program,
                               StencilNode &Node) {
  // Offsets hold at most three components: refuse a wider program before
  // building any.
  if (Program.IterationSpace.rank() > Offset::MaxRank)
    return makeError(ErrorCode::InvalidInput,
                     formatString("stencil programs must have 1, 2, or 3 "
                                  "dimensions, got %zu",
                                  Program.IterationSpace.rank()));
  std::unordered_set<std::string_view> Locals;
  // Field name -> deduplicated offsets, fields in first-use order.
  std::vector<FieldAccesses> Accesses;
  // Hashed views into the node's code: each field's index in Accesses and
  // every (field, offset) pair recorded so far.
  std::unordered_map<std::string_view, size_t> FieldIndex;
  std::unordered_set<FieldOffsetRef, FieldOffsetRefHash> Recorded;

  // The rank of field \p Name, or nullopt if the program does not define
  // it. A field already read has the rank of its recorded offsets.
  auto rankOf = [&](const std::string &Name) -> std::optional<size_t> {
    auto It = FieldIndex.find(Name);
    if (It != FieldIndex.end())
      return Accesses[It->second].Offsets.front().size();
    if (!Program.isFieldDefined(Name))
      return std::nullopt;
    return Program.fieldRank(Name);
  };

  auto recordAccess = [&](const FieldAccessExpr &Access) {
    if (!Recorded.insert({Access.field(), Access.offset()}).second)
      return;
    auto [It, NewField] =
        FieldIndex.try_emplace(Access.field(), Accesses.size());
    if (NewField)
      Accesses.push_back(FieldAccesses{Access.field(), {}});
    Accesses[It->second].Offsets.push_back(Access.offset());
  };

  std::vector<Assignment> &Statements = Node.Code.statements();
  for (size_t StmtIndex = 0, NumStmts = Statements.size();
       StmtIndex != NumStmts; ++StmtIndex) {
    Assignment &Stmt = Statements[StmtIndex];
    bool IsFinal = StmtIndex + 1 == NumStmts;

    // Resolve names and collect accesses in the right-hand side.
    Error DeferredError;
    walkExprMutable(Stmt.Value, [&](ExprPtr &E) {
      if (DeferredError)
        return;
      if (auto *Ref = dyn_cast<LocalRefExpr>(E.get())) {
        if (Locals.count(Ref->name()))
          return; // A local temporary; stays a LocalRefExpr.
        if (std::optional<size_t> Rank = rankOf(Ref->name())) {
          E = std::make_unique<FieldAccessExpr>(Ref->name(), Offset(*Rank, 0));
          recordAccess(*cast<FieldAccessExpr>(E.get()));
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
        std::optional<size_t> FieldRank = rankOf(Access->field());
        if (!FieldRank) {
          DeferredError = makeError("stencil '" + Node.Name +
                                    "': access to undefined field '" +
                                    Access->field() + "'");
          return;
        }
        if (Access->offset().size() != *FieldRank) {
          DeferredError = makeError(formatString(
              "stencil '%s': field '%s' has rank %zu but is accessed with "
              "offset %s",
              Node.Name.c_str(), Access->field().c_str(), *FieldRank,
              offsetToString(Access->offset()).c_str()));
          return;
        }
        recordAccess(*Access);
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
    std::sort(FA.Offsets.begin(), FA.Offsets.end());
  Node.Accesses = std::move(Accesses);
  return Error::success();
}

Error stencilflow::analyzeProgram(StencilProgram &Program) {
  for (StencilNode &Node : Program.Nodes)
    if (Error Err = analyzeNode(Program, Node))
      return Err;
  return Program.validate();
}
