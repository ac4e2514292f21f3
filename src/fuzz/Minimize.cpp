//===- fuzz/Minimize.cpp - Greedy fuzz-finding reduction --------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Minimize.h"

#include "frontend/SemanticAnalysis.h"
#include "ir/Expr.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace stencilflow;
using namespace stencilflow::fuzz;

//===----------------------------------------------------------------------===//
// Candidate repair
//===----------------------------------------------------------------------===//

/// Re-derives everything a structural mutation can invalidate — accesses,
/// boundary entries, the output list, time-loop bindings — and
/// re-validates. Returns false when the mutated program cannot be made
/// well-formed (the mutation is then rejected).
static bool sanitize(StencilProgram &Program) {
  if (Program.Nodes.empty())
    return false;

  // Accesses are derived from the source text; recompute them first so
  // the boundary pruning below sees the post-mutation reads.
  for (StencilNode &Node : Program.Nodes)
    if (analyzeNode(Program, Node))
      return false;

  for (StencilNode &Node : Program.Nodes) {
    // Drop boundary entries for fields the node no longer reads, and
    // demote copy boundaries whose center access a mutation removed.
    for (auto It = Node.Boundaries.begin(); It != Node.Boundaries.end();) {
      const FieldAccesses *Accesses = Node.accessesFor(It->first);
      if (!Accesses) {
        It = Node.Boundaries.erase(It);
        continue;
      }
      if (It->second.Kind == BoundaryKind::Copy) {
        bool HasCenter = std::any_of(
            Accesses->Offsets.begin(), Accesses->Offsets.end(),
            [](const Offset &Off) {
              return std::all_of(Off.begin(), Off.end(),
                                 [](int C) { return C == 0; });
            });
        if (!HasCenter)
          It->second = BoundaryCondition::constant(0.0);
      }
      ++It;
    }
  }

  // Every consumer-less node must be a program output; keep the original
  // output order where possible.
  std::vector<std::string> Outputs;
  for (const std::string &Name : Program.Outputs)
    if (Program.findNode(Name) && Program.consumersOf(Name).empty())
      Outputs.push_back(Name);
  for (const StencilNode &Node : Program.Nodes)
    if (Program.consumersOf(Node.Name).empty() &&
        std::find(Outputs.begin(), Outputs.end(), Node.Name) == Outputs.end())
      Outputs.push_back(Node.Name);
  Program.Outputs = std::move(Outputs);

  // Prune feedback bindings whose endpoints a mutation removed.
  Program.TimeLoop.erase(
      std::remove_if(Program.TimeLoop.begin(), Program.TimeLoop.end(),
                     [&](const IterationBinding &Binding) {
                       return !Program.isProgramOutput(Binding.Output) ||
                              !Program.findInput(Binding.Input);
                     }),
      Program.TimeLoop.end());

  return !static_cast<bool>(Program.validate());
}

//===----------------------------------------------------------------------===//
// Mutations
//===----------------------------------------------------------------------===//

/// Drops the sink node at \p Index. Returns false when the drop is
/// structurally off-limits (last node, non-sink, or a feedback source the
/// failing configuration needs).
static bool dropSinkNode(StencilProgram &Program, size_t Index,
                         bool KeepTimeLoop) {
  if (Program.Nodes.size() <= 1 || Index >= Program.Nodes.size())
    return false;
  const std::string Name = Program.Nodes[Index].Name;
  if (!Program.consumersOf(Name).empty())
    return false;
  if (KeepTimeLoop)
    for (const IterationBinding &Binding : Program.TimeLoop)
      if (Binding.Output == Name)
        return false;
  Program.Nodes.erase(Program.Nodes.begin() + static_cast<long>(Index));
  return true;
}

/// Halves every extent (floored to the legal minimum implied by the
/// program's accesses and vector width). Returns false when already
/// minimal.
static bool shrinkExtents(StencilProgram &Program) {
  size_t Rank = Program.IterationSpace.rank();
  std::vector<int64_t> MaxOff(Rank, 0);
  for (const StencilNode &Node : Program.Nodes)
    for (const FieldAccesses &FA : Node.Accesses)
      for (const Offset &Off : FA.Offsets) {
        // Lower-rank fields span a suffix/subset of the dimensions; map
        // the offset onto the spanned dims via the field's mask.
        const std::vector<bool> &Mask = Program.fieldDimensionMask(FA.Field);
        size_t Pos = 0;
        for (size_t Dim = 0; Dim < Rank; ++Dim) {
          if (Dim < Mask.size() && !Mask[Dim])
            continue;
          if (Pos < Off.size())
            MaxOff[Dim] = std::max(MaxOff[Dim],
                                   static_cast<int64_t>(std::abs(Off[Pos])));
          ++Pos;
        }
      }

  bool Changed = false;
  std::vector<int64_t> Extents = Program.IterationSpace.extents();
  for (size_t Dim = 0; Dim < Rank; ++Dim) {
    // The generator keeps offsets within extent/2 - 1; preserve that
    // envelope so the buffer analysis stays in its supported regime.
    int64_t Floor = std::max<int64_t>(2, 2 * (MaxOff[Dim] + 1));
    int64_t Halved = std::max(Floor, Extents[Dim] / 2);
    if (Dim + 1 == Rank) {
      int64_t W = Program.VectorWidth;
      Halved = std::max(Halved, static_cast<int64_t>(W));
      if (Halved % W != 0)
        Halved += W - Halved % W;
    }
    if (Halved < Extents[Dim]) {
      Extents[Dim] = Halved;
      Changed = true;
    }
  }
  if (Changed)
    Program.IterationSpace = Shape(std::move(Extents));
  return Changed;
}

/// Halves every field-access offset toward the center. Returns false when
/// all accesses are already centered.
static bool shrinkOffsets(StencilProgram &Program) {
  bool Changed = false;
  for (StencilNode &Node : Program.Nodes)
    for (Assignment &Statement : Node.Code.statements())
      walkExprMutable(Statement.Value, [&](ExprPtr &E) {
        if (E->kind() != ExprKind::FieldAccess)
          return;
        auto *Access = static_cast<FieldAccessExpr *>(E.get());
        Offset Off = Access->offset();
        bool Any = false;
        for (int &C : Off)
          if (C != 0) {
            C /= 2; // Truncation pulls toward 0 from both sides.
            Any = true;
          }
        if (Any) {
          Access->setOffset(std::move(Off));
          Changed = true;
        }
      });
  return Changed;
}

/// Replaces every literal outside {0, 1} with 1. Returns false when there
/// is nothing to simplify.
static bool collapseLiterals(StencilProgram &Program) {
  bool Changed = false;
  for (StencilNode &Node : Program.Nodes)
    for (Assignment &Statement : Node.Code.statements())
      walkExprMutable(Statement.Value, [&](ExprPtr &E) {
        if (E->kind() != ExprKind::Literal)
          return;
        double Value = static_cast<LiteralExpr *>(E.get())->value();
        if (Value != 0.0 && Value != 1.0) {
          E = std::make_unique<LiteralExpr>(1.0);
          Changed = true;
        }
      });
  return Changed;
}

/// Drops the local-temporary statement at \p Statement of node \p Node.
/// The candidate is rejected later if a surviving statement still reads
/// the local.
static bool dropStatement(StencilProgram &Program, size_t NodeIndex,
                          size_t Statement) {
  if (NodeIndex >= Program.Nodes.size())
    return false;
  StencilCode &Code = Program.Nodes[NodeIndex].Code;
  if (Code.size() <= 1 || Statement + 1 >= Code.size())
    return false;
  std::vector<Assignment> &Statements = Code.statements();
  Statements.erase(Statements.begin() + static_cast<long>(Statement));
  return true;
}

//===----------------------------------------------------------------------===//
// The greedy loop
//===----------------------------------------------------------------------===//

static FuzzFinding cloneFinding(const FuzzFinding &Finding) {
  FuzzFinding Clone;
  Clone.Kind = Finding.Kind;
  Clone.Seed = Finding.Seed;
  Clone.Config = Finding.Config;
  Clone.Detail = Finding.Detail;
  Clone.ExpectedCrc = Finding.ExpectedCrc;
  Clone.ActualCrc = Finding.ActualCrc;
  Clone.Program = Finding.Program.clone();
  return Clone;
}

MinimizeResult fuzz::minimizeFinding(const FuzzFinding &Finding,
                                     const DiffOptions &Options,
                                     int MaxAttempts) {
  MinimizeResult Result;
  Result.Finding = cloneFinding(Finding);
  StencilProgram Current = Finding.Program.clone();
  bool KeepTimeLoop = Finding.Config.TemporalDegree > 1;

  // Tries one mutation: sanitize the candidate, replay the failing
  // configuration, and accept only while the same kind still reproduces.
  auto Try = [&](StencilProgram Candidate) {
    if (Result.Attempts >= MaxAttempts)
      return false;
    if (!sanitize(Candidate))
      return false;
    ++Result.Attempts;
    std::optional<FuzzFinding> Replay =
        runConfig(Candidate, Finding.Seed, Finding.Config, Options);
    if (!Replay || Replay->Kind != Finding.Kind)
      return false;
    // Keep the candidate as the new baseline *before* moving the replayed
    // finding into the result: the finding owns the only other copy of the
    // program, and stealing from it first would leave a moved-from
    // (rank-0) program in Result.Finding.
    Current = std::move(Candidate);
    Result.Finding = std::move(*Replay);
    ++Result.Steps;
    return true;
  };

  bool Progress = true;
  while (Progress && Result.Attempts < MaxAttempts) {
    Progress = false;

    // 1. Drop sink nodes, most recently defined first (later nodes are
    //    more likely to be incidental consumers of the interesting one).
    for (size_t Index = Current.Nodes.size(); Index-- > 0;) {
      StencilProgram Candidate = Current.clone();
      if (dropSinkNode(Candidate, Index, KeepTimeLoop) &&
          Try(std::move(Candidate)))
        Progress = true;
    }

    // 2. Shrink the iteration space.
    {
      StencilProgram Candidate = Current.clone();
      if (shrinkExtents(Candidate) && Try(std::move(Candidate)))
        Progress = true;
    }

    // 3. Pull accesses toward the center.
    {
      StencilProgram Candidate = Current.clone();
      if (shrinkOffsets(Candidate) && Try(std::move(Candidate)))
        Progress = true;
    }

    // 4. Collapse coefficients to 1.
    {
      StencilProgram Candidate = Current.clone();
      if (collapseLiterals(Candidate) && Try(std::move(Candidate)))
        Progress = true;
    }

    // 5. Drop local temporaries, last first.
    for (size_t Node = 0; Node < Current.Nodes.size(); ++Node)
      for (size_t Statement = Current.Nodes[Node].Code.size();
           Statement-- > 0;) {
        StencilProgram Candidate = Current.clone();
        if (dropStatement(Candidate, Node, Statement) &&
            Try(std::move(Candidate)))
          Progress = true;
      }
  }
  return Result;
}
