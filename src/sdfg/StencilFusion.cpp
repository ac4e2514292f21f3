//===- sdfg/StencilFusion.cpp - Spatial stencil fusion ------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sdfg/StencilFusion.h"

#include "frontend/SemanticAnalysis.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <optional>

using namespace stencilflow;

Expected<std::string> stencilflow::canFuseInto(const StencilProgram &Program,
                                               const std::string &Producer) {
  const StencilNode *ProducerNode = Program.findNode(Producer);
  if (!ProducerNode)
    return makeError("'" + Producer + "' is not a stencil node");

  // Condition: the connecting container has degree 2 — one producer and
  // exactly one consumer — and no other uses (in particular it is not a
  // program output, which would force an off-chip write).
  if (Program.isProgramOutput(Producer))
    return makeError("'" + Producer + "' is a program output");
  std::vector<size_t> Consumers = Program.consumersOf(Producer);
  if (Consumers.size() != 1)
    return makeError(formatString(
        "'%s' has %zu consumers (fusion requires exactly one)",
        Producer.c_str(), Consumers.size()));
  const StencilNode &ConsumerNode = Program.Nodes[Consumers[0]];

  // Condition: same data shape — all stencils here share the iteration
  // space by construction, but element types must match.
  if (ConsumerNode.Type != ProducerNode->Type)
    return makeError("'" + Producer + "' and '" + ConsumerNode.Name +
                     "' have different element types");

  // Condition: identical boundary-condition definitions on shared fields.
  for (const FieldAccesses &FA : ProducerNode->Accesses) {
    if (!ConsumerNode.accessesFor(FA.Field))
      continue;
    if (!(ProducerNode->boundaryFor(FA.Field) ==
          ConsumerNode.boundaryFor(FA.Field)))
      return makeError("'" + Producer + "' and '" + ConsumerNode.Name +
                       "' disagree on the boundary condition of '" +
                       FA.Field + "'");
  }

  // Condition: inlining at a shifted offset keeps semantics only for
  // constant boundary conditions (copy is anchored to the shifted
  // center).
  const FieldAccesses *ProducerAccesses =
      ConsumerNode.accessesFor(Producer);
  assert(ProducerAccesses && "consumer does not read the producer");

  // Condition: bounded code growth. The producer is instantiated once per
  // offset the consumer reads it at, so repeated fusion of deep chains
  // grows the code exponentially; stop when the fused block would become
  // unreasonably large (a compile-time/ALM blow-up on real hardware too).
  constexpr size_t MaxFusedStatements = 768;
  size_t FusedStatements = ConsumerNode.Code.Statements.size() +
                           ProducerAccesses->Offsets.size() *
                               ProducerNode->Code.Statements.size();
  if (FusedStatements > MaxFusedStatements)
    return makeError(formatString(
        "fusing '%s' would grow the consumer to %zu statements "
        "(limit %zu)",
        Producer.c_str(), FusedStatements, MaxFusedStatements));
  bool OnlyCenter =
      ProducerAccesses->Offsets.size() == 1 &&
      std::all_of(ProducerAccesses->Offsets[0].begin(),
                  ProducerAccesses->Offsets[0].end(),
                  [](int O) { return O == 0; });
  if (!OnlyCenter) {
    for (const auto &[Field, Boundary] : ProducerNode->Boundaries)
      if (Boundary.Kind == BoundaryKind::Copy)
        return makeError("'" + Producer +
                         "' uses a copy boundary on '" + Field +
                         "' and is read at a non-zero offset");
  }
  return ConsumerNode.Name;
}

namespace {

/// Shifts \p Off (given in the field's own rank) by the producer-read
/// offset \p Shift (full program rank), respecting the field's dimension
/// mask.
Offset shiftOffset(const Offset &Off, const Offset &Shift,
                   const std::vector<bool> &Mask) {
  Offset Result = Off;
  size_t Component = 0;
  for (size_t Dim = 0; Dim != Mask.size(); ++Dim) {
    if (!Mask[Dim])
      continue;
    Result[Component] += Shift[Dim];
    ++Component;
  }
  return Result;
}

/// A producer and the consumer \c canFuseInto accepts it into.
struct FusablePair {
  std::string Producer;
  std::string Consumer;
};

/// The pair the aggressive pass fuses next: the first producer, in node
/// order, that \c canFuseInto accepts, or nullopt when none remains.
std::optional<FusablePair> nextFusablePair(const StencilProgram &Program) {
  for (const StencilNode &Node : Program.Nodes)
    if (Expected<std::string> Consumer = canFuseInto(Program, Node.Name))
      return FusablePair{Node.Name, Consumer.takeValue()};
  return std::nullopt;
}

} // namespace

Error stencilflow::fusePair(StencilProgram &Program,
                            const std::string &Producer) {
  Expected<std::string> Consumer = canFuseInto(Program, Producer);
  if (!Consumer)
    return Consumer.takeError();

  StencilNode &ProducerNode = *Program.findNode(Producer);
  StencilNode &ConsumerNode = *Program.findNode(*Consumer);
  const FieldAccesses *Reads = ConsumerNode.accessesFor(Producer);
  std::vector<Offset> Shifts = Reads->Offsets;

  // Instantiate the producer once per offset the consumer reads it at.
  // Every field it reads is an input or a full-rank node output, so masks
  // are looked up, not copied, per access.
  const std::vector<bool> FullRank(Program.IterationSpace.rank(), true);
  std::vector<Assignment> NewStatements;
  std::vector<std::string> InstanceOutputs;
  for (size_t Instance = 0; Instance != Shifts.size(); ++Instance) {
    const Offset &Shift = Shifts[Instance];
    std::string Prefix =
        formatString("%s__f%zu__", Producer.c_str(), Instance);
    for (const Assignment &Stmt : ProducerNode.Code.Statements) {
      Assignment Copy = Stmt.clone();
      // Rename the target into the instance namespace.
      Copy.Target = Prefix + Copy.Target;
      // Rewrite the right-hand side: locals get the prefix, field accesses
      // are shifted by the consumer's read offset.
      walkExprMutable(Copy.Value, [&](ExprPtr &E) {
        if (auto *Ref = dyn_cast<LocalRefExpr>(E.get())) {
          Ref->setName(Prefix + Ref->name());
          return;
        }
        if (auto *Access = dyn_cast<FieldAccessExpr>(E.get())) {
          const Field *Input = Program.findInput(Access->field());
          Access->setOffset(shiftOffset(
              Access->offset(), Shift,
              Input ? Input->DimensionMask : FullRank));
        }
      });
      NewStatements.push_back(std::move(Copy));
    }
    InstanceOutputs.push_back(Prefix + Producer);
  }

  // Rewrite the consumer: references to the producer become references to
  // the instantiated outputs.
  for (Assignment &Stmt : ConsumerNode.Code.Statements) {
    walkExprMutable(Stmt.Value, [&](ExprPtr &E) {
      auto *Access = dyn_cast<FieldAccessExpr>(E.get());
      if (!Access || Access->field() != Producer)
        return;
      for (size_t Instance = 0; Instance != Shifts.size(); ++Instance) {
        if (Access->offset() == Shifts[Instance]) {
          E = std::make_unique<LocalRefExpr>(InstanceOutputs[Instance]);
          return;
        }
      }
      assert(false && "producer read at an unrecorded offset");
    });
    NewStatements.push_back(std::move(Stmt));
  }
  ConsumerNode.Code.Statements = std::move(NewStatements);

  // Merge boundary conditions: carry over the producer's for fields the
  // consumer did not previously read.
  ConsumerNode.Boundaries.erase(Producer);
  for (const auto &[Field, Boundary] : ProducerNode.Boundaries)
    ConsumerNode.Boundaries.emplace(Field, Boundary);

  // Remove the producer node (and with it the connecting container).
  int ProducerIndex = Program.nodeIndex(Producer);
  assert(ProducerIndex >= 0);
  Program.Nodes.erase(Program.Nodes.begin() + ProducerIndex);

  // Re-analyze the fused node; boundary declarations for fields that no
  // longer appear (fully folded away) would now be rejected, so drop them.
  StencilNode &Fused = *Program.findNode(*Consumer);
  if (Error Err = analyzeNode(Program, Fused))
    return Err;
  for (auto It = Fused.Boundaries.begin(); It != Fused.Boundaries.end();) {
    if (!Fused.accessesFor(It->first))
      It = Fused.Boundaries.erase(It);
    else
      ++It;
  }
  return Program.validate();
}

Expected<FusionReport>
stencilflow::fuseAllStencils(StencilProgram &Program) {
  return fuseStencilsUpTo(Program,
                          static_cast<int>(Program.Nodes.size()) + 1);
}

Expected<FusionReport>
stencilflow::fuseStencilsUpTo(StencilProgram &Program, int MaxPairs) {
  FusionReport Report;
  while (Report.FusedPairs < MaxPairs) {
    std::optional<FusablePair> Next = nextFusablePair(Program);
    if (!Next)
      break;
    if (Error Err = fusePair(Program, Next->Producer))
      return Err;
    Report.Log.push_back("fused '" + Next->Producer + "' into '" +
                         Next->Consumer + "'");
    ++Report.FusedPairs;
  }
  return Report;
}

FusionWalk::FusionWalk(StencilProgram Program, int Limit,
                       const std::function<bool(int)> &Keep) {
  while (Pairs < Limit) {
    std::optional<FusablePair> Next = nextFusablePair(Program);
    if (!Next) {
      Exhausted = true;
      break;
    }
    if (Keep(Pairs))
      Kept.emplace(Pairs,
                   std::make_shared<const StencilProgram>(Program.clone()));
    if ((Failure = fusePair(Program, Next->Producer)))
      return;
    ++Pairs;
  }
  Kept.emplace(Pairs,
               std::make_shared<const StencilProgram>(std::move(Program)));
}

std::shared_ptr<const StencilProgram> FusionWalk::level(int Level) const {
  if (Level > Pairs && !Exhausted)
    return nullptr;
  auto It = Kept.find(std::min(Level, Pairs));
  return It == Kept.end() ? nullptr : It->second;
}

void FusionWalk::retain(const std::function<bool(int)> &Keep) {
  for (auto It = Kept.begin(); It != Kept.end();)
    It = Keep(It->first) ? std::next(It) : Kept.erase(It);
}
