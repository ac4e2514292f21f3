//===- sdfg/StencilFusion.cpp - Spatial stencil fusion ------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sdfg/StencilFusion.h"

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
  size_t FusedStatements = ConsumerNode.Code.size() +
                           ProducerAccesses->Offsets.size() *
                               ProducerNode->Code.size();
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
Offset shiftOffset(Offset Off, const Offset &Shift,
                   const std::vector<bool> &Mask) {
  size_t Component = 0;
  for (size_t Dim = 0; Dim != Mask.size(); ++Dim) {
    if (!Mask[Dim])
      continue;
    Off[Component] += Shift[Dim];
    ++Component;
  }
  return Off;
}

/// The fields \p Instance's body reads, each with its current shift. A
/// plain instance lists none until fusion first shifts it; then its body
/// is walked once and every field starts at a zero shift.
std::vector<CodeInstance::FieldShift> &
fieldShifts(CodeInstance &Instance) {
  if (!Instance.Shifts.empty())
    return Instance.Shifts;
  for (const Assignment &Stmt : *Instance.Body)
    walkExpr(*Stmt.Value, [&](const Expr &E) {
      const auto *Access = dyn_cast<FieldAccessExpr>(&E);
      if (!Access)
        return;
      for (const CodeInstance::FieldShift &S : Instance.Shifts)
        if (S.Field == Access->field())
          return;
      Instance.Shifts.push_back(
          {Access->field(), Offset(Access->offset().size(), 0)});
    });
  return Instance.Shifts;
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
  const std::vector<Offset> &Shifts =
      ConsumerNode.accessesFor(Producer)->Offsets;

  // Every field a producer body reads is an input, a full-rank node
  // output, or a producer fused away earlier (also full rank).
  const std::vector<bool> FullRank(Program.IterationSpace.rank(), true);
  auto maskOf = [&](std::string_view Name) -> const std::vector<bool> & {
    for (const Field &Input : Program.Inputs)
      if (Input.Name == Name)
        return Input.DimensionMask;
    return FullRank;
  };

  // Instantiate the producer once per offset the consumer reads it at:
  // its instances, by reference, with the prefix "<producer>__f<k>__"
  // and every field access shifted by the read offset. The producer node
  // goes away, so its instances are taken, not copied.
  std::vector<CodeInstance> ProducerCode = ProducerNode.Code.takeInstances();
  std::vector<CodeInstance> ConsumerCode = ConsumerNode.Code.takeInstances();
  std::vector<CodeInstance> Fused;
  Fused.reserve(Shifts.size() * ProducerCode.size() + ConsumerCode.size());
  std::vector<size_t> InstanceOutputs;
  for (size_t Instance = 0; Instance != Shifts.size(); ++Instance) {
    std::string Prefix =
        formatString("%s__f%zu__", Producer.c_str(), Instance);
    size_t Base = Fused.size();
    for (CodeInstance &Source : ProducerCode) {
      fieldShifts(Source);
      CodeInstance Copy = Source;
      Copy.Prefix.insert(0, Prefix);
      for (CodeInstance::FieldShift &S : Copy.Shifts)
        S.Shift = shiftOffset(S.Shift, Shifts[Instance], maskOf(S.Field));
      for (CodeInstance::InlinedRead &Read : Copy.Inlined)
        Read.Source += Base;
      Fused.push_back(std::move(Copy));
    }
    InstanceOutputs.push_back(Fused.size() - 1);
  }

  // The consumer's instances follow; their reads of the producer become
  // reads of the instances' outputs. An instance reading the producer at
  // shifted offset s reads body offset s minus its own shift.
  size_t Base = Fused.size();
  for (CodeInstance &Consumed : ConsumerCode) {
    for (CodeInstance::InlinedRead &Read : Consumed.Inlined)
      Read.Source += Base;
    for (const CodeInstance::FieldShift &S : fieldShifts(Consumed)) {
      if (S.Field != Producer)
        continue;
      for (size_t Instance = 0; Instance != Shifts.size(); ++Instance) {
        Offset BodyOff = Shifts[Instance];
        for (size_t Dim = 0; Dim != BodyOff.size(); ++Dim)
          BodyOff[Dim] -= S.Shift[Dim];
        Consumed.Inlined.push_back(
            {S.Field, BodyOff, InstanceOutputs[Instance]});
      }
    }
    Fused.push_back(std::move(Consumed));
  }
  ConsumerNode.Code = StencilCode(std::move(Fused));

  // The fused node's accesses, derived instead of re-analyzed: the
  // producer's fields at every shifted offset, then the consumer's other
  // fields (first-use order of the fused code), offsets sorted and unique.
  std::vector<FieldAccesses> Accesses;
  Accesses.reserve(ProducerNode.Accesses.size() +
                   ConsumerNode.Accesses.size());
  for (const FieldAccesses &FA : ProducerNode.Accesses) {
    const std::vector<bool> &Mask = maskOf(FA.Field);
    FieldAccesses Shifted{FA.Field, {}};
    Shifted.Offsets.reserve(FA.Offsets.size() * Shifts.size());
    for (const Offset &Shift : Shifts)
      for (const Offset &Off : FA.Offsets)
        Shifted.Offsets.push_back(shiftOffset(Off, Shift, Mask));
    Accesses.push_back(std::move(Shifted));
  }
  for (FieldAccesses &FA : ConsumerNode.Accesses) {
    if (FA.Field == Producer)
      continue;
    auto Known = std::find_if(
        Accesses.begin(), Accesses.end(),
        [&](const FieldAccesses &Seen) { return Seen.Field == FA.Field; });
    if (Known == Accesses.end())
      Accesses.push_back(std::move(FA));
    else
      Known->Offsets.insert(Known->Offsets.end(), FA.Offsets.begin(),
                            FA.Offsets.end());
  }
  for (FieldAccesses &FA : Accesses) {
    std::sort(FA.Offsets.begin(), FA.Offsets.end());
    FA.Offsets.erase(std::unique(FA.Offsets.begin(), FA.Offsets.end()),
                     FA.Offsets.end());
  }
  ConsumerNode.Accesses = std::move(Accesses);

  // Merge boundary conditions: carry over the producer's for fields the
  // consumer did not previously read, and drop declarations for fields
  // that no longer appear (fully folded away).
  ConsumerNode.Boundaries.erase(Producer);
  for (const auto &[Field, Boundary] : ProducerNode.Boundaries)
    ConsumerNode.Boundaries.emplace(Field, Boundary);
  for (auto It = ConsumerNode.Boundaries.begin();
       It != ConsumerNode.Boundaries.end();) {
    if (!ConsumerNode.accessesFor(It->first))
      It = ConsumerNode.Boundaries.erase(It);
    else
      ++It;
  }

  // Remove the producer node (and with it the connecting container). The
  // consumer's code still holds the producer's bodies by reference.
  int ProducerIndex = Program.nodeIndex(Producer);
  assert(ProducerIndex >= 0);
  Program.Nodes.erase(Program.Nodes.begin() + ProducerIndex);
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
