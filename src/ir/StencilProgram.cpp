//===- ir/StencilProgram.cpp - Stencil program DAG --------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/StencilProgram.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <set>

using namespace stencilflow;

const Field *StencilProgram::findInput(const std::string &Name) const {
  for (const Field &Input : Inputs)
    if (Input.Name == Name)
      return &Input;
  return nullptr;
}

const StencilNode *StencilProgram::findNode(const std::string &Name) const {
  for (const StencilNode &Node : Nodes)
    if (Node.Name == Name)
      return &Node;
  return nullptr;
}

StencilNode *StencilProgram::findNode(const std::string &Name) {
  for (StencilNode &Node : Nodes)
    if (Node.Name == Name)
      return &Node;
  return nullptr;
}

int StencilProgram::nodeIndex(const std::string &Name) const {
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (Nodes[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

DataType StencilProgram::fieldType(const std::string &Name) const {
  if (const Field *Input = findInput(Name))
    return Input->Type;
  const StencilNode *Node = findNode(Name);
  assert(Node && "fieldType() of an undefined field");
  return Node->Type;
}

const std::vector<bool> &
StencilProgram::fieldDimensionMask(const std::string &Name) const {
  if (const Field *Input = findInput(Name))
    return Input->DimensionMask;
  assert(findNode(Name) && "fieldDimensionMask() of an undefined field");
  // Node outputs span every dimension: one immutable mask per rank.
  static const std::vector<bool> FullRank[Offset::MaxRank + 1] = {
      {}, {true}, {true, true}, {true, true, true}};
  assert(IterationSpace.rank() <= Offset::MaxRank &&
         "fieldDimensionMask() of an over-rank program");
  return FullRank[IterationSpace.rank()];
}

size_t StencilProgram::fieldRank(const std::string &Name) const {
  if (const Field *Input = findInput(Name))
    return static_cast<size_t>(std::count(Input->DimensionMask.begin(),
                                          Input->DimensionMask.end(), true));
  assert(findNode(Name) && "fieldRank() of an undefined field");
  return IterationSpace.rank();
}

Shape StencilProgram::fieldShape(const std::string &Name) const {
  if (const Field *Input = findInput(Name))
    return Input->shapeWithin(IterationSpace);
  assert(findNode(Name) && "fieldShape() of an undefined field");
  return IterationSpace;
}

std::vector<size_t>
StencilProgram::consumersOf(const std::string &Name) const {
  std::vector<size_t> Consumers;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (Nodes[I].accessesFor(Name))
      Consumers.push_back(I);
  return Consumers;
}

bool StencilProgram::isProgramOutput(const std::string &Name) const {
  return std::find(Outputs.begin(), Outputs.end(), Name) != Outputs.end();
}

Expected<std::vector<size_t>> StencilProgram::topologicalOrder() const {
  // Kahn's algorithm over stencil nodes; edges follow produced fields.
  std::vector<size_t> InDegree(Nodes.size(), 0);
  std::vector<std::vector<size_t>> Successors(Nodes.size());
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    for (const FieldAccesses &FA : Nodes[I].Accesses) {
      int Producer = nodeIndex(FA.Field);
      if (Producer < 0)
        continue; // Off-chip input, not a DAG edge between stencils.
      Successors[static_cast<size_t>(Producer)].push_back(I);
      ++InDegree[I];
    }
  }

  std::vector<size_t> Ready;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (InDegree[I] == 0)
      Ready.push_back(I);

  std::vector<size_t> Order;
  Order.reserve(Nodes.size());
  while (!Ready.empty()) {
    // Pop the smallest index for a deterministic order.
    auto MinIt = std::min_element(Ready.begin(), Ready.end());
    size_t Node = *MinIt;
    Ready.erase(MinIt);
    Order.push_back(Node);
    for (size_t Succ : Successors[Node])
      if (--InDegree[Succ] == 0)
        Ready.push_back(Succ);
  }

  if (Order.size() != Nodes.size()) {
    for (size_t I = 0, E = Nodes.size(); I != E; ++I)
      if (InDegree[I] != 0)
        return makeError("stencil program contains a cycle through node '" +
                         Nodes[I].Name + "'");
  }
  return Order;
}

Error StencilProgram::checkVectorWidth(int Width) const {
  if (Width < 1)
    return makeError("vector width must be positive");
  int64_t Innermost = IterationSpace.extent(IterationSpace.rank() - 1);
  if (Innermost % Width != 0)
    return makeError(formatString(
        "vector width %d does not divide the innermost extent %lld", Width,
        static_cast<long long>(Innermost)));
  return Error::success();
}

Error StencilProgram::validate() const {
  size_t Rank = IterationSpace.rank();
  if (Rank < 1 || Rank > 3)
    return makeError(formatString(
        "stencil programs must have 1, 2, or 3 dimensions, got %zu", Rank));
  if (Error Err = checkVectorWidth(VectorWidth))
    return Err;

  // Unique field names across inputs and node outputs.
  std::set<std::string> Names;
  for (const Field &Input : Inputs) {
    if (!Names.insert(Input.Name).second)
      return makeError("duplicate field name '" + Input.Name + "'");
    if (Input.DimensionMask.size() != Rank)
      return makeError("input '" + Input.Name +
                       "' has a dimension mask of wrong rank");
  }
  for (const StencilNode &Node : Nodes)
    if (!Names.insert(Node.Name).second)
      return makeError("duplicate field name '" + Node.Name + "'");

  for (const StencilNode &Node : Nodes) {
    if (Node.Code.empty())
      return makeError("stencil '" + Node.Name + "' has no statements");
    if (!Node.Code.finalTargetIs(Node.Name))
      return makeError("the final statement of stencil '" + Node.Name +
                       "' must assign to '" + Node.Name + "'");
    if (Node.Accesses.empty())
      return makeError("stencil '" + Node.Name +
                       "' reads no fields (was semantic analysis run?)");
    for (const FieldAccesses &FA : Node.Accesses) {
      if (!isFieldDefined(FA.Field))
        return makeError("stencil '" + Node.Name +
                         "' reads undefined field '" + FA.Field + "'");
      size_t FieldRank = fieldRank(FA.Field);
      for (const Offset &Off : FA.Offsets)
        if (Off.size() != FieldRank)
          return makeError(formatString(
              "stencil '%s' accesses field '%s' (rank %zu) with a rank-%zu "
              "offset %s",
              Node.Name.c_str(), FA.Field.c_str(), FieldRank, Off.size(),
              offsetToString(Off).c_str()));
    }
    for (const auto &[FieldName, Boundary] : Node.Boundaries) {
      if (Boundary.Kind == BoundaryKind::Shrink)
        return makeError("shrink is an output boundary condition, but is "
                         "attached to input '" +
                         FieldName + "' of stencil '" + Node.Name + "'");
      if (!Node.accessesFor(FieldName))
        return makeError("stencil '" + Node.Name +
                         "' declares a boundary condition for '" + FieldName +
                         "' but does not read it");
      if (Boundary.Kind == BoundaryKind::Copy) {
        // Copy substitutes the center value for out-of-bounds reads, so
        // the center must be part of the buffered window.
        const FieldAccesses *FA = Node.accessesFor(FieldName);
        bool HasCenter = false;
        for (const Offset &Off : FA->Offsets)
          HasCenter |= std::all_of(Off.begin(), Off.end(),
                                   [](int O) { return O == 0; });
        if (!HasCenter)
          return makeError("stencil '" + Node.Name +
                           "' uses a copy boundary for '" + FieldName +
                           "' but never accesses its center value");
      }
    }
  }

  for (const std::string &Output : Outputs)
    if (!findNode(Output))
      return makeError("program output '" + Output +
                       "' is not produced by any stencil");
  if (Outputs.empty())
    return makeError("stencil program has no outputs");

  // Every non-output node must have at least one consumer; otherwise its
  // results are silently discarded, which is almost certainly a bug in the
  // program description.
  for (const StencilNode &Node : Nodes)
    if (!isProgramOutput(Node.Name) && consumersOf(Node.Name).empty())
      return makeError("stencil '" + Node.Name +
                       "' is neither a program output nor read by any other "
                       "stencil");

  Expected<std::vector<size_t>> Order = topologicalOrder();
  if (!Order)
    return Order.takeError();
  return Error::success();
}

std::string StencilProgram::summary() const {
  std::string Result = formatString(
      "stencil program '%s': %s iteration space, W=%d, %zu inputs, %zu "
      "stencils, %zu outputs\n",
      Name.c_str(), IterationSpace.toString().c_str(), VectorWidth,
      Inputs.size(), Nodes.size(), Outputs.size());
  for (const Field &Input : Inputs)
    Result += formatString("  input  %-20s %s %s\n", Input.Name.c_str(),
                           std::string(dataTypeName(Input.Type)).c_str(),
                           Input.shapeWithin(IterationSpace).toString().c_str());
  Expected<std::vector<size_t>> Order = topologicalOrder();
  const std::vector<size_t> *Indices = nullptr;
  std::vector<size_t> Fallback;
  if (Order) {
    Indices = &*Order;
  } else {
    Fallback.resize(Nodes.size());
    for (size_t I = 0; I != Nodes.size(); ++I)
      Fallback[I] = I;
    Indices = &Fallback;
  }
  for (size_t I : *Indices) {
    const StencilNode &Node = Nodes[I];
    std::string InputsDesc;
    for (const FieldAccesses &FA : Node.Accesses) {
      if (!InputsDesc.empty())
        InputsDesc += ", ";
      InputsDesc += formatString("%s(x%zu)", FA.Field.c_str(),
                                 FA.Offsets.size());
    }
    Result += formatString("  stencil %-19s <- %s%s\n", Node.Name.c_str(),
                           InputsDesc.c_str(),
                           isProgramOutput(Node.Name) ? "  [output]" : "");
  }
  return Result;
}

std::vector<std::string> StencilProgram::dimensionNames(size_t Rank) {
  assert(Rank >= 1 && Rank <= 3 && "programs are 1, 2, or 3 dimensional");
  static const char *AllNames[3] = {"k", "j", "i"};
  std::vector<std::string> Names;
  for (size_t I = 3 - Rank; I != 3; ++I)
    Names.push_back(AllNames[I]);
  return Names;
}
