//===- sdfg/Transforms.cpp - NestDim, MapFission, extraction ------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sdfg/Transforms.h"

#include "frontend/SemanticAnalysis.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace stencilflow;
using namespace stencilflow::sdfg;

namespace {

/// Finds (or creates) an access node for \p Data outside any scope.
AccessNode *findOrAddAccess(State &S, const std::set<int> &ScopeNodes,
                            const std::string &Data) {
  for (const std::unique_ptr<Node> &N : S.nodes())
    if (auto *Access = dyn_cast<AccessNode>(N.get()))
      if (Access->data() == Data && !ScopeNodes.count(Access->id()))
        return const_cast<AccessNode *>(Access);
  return S.addAccess(Data);
}

/// The containers read by library node \p LibId within the scope of
/// \p EntryId: from in-edges of the node (scope-internal access nodes or
/// annotated edges from the map entry).
std::vector<std::string> libraryInputs(const State &S, int LibId,
                                       int EntryId) {
  std::vector<std::string> Inputs;
  for (const Memlet &Edge : S.edges()) {
    if (Edge.Dst != LibId)
      continue;
    std::string Data;
    if (Edge.Src == EntryId) {
      Data = Edge.Data;
    } else if (const auto *Access =
                   dyn_cast<AccessNode>(S.findNode(Edge.Src))) {
      Data = Access->data();
    }
    if (!Data.empty() &&
        std::find(Inputs.begin(), Inputs.end(), Data) == Inputs.end())
      Inputs.push_back(Data);
  }
  return Inputs;
}

/// The container written by library node \p LibId (through a
/// scope-internal access node or an annotated edge to the map exit).
std::string libraryOutput(const State &S, int LibId, int ExitId) {
  for (const Memlet &Edge : S.edges()) {
    if (Edge.Src != LibId)
      continue;
    if (Edge.Dst == ExitId && !Edge.Data.empty())
      return Edge.Data;
    if (const auto *Access = dyn_cast<AccessNode>(S.findNode(Edge.Dst)))
      return Access->data();
  }
  return "";
}

/// Raises the rank of \p Stencil: accesses to containers spanning
/// \p DimIndex get a 0 offset component inserted at the dimension's
/// position among the container's spanned dimensions.
void raiseStencilRank(SDFG &G, StencilNode &Stencil, size_t DimIndex) {
  auto rewrite = [&](ExprPtr &E) {
    auto *Access = dyn_cast<FieldAccessExpr>(E.get());
    if (!Access)
      return;
    const Container *C = G.findContainer(Access->field());
    if (!C || DimIndex >= C->DimensionMask.size() ||
        !C->DimensionMask[DimIndex])
      return;
    size_t Position = 0;
    for (size_t Dim = 0; Dim != DimIndex; ++Dim)
      if (C->DimensionMask[Dim])
        ++Position;
    const Offset &Old = Access->offset();
    Offset Off;
    for (size_t Dim = 0; Dim <= Old.size(); ++Dim) {
      if (Dim == Position)
        Off.push_back(0);
      if (Dim != Old.size())
        Off.push_back(Old[Dim]);
    }
    Access->setOffset(Off);
  };
  for (Assignment &Stmt : Stencil.Code.statements())
    walkExprMutable(Stmt.Value, rewrite);
  // Access metadata is recovered by semantic analysis after extraction.
  Stencil.Accesses.clear();
}

} // namespace

Error sdfg::applyMapFission(SDFG &G, size_t StateIndex, int MapEntryId,
                            size_t DimIndex) {
  if (StateIndex >= G.states().size())
    return makeError("applyMapFission: state index out of range");
  State &S = G.states()[StateIndex];
  Node *EntryRaw = S.findNode(MapEntryId);
  if (!EntryRaw || !isa<MapEntryNode>(EntryRaw))
    return makeError("applyMapFission: not a map entry node");
  auto *Entry = cast<MapEntryNode>(EntryRaw);
  int ExitId = Entry->exitId();
  std::string Param = Entry->param();
  int64_t Begin = Entry->begin(), End = Entry->end();

  std::vector<int> Contents = S.scopeContents(MapEntryId);
  std::set<int> ScopeNodes(Contents.begin(), Contents.end());
  ScopeNodes.insert(MapEntryId);
  ScopeNodes.insert(ExitId);

  // Collect library nodes in dataflow order within the scope and the
  // transient access nodes between them.
  std::vector<int> LibraryIds;
  for (int Id : Contents)
    if (isa<StencilLibraryNode>(S.findNode(Id)))
      LibraryIds.push_back(Id);
  if (LibraryIds.empty())
    return makeError("applyMapFission: map contains no stencil nodes");

  // Record each library node's reads/writes before surgery.
  struct Piece {
    StencilNode Payload;
    std::vector<std::string> Inputs;
    std::string Output;
  };
  std::vector<Piece> Pieces;
  for (int LibId : LibraryIds) {
    Piece P;
    P.Payload = cast<StencilLibraryNode>(S.findNode(LibId))->stencil().clone();
    P.Inputs = libraryInputs(S, LibId, MapEntryId);
    P.Output = libraryOutput(S, LibId, ExitId);
    if (P.Output.empty())
      return makeError("applyMapFission: stencil '" + P.Payload.Name +
                       "' writes no container");
    Pieces.push_back(std::move(P));
  }

  // Scope-internal transients now cross scope boundaries: they gain the
  // map's dimension (each map iteration wrote one slice; the temporary
  // materializes all of them).
  for (int Id : Contents) {
    const auto *Access = dyn_cast<AccessNode>(S.findNode(Id));
    if (!Access)
      continue;
    Container *C = G.findContainer(Access->data());
    if (C && C->Transient && DimIndex < C->DimensionMask.size())
      C->DimensionMask[DimIndex] = true;
  }

  // Remove the old scope (entry, exit, and everything inside).
  for (int Id : Contents)
    S.removeNode(Id);
  S.removeNode(MapEntryId);
  S.removeNode(ExitId);

  // Rebuild: one map per stencil, fed from and writing to access nodes
  // outside any scope.
  std::set<int> Outside; // Freshly created nodes are all outside scopes.
  for (const Piece &P : Pieces) {
    auto [NewEntry, NewExit] = S.addMap(Param, Begin, End);
    StencilLibraryNode *Lib = S.addStencil(P.Payload.clone());
    for (const std::string &Input : P.Inputs) {
      AccessNode *In = findOrAddAccess(S, Outside, Input);
      S.connect(In, NewEntry, Input);
      S.connect(NewEntry, Lib, Input);
    }
    AccessNode *Out = findOrAddAccess(S, Outside, P.Output);
    S.connect(Lib, NewExit, P.Output);
    S.connect(NewExit, Out, P.Output);
  }
  return G.validate();
}

Error sdfg::applyNestDim(SDFG &G, size_t StateIndex, int MapEntryId,
                         size_t DimIndex) {
  if (StateIndex >= G.states().size())
    return makeError("applyNestDim: state index out of range");
  State &S = G.states()[StateIndex];
  Node *EntryRaw = S.findNode(MapEntryId);
  if (!EntryRaw || !isa<MapEntryNode>(EntryRaw))
    return makeError("applyNestDim: not a map entry node");
  auto *Entry = cast<MapEntryNode>(EntryRaw);
  int ExitId = Entry->exitId();

  std::vector<int> Contents = S.scopeContents(MapEntryId);
  std::vector<int> LibraryIds;
  for (int Id : Contents)
    if (isa<StencilLibraryNode>(S.findNode(Id)))
      LibraryIds.push_back(Id);
  if (LibraryIds.size() != 1)
    return makeError(formatString(
        "applyNestDim: map must contain exactly one stencil node, found "
        "%zu (apply MapFission first)",
        LibraryIds.size()));

  auto *Lib = cast<StencilLibraryNode>(S.findNode(LibraryIds[0]));
  std::vector<std::string> Inputs = libraryInputs(S, Lib->id(), MapEntryId);
  std::string Output = libraryOutput(S, Lib->id(), ExitId);
  if (Output.empty())
    return makeError("applyNestDim: stencil writes no container");

  // The output container must span the nested dimension (the map wrote
  // one slice per iteration).
  if (Container *C = G.findContainer(Output))
    if (DimIndex < C->DimensionMask.size())
      C->DimensionMask[DimIndex] = true;

  raiseStencilRank(G, Lib->stencil(), DimIndex);

  // Splice the library node out of the scope: inputs connect directly,
  // the output flows to the exit's successors.
  StencilNode Payload = Lib->stencil().clone();
  std::vector<int> ExitSuccs = S.successors(ExitId);
  S.removeNode(Lib->id());
  S.removeNode(MapEntryId);
  S.removeNode(ExitId);
  std::set<int> Outside;
  StencilLibraryNode *NewLib = S.addStencil(std::move(Payload));
  for (const std::string &Input : Inputs) {
    AccessNode *In = findOrAddAccess(S, Outside, Input);
    S.connect(In, NewLib, Input);
  }
  // Reuse the old output access node when it survived; otherwise make one.
  AccessNode *Out = nullptr;
  for (int Succ : ExitSuccs)
    if (Node *N = S.findNode(Succ))
      if (auto *Access = dyn_cast<AccessNode>(N))
        if (Access->data() == Output)
          Out = const_cast<AccessNode *>(Access);
  if (!Out)
    Out = findOrAddAccess(S, Outside, Output);
  S.connect(NewLib, Out, Output);
  return G.validate();
}

Error sdfg::canonicalize(SDFG &G) {
  std::vector<std::string> DimNames =
      StencilProgram::dimensionNames(G.Domain.rank());
  auto dimIndexOf = [&](const std::string &Param) -> int {
    for (size_t Dim = 0; Dim != DimNames.size(); ++Dim)
      if (DimNames[Dim] == Param)
        return static_cast<int>(Dim);
    return -1;
  };

  for (size_t StateIndex = 0; StateIndex != G.states().size();
       ++StateIndex) {
    while (true) {
      State &S = G.states()[StateIndex];
      MapEntryNode *Target = nullptr;
      for (const std::unique_ptr<Node> &N : S.nodes())
        if (auto *Map = dyn_cast<MapEntryNode>(N.get())) {
          Target = const_cast<MapEntryNode *>(Map);
          break;
        }
      if (!Target)
        break;
      int DimIndex = dimIndexOf(Target->param());
      if (DimIndex < 0)
        return makeError("canonicalize: map parameter '" + Target->param() +
                         "' is not a domain dimension");
      // Count library nodes in the scope to pick the transformation.
      size_t LibraryCount = 0;
      for (int Id : S.scopeContents(Target->id()))
        LibraryCount += isa<StencilLibraryNode>(S.findNode(Id));
      Error Err =
          LibraryCount > 1
              ? applyMapFission(G, StateIndex, Target->id(),
                                static_cast<size_t>(DimIndex))
              : applyNestDim(G, StateIndex, Target->id(),
                             static_cast<size_t>(DimIndex));
      if (Err)
        return Err;
    }
  }
  return Error::success();
}

Expected<StencilProgram> sdfg::extractStencilProgram(const SDFG &G) {
  StencilProgram Program;
  Program.Name = G.name();
  Program.IterationSpace = G.Domain;

  // Gather the stencil payloads and the container each one writes.
  std::set<std::string> Written;
  for (const State &S : G.states()) {
    for (const std::unique_ptr<Node> &N : S.nodes()) {
      const auto *Lib = dyn_cast<StencilLibraryNode>(N.get());
      if (!Lib)
        continue;
      // Output container: the access node the stencil writes.
      std::string Output;
      for (int Succ : S.successors(Lib->id()))
        if (const auto *Access = dyn_cast<AccessNode>(S.findNode(Succ)))
          Output = Access->data();
      if (Output.empty())
        return makeError("extraction: stencil '" + Lib->stencil().Name +
                         "' writes no container");
      StencilNode Node = Lib->stencil().clone();
      // Canonical form: the node and its final statement are named after
      // the container it produces.
      if (Node.Name != Output) {
        assert(!Node.Code.empty());
        Node.Code.statements().back().Target = Output;
        Node.Name = Output;
      }
      Written.insert(Output);
      Program.Nodes.push_back(std::move(Node));
    }
  }

  // Containers never written by a stencil are program inputs; give them a
  // deterministic data source derived from the name.
  for (const Container &C : G.containers()) {
    if (Written.count(C.Name) || C.Kind == ContainerKind::Stream)
      continue;
    Field Input;
    Input.Name = C.Name;
    Input.Type = C.Type;
    Input.DimensionMask = C.DimensionMask.empty()
                              ? std::vector<bool>(G.Domain.rank(), true)
                              : C.DimensionMask;
    uint64_t Seed = 0;
    for (char Ch : C.Name)
      Seed = Seed * 131 + static_cast<uint64_t>(Ch);
    Input.Source = DataSource::random(Seed);
    Program.Inputs.push_back(std::move(Input));
  }

  // Non-transient written containers are program outputs.
  for (const Container &C : G.containers())
    if (Written.count(C.Name) && !C.Transient)
      Program.Outputs.push_back(C.Name);

  if (Error Err = analyzeProgram(Program)) {
    // Fall back: if no non-transient outputs exist, export the sinks.
    if (!Program.Outputs.empty())
      return Err;
    for (StencilNode &Node : Program.Nodes)
      if (Error NodeErr = analyzeNode(Program, Node))
        return NodeErr;
    for (const StencilNode &Node : Program.Nodes)
      if (Program.consumersOf(Node.Name).empty())
        Program.Outputs.push_back(Node.Name);
    if (Error RetryErr = Program.validate())
      return RetryErr;
  }
  return Program;
}
