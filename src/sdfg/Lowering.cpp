//===- sdfg/Lowering.cpp - Program -> SDFG and library-node expansion ---------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sdfg/Lowering.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace stencilflow;
using namespace stencilflow::sdfg;

namespace {

/// Stream container name for the edge Source -> Consumer.
std::string streamName(const std::string &Source,
                       const std::string &Consumer) {
  return Source + "__to__" + Consumer;
}

} // namespace

Expected<SDFG> sdfg::buildSDFG(const CompiledProgram &Compiled,
                               const DataflowAnalysis &Dataflow) {
  const StencilProgram &Program = Compiled.program();
  SDFG G(Program.Name);
  G.Domain = Program.IterationSpace;

  // Containers: program inputs and outputs are arrays; every streamed
  // edge becomes a stream container carrying its delay-buffer depth.
  for (const Field &Input : Program.Inputs) {
    Container C;
    C.Name = Input.Name;
    C.Type = Input.Type;
    C.DimensionMask = Input.DimensionMask;
    C.Kind = ContainerKind::Array;
    C.Transient = false;
    if (Error Err = G.addContainer(std::move(C)))
      return Err;
  }
  for (const std::string &Output : Program.Outputs) {
    Container C;
    C.Name = Output;
    C.Type = Program.fieldType(Output);
    C.DimensionMask = std::vector<bool>(Program.IterationSpace.rank(), true);
    C.Kind = ContainerKind::Array;
    C.Transient = false;
    if (Error Err = G.addContainer(std::move(C)))
      return Err;
  }
  for (const DataflowEdge &Edge : Dataflow.Edges) {
    Container C;
    C.Name = streamName(Edge.Source, Edge.Consumer);
    C.Type = Program.fieldType(Edge.Source);
    C.DimensionMask = std::vector<bool>(Program.IterationSpace.rank(), true);
    C.Kind = ContainerKind::Stream;
    C.BufferDepth = Edge.BufferDepth;
    C.Transient = true;
    if (Error Err = G.addContainer(std::move(C)))
      return Err;
  }

  State &S = G.addState("dataflow");

  // Library nodes plus input/output access nodes.
  std::map<std::string, StencilLibraryNode *> NodeOf;
  for (size_t Index : Compiled.topologicalOrder()) {
    const StencilNode &Node = Program.Nodes[Index];
    NodeOf[Node.Name] = S.addStencil(Node.clone());
  }

  std::map<std::string, AccessNode *> InputAccess;
  for (const Field &Input : Program.Inputs)
    if (!Program.consumersOf(Input.Name).empty())
      InputAccess[Input.Name] = S.addAccess(Input.Name);

  for (size_t Index : Compiled.topologicalOrder()) {
    const StencilNode &Node = Program.Nodes[Index];
    StencilLibraryNode *Lib = NodeOf.at(Node.Name);
    for (const FieldAccesses &FA : Node.Accesses) {
      if (Program.findInput(FA.Field)) {
        // Lower-rank inputs connect directly; streamed inputs through the
        // edge's stream container access node.
        const DataflowEdge *Edge = Dataflow.findEdge(FA.Field, Node.Name);
        if (!Edge) {
          S.connect(InputAccess.at(FA.Field), Lib, FA.Field);
          continue;
        }
        AccessNode *Stream = S.addAccess(streamName(FA.Field, Node.Name));
        S.connect(InputAccess.at(FA.Field), Stream, FA.Field);
        S.connect(Stream, Lib, Stream->data());
      } else {
        AccessNode *Stream = S.addAccess(streamName(FA.Field, Node.Name));
        S.connect(NodeOf.at(FA.Field), Stream, Stream->data());
        S.connect(Stream, Lib, Stream->data());
      }
    }
    if (Program.isProgramOutput(Node.Name)) {
      AccessNode *Out = S.addAccess(Node.Name);
      S.connect(Lib, Out, Node.Name);
    }
  }

  if (Error Err = G.validate())
    return Err;
  return G;
}

Error sdfg::expandStencilNode(SDFG &G, State &S, int NodeId,
                              const CompiledProgram &Compiled,
                              const DataflowAnalysis &Dataflow) {
  Node *Raw = S.findNode(NodeId);
  if (!Raw || !isa<StencilLibraryNode>(Raw))
    return makeError("expandStencilNode: not a stencil library node");
  auto *Lib = cast<StencilLibraryNode>(Raw);
  const StencilProgram &Program = Compiled.program();
  const std::string Name = Lib->stencil().Name;
  int NodeIndex = Program.nodeIndex(Name);
  if (NodeIndex < 0)
    return makeError("expandStencilNode: unknown stencil '" + Name + "'");
  const NodeBuffers &Buffers =
      Dataflow.Buffers[static_cast<size_t>(NodeIndex)];

  // Remember the library node's payload and neighborhood before removing
  // it (removal destroys the node).
  std::string ComputeCode = Lib->stencil().Code.toString();
  std::vector<int> Preds = S.predecessors(NodeId);
  std::vector<int> Succs = S.successors(NodeId);
  S.removeNode(NodeId);
  Lib = nullptr;

  int64_t W = Compiled.vectorWidth();
  int64_t Iterations = Program.IterationSpace.numCells() / W;

  // The pipeline scope over the stencil's iteration space, annotated with
  // its initialization (buffer fill) and draining phases.
  auto [Pipeline, PipelineEnd] = S.addPipeline(
      "it", Iterations + Buffers.InitCycles, Buffers.InitCycles,
      Buffers.InitCycles);

  // Shift phase: one fully unrolled map per buffered field, shifting the
  // shift-register contents by the vector width (Fig. 12 left).
  const Node *Previous = Pipeline;
  for (const InternalBuffer &Buffer : Buffers.Buffers) {
    if (!Buffer.NeedsShiftRegister)
      continue;
    std::string RegName = Name + "__sreg__" + Buffer.Field;
    Container Reg;
    Reg.Name = RegName;
    Reg.Type = Program.fieldType(Buffer.Field);
    Reg.DimensionMask = {}; // 1D shift register; sized in elements.
    Reg.Kind = ContainerKind::Array;
    Reg.Transient = true;
    Reg.BufferDepth = Buffer.SizeElements;
    if (Error Err = G.addContainer(std::move(Reg)))
      return Err;

    auto [Shift, ShiftEnd] = S.addMap(
        "s", 0, Buffer.SizeElements - W, /*Unrolled=*/true);
    TaskletNode *Mover = S.addTasklet(
        "shift_" + Buffer.Field,
        formatString("%s[s] = %s[s + %lld]", RegName.c_str(),
                     RegName.c_str(), static_cast<long long>(W)));
    AccessNode *RegIn = S.addAccess(RegName);
    AccessNode *RegOut = S.addAccess(RegName);
    S.connect(Previous, Shift);
    S.connect(RegIn, Shift, RegName);
    S.connect(Shift, Mover, RegName, "s + W");
    S.connect(Mover, ShiftEnd, RegName, "s");
    S.connect(ShiftEnd, RegOut, RegName);
    Previous = ShiftEnd;
  }

  // Update phase: read one vector from each input stream into the front
  // of its register (suppressed while draining).
  for (const InternalBuffer &Buffer : Buffers.Buffers) {
    TaskletNode *Update = S.addTasklet(
        "update_" + Buffer.Field,
        formatString("%s__sreg__%s[back] = read(%s)", Name.c_str(),
                     Buffer.Field.c_str(), Buffer.Field.c_str()));
    S.connect(Previous, Update);
    Previous = Update;
  }

  // Compute phase: parametrically unrolled over the vector lanes, each
  // lane applying its own boundary predication, then a conditional write
  // that drops results during the initialization phase.
  auto [Lanes, LanesEnd] = S.addMap("w", 0, W, /*Unrolled=*/true);
  TaskletNode *Compute = S.addTasklet("compute_" + Name, ComputeCode);
  TaskletNode *Guard = S.addTasklet(
      "write_" + Name, "if (it >= init) write(" + Name + ")");
  S.connect(Previous, Lanes);
  S.connect(Lanes, Compute);
  S.connect(Compute, Guard, Name);
  S.connect(Guard, LanesEnd, Name);
  S.connect(LanesEnd, PipelineEnd, Name);

  // Reconnect the stencil's neighborhood: inputs feed the pipeline scope,
  // outputs leave through its exit.
  for (int Pred : Preds)
    if (const Node *N = S.findNode(Pred))
      S.connect(N, Pipeline, isa<AccessNode>(N)
                                 ? cast<AccessNode>(N)->data()
                                 : "");
  for (int Succ : Succs)
    if (const Node *N = S.findNode(Succ))
      S.connect(PipelineEnd, N, isa<AccessNode>(N)
                                    ? cast<AccessNode>(N)->data()
                                    : "");
  return Error::success();
}

Error sdfg::expandAllStencilNodes(SDFG &G, const CompiledProgram &Compiled,
                                  const DataflowAnalysis &Dataflow) {
  for (State &S : G.states()) {
    // Collect first: expansion mutates the node list.
    std::vector<int> LibraryNodes;
    for (const std::unique_ptr<Node> &N : S.nodes())
      if (isa<StencilLibraryNode>(N.get()))
        LibraryNodes.push_back(N->id());
    for (int Id : LibraryNodes)
      if (Error Err = expandStencilNode(G, S, Id, Compiled, Dataflow))
        return Err;
  }
  return G.validate();
}
