//===- core/DataflowAnalysis.cpp - Delay buffers & pipeline latency ----------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DataflowAnalysis.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <map>

using namespace stencilflow;

const DataflowEdge *
DataflowAnalysis::findEdge(const std::string &Source,
                           const std::string &Consumer) const {
  for (const DataflowEdge &Edge : Edges)
    if (Edge.Source == Source && Edge.Consumer == Consumer)
      return &Edge;
  return nullptr;
}

const NodeDataflow &
DataflowAnalysis::nodeInfo(const std::string &Name) const {
  for (const NodeDataflow &Node : Nodes)
    if (Node.Node == Name)
      return Node;
  assert(false && "nodeInfo() of an unknown node");
  return Nodes.front();
}

const NodeBuffers &
DataflowAnalysis::bufferInfo(const std::string &Name) const {
  for (const NodeBuffers &Buffers : this->Buffers)
    if (Buffers.Node == Name)
      return Buffers;
  assert(false && "bufferInfo() of an unknown node");
  return Buffers.front();
}

int64_t DataflowAnalysis::totalDelayBufferElements(int VectorWidth) const {
  int64_t Total = 0;
  for (const DataflowEdge &Edge : Edges)
    Total += Edge.BufferDepth * VectorWidth;
  return Total;
}

std::string DataflowAnalysis::report() const {
  std::string Result;
  Result += "node timing (cycles):\n";
  for (const NodeDataflow &Node : Nodes)
    Result += formatString("  %-24s init=%-8lld circuit=%-6lld total=%lld\n",
                           Node.Node.c_str(),
                           static_cast<long long>(Node.InitCycles),
                           static_cast<long long>(Node.CircuitLatency),
                           static_cast<long long>(Node.TotalDelay));
  Result += "delay buffers (vector units):\n";
  for (const DataflowEdge &Edge : Edges)
    Result += formatString("  %-24s -> %-20s delay=%-8lld buffer=%lld\n",
                           Edge.Source.c_str(), Edge.Consumer.c_str(),
                           static_cast<long long>(Edge.PathDelay),
                           static_cast<long long>(Edge.BufferDepth));
  Result += formatString("pipeline latency L = %lld cycles\n",
                         static_cast<long long>(PipelineLatency));
  return Result;
}

std::vector<int64_t>
stencilflow::circuitLatencies(const CompiledProgram &Compiled,
                              const compute::LatencyTable &Latencies) {
  std::vector<int64_t> Result(Compiled.program().Nodes.size());
  for (size_t Index = 0; Index != Result.size(); ++Index)
    Result[Index] = Compiled.kernel(Index).criticalPathLatency(Latencies);
  return Result;
}

Expected<DataflowAnalysis>
stencilflow::analyzeDataflow(const CompiledProgram &Compiled,
                             const compute::LatencyTable &Latencies) {
  return analyzeDataflow(Compiled, circuitLatencies(Compiled, Latencies));
}

Expected<DataflowAnalysis>
stencilflow::analyzeDataflow(const CompiledProgram &Compiled,
                             const std::vector<int64_t> &CircuitLatencies) {
  const StencilProgram &Program = Compiled.program();
  assert(CircuitLatencies.size() == Program.Nodes.size() &&
         "one circuit latency per node");

  DataflowAnalysis Result;
  Result.Buffers = computeAllBuffers(Program, Compiled.vectorWidth());
  Result.Nodes.resize(Program.Nodes.size());

  // Total delay from any source to each field's first available element.
  // Off-chip inputs are available from cycle 0 (prefetchers read ahead of
  // computations, Sec. VI).
  std::map<std::string, int64_t> FieldDelay;
  for (const Field &Input : Program.Inputs)
    FieldDelay[Input.Name] = 0;

  for (size_t Index : Compiled.topologicalOrder()) {
    const StencilNode &Node = Program.Nodes[Index];
    NodeDataflow &Info = Result.Nodes[Index];
    Info.Node = Node.Name;
    Info.InitCycles = Result.Buffers[Index].InitCycles;
    Info.CircuitLatency = CircuitLatencies[Index];

    // Gather incoming streamed edges. The per-edge delay is the source's
    // total delay plus the time this edge's internal buffer spends filling
    // at the consumer ("including the contribution of the initialization
    // phase of the node itself", Sec. IV-B).
    std::vector<DataflowEdge> Incoming;
    int64_t MaxDelay = 0;
    for (const FieldAccesses &FA : Node.Accesses) {
      const std::vector<bool> &Mask = Program.fieldDimensionMask(FA.Field);
      bool FullRank = std::all_of(Mask.begin(), Mask.end(),
                                  [](bool Spanned) { return Spanned; });
      if (!FullRank)
        continue; // Preloaded ROM, not a streamed edge.
      auto It = FieldDelay.find(FA.Field);
      assert(It != FieldDelay.end() &&
             "topological order visited a consumer before its producer");
      DataflowEdge Edge;
      Edge.Source = FA.Field;
      Edge.Consumer = Node.Name;
      for (const InternalBuffer &Buffer : Result.Buffers[Index].Buffers)
        if (Buffer.Field == FA.Field)
          Edge.FillCycles = Buffer.InitCycles;
      Edge.PathDelay = It->second + Edge.FillCycles;
      MaxDelay = std::max(MaxDelay, Edge.PathDelay);
      Incoming.push_back(std::move(Edge));
    }

    // Delay buffer per edge: highest delay across all edges minus the
    // edge's own delay; at least one edge gets zero (Sec. IV-B).
    for (DataflowEdge &Edge : Incoming) {
      Edge.BufferDepth = MaxDelay - Edge.PathDelay;
      Result.Edges.push_back(std::move(Edge));
    }

    // The node's first output emerges once the slowest edge's buffer is
    // full and the value has traversed the compute circuit.
    Info.TotalDelay = MaxDelay + Info.CircuitLatency;
    FieldDelay[Node.Name] = Info.TotalDelay;
  }

  for (const std::string &Output : Program.Outputs)
    Result.PipelineLatency =
        std::max(Result.PipelineLatency, FieldDelay.at(Output));
  return Result;
}
