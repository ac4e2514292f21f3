//===- core/BufferAnalysis.cpp - Internal reuse buffers ----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/BufferAnalysis.h"

#include <algorithm>

using namespace stencilflow;

NodeBuffers stencilflow::computeNodeBuffers(const StencilProgram &Program,
                                            const StencilNode &Node,
                                            int VectorWidth) {
  NodeBuffers Result;
  Result.Node = Node.Name;
  int64_t W = VectorWidth;

  for (const FieldAccesses &FA : Node.Accesses) {
    // Lower-dimensional inputs are preloaded ROMs, not streamed buffers.
    const std::vector<bool> &Mask = Program.fieldDimensionMask(FA.Field);
    bool FullRank = std::all_of(Mask.begin(), Mask.end(),
                                [](bool Spanned) { return Spanned; });
    if (!FullRank)
      continue;

    InternalBuffer Buffer;
    Buffer.Field = FA.Field;

    // Linearize all offsets in memory order of the iteration space; the
    // taps are rebased on the window's low end below.
    std::vector<int64_t> &Linearized = Buffer.TapsElements;
    Linearized.reserve(FA.Offsets.size());
    for (const Offset &Off : FA.Offsets)
      Linearized.push_back(Program.IterationSpace.linearize(Off));
    auto [MinIt, MaxIt] =
        std::minmax_element(Linearized.begin(), Linearized.end());
    // The buffered window always includes the center (offset 0): the
    // streaming schedule is anchored there, and copy boundaries substitute
    // the center value. For every stencil in the paper the window already
    // spans the center, so this matches its buffer sizes.
    int64_t MinLinear = std::min<int64_t>(*MinIt, 0);
    int64_t MaxLinear = std::max<int64_t>(*MaxIt, 0);

    Buffer.MinLinear = MinLinear;
    Buffer.MaxLinear = MaxLinear;
    Buffer.DistanceElements = MaxLinear - MinLinear;
    Buffer.SizeElements = Buffer.DistanceElements + W;
    Buffer.NeedsShiftRegister = FA.Offsets.size() > 1;
    // With W elements arriving per cycle, the first output needs the full
    // distance between the lowest and highest access to be resident.
    Buffer.InitCycles = (Buffer.DistanceElements + W - 1) / W;

    for (int64_t &Linear : Linearized)
      Linear -= MinLinear;
    std::sort(Buffer.TapsElements.begin(), Buffer.TapsElements.end());

    Result.Buffers.push_back(std::move(Buffer));
  }

  for (const InternalBuffer &Buffer : Result.Buffers)
    Result.InitCycles = std::max(Result.InitCycles, Buffer.InitCycles);

  // Synchronize fill start times: the largest buffer starts immediately,
  // smaller ones wait max{B} - B_i cycles (Sec. IV-A).
  for (InternalBuffer &Buffer : Result.Buffers)
    Buffer.FillDelayCycles = Result.InitCycles - Buffer.InitCycles;

  return Result;
}

std::vector<NodeBuffers>
stencilflow::computeAllBuffers(const StencilProgram &Program,
                               int VectorWidth) {
  std::vector<NodeBuffers> Result;
  Result.reserve(Program.Nodes.size());
  for (const StencilNode &Node : Program.Nodes)
    Result.push_back(computeNodeBuffers(Program, Node, VectorWidth));
  return Result;
}
