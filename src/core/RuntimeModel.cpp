//===- core/RuntimeModel.cpp - Expected runtime & roofline -------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RuntimeModel.h"

using namespace stencilflow;

RuntimeEstimate
stencilflow::computeRuntimeEstimate(const CompiledProgram &Compiled,
                                    const DataflowAnalysis &Dataflow) {
  const StencilProgram &Program = Compiled.program();
  RuntimeEstimate Estimate;
  Estimate.StreamedCycles =
      Program.IterationSpace.numCells() / Compiled.vectorWidth();
  Estimate.LatencyCycles = Dataflow.PipelineLatency;
  Estimate.TotalCycles = Estimate.LatencyCycles + Estimate.StreamedCycles;
  Estimate.FlopsPerCell = Compiled.totalCensus().flops();
  Estimate.TotalFlops =
      Estimate.FlopsPerCell * Program.IterationSpace.numCells();
  return Estimate;
}

MemoryTraffic
stencilflow::computeMemoryTraffic(const CompiledProgram &Compiled) {
  const StencilProgram &Program = Compiled.program();
  MemoryTraffic Traffic;
  int64_t StreamedEndpoints = 0;

  for (const Field &Input : Program.Inputs) {
    // Skip inputs nobody reads (legal but dead).
    if (Program.consumersOf(Input.Name).empty())
      continue;
    Shape FieldShape = Input.shapeWithin(Program.IterationSpace);
    Traffic.ReadElements += FieldShape.numCells();
    Traffic.ReadBytes +=
        FieldShape.numCells() *
        static_cast<int64_t>(dataTypeSize(Input.Type));
    if (Input.isFullRank())
      ++StreamedEndpoints;
    // Lower-dimensional inputs are preloaded before the streaming phase and
    // do not consume steady-state bandwidth.
  }

  for (const std::string &Output : Program.Outputs) {
    const StencilNode *Node = Program.findNode(Output);
    assert(Node && "validated program output must exist");
    Traffic.WriteElements += Program.IterationSpace.numCells();
    Traffic.WriteBytes += Program.IterationSpace.numCells() *
                          static_cast<int64_t>(dataTypeSize(Node->Type));
    ++StreamedEndpoints;
  }

  Traffic.OperandsPerCycle = StreamedEndpoints * Compiled.vectorWidth();
  return Traffic;
}

RooflineAnalysis
stencilflow::computeRoofline(const CompiledProgram &Compiled) {
  const StencilProgram &Program = Compiled.program();
  MemoryTraffic Traffic = computeMemoryTraffic(Compiled);
  int64_t TotalFlops =
      Compiled.totalCensus().flops() * Program.IterationSpace.numCells();

  RooflineAnalysis Roofline;
  if (Traffic.totalElements() > 0)
    Roofline.OpsPerOperand = static_cast<double>(TotalFlops) /
                             static_cast<double>(Traffic.totalElements());
  if (Traffic.totalBytes() > 0)
    Roofline.OpsPerByte = static_cast<double>(TotalFlops) /
                          static_cast<double>(Traffic.totalBytes());
  return Roofline;
}
