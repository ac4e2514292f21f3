//===- core/ResourceModel.cpp - FPGA resource & frequency model --------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ResourceModel.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace stencilflow;

DeviceResources DeviceResources::stratix10GX2800() {
  DeviceResources Device;
  Device.ALMs = 692000;
  Device.FFs = 2800000;
  Device.M20Ks = 8900;
  Device.DSPs = 4468;
  return Device;
}

double ResourceUsage::peakUtilization(const DeviceResources &Device) const {
  double Peak = 0.0;
  Peak = std::max(Peak, static_cast<double>(ALMs) /
                            static_cast<double>(Device.ALMs));
  Peak = std::max(Peak, static_cast<double>(FFs) /
                            static_cast<double>(Device.FFs));
  Peak = std::max(Peak, static_cast<double>(M20Ks) /
                            static_cast<double>(Device.M20Ks));
  Peak = std::max(Peak, static_cast<double>(DSPs) /
                            static_cast<double>(Device.DSPs));
  return Peak;
}

std::string ResourceUsage::report(const DeviceResources &Device) const {
  return formatString(
      "ALM %lldK (%.1f%%), FF %lldK (%.1f%%), M20K %lld (%.1f%%), DSP %lld "
      "(%.1f%%)",
      static_cast<long long>(ALMs / 1000),
      100.0 * static_cast<double>(ALMs) / static_cast<double>(Device.ALMs),
      static_cast<long long>(FFs / 1000),
      100.0 * static_cast<double>(FFs) / static_cast<double>(Device.FFs),
      static_cast<long long>(M20Ks),
      100.0 * static_cast<double>(M20Ks) / static_cast<double>(Device.M20Ks),
      static_cast<long long>(DSPs),
      100.0 * static_cast<double>(DSPs) / static_cast<double>(Device.DSPs));
}

namespace {

int64_t m20ksForBytes(int64_t Bytes, const ResourceModelConfig &Config) {
  if (Bytes <= 0)
    return 0;
  return (Bytes + Config.M20KBytes - 1) / Config.M20KBytes;
}

} // namespace

ResourceUsage
stencilflow::estimateNodeResources(const CompiledProgram &Compiled,
                                   size_t NodeIndex,
                                   const NodeBuffers &Buffers,
                                   const ResourceModelConfig &Config) {
  const StencilProgram &Program = Compiled.program();
  const compute::Kernel &Kernel = Compiled.kernel(NodeIndex);
  const compute::OpCensus &Census = Kernel.census();
  int64_t W = Compiled.vectorWidth();
  size_t ElementBytes = dataTypeSize(Program.Nodes[NodeIndex].Type);

  int64_t FlopLanes = (Census.Additions + Census.Multiplications) * W;
  int64_t DivSqrtLanes = (Census.Divisions + Census.SquareRoots) * W;
  int64_t TranscendentalLanes = Census.Transcendental * W;
  int64_t CheapLanes =
      (Census.MinMax + Census.Comparisons + Census.Branches + Census.Other) *
      W;
  int64_t InputLanes = static_cast<int64_t>(Kernel.inputs().size()) * W;

  ResourceUsage Usage;
  Usage.ALMs = Config.ALMsPerStencilBase +
               FlopLanes * Config.ALMsPerFlopLane +
               DivSqrtLanes * Config.ALMsPerDivSqrtLane +
               TranscendentalLanes * Config.ALMsPerTranscendentalLane +
               CheapLanes * Config.ALMsPerCheapOpLane +
               InputLanes * Config.ALMsPerInputLane;
  Usage.DSPs = FlopLanes * Config.DSPsPerFlopLane +
               DivSqrtLanes * Config.DSPsPerDivSqrtLane +
               TranscendentalLanes * Config.DSPsPerTranscendentalLane;

  Usage.M20Ks = Config.M20KsPerStencilBase;
  for (const InternalBuffer &Buffer : Buffers.Buffers)
    if (Buffer.NeedsShiftRegister)
      Usage.M20Ks += m20ksForBytes(
          Buffer.SizeElements * static_cast<int64_t>(ElementBytes), Config);

  Usage.FFs = static_cast<int64_t>(
      std::llround(Config.FFsPerALM * static_cast<double>(Usage.ALMs)));
  return Usage;
}

ResourceUsage
stencilflow::estimateEdgeResources(const CompiledProgram &Compiled,
                                   const DataflowEdge &Edge,
                                   const ResourceModelConfig &Config) {
  const StencilProgram &Program = Compiled.program();
  size_t ElementBytes = dataTypeSize(Program.fieldType(Edge.Source));
  ResourceUsage Usage;
  int64_t Bytes = Edge.BufferDepth * Compiled.vectorWidth() *
                  static_cast<int64_t>(ElementBytes);
  Usage.M20Ks = m20ksForBytes(Bytes, Config);
  // Channel wiring contributes a small amount of logic.
  Usage.ALMs = 50 + Edge.BufferDepth / 64;
  Usage.FFs = static_cast<int64_t>(
      std::llround(Config.FFsPerALM * static_cast<double>(Usage.ALMs)));
  return Usage;
}

ResourceUsage
stencilflow::estimateMemoryEndpoint(int Lanes, size_t ElementBytes,
                                    const ResourceModelConfig &Config) {
  ResourceUsage Usage;
  Usage.ALMs = Config.ALMsPerMemoryEndpointBase +
               static_cast<int64_t>(Lanes) * Config.ALMsPerMemoryEndpointLane;
  Usage.M20Ks = Config.M20KsPerMemoryEndpoint +
                m20ksForBytes(static_cast<int64_t>(Lanes) *
                                  static_cast<int64_t>(ElementBytes) * 64,
                              Config);
  Usage.FFs = static_cast<int64_t>(
      std::llround(Config.FFsPerALM * static_cast<double>(Usage.ALMs)));
  return Usage;
}

ResourceUsage
stencilflow::estimateNetworkEndpoint(const ResourceModelConfig &Config) {
  ResourceUsage Usage;
  Usage.ALMs = Config.ALMsPerNetworkEndpoint;
  Usage.M20Ks = Config.M20KsPerNetworkEndpoint;
  Usage.FFs = static_cast<int64_t>(
      std::llround(Config.FFsPerALM * static_cast<double>(Usage.ALMs)));
  return Usage;
}

ResourceUsage
stencilflow::estimateProgramResources(const CompiledProgram &Compiled,
                                      const DataflowAnalysis &Dataflow,
                                      const ResourceModelConfig &Config) {
  const StencilProgram &Program = Compiled.program();
  ResourceUsage Total;

  for (size_t I = 0, E = Program.Nodes.size(); I != E; ++I)
    Total += estimateNodeResources(Compiled, I, Dataflow.Buffers[I], Config);

  for (const DataflowEdge &Edge : Dataflow.Edges)
    Total += estimateEdgeResources(Compiled, Edge, Config);

  // One reader endpoint per off-chip input that is actually consumed; one
  // writer endpoint per program output.
  for (const Field &Input : Program.Inputs)
    if (!Program.consumersOf(Input.Name).empty())
      Total += estimateMemoryEndpoint(
          Input.isFullRank() ? Compiled.vectorWidth() : 1,
          dataTypeSize(Input.Type), Config);
  for (const std::string &Output : Program.Outputs)
    Total += estimateMemoryEndpoint(Compiled.vectorWidth(),
                                    dataTypeSize(Program.fieldType(Output)),
                                    Config);
  return Total;
}

double stencilflow::estimateFrequencyMHz(const ResourceUsage &Usage,
                                         const DeviceResources &Device,
                                         const ResourceModelConfig &Config) {
  double Utilization = Usage.peakUtilization(Device);
  double Frequency =
      Config.MaxFrequencyMHz - Config.FrequencySlopeMHz * Utilization;
  return std::max(Config.MinFrequencyMHz, Frequency);
}
