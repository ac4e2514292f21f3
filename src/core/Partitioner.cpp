//===- core/Partitioner.cpp - Multi-device mapping ---------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Partitioner.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace stencilflow;

int Partition::deviceOf(const std::string &Name) const {
  auto It = NodeDevice.find(Name);
  assert(It != NodeDevice.end() && "deviceOf() of an unplaced node");
  return It->second;
}

std::string Partition::report() const {
  std::string Result =
      formatString("partition across %zu device(s):\n", Devices.size());
  for (size_t D = 0, E = Devices.size(); D != E; ++D) {
    const DevicePlacement &Device = Devices[D];
    Result += formatString("  device %zu: %zu stencil(s), inputs {%s}, "
                           "outputs {%s}\n",
                           D, Device.Nodes.size(),
                           joinStrings(Device.ReplicatedInputs, ", ").c_str(),
                           joinStrings(Device.OutputsWritten, ", ").c_str());
  }
  for (const RemoteStream &Stream : RemoteStreams)
    Result += formatString("  remote stream %s -> %s (device %d -> %d)\n",
                           Stream.Source.c_str(), Stream.Consumer.c_str(),
                           Stream.SourceDevice, Stream.ConsumerDevice);
  return Result;
}

Expected<Partition>
stencilflow::partitionProgram(const CompiledProgram &Compiled,
                              const DataflowAnalysis &Dataflow,
                              const PartitionOptions &Options) {
  const StencilProgram &Program = Compiled.program();
  DeviceResources Budget;
  Budget.ALMs = static_cast<int64_t>(
      Options.TargetUtilization * static_cast<double>(Options.Device.ALMs));
  Budget.FFs = static_cast<int64_t>(
      Options.TargetUtilization * static_cast<double>(Options.Device.FFs));
  Budget.M20Ks = static_cast<int64_t>(
      Options.TargetUtilization * static_cast<double>(Options.Device.M20Ks));
  Budget.DSPs = static_cast<int64_t>(
      Options.TargetUtilization * static_cast<double>(Options.Device.DSPs));

  Partition Result;
  Result.Devices.emplace_back();
  ResourceUsage Current; // Usage of the device being filled.

  auto nodeCost = [&](size_t Index) {
    ResourceUsage Cost = estimateNodeResources(
        Compiled, Index, Dataflow.Buffers[Index], Options.ResourceConfig);
    // Incoming delay buffers live on the consumer's device.
    for (const DataflowEdge &Edge : Dataflow.Edges)
      if (Edge.Consumer == Program.Nodes[Index].Name)
        Cost += estimateEdgeResources(Compiled, Edge,
                                      Options.ResourceConfig);
    return Cost;
  };

  for (size_t Index : Compiled.topologicalOrder()) {
    ResourceUsage Cost = nodeCost(Index);
    if (!Cost.fitsWithin(Budget))
      return makeError(ErrorCode::Infeasible,
                       "stencil '" + Program.Nodes[Index].Name +
                       "' alone exceeds one device's capacity (" +
                       Cost.report(Options.Device) + ")");
    ResourceUsage Combined = Current + Cost;
    bool KernelCountExceeded =
        static_cast<int>(Result.Devices.back().Nodes.size()) >=
        Options.MaxStencilsPerDevice;
    if (!Combined.fitsWithin(Budget) || KernelCountExceeded) {
      // Spill to a new device.
      if (static_cast<int>(Result.Devices.size()) >= Options.MaxDevices)
        return makeError(ErrorCode::Infeasible,
                         formatString("program does not fit on %d "
                                      "device(s)", Options.MaxDevices));
      Result.Devices.emplace_back();
      Current = Cost;
    } else {
      Current = Combined;
    }
    int Device = static_cast<int>(Result.Devices.size()) - 1;
    Result.Devices.back().Nodes.push_back(Program.Nodes[Index].Name);
    Result.NodeDevice[Program.Nodes[Index].Name] = Device;
  }

  // Derive replicated inputs, written outputs, and remote streams.
  for (size_t Index = 0, E = Program.Nodes.size(); Index != E; ++Index) {
    const StencilNode &Node = Program.Nodes[Index];
    int ConsumerDevice = Result.NodeDevice.at(Node.Name);
    DevicePlacement &Placement =
        Result.Devices[static_cast<size_t>(ConsumerDevice)];
    for (const FieldAccesses &FA : Node.Accesses) {
      if (Program.findInput(FA.Field)) {
        if (std::find(Placement.ReplicatedInputs.begin(),
                      Placement.ReplicatedInputs.end(),
                      FA.Field) == Placement.ReplicatedInputs.end())
          Placement.ReplicatedInputs.push_back(FA.Field);
        continue;
      }
      int SourceDevice = Result.NodeDevice.at(FA.Field);
      if (SourceDevice == ConsumerDevice)
        continue;
      assert(SourceDevice < ConsumerDevice &&
             "topological placement must be monotonic");
      Result.RemoteStreams.push_back(
          RemoteStream{FA.Field, Node.Name, SourceDevice, ConsumerDevice});
    }
  }
  for (const std::string &Output : Program.Outputs) {
    int Device = Result.NodeDevice.at(Output);
    Result.Devices[static_cast<size_t>(Device)].OutputsWritten.push_back(
        Output);
  }

  // Account per-device resources including endpoints.
  for (size_t D = 0, E = Result.Devices.size(); D != E; ++D) {
    DevicePlacement &Placement = Result.Devices[D];
    ResourceUsage Usage;
    for (const std::string &NodeName : Placement.Nodes) {
      size_t Index = static_cast<size_t>(Program.nodeIndex(NodeName));
      Usage += nodeCost(Index);
    }
    for (const std::string &Input : Placement.ReplicatedInputs) {
      const Field *InputField = Program.findInput(Input);
      Usage += estimateMemoryEndpoint(
          InputField->isFullRank() ? Compiled.vectorWidth() : 1,
          dataTypeSize(InputField->Type), Options.ResourceConfig);
    }
    for (const std::string &Output : Placement.OutputsWritten)
      Usage += estimateMemoryEndpoint(Compiled.vectorWidth(),
                                      dataTypeSize(Program.fieldType(Output)),
                                      Options.ResourceConfig);
    for (const RemoteStream &Stream : Result.RemoteStreams)
      if (Stream.SourceDevice == static_cast<int>(D) ||
          Stream.ConsumerDevice == static_cast<int>(D))
        Usage += estimateNetworkEndpoint(Options.ResourceConfig);
    Placement.Resources = Usage;
  }

  return Result;
}
