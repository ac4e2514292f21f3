//===- core/Partitioner.h - Multi-device mapping ------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mapping to the distributed setting (paper Sec. III-B, Fig. 5). To scale
/// beyond one chip's off-chip bandwidth, on-chip memory and logic, designs
/// span multiple devices: some inter-stencil connections cross devices and
/// become network (SMI remote) streams, and off-chip data must be present
/// in the DRAM of every device that accesses it, implying replication.
///
/// The partitioner assigns stencil nodes to devices in topological order,
/// greedily filling each device up to a target utilization of the resource
/// model. Monotonic assignment in topological order guarantees all remote
/// streams flow from lower- to higher-numbered devices, matching the
/// testbed's chained FPGA topology (Sec. VIII-B).
///
/// Units are placed from the resource ledger (core/ResourceModel.h); a
/// device's resources sum its units' entries and its endpoints.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_CORE_PARTITIONER_H
#define STENCILFLOW_CORE_PARTITIONER_H

#include "core/DataflowAnalysis.h"
#include "core/ResourceModel.h"
#include "support/Error.h"

#include <map>
#include <string>
#include <vector>

namespace stencilflow {

/// Everything placed on one device.
struct DevicePlacement {
  /// Stencil nodes mapped to this device, in topological order.
  std::vector<std::string> Nodes;

  /// Off-chip input fields that must be resident in this device's DRAM
  /// (inputs consumed by any node placed here). Inputs consumed on several
  /// devices are replicated to each (Fig. 5).
  std::vector<std::string> ReplicatedInputs;

  /// Program outputs written back from this device.
  std::vector<std::string> OutputsWritten;

  /// Estimated resource usage of this device's design, including network
  /// endpoints.
  ResourceUsage Resources;
};

/// An inter-stencil connection that crosses devices: realized as an SMI
/// remote stream (Sec. VI-B).
struct RemoteStream {
  std::string Source;   ///< Producing field/node.
  std::string Consumer; ///< Consuming node.
  int SourceDevice = 0;
  int ConsumerDevice = 0;
};

/// A complete multi-device mapping.
struct Partition {
  std::vector<DevicePlacement> Devices;
  std::vector<RemoteStream> RemoteStreams;

  size_t numDevices() const { return Devices.size(); }

  /// Device index of node \p Name; the node must be placed.
  int deviceOf(const std::string &Name) const;

  /// Human-readable placement report.
  std::string report() const;

private:
  friend Expected<Partition>
  partitionProgram(const CompiledProgram &, const ResourceLedger &,
                   const struct PartitionOptions &);
  std::map<std::string, int> NodeDevice;
};

/// Partitioning options.
struct PartitionOptions {
  /// Per-device capacities.
  DeviceResources Device = DeviceResources::stratix10GX2800();

  /// Maximum devices available (the paper's testbed chains up to 8).
  int MaxDevices = 8;

  /// Fraction of each resource class the partitioner may fill before
  /// spilling to the next device. Real place-and-route fails well below
  /// 100%; the paper's largest designs stop at ~82% ALMs.
  double TargetUtilization = 0.85;

  /// Practical limit on stencil units per device. The Intel OpenCL
  /// toolchain struggles to place designs with many hundreds of kernels
  /// and channels long before raw resources are exhausted — the paper's
  /// best unvectorized chain stops near 128 stencils at only ~34% ALM
  /// utilization (Tab. I), which this knob models.
  int MaxStencilsPerDevice = 128;

  /// Resource model calibration.
  ResourceModelConfig ResourceConfig;
};

/// Maps \p Compiled onto one or more devices. Fails if a single node
/// exceeds one device's capacity or more than MaxDevices are needed.
Expected<Partition> partitionProgram(const CompiledProgram &Compiled,
                                     const DataflowAnalysis &Dataflow,
                                     const PartitionOptions &Options = {});

/// As above, from \p Ledger, priced under Options.ResourceConfig.
Expected<Partition> partitionProgram(const CompiledProgram &Compiled,
                                     const ResourceLedger &Ledger,
                                     const PartitionOptions &Options);

} // namespace stencilflow

#endif // STENCILFLOW_CORE_PARTITIONER_H
