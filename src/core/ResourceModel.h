//===- core/ResourceModel.h - FPGA resource & frequency model -----*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A calibrated resource model of the paper's testbed device (BittWare
/// 520N: Intel Stratix 10 GX 2800, Sec. VIII-B) used in place of the
/// Quartus place-and-route flow. It estimates adaptive logic modules
/// (ALMs), flip-flops (FFs), M20K memory blocks, and DSPs per stencil
/// unit, per delay buffer, per memory endpoint, and per network endpoint,
/// and derives an achievable clock frequency from utilization (the paper
/// reports 292-317 MHz across all benchmarks).
///
/// Calibration constants are grouped in \c ResourceModelConfig so ablation
/// benchmarks can vary them; defaults were fitted to Table I of the paper
/// (documented in EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_CORE_RESOURCEMODEL_H
#define STENCILFLOW_CORE_RESOURCEMODEL_H

#include "core/CompiledProgram.h"
#include "core/DataflowAnalysis.h"

#include <cstdint>
#include <string>
#include <vector>

namespace stencilflow {

/// Resource capacities of one device (after subtracting the board shell,
/// matching the "Total Avail." row of Table I).
struct DeviceResources {
  int64_t ALMs = 0;
  int64_t FFs = 0;
  int64_t M20Ks = 0;
  int64_t DSPs = 0;

  /// The paper's testbed FPGA: Stratix 10 GX 2800 with the BittWare
  /// p520_max_sg280l shell (692K ALMs, 2.8M FFs, 8.9K M20Ks, 4468 DSPs
  /// available to user logic).
  static DeviceResources stratix10GX2800();
};

/// Estimated resource usage of a (partial) design.
struct ResourceUsage {
  int64_t ALMs = 0;
  int64_t FFs = 0;
  int64_t M20Ks = 0;
  int64_t DSPs = 0;

  ResourceUsage &operator+=(const ResourceUsage &Other) {
    ALMs += Other.ALMs;
    FFs += Other.FFs;
    M20Ks += Other.M20Ks;
    DSPs += Other.DSPs;
    return *this;
  }
  friend ResourceUsage operator+(ResourceUsage A, const ResourceUsage &B) {
    A += B;
    return A;
  }

  /// True if this design fits within \p Device.
  bool fitsWithin(const DeviceResources &Device) const {
    return ALMs <= Device.ALMs && FFs <= Device.FFs &&
           M20Ks <= Device.M20Ks && DSPs <= Device.DSPs;
  }

  /// Highest utilization fraction across the four resource classes.
  double peakUtilization(const DeviceResources &Device) const;

  /// "ALM 64.8%, FF 48.0%, M20K 28.6%, DSP 51.6%"-style report.
  std::string report(const DeviceResources &Device) const;
};

/// Calibration constants of the model. All per-operation costs are per
/// vector lane.
struct ResourceModelConfig {
  // --- Compute logic ---
  int64_t ALMsPerStencilBase = 1500; ///< Control, predication, scheduling.
  int64_t ALMsPerFlopLane = 100;     ///< Adds/muls (pipeline regs included).
  int64_t ALMsPerDivSqrtLane = 700;  ///< Divide/sqrt soft logic.
  int64_t ALMsPerTranscendentalLane = 1400;
  int64_t ALMsPerCheapOpLane = 20;   ///< Min/max/compare/select/logic.
  int64_t ALMsPerInputLane = 15;     ///< Boundary predication per tap.
  int64_t DSPsPerFlopLane = 1;       ///< Hardened fp32 add/mul.
  int64_t DSPsPerDivSqrtLane = 4;
  int64_t DSPsPerTranscendentalLane = 8;
  double FFsPerALM = 2.3;            ///< Observed FF:ALM ratio (Table I).

  // --- On-chip memory ---
  int64_t M20KBytes = 2560;        ///< Usable bytes per M20K block.
  int64_t M20KsPerStencilBase = 4; ///< FIFOs and scheduler state.

  // --- Off-chip memory endpoints ---
  int64_t ALMsPerMemoryEndpointBase = 4000;
  int64_t ALMsPerMemoryEndpointLane = 600;
  int64_t M20KsPerMemoryEndpoint = 16; ///< Prefetch/store burst buffers.

  // --- Network (SMI) endpoints ---
  int64_t ALMsPerNetworkEndpoint = 12000;
  int64_t M20KsPerNetworkEndpoint = 32;

  // --- Frequency model ---
  double MaxFrequencyMHz = 317.0; ///< At near-zero utilization.
  double MinFrequencyMHz = 250.0;
  double FrequencySlopeMHz = 25.0; ///< Drop per 100% peak utilization.
};

/// Estimates the resources of stencil unit \p NodeIndex, including its
/// internal (shift-register) buffers.
ResourceUsage estimateNodeResources(const CompiledProgram &Compiled,
                                    size_t NodeIndex,
                                    const NodeBuffers &Buffers,
                                    const ResourceModelConfig &Config = {});

/// Estimates the resources of the delay buffer on \p Edge.
ResourceUsage estimateEdgeResources(const CompiledProgram &Compiled,
                                    const DataflowEdge &Edge,
                                    const ResourceModelConfig &Config = {});

/// Estimates one off-chip memory endpoint (reader or writer) moving
/// \p Lanes elements of \p ElementBytes per cycle.
ResourceUsage estimateMemoryEndpoint(int Lanes, size_t ElementBytes,
                                     const ResourceModelConfig &Config = {});

/// Estimates one network (SMI) endpoint.
ResourceUsage estimateNetworkEndpoint(const ResourceModelConfig &Config = {});

/// One (program, dataflow analysis) with each unit and edge priced once:
/// the partitioner places units from it, and SingleDevice is the
/// single-device estimate (all units plus the memory endpoints).
struct ResourceLedger {
  /// Unit I with its internal and incoming delay buffers.
  std::vector<ResourceUsage> Units;
  ResourceUsage SingleDevice;
};

/// Prices \p Compiled's units, then in one pass its incoming edges.
ResourceLedger estimateResourceLedger(const CompiledProgram &Compiled,
                                      const DataflowAnalysis &Dataflow,
                                      const ResourceModelConfig &Config = {});

/// Estimates a complete single-device design: all stencil units, delay
/// buffers, and one endpoint per off-chip input/output stream.
ResourceUsage
estimateProgramResources(const CompiledProgram &Compiled,
                         const DataflowAnalysis &Dataflow,
                         const ResourceModelConfig &Config = {});

/// Achievable clock frequency in MHz given \p Usage on \p Device: the
/// paper observes 292-317 MHz, degrading mildly with utilization.
double estimateFrequencyMHz(const ResourceUsage &Usage,
                            const DeviceResources &Device,
                            const ResourceModelConfig &Config = {});

} // namespace stencilflow

#endif // STENCILFLOW_CORE_RESOURCEMODEL_H
