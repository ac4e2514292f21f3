//===- tuner/DesignSpace.h - Mapping candidate enumeration --------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The design space of the mapping autotuner: the cross product of the
/// paper's mapping knobs. A \c CandidateMapping fixes
///
///  - the vectorization width W (Sec. IV-C / VIII-A, Eq. 1: N = cells / W),
///  - the stencil-fusion level (Sec. V-B; level k applies the first k steps
///    of the aggressive fusion pass, see sdfg::fuseStencilsUpTo),
///  - the device budget of the partitioner (Sec. III-B), and
///  - the partitioner's target utilization (how full each device may get
///    before spilling to the next one).
///
/// \c DesignSpace::enumerate derives sensible per-program axes (widths that
/// divide the innermost extent, fusion levels up to the legal maximum,
/// device counts up to the testbed cap) and materializes the cross product
/// in deterministic lexicographic order, so search trajectories are
/// reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TUNER_DESIGNSPACE_H
#define STENCILFLOW_TUNER_DESIGNSPACE_H

#include "compute/Engine.h"
#include "ir/StencilProgram.h"
#include "runtime/Pipeline.h"
#include "sdfg/StencilFusion.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <vector>

namespace stencilflow {
namespace tuner {

/// One point of the design space: a complete mapping configuration.
struct CandidateMapping {
  /// Vectorization width W; must divide the innermost extent.
  int VectorWidth = 1;

  /// Stencil-fusion level: number of producer/consumer pairs fused, as a
  /// prefix of the aggressive pass's trajectory (0 = unfused).
  int FusionPairs = 0;

  /// Device budget handed to the partitioner.
  int MaxDevices = 1;

  /// Partitioner target utilization (fraction of each resource class).
  double TargetUtilization = 0.85;

  /// Temporal blocking degree T: timesteps of the program's time loop
  /// unrolled on-chip (sdfg/TemporalUnroll.h). Replicates area/DSPs ~T
  /// times while amortizing off-chip bandwidth over T generations — the
  /// Zohouri et al. trade the cost model prices via the replay of the
  /// compile half on the unrolled program.
  int TemporalDegree = 1;

  /// Kernel execution tier the simulator uses for this candidate. Not a
  /// hardware knob like the other axes: both tiers are bit-exact and
  /// cycle-identical, so the cost model ignores it and it only changes
  /// how fast the testbed simulates a candidate.
  compute::KernelEngine KernelExec = compute::KernelEngine::Specialized;

  /// Stable identity, e.g. "W4-F2-D2-U85" (utilization in percent). A
  /// "-K<engine>" suffix appears only for non-default engines and a
  /// "-T<degree>" suffix only for degrees > 1, so ids from the smaller
  /// spaces are unchanged.
  std::string id() const;

  friend bool operator==(const CandidateMapping &A,
                         const CandidateMapping &B) {
    return A.VectorWidth == B.VectorWidth &&
           A.FusionPairs == B.FusionPairs &&
           A.MaxDevices == B.MaxDevices &&
           A.TargetUtilization == B.TargetUtilization &&
           A.TemporalDegree == B.TemporalDegree &&
           A.KernelExec == B.KernelExec;
  }
};

/// Axis overrides; any empty vector is derived from the program.
/// Explicitly provided vectors are validated: non-positive entries
/// (negative fusion levels, utilizations outside (0, 1]) and duplicates
/// are typed InvalidInput errors rather than silently enumerated.
/// Derived defaults keep the silent per-program filtering (widths to
/// divisors, levels to the legal maximum, devices to the testbed cap).
struct DesignSpaceOptions {
  /// Candidate vectorization widths. Default: {1, 2, 4, 8} filtered to
  /// divisors of the innermost extent.
  std::vector<int> VectorWidths;

  /// Candidate fusion levels. Default: {0, 1, max/2, max} (deduplicated)
  /// where max is the number of pairs the aggressive pass fuses.
  std::vector<int> FusionLevels;

  /// Candidate device budgets. Default: {1, 2, 4, 8} capped at the
  /// partitioner's MaxDevices.
  std::vector<int> DeviceCounts;

  /// Candidate target utilizations. Default: {0.70, 0.85, 0.95}.
  std::vector<double> TargetUtilizations;

  /// Candidate temporal blocking degrees. Default: the base
  /// configuration's degree alone (so the space does not grow unless the
  /// caller opts in, e.g. sf_tune --temporal-degrees=1,2,4,8). Degrees
  /// above 1 require the program to declare time-loop bindings.
  std::vector<int> TemporalDegrees;

  /// Candidate kernel execution tiers. Default: the single tier of the
  /// base configuration (so the space does not grow unless the caller
  /// opts in, e.g. sf_tune --kernel-engines=specialized,scalar).
  std::vector<compute::KernelEngine> KernelEngines;
};

/// The enumerated candidate set plus its per-axis structure (the axes are
/// what the beam search's neighborhood moves walk along).
class DesignSpace {
public:
  /// Enumerates the space for \p Program. \p MaxDevicesCap bounds the
  /// device-count axis (the caller's testbed size).
  static Expected<DesignSpace> enumerate(const StencilProgram &Program,
                                         const DesignSpaceOptions &Options,
                                         int MaxDevicesCap);

  /// All candidates, in deterministic lexicographic axis order.
  const std::vector<CandidateMapping> &candidates() const { return All; }
  size_t size() const { return All.size(); }

  /// Number of pairs the aggressive fusion pass would fuse.
  int maxFusionPairs() const { return MaxPairs; }

  /// The walk of the program's fusion trajectory that counted
  /// maxFusionPairs(). It holds the program at every fusionLevels() entry,
  /// not unrolled; the cost model compiles its degree-1 prefixes from it.
  const std::shared_ptr<const FusionWalk> &fusionWalk() const {
    return Walk;
  }

  /// The axes, each sorted ascending (engines by enum order).
  const std::vector<int> &vectorWidths() const { return Widths; }
  const std::vector<int> &fusionLevels() const { return Levels; }
  const std::vector<int> &deviceCounts() const { return Devices; }
  const std::vector<double> &targetUtilizations() const { return Utils; }
  const std::vector<int> &temporalDegrees() const { return Degrees; }
  const std::vector<compute::KernelEngine> &kernelEngines() const {
    return Engines;
  }

  /// The candidate at axis indices (Wi, Fi, Di, Ui, Ti, Ki).
  CandidateMapping at(size_t Wi, size_t Fi, size_t Di, size_t Ui, size_t Ti,
                      size_t Ki) const;

  /// Axis indices of the candidate closest to \p M (each axis snaps to the
  /// nearest value — the engine axis to an exact match, else index 0; used
  /// to seed the beam search at the default mapping).
  void closestIndices(const CandidateMapping &M, size_t Index[6]) const;

private:
  std::vector<CandidateMapping> All;
  std::vector<int> Widths;
  std::vector<int> Levels;
  std::vector<int> Devices;
  std::vector<double> Utils;
  std::vector<int> Degrees;
  std::vector<compute::KernelEngine> Engines;
  int MaxPairs = 0;
  std::shared_ptr<const FusionWalk> Walk;
};

/// Applies the program-transforming knobs of \p Mapping to a copy of
/// \p Program, in pipeline order: unrolls \c TemporalDegree timesteps,
/// fuses \c FusionPairs pairs, and sets the vectorization width (fusion
/// levels enumerated on the base program stay legal on the unrolled one,
/// which has at least as many fusable pairs). Fails when the width does
/// not divide the innermost extent or fusion breaks validation.
/// The remaining knobs are pipeline options; see \c mappingOptions.
Expected<StencilProgram> applyMapping(const StencilProgram &Program,
                                      const CandidateMapping &Mapping);

/// \p Base configured to plan and run a program that \c applyMapping has
/// already transformed for \p Mapping: fusion and unrolling are off (they
/// are part of the program now; repeating them would fuse again and unroll
/// T^2 steps), and the device budget, target utilization and kernel tier
/// come from \p Mapping, with multi-device placement allowed.
PipelineOptions mappingOptions(const PipelineOptions &Base,
                               const CandidateMapping &Mapping);

} // namespace tuner
} // namespace stencilflow

#endif // STENCILFLOW_TUNER_DESIGNSPACE_H
