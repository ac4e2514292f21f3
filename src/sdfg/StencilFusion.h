//===- sdfg/StencilFusion.h - Spatial stencil fusion --------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The StencilFusion transformation (paper Sec. V-B). Unlike load/store
/// fusion, spatial fusion does not change the schedule — all operators
/// already run fully pipelined in parallel. Its effects are:
///
///  - the critical path through the program shrinks when the fused nodes
///    lie on it (initialization phases combine instead of chaining);
///  - internal buffers for the same input field merge;
///  - smaller delay buffers combine into fewer, larger ones;
///  - combined code sections expose more common subexpressions;
///  - coarser stencil nodes improve the useful-logic ratio.
///
/// Fusion conditions (the paper's heuristics): the two stencils operate on
/// the same data shape with the same boundary-condition definitions, are
/// connected by one data container u with deg(u) = 2 (one producer, one
/// consumer), and u is not used elsewhere (so it can be removed without an
/// extra off-chip write). Additionally, inlining a producer at a non-zero
/// offset is only exact when the producer's inputs use constant boundary
/// conditions (copy boundaries are anchored to the shifted center).
///
/// Boundary semantics: fusing introduces redundant computation at the
/// domain boundary — where the consumer would have read its boundary
/// value for an out-of-bounds producer element, the fused node instead
/// *computes through the halo* (evaluating the producer's formula at the
/// virtual out-of-domain point, with the producer's own boundary handling
/// on the raw inputs). This matches how spatially fused pipelines behave
/// in hardware. Consequently, fused and unfused programs agree exactly on
/// the interior region (all transitive accesses in bounds) and may differ
/// on the boundary fringe; the unit tests pin down both behaviours.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SDFG_STENCILFUSION_H
#define STENCILFLOW_SDFG_STENCILFUSION_H

#include "ir/StencilProgram.h"
#include "support/Error.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace stencilflow {

/// Checks whether the node producing \p Producer can be fused into its
/// consumer. Returns the consumer's name, or an error explaining which
/// condition fails.
Expected<std::string> canFuseInto(const StencilProgram &Program,
                                  const std::string &Producer);

/// Fuses \p Producer into its single consumer: the producer's statements
/// are instantiated once per offset at which the consumer reads it, with
/// all field accesses shifted accordingly, and the producer node (and its
/// connecting container) is removed. The program remains analyzed/valid.
Error fusePair(StencilProgram &Program, const std::string &Producer);

/// Summary of an aggressive fusion pass.
struct FusionReport {
  int FusedPairs = 0;
  std::vector<std::string> Log;
};

/// Aggressively fuses until no legal pair remains (the setting used for
/// the paper's experiments: "we perform aggressive stencil fusion of input
/// programs").
Expected<FusionReport> fuseAllStencils(StencilProgram &Program);

/// Fuses at most \p MaxPairs legal pairs, in the same deterministic order
/// \c fuseAllStencils uses, then stops. \c MaxPairs = 0 is a no-op; a
/// large value degenerates to aggressive fusion. This is the fusion
/// "grouping" knob of the mapping autotuner (tuner/DesignSpace.h): level k
/// reproduces the first k steps of the aggressive pass, so every level is
/// a prefix of the same trajectory and levels are comparable.
Expected<FusionReport> fuseStencilsUpTo(StencilProgram &Program,
                                        int MaxPairs);

/// One walk of the fusion trajectory that keeps the programs at chosen
/// levels: the pass runs once, a pair at a time, and level k is what
/// \c fuseStencilsUpTo(k) leaves of the walked program — without re-fusing
/// from the unfused program for every level. Each step fuses the first
/// producer, in node order, that \c canFuseInto accepts, and reads
/// nothing but the program, so how the steps are grouped does not change
/// the levels.
class FusionWalk {
public:
  /// Walks \p Program until no legal pair remains, \p Limit pairs are
  /// fused, or a step fails. Keeps a copy of every level \p Keep accepts
  /// and the level where the walk ends (unless a step failed: the program
  /// it left behind is discarded).
  FusionWalk(StencilProgram Program, int Limit,
             const std::function<bool(int)> &Keep);

  /// Pairs fused before the walk ended.
  int pairs() const { return Pairs; }

  /// Why fusing pair pairs() + 1 failed; success when no step failed.
  const Error &failure() const { return Failure; }

  /// The program at level \p Level, or null when the walk did not keep it
  /// or did not reach it (it stopped at its limit, or at a failed step and
  /// \c failure() says why). Once no legal pair remains, every higher
  /// level equals the last one.
  std::shared_ptr<const StencilProgram> level(int Level) const;

  /// Drops the kept levels \p Keep rejects.
  void retain(const std::function<bool(int)> &Keep);

private:
  int Pairs = 0;
  bool Exhausted = false; ///< The walk ended because no legal pair remained.
  Error Failure;
  std::map<int, std::shared_ptr<const StencilProgram>> Kept;
};

} // namespace stencilflow

#endif // STENCILFLOW_SDFG_STENCILFUSION_H
