//===- tuner/DesignSpace.cpp - Mapping candidate enumeration ------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuner/DesignSpace.h"

#include "sdfg/StencilFusion.h"
#include "sdfg/TemporalUnroll.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace stencilflow;
using namespace stencilflow::tuner;

std::string CandidateMapping::id() const {
  std::string Id =
      formatString("W%d-F%d-D%d-U%d", VectorWidth, FusionPairs, MaxDevices,
                   static_cast<int>(std::lround(TargetUtilization * 100)));
  // Suffixes only appear for non-default values, keeping ids from the
  // original four-axis space (golden trajectories, saved reports) stable.
  if (KernelExec != compute::KernelEngine::Specialized)
    Id += formatString("-K%s", compute::kernelEngineName(KernelExec));
  if (TemporalDegree > 1)
    Id += formatString("-T%d", TemporalDegree);
  return Id;
}

namespace {

/// Sorts ascending and removes duplicates.
template <typename T> void sortUnique(std::vector<T> &Values) {
  std::sort(Values.begin(), Values.end());
  Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
}

/// Index of the axis value closest to \p Want (lowest index on ties).
template <typename T>
size_t closestIndex(const std::vector<T> &Axis, T Want) {
  size_t Best = 0;
  for (size_t I = 1; I < Axis.size(); ++I)
    if (std::abs(static_cast<double>(Axis[I]) - static_cast<double>(Want)) <
        std::abs(static_cast<double>(Axis[Best]) - static_cast<double>(Want)))
      Best = I;
  return Best;
}

/// Validates an explicitly provided axis vector: every entry must be at
/// least \p Min and entries must be pairwise distinct. Derived defaults
/// never pass through here — only caller-specified axes get typed errors.
template <typename T>
Error checkExplicitAxis(const char *Axis, const std::vector<T> &Values,
                        T Min) {
  for (size_t I = 0; I != Values.size(); ++I) {
    if (Values[I] < Min)
      return makeError(
          ErrorCode::InvalidInput,
          formatString("%s axis entry %g is below the minimum %g", Axis,
                       static_cast<double>(Values[I]),
                       static_cast<double>(Min)));
    for (size_t J = I + 1; J != Values.size(); ++J)
      if (Values[I] == Values[J])
        return makeError(ErrorCode::InvalidInput,
                         formatString("%s axis entry %g appears twice", Axis,
                                      static_cast<double>(Values[I])));
  }
  return Error::success();
}

} // namespace

Expected<DesignSpace> DesignSpace::enumerate(const StencilProgram &Program,
                                             const DesignSpaceOptions &Options,
                                             int MaxDevicesCap) {
  if (Program.IterationSpace.rank() == 0)
    return makeError(ErrorCode::InvalidInput,
                     "cannot enumerate a design space for a rank-0 program");
  int64_t Innermost =
      Program.IterationSpace.extent(Program.IterationSpace.rank() - 1);

  // Explicit axis vectors are configuration, not a wish list: malformed
  // entries (non-positive, duplicated) are typed errors instead of being
  // silently enumerated or dropped. Derived defaults below keep the silent
  // per-program filtering.
  if (Error Err = checkExplicitAxis("vector-width", Options.VectorWidths, 1))
    return Err;
  if (Error Err = checkExplicitAxis("fusion-level", Options.FusionLevels, 0))
    return Err;
  if (Error Err = checkExplicitAxis("device-count", Options.DeviceCounts, 1))
    return Err;
  if (Error Err = checkExplicitAxis("temporal-degree",
                                    Options.TemporalDegrees, 1))
    return Err;
  for (double U : Options.TargetUtilizations)
    if (U <= 0.0 || U > 1.0)
      return makeError(
          ErrorCode::InvalidInput,
          formatString("target-utilization axis entry %g lies outside (0, 1]",
                       U));
  if (Error Err = checkExplicitAxis("target-utilization",
                                    Options.TargetUtilizations, 0.0))
    return Err;

  DesignSpace Space;

  // Vectorization widths: candidates must divide the innermost extent
  // (Sec. IV-C); non-divisors are not merely slow, they are illegal.
  std::vector<int> WidthSeed =
      Options.VectorWidths.empty() ? std::vector<int>{1, 2, 4, 8}
                                   : Options.VectorWidths;
  for (int W : WidthSeed)
    if (W >= 1 && Innermost % W == 0)
      Space.Widths.push_back(W);
  sortUnique(Space.Widths);
  if (Space.Widths.empty())
    return makeError(ErrorCode::InvalidInput,
                     formatString("no candidate vector width divides the "
                                  "innermost extent %lld",
                                  static_cast<long long>(Innermost)));

  // Fusion levels: walk the aggressive pass to count the pairs it fuses;
  // every level is a prefix of that trajectory (sdfg::fuseStencilsUpTo).
  // A failing walk means no legal fusion — the axis collapses to {0}. The
  // walk runs at width 1, which every extent admits, and keeps the
  // programs at the levels the space may use, so the cost model compiles
  // them without fusing again. Each pair removes a node that is not an
  // output, so the default middle level, max/2, is at most half their
  // number.
  const std::vector<int> &Explicit = Options.FusionLevels;
  int Removable = 0;
  for (const StencilNode &Node : Program.Nodes)
    Removable += Program.isProgramOutput(Node.Name) ? 0 : 1;
  StencilProgram Walked = Program.clone();
  Walked.VectorWidth = 1;
  auto Walk = std::make_shared<FusionWalk>(
      std::move(Walked), Removable, [&Explicit, Removable](int F) {
        return F == 0 ||
               (Explicit.empty()
                    ? F <= std::max(1, Removable / 2)
                    : std::find(Explicit.begin(), Explicit.end(), F) !=
                          Explicit.end());
      });
  Space.MaxPairs = Walk->failure() ? 0 : Walk->pairs();
  std::vector<int> LevelSeed =
      Explicit.empty()
          ? std::vector<int>{0, 1, Space.MaxPairs / 2, Space.MaxPairs}
          : Explicit;
  for (int F : LevelSeed)
    if (F >= 0 && F <= Space.MaxPairs)
      Space.Levels.push_back(F);
  Space.Levels.push_back(0); // The unfused mapping is always a candidate.
  sortUnique(Space.Levels);
  Walk->retain([&Space](int F) {
    return std::binary_search(Space.Levels.begin(), Space.Levels.end(), F);
  });
  Space.Walk = std::move(Walk);

  // Device budgets, capped at the testbed size.
  std::vector<int> DeviceSeed =
      Options.DeviceCounts.empty() ? std::vector<int>{1, 2, 4, 8}
                                   : Options.DeviceCounts;
  for (int D : DeviceSeed)
    if (D >= 1 && D <= MaxDevicesCap)
      Space.Devices.push_back(D);
  sortUnique(Space.Devices);
  if (Space.Devices.empty())
    Space.Devices.push_back(1);

  // Partitioner target utilizations.
  std::vector<double> UtilSeed =
      Options.TargetUtilizations.empty()
          ? std::vector<double>{0.70, 0.85, 0.95}
          : Options.TargetUtilizations;
  for (double U : UtilSeed)
    if (U > 0.0 && U <= 1.0)
      Space.Utils.push_back(U);
  sortUnique(Space.Utils);
  if (Space.Utils.empty())
    return makeError(ErrorCode::InvalidInput,
                     "no candidate target utilization lies in (0, 1]");

  // Temporal blocking degrees. Like the engine axis this defaults to a
  // single value (the tuner substitutes its base configuration's degree),
  // so the space only grows when the caller opts in. Degrees above 1
  // replicate the pipeline through sdfg::unrollTimeSteps, which needs the
  // program to declare time-loop bindings.
  Space.Degrees = Options.TemporalDegrees.empty()
                      ? std::vector<int>{1}
                      : Options.TemporalDegrees;
  sortUnique(Space.Degrees);
  if (Space.Degrees.back() > 1 && Program.TimeLoop.empty())
    return makeError(
        ErrorCode::InvalidInput,
        formatString("temporal degree %d requires time-loop bindings, but "
                     "program '%s' declares none",
                     Space.Degrees.back(), Program.Name.c_str()));

  // Kernel execution tiers. The axis defaults to the single Specialized
  // tier (the tuner substitutes its base configuration's tier), so the
  // space only grows when the caller opts in.
  Space.Engines = Options.KernelEngines.empty()
                      ? std::vector<compute::KernelEngine>{
                            compute::KernelEngine::Specialized}
                      : Options.KernelEngines;
  sortUnique(Space.Engines);

  // Materialize the cross product in lexicographic axis order.
  for (int W : Space.Widths)
    for (int F : Space.Levels)
      for (int D : Space.Devices)
        for (double U : Space.Utils)
          for (int T : Space.Degrees)
            for (compute::KernelEngine K : Space.Engines)
              Space.All.push_back(CandidateMapping{W, F, D, U, T, K});
  return Space;
}

CandidateMapping DesignSpace::at(size_t Wi, size_t Fi, size_t Di, size_t Ui,
                                 size_t Ti, size_t Ki) const {
  assert(Wi < Widths.size() && Fi < Levels.size() && Di < Devices.size() &&
         Ui < Utils.size() && Ti < Degrees.size() && Ki < Engines.size() &&
         "axis index out of range");
  return CandidateMapping{Widths[Wi],  Levels[Fi], Devices[Di],
                          Utils[Ui],   Degrees[Ti], Engines[Ki]};
}

void DesignSpace::closestIndices(const CandidateMapping &M,
                                 size_t Index[6]) const {
  Index[0] = closestIndex(Widths, M.VectorWidth);
  Index[1] = closestIndex(Levels, M.FusionPairs);
  Index[2] = closestIndex(Devices, M.MaxDevices);
  Index[3] = closestIndex(Utils, M.TargetUtilization);
  Index[4] = closestIndex(Degrees, M.TemporalDegree);
  // The engine axis is categorical: snap to the exact engine when present,
  // else to the first axis value.
  Index[5] = 0;
  for (size_t I = 0; I != Engines.size(); ++I)
    if (Engines[I] == M.KernelExec)
      Index[5] = I;
}

Expected<StencilProgram>
stencilflow::tuner::applyMapping(const StencilProgram &Program,
                                 const CandidateMapping &Mapping) {
  StencilProgram Applied = Program.clone();
  // Pipeline order: unroll first, as compilePipeline does — fusion levels
  // probed on the base program remain legal on the unrolled one.
  if (Mapping.TemporalDegree != 1) {
    Expected<StencilProgram> Unrolled =
        sdfg::unrollTimeSteps(Applied, Mapping.TemporalDegree);
    if (!Unrolled)
      return Unrolled.takeError().addContext(
          formatString("unrolling %d timestep(s)", Mapping.TemporalDegree));
    Applied = Unrolled.takeValue();
  }
  if (Mapping.FusionPairs > 0) {
    Expected<FusionReport> Fusion =
        fuseStencilsUpTo(Applied, Mapping.FusionPairs);
    if (!Fusion)
      return Fusion.takeError().addContext(
          formatString("fusing %d pair(s)", Mapping.FusionPairs));
  }
  Applied.VectorWidth = Mapping.VectorWidth;
  if (Error Err = Applied.validate())
    return Err.addContext("mapping " + Mapping.id());
  return Applied;
}

PipelineOptions
stencilflow::tuner::mappingOptions(const PipelineOptions &Base,
                                   const CandidateMapping &Mapping) {
  PipelineOptions O = Base;
  O.FuseStencils = false;
  O.TemporalDegree = 1;
  O.AllowMultiDevice = true;
  O.Partitioning.MaxDevices = Mapping.MaxDevices;
  O.Partitioning.TargetUtilization = Mapping.TargetUtilization;
  O.Simulator.KernelExec = Mapping.KernelExec;
  return O;
}
