//===- tests/tuner_test.cpp - Mapping autotuner tests --------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The mapping autotuner (src/tuner/): design-space enumeration, the
// fusion-level knob, seeded-search determinism, Pareto-front invariants,
// feasibility of every emitted plan against the resource and deadlock
// analyses, the predicted-vs-simulated error bound, and tuned-vs-default
// speedups on the paper workloads.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include "common/TestPrograms.h"
#include "frontend/ProgramLoader.h"
#include "runtime/InputData.h"
#include "runtime/Session.h"
#include "sdfg/StencilFusion.h"
#include "sdfg/TemporalUnroll.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <thread>

using namespace stencilflow;
using namespace stencilflow::tuner;

namespace {

/// Model error bound asserted on the paper workloads (documented in
/// docs/autotuner.md): with unconstrained memory the analytic model and
/// the simulator agree to within this percentage on every simulated
/// candidate, and exactly on single-device plans.
constexpr double ModelErrorBoundPct = 10.0;

/// Small paper workloads, sized so a full tuning run (search + top-K
/// simulation) stays in unit-test territory.
StencilProgram smallJacobi() {
  return workloads::jacobi3dChain(3, 4, 8, 16);
}
StencilProgram smallDiffusion() {
  return workloads::diffusion2dChain(3, 16, 32);
}

PipelineOptions baseOptions() {
  PipelineOptions Base;
  Base.Simulator.UnconstrainedMemory = true;
  return Base;
}

TuningOutcome tuneOrDie(StencilProgram Program, const TuneOptions &Options,
                        const PipelineOptions &Base = baseOptions()) {
  Expected<TuningOutcome> Out = tuneProgram(Program, Base, Options);
  EXPECT_TRUE(Out) << (Out ? "" : Out.message());
  return Out.takeValue();
}

/// Flattens the observable search trajectory for determinism comparisons.
std::string trajectoryOf(const TuningReport &Report) {
  std::string Out = Report.SearchKind + ";";
  for (const CandidateRecord &R : Report.Candidates)
    Out += R.Mapping.id() + ":" + std::to_string(R.Round) +
           (R.Cost.Feasible ? "" : "!") + (R.Simulated ? "*" : "") + ";";
  if (const CandidateRecord *Best = Report.best())
    Out += "best=" + Best->Mapping.id();
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fusion-level knob (sdfg::fuseStencilsUpTo)
//===----------------------------------------------------------------------===//

TEST(TunerTest, FusionLevelsArePrefixesOfAggressive) {
  // Level k must reproduce the first k steps of the aggressive pass;
  // level >= max degenerates to fuseAllStencils; level 0 is a no-op.
  StencilProgram Probe = smallDiffusion();
  Expected<FusionReport> All = fuseAllStencils(Probe);
  ASSERT_TRUE(All) << All.message();
  ASSERT_GT(All->FusedPairs, 1);

  StencilProgram None = smallDiffusion();
  Expected<FusionReport> Zero = fuseStencilsUpTo(None, 0);
  ASSERT_TRUE(Zero) << Zero.message();
  EXPECT_EQ(Zero->FusedPairs, 0);
  EXPECT_EQ(None.Nodes.size(), smallDiffusion().Nodes.size());

  for (int Level = 1; Level <= All->FusedPairs; ++Level) {
    StencilProgram Partial = smallDiffusion();
    Expected<FusionReport> Report = fuseStencilsUpTo(Partial, Level);
    ASSERT_TRUE(Report) << Report.message();
    EXPECT_EQ(Report->FusedPairs, Level);
    // The log must be a prefix of the aggressive trajectory.
    ASSERT_LE(Report->Log.size(), All->Log.size());
    for (size_t I = 0; I != Report->Log.size(); ++I)
      EXPECT_EQ(Report->Log[I], All->Log[I]) << "step " << I;
    EXPECT_EQ(Partial.Nodes.size(),
              smallDiffusion().Nodes.size() - static_cast<size_t>(Level));
  }
}

//===----------------------------------------------------------------------===//
// Design space
//===----------------------------------------------------------------------===//

TEST(TunerTest, DesignSpaceRespectsDivisibilityAndCaps) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12); // I = 12.
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(P, DesignSpaceOptions(), /*MaxDevicesCap=*/4);
  ASSERT_TRUE(Space) << Space.message();
  // Of {1,2,4,8} only the divisors of 12 survive.
  EXPECT_EQ(Space->vectorWidths(), (std::vector<int>{1, 2, 4}));
  for (int D : Space->deviceCounts())
    EXPECT_LE(D, 4);
  // Without an explicit engine or temporal axis the space keeps a single
  // tier and degree 1, so its size (and every candidate id) is unchanged
  // from the 4-axis days.
  EXPECT_EQ(Space->kernelEngines(),
            (std::vector<compute::KernelEngine>{
                compute::KernelEngine::Specialized}));
  EXPECT_EQ(Space->temporalDegrees(), (std::vector<int>{1}));
  EXPECT_EQ(Space->size(), Space->vectorWidths().size() *
                               Space->fusionLevels().size() *
                               Space->deviceCounts().size() *
                               Space->targetUtilizations().size() *
                               Space->temporalDegrees().size() *
                               Space->kernelEngines().size());
  // Enumeration order is deterministic lexicographic.
  std::vector<std::string> Ids;
  for (const CandidateMapping &M : Space->candidates())
    Ids.push_back(M.id());
  EXPECT_TRUE(std::adjacent_find(Ids.begin(), Ids.end()) == Ids.end());
}

TEST(TunerTest, KernelEngineAxisExpandsTheSpace) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  DesignSpaceOptions Options;
  Options.KernelEngines = {compute::KernelEngine::Specialized,
                           compute::KernelEngine::Jit,
                           compute::KernelEngine::Auto};
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(P, Options, /*MaxDevicesCap=*/4);
  ASSERT_TRUE(Space) << Space.message();
  EXPECT_EQ(Space->kernelEngines().size(), 3u);
  EXPECT_EQ(Space->size(), Space->vectorWidths().size() *
                               Space->fusionLevels().size() *
                               Space->deviceCounts().size() *
                               Space->targetUtilizations().size() * 3u);
  // Ids stay unique, and only non-default engines carry the -K suffix —
  // the specialized candidates keep their golden 4-axis ids.
  std::vector<std::string> Ids;
  size_t Suffixed = 0;
  for (const CandidateMapping &M : Space->candidates()) {
    Ids.push_back(M.id());
    bool HasSuffix = M.id().find("-K") != std::string::npos;
    EXPECT_EQ(HasSuffix,
              M.KernelExec != compute::KernelEngine::Specialized)
        << M.id();
    Suffixed += HasSuffix ? 1 : 0;
  }
  EXPECT_EQ(Suffixed, Space->size() / 3 * 2);
  std::sort(Ids.begin(), Ids.end());
  EXPECT_TRUE(std::adjacent_find(Ids.begin(), Ids.end()) == Ids.end());

  // closestIndices snaps the engine axis to an exact match.
  size_t Index[6];
  Space->closestIndices(
      CandidateMapping{1, 0, 1, 0.85, 1, compute::KernelEngine::Auto},
      Index);
  EXPECT_EQ(Space->at(Index[0], Index[1], Index[2], Index[3], Index[4],
                      Index[5]).KernelExec,
            compute::KernelEngine::Auto);
}

TEST(TunerTest, TemporalDegreeAxisExpandsTheSpace) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  DesignSpaceOptions Options;
  Options.TemporalDegrees = {1, 2, 4};
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(P, Options, /*MaxDevicesCap=*/4);
  ASSERT_TRUE(Space) << Space.message();
  EXPECT_EQ(Space->temporalDegrees(), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(Space->size(), Space->vectorWidths().size() *
                               Space->fusionLevels().size() *
                               Space->deviceCounts().size() *
                               Space->targetUtilizations().size() * 3u);
  // Ids stay unique, and only degrees above 1 carry the -T suffix — the
  // degree-1 candidates keep their golden ids from the smaller spaces.
  std::vector<std::string> Ids;
  size_t Suffixed = 0;
  for (const CandidateMapping &M : Space->candidates()) {
    Ids.push_back(M.id());
    bool HasSuffix = M.id().find("-T") != std::string::npos;
    EXPECT_EQ(HasSuffix, M.TemporalDegree > 1) << M.id();
    Suffixed += HasSuffix ? 1 : 0;
  }
  EXPECT_EQ(Suffixed, Space->size() / 3 * 2);
  std::sort(Ids.begin(), Ids.end());
  EXPECT_TRUE(std::adjacent_find(Ids.begin(), Ids.end()) == Ids.end());

  // closestIndices snaps the degree axis to the nearest value.
  size_t Index[6];
  Space->closestIndices(
      CandidateMapping{1, 0, 1, 0.85, 4, compute::KernelEngine::Specialized},
      Index);
  EXPECT_EQ(Space->at(Index[0], Index[1], Index[2], Index[3], Index[4],
                      Index[5]).TemporalDegree,
            4);

  // applyMapping unrolls: a degree-4 mapping quadruples the node count
  // (diffusion2dChain(2) has no dead copies — both steps feed the chain).
  CandidateMapping Unrolled;
  Unrolled.TemporalDegree = 4;
  Expected<StencilProgram> Applied = applyMapping(P, Unrolled);
  ASSERT_TRUE(Applied) << Applied.message();
  EXPECT_EQ(Applied->Nodes.size(), P.Nodes.size() * 4);
  EXPECT_EQ(Applied->TimeLoop.size(), P.TimeLoop.size());
}

TEST(TunerTest, TemporalAxisRequiresTimeLoopBindings) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  P.TimeLoop.clear();
  DesignSpaceOptions Options;
  Options.TemporalDegrees = {1, 2};
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(P, Options, /*MaxDevicesCap=*/4);
  ASSERT_FALSE(Space);
  EXPECT_EQ(Space.code(), ErrorCode::InvalidInput);
  // Degree 1 alone stays legal on a loop-free program.
  Options.TemporalDegrees = {1};
  EXPECT_TRUE(DesignSpace::enumerate(P, Options, 4));
}

TEST(TunerTest, ExplicitAxisVectorsRejectMalformedEntries) {
  // Satellite contract: explicitly provided axis vectors are validated —
  // non-positive entries and duplicates are typed InvalidInput errors,
  // not silently enumerated (or silently dropped like derived defaults).
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  auto Enumerate = [&](const DesignSpaceOptions &O) {
    return DesignSpace::enumerate(P, O, /*MaxDevicesCap=*/4);
  };

  struct BadCase {
    const char *Label;
    DesignSpaceOptions Options;
  };
  std::vector<BadCase> Bad;
  Bad.push_back({"zero width", {}});
  Bad.back().Options.VectorWidths = {0, 1};
  Bad.push_back({"duplicate width", {}});
  Bad.back().Options.VectorWidths = {2, 2};
  Bad.push_back({"negative fusion level", {}});
  Bad.back().Options.FusionLevels = {-1};
  Bad.push_back({"duplicate fusion level", {}});
  Bad.back().Options.FusionLevels = {0, 0};
  Bad.push_back({"zero device count", {}});
  Bad.back().Options.DeviceCounts = {0};
  Bad.push_back({"duplicate device count", {}});
  Bad.back().Options.DeviceCounts = {2, 2};
  Bad.push_back({"zero utilization", {}});
  Bad.back().Options.TargetUtilizations = {0.0};
  Bad.push_back({"utilization above one", {}});
  Bad.back().Options.TargetUtilizations = {1.5};
  Bad.push_back({"duplicate utilization", {}});
  Bad.back().Options.TargetUtilizations = {0.85, 0.85};
  Bad.push_back({"zero temporal degree", {}});
  Bad.back().Options.TemporalDegrees = {0};
  Bad.push_back({"negative temporal degree", {}});
  Bad.back().Options.TemporalDegrees = {-2};
  Bad.push_back({"duplicate temporal degree", {}});
  Bad.back().Options.TemporalDegrees = {2, 2};
  for (const BadCase &C : Bad) {
    Expected<DesignSpace> Space = Enumerate(C.Options);
    EXPECT_FALSE(Space) << C.Label;
    if (!Space)
      EXPECT_EQ(Space.code(), ErrorCode::InvalidInput) << C.Label;
  }

  // Out-of-range-but-positive entries in explicit vectors keep the silent
  // per-program filtering (a width of 5 does not divide 12; a device
  // count above the cap is dropped) — those are program facts, not
  // malformed configuration.
  DesignSpaceOptions Filtered;
  Filtered.VectorWidths = {1, 5};
  Filtered.DeviceCounts = {1, 8};
  Expected<DesignSpace> Space = Enumerate(Filtered);
  ASSERT_TRUE(Space) << Space.message();
  EXPECT_EQ(Space->vectorWidths(), (std::vector<int>{1}));
  EXPECT_EQ(Space->deviceCounts(), (std::vector<int>{1}));
}

TEST(TunerTest, TunesAcrossKernelEngineAxis) {
  // End-to-end with the engine axis opted in: the tuned plan must carry a
  // concrete engine, the report serializes it per candidate, and the run
  // validates. The axis multiplies the space, so keep the budget small.
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 12;
  Opts.TopK = 2;
  Opts.Space.KernelEngines = {compute::KernelEngine::Specialized,
                              compute::KernelEngine::Auto};
  TuningOutcome Out = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_TRUE(Out.BestRun.ValidationPassed);
  bool SawEngine = false;
  for (const CandidateRecord &R : Out.Report.Candidates)
    SawEngine |= R.Mapping.KernelExec != compute::KernelEngine::Specialized;
  // The beam explores both engine values of at least one neighborhood.
  EXPECT_TRUE(SawEngine);

  Expected<json::Value> Doc = json::parse(Out.Report.toJson());
  ASSERT_TRUE(Doc) << Doc.message();
  for (const json::Value &V :
       Doc->getObject().get("candidates")->getArray())
    EXPECT_TRUE(V.getObject().contains("kernel_engine"));
}

TEST(TunerTest, TunesAcrossTemporalDegreeAxis) {
  // End-to-end with the temporal axis opted in under the constrained
  // memory model (where blocking actually pays): the search explores
  // degrees above 1, the winning plan validates bit-exactly, the report
  // serializes temporal_degree per candidate, and reruns with the same
  // seed are bit-identical.
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 16;
  Opts.TopK = 3;
  Opts.Space.TemporalDegrees = {1, 2, 4};
  PipelineOptions Base = baseOptions();
  Base.Simulator.UnconstrainedMemory = false;
  TuningOutcome Out = tuneOrDie(smallDiffusion(), Opts, Base);
  EXPECT_TRUE(Out.BestRun.ValidationPassed);
  bool SawDegree = false;
  for (const CandidateRecord &R : Out.Report.Candidates) {
    SawDegree |= R.Mapping.TemporalDegree > 1;
    // The ranking objective is per-timestep: feasible degree-T
    // candidates report PredictedCycles amortized over T in seconds.
    if (R.Cost.Feasible)
      EXPECT_NEAR(R.Cost.PredictedSeconds,
                  static_cast<double>(R.Cost.PredictedCycles) /
                      (R.Cost.FrequencyMHz * 1e6 *
                       R.Mapping.TemporalDegree),
                  1e-12)
          << R.Mapping.id();
  }
  EXPECT_TRUE(SawDegree);

  Expected<json::Value> Doc = json::parse(Out.Report.toJson());
  ASSERT_TRUE(Doc) << Doc.message();
  for (const json::Value &V :
       Doc->getObject().get("candidates")->getArray()) {
    const json::Object &Obj = V.getObject();
    ASSERT_TRUE(Obj.contains("temporal_degree"));
    int Degree = static_cast<int>(Obj.get("temporal_degree")->getInteger());
    std::string Id = Obj.get("id")->getString();
    EXPECT_EQ(Degree > 1, Id.find("-T") != std::string::npos) << Id;
  }

  TuningOutcome Again = tuneOrDie(smallDiffusion(), Opts, Base);
  EXPECT_EQ(Out.Best.id(), Again.Best.id());
  EXPECT_EQ(trajectoryOf(Out.Report), trajectoryOf(Again.Report));
  EXPECT_EQ(Out.Report.toJson(), Again.Report.toJson());
}

TEST(TunerTest, ApplyMappingRejectsIllegalWidth) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  Expected<StencilProgram> Applied =
      applyMapping(P, CandidateMapping{/*W=*/5, 0, 1, 0.85});
  EXPECT_FALSE(Applied);
}

//===----------------------------------------------------------------------===//
// Seeded-search determinism
//===----------------------------------------------------------------------===//

TEST(TunerTest, SameSeedSameSpaceSamePlanAndReport) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 24; // Below the space size: beam search.
  Opts.Search.Seed = 1234;
  TuningOutcome A = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(A.Report.SearchKind, "beam");

  // Re-run with the same seed but a different worker count: the plan, the
  // trajectory, and the serialized report must be bit-identical.
  Opts.Workers = 3;
  TuningOutcome B = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(A.Best.id(), B.Best.id());
  EXPECT_EQ(trajectoryOf(A.Report), trajectoryOf(B.Report));
  EXPECT_EQ(A.Report.toJson(), B.Report.toJson());

  // The seed reaches the report (the CLI plumbs --seed/--tune-seed into
  // Search.Seed; a hardcoded seed would make those flags silent no-ops).
  EXPECT_EQ(A.Report.Seed, 1234u);
  Opts.Workers = 0;
  Opts.Search.Seed = 4321;
  TuningOutcome C = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(C.Report.Seed, 4321u);
  // And identical (seed, space) stays deterministic for the new seed too.
  TuningOutcome D = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(trajectoryOf(C.Report), trajectoryOf(D.Report));
  EXPECT_EQ(C.Report.toJson(), D.Report.toJson());
}

TEST(TunerTest, ExhaustiveSweepCoversTheWholeSpace) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 4096;
  TuningOutcome Out = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(Out.Report.SearchKind, "exhaustive");
  EXPECT_EQ(Out.Report.Explored, Out.Report.SpaceSize);
  // Exhaustive runs are trivially seed-independent (the report still
  // records the seed, so compare the trajectory, not the raw JSON).
  Opts.Search.Seed = 999;
  TuningOutcome Again = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(Out.Best.id(), Again.Best.id());
  EXPECT_EQ(trajectoryOf(Out.Report), trajectoryOf(Again.Report));
}

//===----------------------------------------------------------------------===//
// Pareto-front invariants
//===----------------------------------------------------------------------===//

TEST(TunerTest, ParetoFrontHasNoDominatedCandidate) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 4096;
  TuningOutcome Out = tuneOrDie(smallJacobi(), Opts);
  const std::vector<CandidateRecord> &C = Out.Report.Candidates;
  const std::vector<size_t> &Front = Out.Report.ParetoFront;
  ASSERT_FALSE(Front.empty());

  auto Dominates = [](const CandidateCost &A, const CandidateCost &B) {
    return A.PredictedSeconds <= B.PredictedSeconds &&
           A.Devices <= B.Devices &&
           A.PeakUtilization <= B.PeakUtilization &&
           (A.PredictedSeconds < B.PredictedSeconds ||
            A.Devices < B.Devices || A.PeakUtilization < B.PeakUtilization);
  };
  for (size_t I : Front) {
    ASSERT_LT(I, C.size());
    EXPECT_TRUE(C[I].Cost.Feasible);
    for (const CandidateRecord &Other : C)
      if (Other.Cost.Feasible) {
        EXPECT_FALSE(Dominates(Other.Cost, C[I].Cost))
            << Other.Mapping.id() << " dominates front member "
            << C[I].Mapping.id();
      }
  }
  // Conversely, every feasible non-member is dominated by someone.
  for (size_t I = 0; I != C.size(); ++I) {
    if (!C[I].Cost.Feasible ||
        std::find(Front.begin(), Front.end(), I) != Front.end())
      continue;
    bool Dominated = false;
    for (const CandidateRecord &Other : C)
      Dominated |= Other.Cost.Feasible && Dominates(Other.Cost, C[I].Cost);
    EXPECT_TRUE(Dominated) << C[I].Mapping.id();
  }
}

//===----------------------------------------------------------------------===//
// Every emitted plan is feasible
//===----------------------------------------------------------------------===//

TEST(TunerTest, FeasibleCandidatesPassResourceAndDeadlockChecks) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 4096;
  PipelineOptions Base = baseOptions();
  StencilProgram Program = smallJacobi();
  TuningOutcome Out = tuneOrDie(Program.clone(), Opts, Base);

  for (const CandidateRecord &R : Out.Report.Candidates) {
    if (!R.Cost.Feasible)
      continue;
    // Re-derive the plan from scratch: the mapping must re-apply, the
    // buffer analysis must prove deadlock freedom, and the partition must
    // respect the ResourceModel capacity on every device.
    Expected<StencilProgram> Applied = applyMapping(Program, R.Mapping);
    ASSERT_TRUE(Applied) << R.Mapping.id() << ": " << Applied.message();
    Expected<CompiledProgram> Compiled =
        CompiledProgram::compile(Applied.takeValue(), Base.Kernel);
    ASSERT_TRUE(Compiled) << R.Mapping.id() << ": " << Compiled.message();
    Expected<DataflowAnalysis> Dataflow =
        analyzeDataflow(*Compiled, Base.Latencies);
    ASSERT_TRUE(Dataflow) << R.Mapping.id() << ": " << Dataflow.message();

    PartitionOptions PartOpts = Base.Partitioning;
    PartOpts.MaxDevices = R.Mapping.MaxDevices;
    PartOpts.TargetUtilization = R.Mapping.TargetUtilization;
    Expected<Partition> Placement =
        partitionProgram(*Compiled, *Dataflow, PartOpts);
    ASSERT_TRUE(Placement) << R.Mapping.id() << ": " << Placement.message();
    EXPECT_EQ(static_cast<int>(Placement->numDevices()), R.Cost.Devices)
        << R.Mapping.id();
    EXPECT_LE(R.Cost.Devices, R.Mapping.MaxDevices) << R.Mapping.id();
    double Peak = 0.0;
    for (const DevicePlacement &Device : Placement->Devices) {
      EXPECT_TRUE(Device.Resources.fitsWithin(PartOpts.Device))
          << R.Mapping.id();
      Peak = std::max(Peak, Device.Resources.peakUtilization(PartOpts.Device));
    }
    EXPECT_LE(R.Cost.PeakUtilization, 1.0) << R.Mapping.id();
    // The memoized prefix must price exactly what a from-scratch
    // derivation prices.
    EXPECT_EQ(computeRuntimeEstimate(*Compiled, *Dataflow).TotalCycles,
              R.Cost.ModelCycles)
        << R.Mapping.id();
    EXPECT_EQ(Peak, R.Cost.PeakUtilization) << R.Mapping.id();
  }
}

namespace {

/// A time-looped three-stencil chain full of algebraic identities, so
/// simplification changes the accesses, buffers and operation counts.
StencilProgram identityChain() {
  StencilProgram P;
  P.Name = "identity_chain";
  P.IterationSpace = Shape({16, 32});
  stencilflow::testing::addInput(P, "a0");
  stencilflow::testing::addStencil(
      P, "b", "b = 1.0 * (a0[0,-1] + a0[0,1]) + 0.0 * a0[-1,0];");
  stencilflow::testing::addStencil(P, "c",
                                   "c = b[0,-1] * 1.0 + b[0,1] + 0.0;");
  stencilflow::testing::addStencil(
      P, "d", "d = c[-1,0] + c[1,0] * 1.0 + 0.0 * c[0,2];");
  P.Outputs = {"d"};
  P.TimeLoop = {{"d", "a0"}};
  return stencilflow::testing::buildProgram(std::move(P));
}

/// Field-by-field equality of two verdicts on \p Mapping.
void expectSameCost(const CandidateCost &A, const CandidateCost &B,
                    const CandidateMapping &Mapping) {
  std::string Id = Mapping.id();
  EXPECT_EQ(A.Feasible, B.Feasible) << Id;
  EXPECT_EQ(A.PruneReason, B.PruneReason) << Id;
  EXPECT_EQ(A.ModelCycles, B.ModelCycles) << Id;
  EXPECT_EQ(A.PredictedCycles, B.PredictedCycles) << Id;
  EXPECT_EQ(A.FrequencyMHz, B.FrequencyMHz) << Id;
  EXPECT_EQ(A.PredictedSeconds, B.PredictedSeconds) << Id;
  EXPECT_EQ(A.TemporalDegree, B.TemporalDegree) << Id;
  EXPECT_EQ(A.MemorySlowdown, B.MemorySlowdown) << Id;
  EXPECT_EQ(A.NetworkSlowdown, B.NetworkSlowdown) << Id;
  EXPECT_EQ(A.Devices, B.Devices) << Id;
  EXPECT_EQ(A.PeakUtilization, B.PeakUtilization) << Id;
  EXPECT_EQ(A.FusedPairs, B.FusedPairs) << Id;
}

} // namespace

TEST(TunerTest, PrefixMemoIsOrderIndependentAndMatchesFromScratch) {
  // The cost model compiles one prefix per (fusion level, temporal
  // degree) and shares it across widths and partitioning knobs. Costing
  // the space in opposite orders through fresh models must agree field
  // for field, and every feasible verdict must match the pipeline run
  // from scratch on the applied mapping — with and without simplification.
  StencilProgram Program = identityChain();
  DesignSpaceOptions SpaceOpts;
  SpaceOpts.TemporalDegrees = {1, 2};
  SpaceOpts.DeviceCounts = {1, 2};
  Expected<DesignSpace> Space = DesignSpace::enumerate(Program, SpaceOpts, 8);
  ASSERT_TRUE(Space) << Space.message();
  std::vector<CandidateMapping> Mappings = Space->candidates();
  // An illegal width prunes after the shared prefix was built.
  Mappings.push_back(CandidateMapping{/*W=*/5, 1, 1, 0.85, 2});

  for (bool Simplify : {false, true}) {
    PipelineOptions Base; // Constrained memory: slowdowns are non-trivial.
    Base.SimplifyCode = Simplify;
    // Two stencils per device: unfused chains overflow small budgets.
    Base.Partitioning.MaxStencilsPerDevice = 2;

    CostModel Forward(Program, Base, *Space);
    std::vector<CandidateCost> Costs;
    for (const CandidateMapping &M : Mappings)
      Costs.push_back(Forward.cost(M));
    CostModel Reverse(Program, Base, *Space);
    for (size_t I = Mappings.size(); I-- > 0;)
      expectSameCost(Reverse.cost(Mappings[I]), Costs[I], Mappings[I]);

    size_t Pruned = 0;
    for (size_t I = 0; I != Mappings.size(); ++I) {
      const CandidateMapping &M = Mappings[I];
      if (!Costs[I].Feasible) {
        ++Pruned;
        EXPECT_FALSE(Costs[I].PruneReason.empty()) << M.id();
        continue;
      }
      Expected<StencilProgram> Applied = applyMapping(Program, M);
      ASSERT_TRUE(Applied) << M.id() << ": " << Applied.message();
      PipelineOptions O = Base;
      O.Partitioning.MaxDevices = M.MaxDevices;
      O.Partitioning.TargetUtilization = M.TargetUtilization;
      Expected<CompiledPlan> Plan = compilePipeline(Applied.takeValue(), O);
      ASSERT_TRUE(Plan) << M.id() << ": " << Plan.message();
      EXPECT_EQ(Plan->Runtime.TotalCycles, Costs[I].ModelCycles) << M.id();
      EXPECT_EQ(static_cast<int>(Plan->Placement.numDevices()),
                Costs[I].Devices)
          << M.id();
    }
    EXPECT_GT(Pruned, 1u) << "simplify " << Simplify;
    EXPECT_EQ(Costs.back().PruneReason.rfind("mapping: ", 0), 0u)
        << Costs.back().PruneReason;
  }
}

//===----------------------------------------------------------------------===//
// Width-invariant work: one fusion walk, width views, one oracle per prefix
//===----------------------------------------------------------------------===//

TEST(TunerTest, FusionWalkLevelsMatchFuseStencilsUpTo) {
  // One walk keeping every level must leave, at each level F, exactly the
  // program fuseStencilsUpTo(F) leaves of a fresh copy — on a chain long
  // enough that the statement limit ends the trajectory, on an unrolled
  // (T=2) program, and on hdiff's diamond-shaped graph.
  Expected<StencilProgram> Unrolled =
      sdfg::unrollTimeSteps(identityChain(), 2);
  ASSERT_TRUE(Unrolled) << Unrolled.message();
  std::vector<std::pair<std::string, StencilProgram>> Cases;
  Cases.emplace_back("jacobi3d 8-chain", workloads::jacobi3dChain(8, 4, 8, 8));
  Cases.emplace_back("identity chain T=2", Unrolled.takeValue());
  Cases.emplace_back("hdiff", workloads::horizontalDiffusion(4, 8, 8));
  for (const auto &[Name, Program] : Cases) {
    FusionWalk Walk(Program.clone(), std::numeric_limits<int>::max(),
                    [](int) { return true; });
    ASSERT_FALSE(Walk.failure()) << Name << ": " << Walk.failure().message();
    ASSERT_GT(Walk.pairs(), 1) << Name;
    for (int F = 0; F <= Walk.pairs() + 1; ++F) {
      StencilProgram Fused = Program.clone();
      Expected<FusionReport> Report = fuseStencilsUpTo(Fused, F);
      ASSERT_TRUE(Report) << Name << ": " << Report.message();
      std::shared_ptr<const StencilProgram> Level = Walk.level(F);
      ASSERT_NE(Level, nullptr) << Name << " level " << F;
      EXPECT_EQ(programToJson(*Level).toString(),
                programToJson(Fused).toString())
          << Name << " level " << F;
    }
  }

  // The 8-chain's walk ends on the statement limit, not on the graph: a
  // producer with a single consumer remains, rejected only for size.
  StencilProgram Chain = workloads::jacobi3dChain(8, 4, 8, 8);
  FusionWalk Walk(Chain.clone(), std::numeric_limits<int>::max(),
                  [](int) { return false; });
  std::shared_ptr<const StencilProgram> Last = Walk.level(Walk.pairs());
  ASSERT_NE(Last, nullptr);
  bool StoppedBySize = false;
  for (const StencilNode &Node : Last->Nodes) {
    Expected<std::string> Consumer = canFuseInto(*Last, Node.Name);
    StoppedBySize |= !Consumer && Consumer.message().find("statements") !=
                                      std::string::npos;
  }
  EXPECT_TRUE(StoppedBySize);
  EXPECT_EQ(Walk.level(0), nullptr) << "an unkept level";

  // A limited walk holds the levels it kept and the one it ended on.
  FusionWalk Limited(Chain.clone(), 2, [](int F) { return F == 1; });
  EXPECT_EQ(Limited.pairs(), 2);
  EXPECT_EQ(Limited.level(0), nullptr);
  EXPECT_NE(Limited.level(1), nullptr);
  EXPECT_NE(Limited.level(2), nullptr);
  EXPECT_EQ(Limited.level(3), nullptr) << "past the walk's limit";
}

TEST(TunerTest, EnumerateLevelsMatchTheAggressivePass) {
  // The walk replaces enumerate's separate aggressive-fusion probe: the
  // maximum and the levels must be what that probe gave, and the walk
  // must hold the program of every level of the space.
  struct Case {
    std::string Name;
    StencilProgram Program;
    std::vector<int> Levels;
  };
  std::vector<Case> Cases;
  Cases.push_back({"diffusion", smallDiffusion(), {}});
  Cases.push_back({"jacobi3d 8-chain", workloads::jacobi3dChain(8, 4, 8, 8),
                   {}});
  Cases.push_back({"hdiff", workloads::horizontalDiffusion(4, 8, 8), {}});
  Cases.push_back({"hdiff explicit", workloads::horizontalDiffusion(4, 8, 8),
                   {5, 2, 99}});
  for (const Case &C : Cases) {
    StencilProgram Probe = C.Program.clone();
    Expected<FusionReport> Aggressive = fuseAllStencils(Probe);
    ASSERT_TRUE(Aggressive) << C.Name << ": " << Aggressive.message();
    int Max = Aggressive->FusedPairs;
    std::vector<int> Seed =
        C.Levels.empty() ? std::vector<int>{0, 1, Max / 2, Max} : C.Levels;
    std::vector<int> Want{0};
    for (int F : Seed)
      if (F >= 0 && F <= Max)
        Want.push_back(F);
    std::sort(Want.begin(), Want.end());
    Want.erase(std::unique(Want.begin(), Want.end()), Want.end());

    DesignSpaceOptions Options;
    Options.FusionLevels = C.Levels;
    Expected<DesignSpace> Space =
        DesignSpace::enumerate(C.Program, Options, 8);
    ASSERT_TRUE(Space) << C.Name << ": " << Space.message();
    EXPECT_EQ(Space->maxFusionPairs(), Max) << C.Name;
    EXPECT_EQ(Space->fusionLevels(), Want) << C.Name;
    for (int F : Want)
      EXPECT_NE(Space->fusionWalk()->level(F), nullptr)
          << C.Name << " level " << F;
  }

  // A walk whose step fails collapses the axis to {0}, as a failing probe
  // did: a shrink boundary on the first stencil's input travels into its
  // consumer when fused, and the fused program fails validation.
  StencilProgram Broken = smallDiffusion();
  StencilNode &First = Broken.Nodes.front();
  First.Boundaries[First.Accesses.front().Field] =
      BoundaryCondition::shrink();
  StencilProgram Probe = Broken.clone();
  EXPECT_FALSE(fuseAllStencils(Probe));
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(Broken, DesignSpaceOptions(), 8);
  ASSERT_TRUE(Space) << Space.message();
  EXPECT_EQ(Space->maxFusionPairs(), 0);
  EXPECT_EQ(Space->fusionLevels(), std::vector<int>{0});
  ASSERT_TRUE(Space->fusionWalk()->failure());
  EXPECT_NE(Space->fusionWalk()->failure().message().find(
                "shrink is an output boundary condition"),
            std::string::npos)
      << Space->fusionWalk()->failure().message();
  EXPECT_NE(Space->fusionWalk()->level(0), nullptr);
  EXPECT_EQ(Space->fusionWalk()->level(1), nullptr);

  // The walk runs at width 1: the program's own width, legal or not,
  // does not change the levels.
  StencilProgram Odd = smallDiffusion();
  Odd.VectorWidth = 3;
  Expected<DesignSpace> OddSpace =
      DesignSpace::enumerate(Odd, DesignSpaceOptions(), 8);
  ASSERT_TRUE(OddSpace) << OddSpace.message();
  Expected<DesignSpace> Plain =
      DesignSpace::enumerate(smallDiffusion(), DesignSpaceOptions(), 8);
  ASSERT_TRUE(Plain) << Plain.message();
  EXPECT_EQ(OddSpace->maxFusionPairs(), Plain->maxFusionPairs());
  EXPECT_EQ(OddSpace->fusionLevels(), Plain->fusionLevels());
}

namespace {

/// Field-by-field equality of a plan and its run with a reference plan
/// and run compiled from scratch.
void expectSameRun(const CompiledPlan &Plan, const PlanExecution &Exec,
                   const CompiledPlan &Scratch,
                   const PlanExecution &ScratchExec, const std::string &Id) {
  EXPECT_EQ(Plan.Compiled.vectorWidth(), Scratch.Compiled.vectorWidth())
      << Id;
  EXPECT_EQ(Plan.Runtime.TotalCycles, Scratch.Runtime.TotalCycles) << Id;
  EXPECT_EQ(Plan.Runtime.LatencyCycles, Scratch.Runtime.LatencyCycles) << Id;
  EXPECT_EQ(Plan.Runtime.StreamedCycles, Scratch.Runtime.StreamedCycles)
      << Id;
  EXPECT_EQ(Plan.Resources.ALMs, Scratch.Resources.ALMs) << Id;
  EXPECT_EQ(Plan.Resources.FFs, Scratch.Resources.FFs) << Id;
  EXPECT_EQ(Plan.Resources.M20Ks, Scratch.Resources.M20Ks) << Id;
  EXPECT_EQ(Plan.Resources.DSPs, Scratch.Resources.DSPs) << Id;
  EXPECT_EQ(Plan.FrequencyMHz, Scratch.FrequencyMHz) << Id;
  EXPECT_EQ(Plan.Placement.report(), Scratch.Placement.report()) << Id;
  EXPECT_EQ(Exec.Simulation.Stats.Cycles, ScratchExec.Simulation.Stats.Cycles)
      << Id;
  EXPECT_EQ(Exec.Simulation.Stats.MemoryBytesMoved,
            ScratchExec.Simulation.Stats.MemoryBytesMoved)
      << Id;
  EXPECT_EQ(Exec.Simulation.Outputs, ScratchExec.Simulation.Outputs) << Id;
  EXPECT_TRUE(Exec.ValidationPassed) << Id;
  EXPECT_TRUE(ScratchExec.ValidationPassed) << Id;
}

} // namespace

TEST(TunerTest, WidthViewsMatchFromScratchCompiles) {
  // Every prefix viewed at every legal width, planned and run against the
  // prefix's shared reference outputs, must equal the pipeline compiled
  // and run from scratch on the mapping applied at that width. Illegal
  // widths fail with validate()'s own message.
  struct Case {
    std::string Name;
    StencilProgram Program;
    int Degree;
  };
  std::vector<Case> Cases;
  Cases.push_back({"hdiff 4x8x8", workloads::horizontalDiffusion(4, 8, 8), 1});
  Cases.push_back(
      {"jacobi3d 4-chain", workloads::jacobi3dChain(4, 4, 8, 8), 1});
  Cases.push_back({"identity chain", identityChain(), 2});
  PipelineOptions Base; // Constrained memory: nonzero memory traffic.
  Base.Partitioning.MaxStencilsPerDevice = 3;

  for (const Case &C : Cases) {
    Expected<DesignSpace> Probe =
        DesignSpace::enumerate(C.Program, DesignSpaceOptions(), 8);
    ASSERT_TRUE(Probe) << C.Name << ": " << Probe.message();
    DesignSpaceOptions Options;
    for (int F = 0; F <= Probe->maxFusionPairs(); ++F)
      Options.FusionLevels.push_back(F);
    Options.TemporalDegrees = {C.Degree};
    Expected<DesignSpace> Space =
        DesignSpace::enumerate(C.Program, Options, 8);
    ASSERT_TRUE(Space) << C.Name << ": " << Space.message();
    CostModel Model(C.Program, Base, *Space);
    const Shape &Domain = C.Program.IterationSpace;
    int64_t Innermost = Domain.extent(Domain.rank() - 1);
    size_t Runs = 0;

    for (int F : Space->fusionLevels()) {
      for (int W = 1; W <= Innermost; ++W) {
        CandidateMapping M{W, F, 4, 0.85, C.Degree};
        std::string Id = C.Name + " " + M.id();
        Expected<CompiledProgram> View = Model.compile(M);
        if (Innermost % W != 0) {
          ASSERT_FALSE(View) << Id;
          StencilProgram Widened = C.Program.clone();
          Widened.VectorWidth = W;
          EXPECT_EQ(View.message(), "mapping: mapping " + M.id() + ": " +
                                        Widened.validate().message())
              << Id;
          continue;
        }
        ASSERT_TRUE(View) << Id << ": " << View.message();
        PipelineOptions O = mappingOptions(Base, M);
        Expected<CompiledPlan> Plan = planProgram(View.takeValue(), O);
        Expected<StencilProgram> Applied = applyMapping(C.Program, M);
        ASSERT_TRUE(Applied) << Id << ": " << Applied.message();
        Expected<CompiledPlan> Scratch =
            compilePipeline(Applied.takeValue(), O);
        ASSERT_EQ(static_cast<bool>(Plan), static_cast<bool>(Scratch)) << Id;
        if (!Plan) { // Over capacity at this width: the same verdict.
          EXPECT_EQ(Plan.message(), Scratch.message()) << Id;
          continue;
        }
        std::shared_ptr<const ExecutionResult> Reference =
            Model.reference(M);
        ASSERT_NE(Reference, nullptr) << Id;
        auto Exec = executePlan(*Plan, O, Reference.get());
        ASSERT_TRUE(Exec) << Id << ": " << Exec.message();
        auto ScratchExec = executePlan(*Scratch, O);
        ASSERT_TRUE(ScratchExec) << Id << ": " << ScratchExec.message();
        expectSameRun(*Plan, *Exec, *Scratch, *ScratchExec, Id);
        ++Runs;
      }
    }
    EXPECT_GE(Runs, 3 * Space->fusionLevels().size()) << C.Name;
  }
}

TEST(TunerTest, CandidatesShareTheirPrefixProgramAndReference) {
  // Candidates that differ only in width, device budget or utilization
  // share one compiled program and one set of reference outputs; each
  // (fusion level, temporal degree) has its own. Workers ask for them
  // concurrently, so the reference is requested from several threads.
  StencilProgram Program = identityChain();
  DesignSpaceOptions SpaceOpts;
  SpaceOpts.TemporalDegrees = {1, 2};
  SpaceOpts.DeviceCounts = {1, 2};
  Expected<DesignSpace> Space = DesignSpace::enumerate(Program, SpaceOpts, 8);
  ASSERT_TRUE(Space) << Space.message();
  PipelineOptions Base = baseOptions();
  CostModel Model(Program, Base, *Space);
  const std::vector<CandidateMapping> &All = Space->candidates();

  std::vector<std::shared_ptr<const ExecutionResult>> Seen(All.size());
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = T; I < All.size(); I += 4)
        Seen[I] = Model.reference(All[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  std::map<std::pair<int, int>, size_t> First;
  for (size_t I = 0; I != All.size(); ++I) {
    const CandidateMapping &M = All[I];
    ASSERT_NE(Seen[I], nullptr) << M.id();
    Expected<CompiledProgram> Compiled = Model.compile(M);
    ASSERT_TRUE(Compiled) << M.id() << ": " << Compiled.message();
    EXPECT_EQ(Compiled->vectorWidth(), M.VectorWidth) << M.id();
    auto [It, Inserted] =
        First.try_emplace({M.FusionPairs, M.TemporalDegree}, I);
    if (Inserted) {
      // The shared reference equals the reference executor run on the
      // mapping compiled from scratch.
      Expected<StencilProgram> Applied = applyMapping(Program, M);
      ASSERT_TRUE(Applied) << M.id() << ": " << Applied.message();
      Expected<CompiledProgram> Scratch =
          CompiledProgram::compile(Applied.takeValue());
      ASSERT_TRUE(Scratch) << M.id() << ": " << Scratch.message();
      Expected<ExecutionResult> Reference =
          runReference(*Scratch, materializeInputs(Scratch->program()));
      ASSERT_TRUE(Reference) << M.id() << ": " << Reference.message();
      EXPECT_EQ(Seen[I]->Fields, Reference->Fields) << M.id();
      continue;
    }
    const CandidateMapping &Sibling = All[It->second];
    EXPECT_EQ(Seen[I], Seen[It->second]) << M.id() << " vs " << Sibling.id();
    EXPECT_EQ(&Compiled->program(), &Model.compile(Sibling)->program())
        << M.id() << " vs " << Sibling.id();
  }
  EXPECT_EQ(First.size(),
            Space->fusionLevels().size() * Space->temporalDegrees().size());
  EXPECT_NE(Model.reference(All.front()),
            Model.reference(CandidateMapping{1, 1, 1, 0.85, 2}));

  // A level outside the space was never walked to: it is pruned, not
  // fused afresh.
  Expected<CompiledProgram> Outside =
      Model.compile(CandidateMapping{1, 99, 1, 0.85});
  ASSERT_FALSE(Outside);
  EXPECT_EQ(Outside.message(),
            "mapping: fusion level 99 is not a level of the design space");
}

//===----------------------------------------------------------------------===//
// Predicted vs simulated, tuned vs default
//===----------------------------------------------------------------------===//

TEST(TunerTest, ModelErrorWithinBoundAndTunedBeatsDefault) {
  // Acceptance criteria on two paper workloads: the tuned plan's
  // simulated cycles beat the default (W=1, unfused) mapping, the winning
  // plan validates bit-exactly (Tolerance = 0) against the reference
  // executor, and the model error stays within the documented bound.
  struct Case {
    const char *Name;
    StencilProgram Program;
  } Cases[] = {{"jacobi3d", smallJacobi()},
               {"diffusion2d", smallDiffusion()}};
  for (Case &C : Cases) {
    TuneOptions Opts;
    Opts.TopK = 3;
    TuningOutcome Out = tuneOrDie(std::move(C.Program), Opts);
    const CandidateRecord *Best = Out.Report.best();
    const CandidateRecord *Default = Out.Report.defaultCandidate();
    ASSERT_NE(Best, nullptr) << C.Name;
    ASSERT_NE(Default, nullptr) << C.Name;
    ASSERT_TRUE(Default->Simulated) << C.Name;

    EXPECT_TRUE(Best->ValidationPassed) << C.Name;
    EXPECT_TRUE(Out.BestRun.ValidationPassed) << C.Name;
    EXPECT_LT(Best->SimulatedCycles, Default->SimulatedCycles) << C.Name;

    for (const CandidateRecord &R : Out.Report.Candidates) {
      if (!R.Simulated || !R.SimulationError.empty())
        continue;
      EXPECT_LE(R.ModelErrorPct, ModelErrorBoundPct)
          << C.Name << " " << R.Mapping.id();
      // Single-device plans under unconstrained memory are predicted
      // exactly (the Eq. 1 invariant the simulator asserts).
      if (R.Cost.Devices == 1) {
        EXPECT_EQ(R.Cost.PredictedCycles, R.SimulatedCycles)
            << C.Name << " " << R.Mapping.id();
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Slowdown calibration
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic simulated candidate for calibration fitting.
CandidateRecord calibrationSample(double MemorySlowdown,
                                  double NetworkSlowdown,
                                  int64_t ModelCycles,
                                  int64_t PredictedCycles,
                                  int64_t SimulatedCycles) {
  CandidateRecord R;
  R.Cost.Feasible = true;
  R.Cost.ModelCycles = ModelCycles;
  R.Cost.PredictedCycles = PredictedCycles;
  R.Cost.MemorySlowdown = MemorySlowdown;
  R.Cost.NetworkSlowdown = NetworkSlowdown;
  R.Simulated = true;
  R.SimulatedCycles = SimulatedCycles;
  R.ModelErrorPct = 100.0 *
                    std::abs(static_cast<double>(PredictedCycles) -
                             static_cast<double>(SimulatedCycles)) /
                    static_cast<double>(SimulatedCycles);
  return R;
}

} // namespace

TEST(TunerTest, CalibrationFitsSyntheticResiduals) {
  // Two memory-bound samples whose simulator needs exactly half the
  // model's correction, and one network-bound sample needing a quarter:
  // the closed-form fit must recover 0.5 / 0.25 and drive the calibrated
  // error to zero.
  TuningReport Report;
  Report.Candidates.push_back(calibrationSample(2.0, 1.0, 1000, 2000, 1500));
  Report.Candidates.push_back(calibrationSample(2.0, 1.0, 2000, 3000, 2500));
  Report.Candidates.push_back(calibrationSample(1.0, 3.0, 1000, 1400, 1100));
  calibrateSlowdowns(Report);

  const SlowdownCalibration &C = Report.Calibration;
  EXPECT_TRUE(C.Fitted);
  EXPECT_EQ(C.MemorySamples, 2);
  EXPECT_EQ(C.NetworkSamples, 1);
  EXPECT_NEAR(C.MemoryFactor, 0.5, 1e-9);
  EXPECT_NEAR(C.NetworkFactor, 0.25, 1e-9);
  EXPECT_GT(C.MeanErrorPctBefore, 10.0);
  EXPECT_NEAR(C.MeanErrorPctAfter, 0.0, 1e-9);
  EXPECT_NEAR(Report.Candidates[0].CalibratedPredictedCycles, 1500.0, 1e-9);
  EXPECT_NEAR(Report.Candidates[2].CalibratedPredictedCycles, 1100.0, 1e-9);
}

TEST(TunerTest, CalibrationClampsNegativeFits) {
  // A simulator *faster* than the uncorrected model would fit a negative
  // factor; the calibration clamps to 0 (drop the correction entirely).
  TuningReport Report;
  Report.Candidates.push_back(calibrationSample(2.0, 1.0, 1000, 2000, 800));
  calibrateSlowdowns(Report);
  EXPECT_TRUE(Report.Calibration.Fitted);
  EXPECT_EQ(Report.Calibration.MemoryFactor, 0.0);
  EXPECT_NEAR(Report.Candidates[0].CalibratedPredictedCycles, 1000.0, 1e-9);
}

TEST(TunerTest, CalibrationSkipsReportsWithoutSimulations) {
  TuningReport Report;
  CandidateRecord R;
  R.Cost.Feasible = true;
  R.Cost.ModelCycles = 100;
  R.Cost.PredictedCycles = 150;
  Report.Candidates.push_back(std::move(R)); // Never simulated.
  calibrateSlowdowns(Report);
  EXPECT_FALSE(Report.Calibration.Fitted);
  EXPECT_EQ(Report.Calibration.MemorySamples, 0);
  EXPECT_EQ(Report.Candidates[0].CalibratedPredictedCycles, 0.0);
}

TEST(TunerTest, CalibrationPopulatesHighOrderTuningReport) {
  // End to end on a high-order workload: tuneProgram calibrates
  // automatically, fills per-candidate calibrated predictions, and
  // serializes the calibration block.
  TuneOptions Opts;
  Opts.TopK = 3;
  TuningOutcome Out =
      tuneOrDie(workloads::wave2dChain(2, 1, 16, 32), Opts);
  for (const CandidateRecord &R : Out.Report.Candidates) {
    if (!R.Simulated || !R.SimulationError.empty())
      continue;
    EXPECT_GT(R.CalibratedPredictedCycles, 0.0) << R.Mapping.id();
  }
  Expected<json::Value> Doc = json::parse(Out.Report.toJson());
  ASSERT_TRUE(Doc) << Doc.message();
  const json::Object &Root = Doc->getObject();
  ASSERT_TRUE(Root.contains("calibration"));
  const json::Object &Cal = Root.get("calibration")->getObject();
  EXPECT_TRUE(Cal.contains("fitted"));
  EXPECT_TRUE(Cal.contains("memory_factor"));
  EXPECT_TRUE(Cal.contains("network_factor"));
  EXPECT_TRUE(Cal.contains("mean_error_pct_before"));
  EXPECT_TRUE(Cal.contains("mean_error_pct_after"));
}

//===----------------------------------------------------------------------===//
// Report serialization and facade
//===----------------------------------------------------------------------===//

TEST(TunerTest, JsonReportParsesAndMatchesTheReport) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 24;
  TuningOutcome Out = tuneOrDie(smallDiffusion(), Opts);

  Expected<json::Value> Doc = json::parse(Out.Report.toJson());
  ASSERT_TRUE(Doc) << Doc.message();
  ASSERT_TRUE(Doc->isObject());
  const json::Object &Root = Doc->getObject();
  EXPECT_EQ(Root.get("program")->getString(), Out.Report.ProgramName);
  EXPECT_EQ(Root.get("search")->getString(), Out.Report.SearchKind);
  ASSERT_TRUE(Root.get("candidates")->isArray());
  EXPECT_EQ(Root.get("candidates")->getArray().size(),
            Out.Report.Explored);
  EXPECT_EQ(Root.get("best")->getString(), Out.Best.id());
  EXPECT_EQ(static_cast<int>(Root.get("best_index")->getInteger()),
            Out.Report.BestIndex);
  // Prune reasons are serialized for infeasible candidates.
  for (const json::Value &V : Root.get("candidates")->getArray()) {
    const json::Object &Obj = V.getObject();
    if (!Obj.get("feasible")->getBoolean())
      EXPECT_TRUE(Obj.contains("prune_reason"));
    else
      EXPECT_TRUE(Obj.contains("predicted_cycles"));
  }
}

TEST(TunerTest, SessionFacadeTunes) {
  Session S = Session::fromProgram(smallDiffusion());
  S.unconstrainedMemory(true);
  TuneOptions Opts;
  Opts.TopK = 2;
  Expected<TuningOutcome> Out = S.tune(Opts);
  ASSERT_TRUE(Out) << Out.message();
  EXPECT_TRUE(Out->BestRun.ValidationPassed);
  EXPECT_GT(Out->Report.SimulatedCount, 0u);
  // The no-simulate path ranks analytically and leaves BestRun empty.
  Opts.Simulate = false;
  Expected<TuningOutcome> Analytic = S.tune(Opts);
  ASSERT_TRUE(Analytic) << Analytic.message();
  EXPECT_EQ(Analytic->Report.SimulatedCount, 0u);
  EXPECT_GE(Analytic->Report.BestIndex, 0);
}
