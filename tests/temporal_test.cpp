//===- tests/temporal_test.cpp - Temporal blocking tests -----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers temporal blocking (sdfg/TemporalUnroll.h) end to end:
//
//  - the unroll transformation itself: naming, pruning of dead
//    intermediate copies, TimeLoop preservation, legality rules as typed
//    InvalidInput errors, and the `time_loop` JSON round trip;
//  - the parity oracle: unrolling T timesteps and evaluating once is
//    bit-identical to iterating the single-step program T times through
//    off-chip memory (iterateReference), for T in {1, 2, 4, 8} on
//    jacobi2d/jacobi3d/diffusion2d, across the scalar and specialized
//    kernel tiers;
//  - the unrolled graph under the rest of the system: fault plans on
//    multi-device placements, checkpoint/resume, fusion on top of the
//    unroll, and the Session::temporalDegree surface.
//
//===----------------------------------------------------------------------===//

#include "frontend/ProgramLoader.h"
#include "runtime/InputData.h"
#include "runtime/Iterate.h"
#include "runtime/Pipeline.h"
#include "runtime/Session.h"
#include "sdfg/TemporalUnroll.h"
#include "sim/Fault.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <map>
#include <set>
#include <string>
#include <vector>

using namespace stencilflow;

namespace {

/// A per-test scratch directory under the gtest temp root, cleared of any
/// leftover snapshot files from a previous in-process run.
std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "/sf_temporal_" + Name;
  ::mkdir(Dir.c_str(), 0755);
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *Entry = ::readdir(D)) {
      std::string File = Entry->d_name;
      if (File != "." && File != "..")
        ::unlink((Dir + "/" + File).c_str());
    }
    ::closedir(D);
  }
  return Dir;
}

/// Iterates the single-step \p Program T times through off-chip memory
/// with the reference executor — the parity oracle.
std::map<std::string, std::vector<double>>
referenceAfterSteps(const StencilProgram &Program, int Steps) {
  auto Compiled = CompiledProgram::compile(Program.clone(), {});
  EXPECT_TRUE(Compiled) << Compiled.message();
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = iterateReference(*Compiled, Inputs,
                                 Compiled->program().TimeLoop, Steps);
  EXPECT_TRUE(Result) << Result.message();
  std::map<std::string, std::vector<double>> Fields;
  for (const std::string &Output : Program.Outputs)
    Fields[Output] = Result->field(Output);
  return Fields;
}

/// Asserts two field vectors are bit-identical (EXPECT_EQ on doubles is
/// exact equality; these workloads produce no NaNs).
void expectBitExact(const std::vector<double> &Got,
                    const std::vector<double> &Want,
                    const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I != Got.size(); ++I)
    ASSERT_EQ(Got[I], Want[I]) << What << " diverges at element " << I;
}

} // namespace

//===----------------------------------------------------------------------===//
// The transformation
//===----------------------------------------------------------------------===//

TEST(TemporalUnrollTest, DegreeOneIsAClone) {
  StencilProgram P = workloads::diffusion2dChain(2, 8, 8);
  auto U = sdfg::unrollTimeSteps(P, 1);
  ASSERT_TRUE(U) << U.message();
  EXPECT_EQ(U->Nodes.size(), P.Nodes.size());
  EXPECT_EQ(U->Outputs, P.Outputs);
  ASSERT_EQ(U->TimeLoop.size(), 1u);
  EXPECT_EQ(U->TimeLoop[0].Output, "a2");
  EXPECT_EQ(U->TimeLoop[0].Input, "a0");
}

TEST(TemporalUnrollTest, ChainsStepsAndKeepsFinalNames) {
  StencilProgram P = workloads::diffusion2dChain(1, 8, 8);
  auto U = sdfg::unrollTimeSteps(P, 4);
  ASSERT_TRUE(U) << U.message();
  // One node per step; the final step keeps the original name so the
  // program outputs (and the TimeLoop boundary) are unchanged.
  ASSERT_EQ(U->Nodes.size(), 4u);
  EXPECT_NE(U->findNode("a1__t0"), nullptr);
  EXPECT_NE(U->findNode("a1__t1"), nullptr);
  EXPECT_NE(U->findNode("a1__t2"), nullptr);
  EXPECT_NE(U->findNode("a1"), nullptr);
  EXPECT_EQ(U->Outputs, P.Outputs);
  ASSERT_EQ(U->TimeLoop.size(), 1u);
  EXPECT_EQ(U->TimeLoop[0].Output, "a1");
  // Step 0 reads the bound input; step 1 reads step 0's output through an
  // on-chip channel instead of off-chip memory.
  EXPECT_NE(U->findNode("a1__t0")->accessesFor("a0"), nullptr);
  EXPECT_NE(U->findNode("a1__t1")->accessesFor("a1__t0"), nullptr);
  EXPECT_EQ(U->findNode("a1__t1")->accessesFor("a0"), nullptr);
  // Boundary conditions composed onto the renamed producer.
  EXPECT_EQ(U->findNode("a1__t1")->Boundaries.count("a1__t0"), 1u);
  EXPECT_FALSE(static_cast<bool>(U->validate()));
}

TEST(TemporalUnrollTest, UnrollMatchesHandWrittenChain) {
  // unroll(diffusion2d x1, 4) computes exactly what diffusion2d x4
  // computes — the chain workloads are hand-unrolled time loops.
  StencilProgram Single = workloads::diffusion2dChain(1, 12, 16);
  StencilProgram Chain = workloads::diffusion2dChain(4, 12, 16);
  auto U = sdfg::unrollTimeSteps(Single, 4);
  ASSERT_TRUE(U) << U.message();

  auto CompiledU = CompiledProgram::compile(U.takeValue(), {});
  auto CompiledC = CompiledProgram::compile(std::move(Chain), {});
  ASSERT_TRUE(CompiledU) << CompiledU.message();
  ASSERT_TRUE(CompiledC) << CompiledC.message();
  auto GotU = runReference(*CompiledU, materializeInputs(CompiledU->program()));
  auto GotC = runReference(*CompiledC, materializeInputs(CompiledC->program()));
  ASSERT_TRUE(GotU) << GotU.message();
  ASSERT_TRUE(GotC) << GotC.message();
  expectBitExact(GotU->field("a1"), GotC->field("a4"), "unroll vs chain");
}

TEST(TemporalUnrollTest, PrunesDeadIntermediateCopies) {
  // An output that is not a binding source only matters in the final
  // step; its earlier copies feed nothing and must be pruned.
  const char *Json = R"({
    "name": "two_outputs",
    "dimensions": [8, 8],
    "inputs": {"a": {"data": {"kind": "random", "seed": 5}}},
    "outputs": ["b", "d"],
    "time_loop": [{"output": "b", "input": "a"}],
    "program": {
      "b": {"computation": "b = 0.25 * (a[0,-1] + a[0,1] + a[-1,0] + a[1,0]);"},
      "d": {"computation": "d = 2.0 * b[0,0];"}
    }
  })";
  auto P = programFromJsonText(Json);
  ASSERT_TRUE(P) << P.message();
  auto U = sdfg::unrollTimeSteps(*P, 3);
  ASSERT_TRUE(U) << U.message();
  // 3 copies of b, but only the final d: 4 nodes, not 6.
  EXPECT_EQ(U->Nodes.size(), 4u);
  EXPECT_EQ(U->findNode("d__t0"), nullptr);
  EXPECT_EQ(U->findNode("d__t1"), nullptr);
  EXPECT_NE(U->findNode("d"), nullptr);
  EXPECT_FALSE(static_cast<bool>(U->validate()));
}

TEST(TemporalUnrollTest, LegalityRulesAreTypedErrors) {
  StencilProgram P = workloads::diffusion2dChain(1, 8, 8);

  auto NonPositive = sdfg::unrollTimeSteps(P, 0);
  ASSERT_FALSE(NonPositive);
  EXPECT_EQ(NonPositive.code(), ErrorCode::InvalidInput);

  StencilProgram NoLoop = P.clone();
  NoLoop.TimeLoop.clear();
  auto Unbound = sdfg::unrollTimeSteps(NoLoop, 2);
  ASSERT_FALSE(Unbound);
  EXPECT_EQ(Unbound.code(), ErrorCode::InvalidInput);

  auto BadSource = sdfg::unrollTimeSteps(P, {{"nope", "a0"}}, 2);
  ASSERT_FALSE(BadSource);
  EXPECT_EQ(BadSource.code(), ErrorCode::InvalidInput);

  auto BadTarget = sdfg::unrollTimeSteps(P, {{"a1", "nope"}}, 2);
  ASSERT_FALSE(BadTarget);
  EXPECT_EQ(BadTarget.code(), ErrorCode::InvalidInput);

  auto Duplicate =
      sdfg::unrollTimeSteps(P, {{"a1", "a0"}, {"a1", "a0"}}, 2);
  ASSERT_FALSE(Duplicate);
  EXPECT_EQ(Duplicate.code(), ErrorCode::InvalidInput);
}

TEST(TemporalUnrollTest, TimeLoopJsonRoundTrip) {
  StencilProgram P = workloads::jacobi2dChain(1, 8, 8);
  auto Back = programFromJsonText(programToJson(P).toString());
  ASSERT_TRUE(Back) << Back.message();
  ASSERT_EQ(Back->TimeLoop.size(), 1u);
  EXPECT_EQ(Back->TimeLoop[0].Output, "a1");
  EXPECT_EQ(Back->TimeLoop[0].Input, "a0");

  // Loop-free programs serialize without the key, so existing program
  // fingerprints (serve/PlanCache.h) are unchanged.
  StencilProgram Free = P.clone();
  Free.TimeLoop.clear();
  EXPECT_EQ(programToJson(Free).toString().find("time_loop"),
            std::string::npos);
}

TEST(TemporalUnrollTest, UnrolledProgramComposesWithHostLoop) {
  // iterate(unroll(P, 2), 2) == iterate(P, 4): the unrolled program keeps
  // its TimeLoop with unchanged boundary names.
  StencilProgram P = workloads::jacobi2dChain(1, 10, 12);
  auto U = sdfg::unrollTimeSteps(P, 2);
  ASSERT_TRUE(U) << U.message();
  auto Twice = referenceAfterSteps(*U, 2);
  auto Four = referenceAfterSteps(P, 4);
  expectBitExact(Twice.at("a1"), Four.at("a1"), "unroll(2) iterated twice");
}

//===----------------------------------------------------------------------===//
// Parity: unrolled dataflow graph vs host loop, engines x tiers
//===----------------------------------------------------------------------===//

namespace {

struct ParityCase {
  const char *Name;
  StencilProgram Program;
};

std::vector<ParityCase> parityWorkloads() {
  std::vector<ParityCase> Cases;
  Cases.push_back({"jacobi2d", workloads::jacobi2dChain(1, 12, 16)});
  Cases.push_back({"jacobi3d", workloads::jacobi3dChain(1, 4, 6, 8)});
  Cases.push_back({"diffusion2d", workloads::diffusion2dChain(1, 12, 16)});
  return Cases;
}

/// Runs \p Program through the pipeline with TemporalDegree \p T under
/// \p Tier and asserts the simulated outputs are bit-identical to
/// iterating the single-step program T times. Adds the units' effective
/// tiers to \p Tiers when given.
void expectTemporalParity(const StencilProgram &Program, int T,
                          compute::KernelEngine Tier,
                          const std::string &What,
                          std::set<std::string> *Tiers = nullptr) {
  PipelineOptions Options;
  Options.TemporalDegree = T;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Simulator.KernelExec = Tier;
  auto Result = runPipeline(Program.clone(), Options);
  ASSERT_TRUE(Result) << What << ": " << Result.message();
  EXPECT_TRUE(Result->ValidationPassed) << What;
  if (Tiers)
    for (const auto &[Unit, Name] : Result->Simulation.Stats.UnitKernelTiers)
      Tiers->insert(Name);
  auto Want = referenceAfterSteps(Program, T);
  for (const std::string &Output : Program.Outputs)
    expectBitExact(Result->Simulation.Outputs.at(Output), Want.at(Output),
                   What + " output " + Output);
}

} // namespace

TEST(TemporalParityTest, AllDegreesBothEnginesScalarTier) {
  for (ParityCase &C : parityWorkloads())
    for (int T : {1, 2, 4, 8})
      expectTemporalParity(C.Program, T, compute::KernelEngine::Scalar,
                           std::string(C.Name) + " T=" + std::to_string(T) +
                               " scalar");
}

TEST(TemporalParityTest, AllDegreesSpecializedTier) {
  for (ParityCase &C : parityWorkloads())
    for (int T : {1, 2, 4, 8})
      expectTemporalParity(C.Program, T, compute::KernelEngine::Specialized,
                           std::string(C.Name) + " T=" + std::to_string(T) +
                               " specialized");
}

TEST(TemporalParityTest, ParallelSpecializedAndBatchedTiers) {
  // The specialized request runs chain-matched units on the chain and the
  // rest on the fused tape; the unrolled workloads must exercise both.
  std::vector<ParityCase> Cases = parityWorkloads();
  Cases.push_back({"hotspot2d", workloads::hotspot2dChain(1, 12, 16)});
  std::set<std::string> Tiers;
  for (ParityCase &C : Cases)
    expectTemporalParity(C.Program, 4, compute::KernelEngine::Specialized,
                         std::string(C.Name) + " T=4 specialized", &Tiers);
  EXPECT_EQ(Tiers, (std::set<std::string>{"batched", "specialized"}));
}

TEST(TemporalParityTest, FusionComposesWithUnroll) {
  // Unroll first, fuse second: the fused unrolled graph still matches the
  // host loop (fused programs compute through the halo, so compare the
  // pipeline's own interior-tolerant validation plus exact centers via
  // the default zero tolerance on these boundary-free comparisons).
  StencilProgram P = workloads::jacobi2dChain(1, 12, 16);
  PipelineOptions Options;
  Options.TemporalDegree = 4;
  Options.FuseStencils = true;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Tolerance = 1e-6; // Fused halo cells differ at the boundary.
  auto Result = runPipeline(P.clone(), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_TRUE(Result->ValidationPassed);
  // Fusion collapsed the unrolled chain.
  EXPECT_LT(Result->Compiled.program().Nodes.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Resilience, checkpointing, and the Session surface
//===----------------------------------------------------------------------===//

TEST(TemporalResilienceTest, FaultPlanOnUnrolledMultiDeviceRun) {
  // A 4-deep unrolled diffusion chain split across two devices, with
  // payload corruption on the remote stream and a memory brownout: the
  // reliable transport absorbs the faults and the result still matches
  // the host loop bit-exactly.
  StencilProgram P = workloads::diffusion2dChain(1, 12, 16);

  sim::FaultPlan Plan;
  Plan.Seed = 99;
  sim::FaultEvent Corrupt;
  Corrupt.Kind = sim::FaultKind::PayloadCorruption;
  Corrupt.Probability = 0.25;
  Plan.Events.push_back(Corrupt);
  sim::FaultEvent Brownout;
  Brownout.Kind = sim::FaultKind::MemoryBrownout;
  Brownout.Device = 0;
  Brownout.StartCycle = 16;
  Brownout.EndCycle = 128;
  Brownout.Factor = 0.5;
  Plan.Events.push_back(Brownout);

  PipelineOptions Options;
  Options.TemporalDegree = 4;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Simulator.Faults = &Plan;
  Options.Partitioning.TargetUtilization = 1.0;
  Options.Partitioning.Device.DSPs = 9 * 2; // Two diffusion nodes each.
  Options.Partitioning.MaxDevices = 4;
  auto Result = runPipeline(P.clone(), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Placement.numDevices(), 2u);
  EXPECT_TRUE(Result->ValidationPassed);
  auto Want = referenceAfterSteps(P, 4);
  expectBitExact(Result->Simulation.Outputs.at("a1"), Want.at("a1"),
                 "faulted unrolled run");
}

TEST(TemporalResilienceTest, CheckpointResumeOfUnrolledRun) {
  // Checkpoint an unrolled run, then resume a fresh pipeline run from the
  // snapshot directory: the resumed run skips completed cycles and its
  // outputs stay bit-exact vs the host loop.
  StencilProgram P = workloads::jacobi2dChain(1, 12, 16);
  PipelineOptions Options;
  Options.TemporalDegree = 4;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Simulator.CheckpointDir = freshDir("unrolled");
  Options.Simulator.CheckpointEveryCycles = 32;
  Options.Simulator.CheckpointKeep = 1000;
  auto First = runPipeline(P.clone(), Options);
  ASSERT_TRUE(First) << First.message();
  ASSERT_TRUE(First->ValidationPassed);

  PipelineOptions Resume;
  Resume.TemporalDegree = 4;
  Resume.Simulator.UnconstrainedMemory = true;
  Resume.ResumeFrom = Options.Simulator.CheckpointDir;
  auto Second = runPipeline(P.clone(), Resume);
  ASSERT_TRUE(Second) << Second.message();
  EXPECT_TRUE(Second->ValidationPassed);
  EXPECT_GT(Second->Recovery.CyclesSavedByCheckpoint, 0);
  EXPECT_EQ(Second->Simulation.Stats.Cycles, First->Simulation.Stats.Cycles);
  auto Want = referenceAfterSteps(P, 4);
  expectBitExact(Second->Simulation.Outputs.at("a1"), Want.at("a1"),
                 "resumed unrolled run");
}

TEST(TemporalSessionTest, TemporalDegreeSetterRuns) {
  Session S = Session::fromProgram(workloads::jacobi2dChain(1, 12, 16));
  S.temporalDegree(4).unconstrainedMemory(true);
  auto Result = S.run();
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_TRUE(Result->ValidationPassed);
  EXPECT_EQ(Result->Compiled.program().Nodes.size(), 4u);
  auto Want = referenceAfterSteps(S.program(), 4);
  expectBitExact(Result->Simulation.Outputs.at("a1"), Want.at("a1"),
                 "session temporal run");
}

TEST(TemporalSessionTest, DegreeWithoutTimeLoopIsTypedError) {
  StencilProgram P = workloads::jacobi2dChain(1, 8, 8);
  P.TimeLoop.clear();
  Session S = Session::fromProgram(std::move(P));
  S.temporalDegree(2).unconstrainedMemory(true);
  auto Result = S.run();
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::InvalidInput);
}

TEST(TemporalSessionTest, HorizontalDiffusionUnrollsAcrossItsFourBindings) {
  // The COSMO case study feeds four outputs back into four inputs; the
  // unrolled graph chains all of them and stays bit-exact.
  StencilProgram P = workloads::horizontalDiffusion(2, 8, 8);
  PipelineOptions Options;
  Options.TemporalDegree = 2;
  Options.Simulator.UnconstrainedMemory = true;
  auto Result = runPipeline(P.clone(), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_TRUE(Result->ValidationPassed);
  auto Want = referenceAfterSteps(P, 2);
  for (const std::string &Output : P.Outputs)
    expectBitExact(Result->Simulation.Outputs.at(Output), Want.at(Output),
                   "hdiff T=2 output " + Output);
}
