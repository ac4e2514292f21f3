//===- tests/workloads_test.cpp - Workload program tests -----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RuntimeModel.h"
#include "runtime/InputData.h"
#include "runtime/Iterate.h"
#include "runtime/Pipeline.h"
#include "sdfg/StencilFusion.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace stencilflow;
using namespace stencilflow::workloads;

namespace {

/// Iterates the single-step \p Program \p Steps times through off-chip
/// memory with the reference executor — the parity oracle.
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

/// Largest absolute access offset over every node of \p Program.
int maxAccessRadius(const StencilProgram &Program) {
  int Max = 0;
  for (const StencilNode &Node : Program.Nodes)
    for (const FieldAccesses &FA : Node.Accesses)
      for (const Offset &Off : FA.Offsets)
        for (int C : Off)
          Max = std::max(Max, std::abs(C));
  return Max;
}

/// Runs \p Program under \p Tier at temporal degree \p T and asserts
/// bit-exact agreement with iterating the reference T times.
void expectHighOrderParity(const StencilProgram &Program, int T,
                           compute::KernelEngine Tier,
                           const std::string &What) {
  PipelineOptions Options;
  Options.TemporalDegree = T;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Simulator.KernelExec = Tier;
  auto Result = runPipeline(Program.clone(), Options);
  ASSERT_TRUE(Result) << What << ": " << Result.message();
  EXPECT_TRUE(Result->ValidationPassed) << What;
  auto Want = referenceAfterSteps(Program, T);
  for (const std::string &Output : Program.Outputs) {
    const std::vector<double> &Got = Result->Simulation.Outputs.at(Output);
    const std::vector<double> &Ref = Want.at(Output);
    ASSERT_EQ(Got.size(), Ref.size()) << What << " output " << Output;
    for (size_t I = 0; I != Got.size(); ++I)
      ASSERT_EQ(Got[I], Ref[I]) << What << " output " << Output
                                << " diverges at element " << I;
  }
}

} // namespace

TEST(WorkloadsTest, JacobiChainOpCounts) {
  StencilProgram P = jacobi3dChain(3, 8, 8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  compute::OpCensus Census = Compiled->totalCensus();
  EXPECT_EQ(Census.Additions, 3 * 6);
  EXPECT_EQ(Census.Multiplications, 3 * 1);
}

TEST(WorkloadsTest, DiffusionOpCounts) {
  auto Compiled2D =
      CompiledProgram::compile(diffusion2dChain(2, 16, 16));
  auto Compiled3D =
      CompiledProgram::compile(diffusion3dChain(2, 8, 8, 8));
  ASSERT_TRUE(Compiled2D);
  ASSERT_TRUE(Compiled3D);
  // Diffusion 2D: 4 add + 5 mul; 3D: 6 add + 7 mul.
  EXPECT_EQ(Compiled2D->totalCensus().Additions, 2 * 4);
  EXPECT_EQ(Compiled2D->totalCensus().Multiplications, 2 * 5);
  EXPECT_EQ(Compiled3D->totalCensus().Additions, 2 * 6);
  EXPECT_EQ(Compiled3D->totalCensus().Multiplications, 2 * 7);
}

TEST(WorkloadsTest, HdiffStructureMatchesPaper) {
  // Sec. IX-A: 5 full 3D inputs + 5 1D inputs, 4 outputs; every
  // non-source stencil reads 2-6 other stencils/fields; contains square
  // roots, minima, maxima, and data-dependent branches.
  StencilProgram P = horizontalDiffusion(8, 16, 16);
  EXPECT_EQ(P.Inputs.size(), 10u);
  int FullRank = 0, Lines = 0;
  for (const Field &Input : P.Inputs) {
    FullRank += Input.isFullRank();
    Lines += Input.rank() == 1;
  }
  EXPECT_EQ(FullRank, 5);
  EXPECT_EQ(Lines, 5);
  EXPECT_EQ(P.Outputs.size(), 4u);

  auto Compiled = CompiledProgram::compile(P.clone());
  ASSERT_TRUE(Compiled) << Compiled.message();
  compute::OpCensus Census = Compiled->totalCensus();
  EXPECT_EQ(Census.SquareRoots, 2);
  EXPECT_EQ(Census.MinMax, 4); // 2 min + 2 max.
  EXPECT_EQ(Census.Branches, 20);
  EXPECT_GT(Census.Additions, 40);
  EXPECT_GT(Census.Multiplications, 20);
}

TEST(WorkloadsTest, HdiffMemoryVolumesMatchPaperForm) {
  // Reads 5*KJI (3D) + 5*J (1D) elements, writes 4*KJI (Sec. IX-A).
  int64_t K = 8, J = 16, I = 16;
  StencilProgram P = horizontalDiffusion(K, J, I);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  MemoryTraffic Traffic = computeMemoryTraffic(*Compiled);
  EXPECT_EQ(Traffic.ReadElements, 5 * K * J * I + 5 * J);
  EXPECT_EQ(Traffic.WriteElements, 4 * K * J * I);
  // 5 streamed inputs + 4 outputs = 9 operands per cycle.
  EXPECT_EQ(Traffic.OperandsPerCycle, 9);
}

TEST(WorkloadsTest, HdiffFanInMatchesPaper) {
  // "each non-source stencil receives data from 2-6 other stencil nodes"
  // — here: nodes that read at least one other node's output read 2-6
  // fields in total.
  StencilProgram P = horizontalDiffusion(8, 16, 16);
  for (const StencilNode &Node : P.Nodes) {
    bool ReadsStencil = false;
    for (const FieldAccesses &FA : Node.Accesses)
      ReadsStencil |= P.findNode(FA.Field) != nullptr;
    if (!ReadsStencil)
      continue;
    EXPECT_GE(Node.Accesses.size(), 2u) << Node.Name;
    EXPECT_LE(Node.Accesses.size(), 6u) << Node.Name;
  }
}

TEST(WorkloadsTest, HdiffRunsAndValidatesOnSimulator) {
  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  auto Result = runPipeline(horizontalDiffusion(4, 16, 16), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_TRUE(Result->ValidationPassed);
  EXPECT_EQ(Result->Simulation.Stats.Cycles,
            Result->Runtime.TotalCycles); // C = L + N holds.
}

TEST(WorkloadsTest, HdiffFusesAggressively) {
  StencilProgram P = horizontalDiffusion(4, 16, 16);
  size_t Before = P.Nodes.size();
  auto Report = fuseAllStencils(P);
  ASSERT_TRUE(Report) << Report.message();
  EXPECT_GT(Report->FusedPairs, 0);
  EXPECT_LT(P.Nodes.size(), Before);
  EXPECT_FALSE(P.validate());
}

TEST(WorkloadsTest, HdiffFusedStillValidates) {
  PipelineOptions Options;
  Options.FuseStencils = true;
  Options.Simulator.UnconstrainedMemory = true;
  auto Result = runPipeline(horizontalDiffusion(4, 16, 16), Options);
  ASSERT_TRUE(Result) << Result.message();
  // Fusion computes through the halo; outputs whose producers fused at
  // non-zero offsets may differ at the fringe, so the pipeline-level
  // validation compares the simulator against the reference executor of
  // the *fused* program — which must agree exactly.
  EXPECT_TRUE(Result->ValidationPassed);
  EXPECT_GT(Result->FusedPairs, 0);
}

TEST(WorkloadsTest, HdiffInitializationLatencyNegligible) {
  // Sec. IX: "initialization latency accounts for ~0.7% of the total
  // number of iterations" in the fused program. With the full 128x128x80
  // domain, L/N must be on the order of a percent.
  StencilProgram P = horizontalDiffusion(80, 128, 128);
  auto Report = fuseAllStencils(P);
  ASSERT_TRUE(Report);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow);
  RuntimeEstimate Runtime = computeRuntimeEstimate(*Compiled, *Dataflow);
  double Fraction = static_cast<double>(Runtime.LatencyCycles) /
                    static_cast<double>(Runtime.StreamedCycles);
  EXPECT_LT(Fraction, 0.02);
  EXPECT_GT(Fraction, 0.0001);
}

TEST(WorkloadsTest, VectorizedWorkloadsValid) {
  EXPECT_FALSE(jacobi3dChain(2, 4, 8, 16, 4).validate());
  EXPECT_FALSE(diffusion2dChain(2, 8, 32, 8).validate());
  EXPECT_FALSE(horizontalDiffusion(4, 16, 16, 8).validate());
}

//===----------------------------------------------------------------------===//
// High-order family
//===----------------------------------------------------------------------===//

TEST(HighOrderTest, WaveStructure) {
  for (int Radius : {1, 2, 3, 4}) {
    StencilProgram P = wave2dChain(Radius, 2, 24, 24);
    // Two steps plus the pass-through for the second time level.
    EXPECT_EQ(P.Nodes.size(), 3u) << "radius " << Radius;
    EXPECT_EQ(maxAccessRadius(P), Radius);
    ASSERT_EQ(P.Outputs.size(), 2u);
    EXPECT_EQ(P.Outputs[0], "w2");
    EXPECT_EQ(P.Outputs[1], "up");
    ASSERT_EQ(P.TimeLoop.size(), 2u);
    EXPECT_EQ(P.TimeLoop[0].Output, "w2");
    EXPECT_EQ(P.TimeLoop[0].Input, "u1");
    EXPECT_EQ(P.TimeLoop[1].Output, "up");
    EXPECT_EQ(P.TimeLoop[1].Input, "u0");
    EXPECT_FALSE(P.validate());
  }
  // The 3D stencil reads 2*3*Radius ring points plus both centers.
  StencilProgram P3 = wave3dChain(2, 1, 8, 8, 8);
  EXPECT_EQ(maxAccessRadius(P3), 2);
  const StencilNode *W1 = P3.findNode("w1");
  ASSERT_NE(W1, nullptr);
  const FieldAccesses *Cur = W1->accessesFor("u1");
  ASSERT_NE(Cur, nullptr);
  EXPECT_EQ(Cur->Offsets.size(), 2u * 3u * 2u + 1u);
}

TEST(HighOrderTest, HotspotStructure) {
  StencilProgram P = hotspot2dChain(3, 16, 16);
  EXPECT_EQ(P.Nodes.size(), 3u);
  EXPECT_EQ(P.Inputs.size(), 2u); // temperature + static power
  EXPECT_EQ(maxAccessRadius(P), 1);
  ASSERT_EQ(P.TimeLoop.size(), 1u);
  EXPECT_EQ(P.TimeLoop[0].Output, "t3");
  EXPECT_EQ(P.TimeLoop[0].Input, "t0");
  // The power map is read by every step but never rebound.
  for (const StencilNode &Node : P.Nodes)
    EXPECT_NE(Node.accessesFor("p"), nullptr) << Node.Name;
  EXPECT_FALSE(P.validate());
}

TEST(HighOrderTest, AllRadiiRunAndValidate) {
  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  for (int Radius : {1, 2, 3, 4}) {
    auto Result = runPipeline(wave2dChain(Radius, 1, 24, 24), Options);
    ASSERT_TRUE(Result) << "radius " << Radius << ": " << Result.message();
    EXPECT_TRUE(Result->ValidationPassed) << "radius " << Radius;
  }
  auto Result3d = runPipeline(wave3dChain(2, 1, 8, 8, 8), Options);
  ASSERT_TRUE(Result3d) << Result3d.message();
  EXPECT_TRUE(Result3d->ValidationPassed);
  auto Hotspot = runPipeline(hotspot2dChain(2, 16, 16), Options);
  ASSERT_TRUE(Hotspot) << Hotspot.message();
  EXPECT_TRUE(Hotspot->ValidationPassed);
}

TEST(HighOrderTest, ParityAcrossEnginesAndTiers) {
  StencilProgram Wave = wave2dChain(4, 1, 24, 24);
  StencilProgram Hotspot = hotspot2dChain(1, 16, 16);
  for (compute::KernelEngine Tier :
       {compute::KernelEngine::Scalar, compute::KernelEngine::Specialized}) {
    std::string What = compute::kernelEngineName(Tier);
    expectHighOrderParity(Wave, 2, Tier, "wave2d_r4 " + What);
    expectHighOrderParity(Hotspot, 2, Tier, "hotspot " + What);
  }
}

TEST(HighOrderTest, WaveTemporalDegreesMatchHostLoop) {
  // Two time levels per step stress the unroller's binding bookkeeping.
  StencilProgram P = wave2dChain(2, 1, 16, 16);
  for (int T : {1, 2, 4})
    expectHighOrderParity(P, T, compute::KernelEngine::Specialized,
                          "wave2d_r2 T=" + std::to_string(T));
  expectHighOrderParity(wave3dChain(2, 1, 8, 8, 8), 2,
                        compute::KernelEngine::Specialized, "wave3d_r2 T=2");
}

TEST(HighOrderTest, VectorizedHighOrderValid) {
  EXPECT_FALSE(wave2dChain(3, 1, 16, 16, 4).validate());
  EXPECT_FALSE(wave3dChain(2, 1, 6, 8, 8, 4).validate());
  EXPECT_FALSE(hotspot2dChain(2, 16, 16, 4).validate());
}
