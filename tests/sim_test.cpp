//===- tests/sim_test.cpp - Simulator tests ------------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "common/SimDigest.h"
#include "common/TestPrograms.h"
#include "runtime/InputData.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Validation.h"
#include "frontend/ProgramLoader.h"
#include "sim/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <thread>
#include <vector>

using namespace stencilflow;
using namespace stencilflow::sim;
using namespace stencilflow::testing;

namespace {

/// Builds and runs \p Program on the simulator with unconstrained memory,
/// validating every program output against the reference executor.
SimResult runAndValidate(StencilProgram Program,
                         SimConfig Config = SimConfig{},
                         const Partition *Placement = nullptr) {
  Config.UnconstrainedMemory = true;
  auto Compiled = CompiledProgram::compile(std::move(Program));
  EXPECT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  EXPECT_TRUE(Dataflow) << Dataflow.message();
  auto M = Machine::build(*Compiled, *Dataflow, Placement, Config);
  EXPECT_TRUE(M) << M.message();
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  EXPECT_TRUE(Result) << Result.message();
  auto Reference = runReference(*Compiled, Inputs);
  EXPECT_TRUE(Reference);
  for (const std::string &Output : Compiled->program().Outputs) {
    ValidationReport Report = validateField(
        Output, Result->Outputs.at(Output), Reference->field(Output));
    EXPECT_TRUE(Report.Passed) << Report.Summary;
  }
  return Result.takeValue();
}

} // namespace

//===----------------------------------------------------------------------===//
// Channels
//===----------------------------------------------------------------------===//

TEST(ChannelTest, FifoOrder) {
  Channel C("c", 4, 2);
  double V1[2] = {1.0, 2.0};
  double V2[2] = {3.0, 4.0};
  C.push(V1, 0);
  C.push(V2, 0);
  double Out[2];
  C.pop(Out, 0);
  EXPECT_EQ(Out[0], 1.0);
  EXPECT_EQ(Out[1], 2.0);
  C.pop(Out, 0);
  EXPECT_EQ(Out[0], 3.0);
}

TEST(ChannelTest, FullEmpty) {
  Channel C("c", 2, 1);
  double V = 1.0;
  EXPECT_TRUE(C.empty());
  C.push(&V, 0);
  C.push(&V, 0);
  EXPECT_TRUE(C.full());
  double Out;
  C.pop(&Out, 0);
  EXPECT_FALSE(C.full());
}

TEST(ChannelTest, LatencyDelaysVisibility) {
  Channel C("c", 4, 1, /*ArrivalLatency=*/10);
  double V = 1.0;
  C.push(&V, 5);
  EXPECT_FALSE(C.readable(5));
  EXPECT_FALSE(C.readable(14));
  EXPECT_TRUE(C.readable(15));
  EXPECT_TRUE(C.hasPendingArrival(5));
  EXPECT_FALSE(C.hasPendingArrival(15));
}

//===----------------------------------------------------------------------===//
// Functional correctness vs. the reference executor
//===----------------------------------------------------------------------===//

TEST(SimTest, LaplaceMatchesReference) { runAndValidate(laplace2d(12, 12)); }

TEST(SimTest, DiamondMatchesReference) {
  runAndValidate(diamondProgram(10, 10));
}

TEST(SimTest, JacobiChainMatchesReference) {
  runAndValidate(jacobi3dChain(4, 6, 6, 6));
}

TEST(SimTest, VectorizedMatchesReference) {
  runAndValidate(laplace2d(12, 16, 4));
  runAndValidate(jacobi3dChain(3, 4, 6, 8, 4));
}

TEST(SimTest, CopyBoundary) {
  StencilProgram P;
  P.IterationSpace = Shape({6, 6});
  addInput(P, "a", DataType::Float32, DataSource::random(11));
  addStencil(P, "out",
             "out = a[-1, 0] + a[0, -1] + a[0, 0] + a[0, 1] + a[1, 0];",
             DataType::Float32, {{"a", BoundaryCondition::copy()}});
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  runAndValidate(std::move(P));
}

TEST(SimTest, ShrinkOutput) {
  // The valid region is [1, 5) in both dimensions. At W = 2 and 3 the
  // writer keeps only part of the first and last vector of each row, and
  // none of the vectors of the first and last row.
  for (int Width : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "W = " << Width);
    StencilProgram P;
    P.IterationSpace = Shape({6, 6});
    P.VectorWidth = Width;
    addInput(P, "a", DataType::Float32, DataSource::random(12));
    StencilNode Node;
    Node.Name = "out";
    Node.ShrinkOutput = true;
    auto Code =
        parseStencilCode("out = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1];");
    ASSERT_TRUE(Code);
    Node.Code = Code.takeValue();
    P.Nodes.push_back(std::move(Node));
    P.Outputs = {"out"};
    ASSERT_FALSE(analyzeProgram(P));
    SimResult Result = runAndValidate(std::move(P));
    const std::vector<double> &Out = Result.Outputs.at("out");
    for (int64_t Row = 0; Row != 6; ++Row)
      for (int64_t Col = 0; Col != 6; ++Col) {
        bool Valid = Row >= 1 && Row < 5 && Col >= 1 && Col < 5;
        if (!Valid)
          EXPECT_EQ(Out[static_cast<size_t>(Row * 6 + Col)], 0.0)
              << Row << "," << Col;
      }
  }
}

TEST(SimTest, LowerRankInputsViaRom) {
  StencilProgram P;
  P.IterationSpace = Shape({4, 6, 8});
  addInput(P, "a", DataType::Float32, DataSource::random(13));
  Field C;
  C.Name = "c";
  C.Type = DataType::Float32;
  C.DimensionMask = {true, false, false};
  C.Source = DataSource::ramp(0.25);
  P.Inputs.push_back(C);
  Field Alpha;
  Alpha.Name = "alpha";
  Alpha.Type = DataType::Float32;
  Alpha.DimensionMask = {false, false, false};
  Alpha.Source = DataSource::constant(1.5);
  P.Inputs.push_back(Alpha);
  addStencil(P, "out",
             "out = a[0,0,0] * c[0] + a[0,0,1] * c[1] + alpha;",
             DataType::Float32,
             {{"a", BoundaryCondition::constant(0.0)},
              {"c", BoundaryCondition::constant(0.0)}});
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  runAndValidate(std::move(P));
}

TEST(SimTest, MultipleOutputs) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a", DataType::Float32, DataSource::random(14));
  addStencil(P, "x", "x = a[0, 0] * 2.0;");
  addStencil(P, "y", "y = x[0, -1] + x[0, 1];", DataType::Float32,
             {{"x", BoundaryCondition::constant(0.0)}});
  addStencil(P, "z", "z = x[0, 0] - a[0, 0];");
  P.Outputs = {"y", "z"};
  ASSERT_FALSE(analyzeProgram(P));
  runAndValidate(std::move(P));
}

TEST(SimTest, RandomProgramsMatchReference) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    runAndValidate(randomProgram(Seed));
  }
}

TEST(SimTest, RandomVectorizedProgramsMatchReference) {
  RandomProgramOptions Options;
  Options.VectorWidth = 4;
  for (uint64_t Seed = 100; Seed <= 112; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    runAndValidate(randomProgram(Seed, Options));
  }
}

//===----------------------------------------------------------------------===//
// Cycle accuracy: C = L + N (Eq. 1)
//===----------------------------------------------------------------------===//

TEST(SimTest, CyclesMatchModelOnChain) {
  for (int Length : {1, 2, 5}) {
    StencilProgram P = jacobi3dChain(Length, 6, 6, 6);
    auto Compiled = CompiledProgram::compile(std::move(P));
    ASSERT_TRUE(Compiled);
    auto Dataflow = analyzeDataflow(*Compiled);
    SimConfig Config;
    Config.UnconstrainedMemory = true;
    auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
    ASSERT_TRUE(M);
    auto Result = M->run(materializeInputs(Compiled->program()));
    ASSERT_TRUE(Result) << Result.message();
    EXPECT_EQ(Result->Stats.Cycles, M->expectedCycles())
        << "chain length " << Length;
  }
}

TEST(SimTest, CyclesMatchModelOnDiamond) {
  StencilProgram P = diamondProgram(16, 16);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Stats.Cycles, M->expectedCycles());
}

TEST(SimTest, CyclesMatchModelOnRandomPrograms) {
  for (uint64_t Seed = 30; Seed <= 50; ++Seed) {
    StencilProgram P = randomProgram(Seed);
    auto Compiled = CompiledProgram::compile(std::move(P));
    ASSERT_TRUE(Compiled);
    auto Dataflow = analyzeDataflow(*Compiled);
    SimConfig Config;
    Config.UnconstrainedMemory = true;
    auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
    ASSERT_TRUE(M);
    auto Result = M->run(materializeInputs(Compiled->program()));
    ASSERT_TRUE(Result) << Result.message();
    EXPECT_EQ(Result->Stats.Cycles, M->expectedCycles()) << "seed " << Seed;
  }
}

TEST(SimTest, VectorizationShrinksCycles) {
  StencilProgram Scalar = jacobi3dChain(2, 4, 8, 16, 1);
  StencilProgram Vector = jacobi3dChain(2, 4, 8, 16, 4);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto CompiledScalar = CompiledProgram::compile(std::move(Scalar));
  auto CompiledVector = CompiledProgram::compile(std::move(Vector));
  auto DataflowScalar = analyzeDataflow(*CompiledScalar);
  auto DataflowVector = analyzeDataflow(*CompiledVector);
  auto MScalar =
      Machine::build(*CompiledScalar, *DataflowScalar, nullptr, Config);
  auto MVector =
      Machine::build(*CompiledVector, *DataflowVector, nullptr, Config);
  auto RScalar = MScalar->run(materializeInputs(CompiledScalar->program()));
  auto RVector = MVector->run(materializeInputs(CompiledVector->program()));
  ASSERT_TRUE(RScalar);
  ASSERT_TRUE(RVector);
  EXPECT_LT(RVector->Stats.Cycles, RScalar->Stats.Cycles);
  // Results agree despite different widths.
  ValidationReport Report =
      validateField("a2", RVector->Outputs.at("a2"),
                    RScalar->Outputs.at("a2"));
  EXPECT_TRUE(Report.Passed) << Report.Summary;
}

//===----------------------------------------------------------------------===//
// Deadlock freedom and detection (Fig. 4)
//===----------------------------------------------------------------------===//

TEST(SimTest, UndersizedChannelsDeadlockOnDiamond) {
  // Force a large delay imbalance: B buffers two full rows of A before
  // producing, so the direct A->C edge must buffer ~2 rows. Clamping all
  // channels to the minimum capacity reproduces the Fig. 4 deadlock.
  StencilProgram P = diamondProgram(32, 32);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.ClampChannelsToMinimum = true;
  Config.MinChannelDepth = 4;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.message().find("deadlock"), std::string::npos);
  EXPECT_NE(Result.message().find("[FULL]"), std::string::npos);
}

TEST(SimTest, AnalysisBuffersPreventDeadlock) {
  // Same program, channels sized by the delay-buffer analysis: streams to
  // completion (this is the core deadlock-freedom guarantee of Sec. IV-B).
  runAndValidate(diamondProgram(32, 32));
}

TEST(SimTest, RandomProgramsNeverDeadlock) {
  RandomProgramOptions Options;
  Options.MaxNodes = 10;
  for (uint64_t Seed = 60; Seed <= 80; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    runAndValidate(randomProgram(Seed, Options));
  }
}

//===----------------------------------------------------------------------===//
// Constrained memory
//===----------------------------------------------------------------------===//

TEST(SimTest, ConstrainedMemoryStillCorrect) {
  StencilProgram P = diamondProgram(16, 16);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = false;
  Config.PeakMemoryBytesPerCycle = 6.0; // Starved: ~0.7 vectors/cycle.
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  ASSERT_TRUE(Result) << Result.message();
  // Slower than the unconstrained model...
  EXPECT_GT(Result->Stats.Cycles, M->expectedCycles());
  // ...but still correct.
  auto Reference = runReference(*Compiled, Inputs);
  ValidationReport Report = validateField(
      "C", Result->Outputs.at("C"), Reference->field("C"));
  EXPECT_TRUE(Report.Passed) << Report.Summary;
}

TEST(SimTest, MemoryBandwidthAccounted) {
  StencilProgram P = laplace2d(16, 16);
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result);
  // One input read + one output written, 4 bytes each.
  EXPECT_DOUBLE_EQ(Result->Stats.MemoryBytesMoved[0], 2.0 * 16 * 16 * 4);
}

TEST(SimTest, SharedInputReadOnceFromMemory) {
  // The diamond reads 'in' for both A's stream; memory traffic counts it
  // once (one reader endpoint fans out on chip).
  StencilProgram P = diamondProgram(8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result);
  EXPECT_DOUBLE_EQ(Result->Stats.MemoryBytesMoved[0], 2.0 * 8 * 8 * 4);
}

//===----------------------------------------------------------------------===//
// Multi-device (Sec. III-B / VI-B)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a multi-device partition of a Jacobi chain by splitting every
/// \p SplitAt nodes (or every \p MaxStencilsPerDevice, if smaller).
Partition makeSplitPartition(const CompiledProgram &Compiled,
                             const DataflowAnalysis &Dataflow, int SplitAt,
                             int MaxStencilsPerDevice = 128) {
  PartitionOptions Options;
  Options.MaxStencilsPerDevice = MaxStencilsPerDevice;
  // Budget exactly SplitAt nodes per device by DSP count (7 per node).
  Options.TargetUtilization = 1.0;
  Options.Device.DSPs =
      7 * Compiled.vectorWidth() * SplitAt;
  Options.MaxDevices = 64;
  auto Result = partitionProgram(Compiled, Dataflow, Options);
  EXPECT_TRUE(Result) << Result.message();
  return Result.takeValue();
}

} // namespace

TEST(SimTest, TwoDeviceChainMatchesReference) {
  StencilProgram P = jacobi3dChain(6, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 3);
  ASSERT_EQ(Placement.numDevices(), 2u);

  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = Machine::build(*Compiled, *Dataflow, &Placement, Config);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->numDevices(), 2);
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  ASSERT_TRUE(Result) << Result.message();
  auto Reference = runReference(*Compiled, Inputs);
  ValidationReport Report = validateField(
      "a6", Result->Outputs.at("a6"), Reference->field("a6"));
  EXPECT_TRUE(Report.Passed) << Report.Summary;
  // Network carried the crossing stream.
  EXPECT_GT(Result->Stats.NetworkBytesMoved, 0.0);
  // Latency adds beyond the single-device model, but only by the network
  // latency of the single crossing.
  EXPECT_GE(Result->Stats.Cycles, M->expectedCycles());
  EXPECT_LE(Result->Stats.Cycles,
            M->expectedCycles() + Config.NetworkLatencyCyclesPerHop + 8);
}

TEST(SimTest, FourDeviceChainMatchesReference) {
  StencilProgram P = jacobi3dChain(8, 4, 4, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 2);
  ASSERT_EQ(Placement.numDevices(), 4u);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = Machine::build(*Compiled, *Dataflow, &Placement, Config);
  ASSERT_TRUE(M);
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  ASSERT_TRUE(Result) << Result.message();
  auto Reference = runReference(*Compiled, Inputs);
  ValidationReport Report = validateField(
      "a8", Result->Outputs.at("a8"), Reference->field("a8"));
  EXPECT_TRUE(Report.Passed) << Report.Summary;
}

TEST(SimTest, NetworkBandwidthThrottles) {
  // A starved network link slows the crossing stream but stays correct.
  StencilProgram P = jacobi3dChain(4, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 2);
  ASSERT_EQ(Placement.numDevices(), 2u);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.LinkBytesPerCycle = 1.0; // 0.5 elements/cycle across 2 links.
  auto M = Machine::build(*Compiled, *Dataflow, &Placement, Config);
  ASSERT_TRUE(M);
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  ASSERT_TRUE(Result) << Result.message();
  // The crossing stream drains at ~0.5 vectors/cycle (4 bytes needed, 2
  // bytes/cycle granted), stretching the run by about one extra N
  // (144 vectors) beyond the unthrottled model.
  EXPECT_GT(Result->Stats.Cycles, M->expectedCycles() + 144 - 16);
  auto Reference = runReference(*Compiled, Inputs);
  ValidationReport Report = validateField(
      "a4", Result->Outputs.at("a4"), Reference->field("a4"));
  EXPECT_TRUE(Report.Passed) << Report.Summary;
}

TEST(SimTest, OversubscribedMemoryDegradesGracefully) {
  // Regression test for arbiter starvation: with many more endpoints than
  // the controller can serve per cycle, throughput must settle near the
  // grant-rate bound instead of collapsing to a stall/run oscillation.
  const int Points = 32;
  StencilProgram P;
  P.IterationSpace = Shape({4096});
  std::string Sum;
  for (int Pt = 0; Pt < Points; ++Pt) {
    Field Input;
    Input.Name = formatString("in%d", Pt);
    Input.DimensionMask = {true};
    Input.Source = DataSource::random(static_cast<uint64_t>(Pt) + 1);
    P.Inputs.push_back(std::move(Input));
    if (Pt)
      Sum += " + ";
    Sum += formatString("in%d[0]", Pt);
  }
  addStencil(P, "out", "out = " + Sum + ";");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  sim::SimConfig Config; // Constrained DDR4 model.
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  // Grant bound: ~256 B/cycle over 33 endpoints at 8.4 B/transaction
  // -> ~30 grants/cycle -> rate ~30/33. Demand degradation beyond ~25%
  // of the bound indicates starvation.
  double Rate = static_cast<double>(M->expectedCycles()) /
                static_cast<double>(Result->Stats.Cycles);
  EXPECT_GT(Rate, 0.65);
  // And the result is still correct.
  auto Reference = runReference(*Compiled, materializeInputs(
                                               Compiled->program()));
  ValidationReport Report = validateField(
      "out", Result->Outputs.at("out"), Reference->field("out"));
  EXPECT_TRUE(Report.Passed) << Report.Summary;
}

//===----------------------------------------------------------------------===//
// SimConfig::validate
//===----------------------------------------------------------------------===//

TEST(SimConfigBuilderTest, DefaultsBuild) {
  SimConfig Config;
  EXPECT_FALSE(static_cast<bool>(Config.validate()));
  EXPECT_FALSE(Config.UnconstrainedMemory);
  EXPECT_EQ(Config.Trace, nullptr);
  // Tracing and a zero hop latency combine with any other setting.
  Tracer Trace;
  Config.UnconstrainedMemory = true;
  Config.Trace = &Trace;
  Config.NetworkLatencyCyclesPerHop = 0;
  Config.StallTimeoutCycles = 4096;
  EXPECT_FALSE(static_cast<bool>(Config.validate()));
}

TEST(SimConfigBuilderTest, RejectsNonPositiveRates) {
  auto Rejects = [](auto Mutate) {
    SimConfig Config;
    Mutate(Config);
    Error Err = Config.validate();
    return static_cast<bool>(Err) && Err.code() == ErrorCode::InvalidInput;
  };
  EXPECT_TRUE(Rejects([](SimConfig &C) { C.PeakMemoryBytesPerCycle = 0.0; }));
  EXPECT_TRUE(Rejects([](SimConfig &C) { C.LinkBytesPerCycle = -1.0; }));
  EXPECT_TRUE(Rejects([](SimConfig &C) { C.MinChannelDepth = 0; }));
  EXPECT_TRUE(Rejects([](SimConfig &C) { C.SendWindowVectors = 0; }));
}

TEST(SimConfigBuilderTest, MachineBuildValidatesHandAssembledConfig) {
  StencilProgram P = laplace2d(8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Bad;
  Bad.MinChannelDepth = 0;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Bad);
  ASSERT_FALSE(M);
  EXPECT_EQ(M.code(), ErrorCode::InvalidInput);
}

//===----------------------------------------------------------------------===//
// Exact results of the multi-device scenarios
//
// The ParallelParityTest suite name is historical: these scenarios were once
// run against a second, threaded engine. They now check invariants of the
// single engine's results and pin its exact outcome (tests/common/
// SimDigest.h), so any change to the simulated trajectory shows up here.
//===----------------------------------------------------------------------===//

namespace {

/// Builds \p Program split \p SplitAt nodes per device (0: one device) and
/// runs it once.
Expected<SimResult, SimFailure> simulate(StencilProgram Program, int SplitAt,
                                         const SimConfig &Config,
                                         int MaxStencilsPerDevice = 128) {
  auto Compiled = CompiledProgram::compile(std::move(Program));
  EXPECT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement;
  if (SplitAt > 0)
    Placement = makeSplitPartition(*Compiled, *Dataflow, SplitAt,
                                   MaxStencilsPerDevice);
  auto M = Machine::build(*Compiled, *Dataflow,
                          SplitAt > 0 ? &Placement : nullptr, Config);
  EXPECT_TRUE(M) << M.message();
  return M->run(materializeInputs(Compiled->program()));
}

Expected<SimResult, SimFailure> twoDeviceChain(const SimConfig &Config) {
  return simulate(jacobi3dChain(6, 4, 6, 6), 3, Config);
}

Expected<SimResult, SimFailure> fourDeviceChain(const SimConfig &Config) {
  return simulate(jacobi3dChain(8, 4, 4, 8), 2, Config);
}

SimConfig unconstrained() {
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  return Config;
}

/// Internal consistency of one completed run's statistics.
void expectConsistentStats(const SimResult &R) {
  const SimStats &S = R.Stats;
  for (const auto &[Name, Channel] : S.Channels) {
    EXPECT_GE(Channel.HighWater, 1) << Name;
    EXPECT_LE(Channel.HighWater, Channel.PeakOccupancy) << Name;
    EXPECT_LE(Channel.PeakOccupancy, Channel.Capacity) << Name;
  }
  for (const auto &[Name, Link] : S.Links)
    EXPECT_EQ(Link.Transmissions - Link.Retransmissions, Link.Delivered)
        << Name;
  double Achieved = 0.0, Moved = 0.0;
  for (size_t Device = 0; Device != S.MemoryBytesMoved.size(); ++Device) {
    Moved += S.MemoryBytesMoved[Device];
    Achieved += S.AchievedMemoryBytesPerCycle[Device];
  }
  EXPECT_DOUBLE_EQ(Achieved * static_cast<double>(S.Cycles), Moved);
}

/// Transient payload corruption on every remote stream (the "faults"
/// setting of the pinned scenarios).
FaultPlan transientCorruption() {
  FaultPlan Plan;
  Plan.Seed = 7;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.Probability = 0.2;
  Corrupt.StartCycle = 0;
  Corrupt.EndCycle = std::numeric_limits<int64_t>::max();
  Plan.Events.push_back(Corrupt);
  return Plan;
}

/// The configuration of one pinned scenario setting: "plain",
/// "throttled", "constrained" or "faults" (which attaches \p Faults).
SimConfig pinnedSetting(const std::string &Setting, const FaultPlan *Faults) {
  SimConfig Config = unconstrained();
  if (Setting == "throttled") {
    Config.LinkBytesPerCycle = 1.0;
  } else if (Setting == "constrained") {
    Config.UnconstrainedMemory = false;
    Config.PeakMemoryBytesPerCycle = 6.0;
  } else if (Setting == "faults") {
    Config.Faults = Faults;
  }
  return Config;
}

/// Gives every random input of \p Program a different seed.
StencilProgram reseeded(StencilProgram Program) {
  for (Field &Input : Program.Inputs)
    if (Input.Source.SourceKind == DataSource::Kind::Random)
      Input.Source.Seed += 1000;
  return Program;
}

/// One traced run split into what the timing model reports and the
/// output values.
struct TimedRun {
  /// The digest text without its "output" lines, the metrics CSV and the
  /// Chrome trace of a completed run; the failure digest and the Chrome
  /// trace of a failed one.
  std::string Timing;
  std::map<std::string, std::vector<double>> Outputs;
};

TimedRun timedRun(StencilProgram Program, int SplitAt, SimConfig Config) {
  Tracer Trace(/*SampleStride=*/4);
  Config.Trace = &Trace;
  auto Result = simulate(std::move(Program), SplitAt, Config);
  TimedRun Run;
  if (Result) {
    std::istringstream Lines(simDigestText(*Result));
    for (std::string Line; std::getline(Lines, Line);)
      if (Line.rfind("output ", 0) != 0)
        Run.Timing += Line + '\n';
    Run.Timing += formatMetricsCsv(Result->Stats);
    Run.Outputs = Result->Outputs;
  } else {
    Run.Timing = simDigestText(Result.error());
  }
  Run.Timing += Trace.chromeTraceJson();
  return Run;
}

int64_t totalStalls(const std::map<std::string, StallBreakdown> &M,
                    StallCause Cause) {
  int64_t Total = 0;
  for (const auto &[Name, Stalls] : M)
    Total += Stalls[Cause];
  return Total;
}

} // namespace

TEST(PinnedDigestTest, JacobiChains) {
  // Pinned from the simulator's results before its threaded engine was
  // removed: cycles plus the digest of every reported statistic and the
  // output bits, for the 2- and 4-device chains under four settings.
  FaultPlan Transient = transientCorruption();

  struct Pin {
    int Devices;
    std::string Setting;
    int64_t Cycles;
    uint64_t Digest;
  };
  const Pin Pins[] = {
      {2, "plain", 776, 0x30b589934fc14a5dull},
      {2, "throttled", 918, 0xec029b6868e52de0ull},
      {2, "constrained", 911, 0x4015325f4a3255a2ull},
      {2, "faults", 1960, 0xb12627e8ca0cca1eull},
      {4, "plain", 960, 0xb791b0825c9972cfull},
      {4, "throttled", 1326, 0xfc47fb4bb9e57cd5ull},
      {4, "constrained", 1079, 0x1c9586b9c3978e16ull},
      {4, "faults", 5240, 0xb805cc66d97684d7ull},
  };
  for (const Pin &P : Pins) {
    SCOPED_TRACE(::testing::Message()
                 << P.Devices << " devices, " << P.Setting);
    SimConfig Config = pinnedSetting(P.Setting, &Transient);
    auto Result =
        P.Devices == 2 ? twoDeviceChain(Config) : fourDeviceChain(Config);
    ASSERT_TRUE(Result) << Result.message();
    EXPECT_EQ(Result->Stats.Cycles, P.Cycles);
    EXPECT_EQ(simDigest(*Result), P.Digest) << simDigestText(*Result);
  }
}

TEST(TimingIndependenceTest, ReseededInputsMoveOnlyOutputs) {
  // Timing never reads a value: with every random input re-seeded, each
  // pinned scenario reports the same cycles, stalls, channel and link
  // statistics, metrics CSV and Chrome trace; only the outputs change.
  FaultPlan Transient = transientCorruption();
  for (int Devices : {2, 4})
    for (const char *Setting :
         {"plain", "throttled", "constrained", "faults"}) {
      SCOPED_TRACE(::testing::Message()
                   << Devices << " devices, " << Setting);
      StencilProgram Program = Devices == 2 ? jacobi3dChain(6, 4, 6, 6)
                                            : jacobi3dChain(8, 4, 4, 8);
      int SplitAt = Devices == 2 ? 3 : 2;
      SimConfig Config = pinnedSetting(Setting, &Transient);
      TimedRun Original = timedRun(Program.clone(), SplitAt, Config);
      TimedRun Reseeded = timedRun(reseeded(std::move(Program)), SplitAt,
                                   Config);
      EXPECT_EQ(Original.Timing, Reseeded.Timing);
      ASSERT_FALSE(Original.Outputs.empty());
      EXPECT_NE(Original.Outputs, Reseeded.Outputs);
    }
}

TEST(TimingIndependenceTest, ReseededFaultScenariosMoveOnlyOutputs) {
  // The pinned fault scenarios of the two-device chain
  // (tests/fault_test.cpp): with every random input re-seeded, each
  // reports the same digest text without its "output" lines, metrics CSV
  // and Chrome trace when it completes, and the same failure report and
  // trace when it aborts.
  auto Event = [](FaultKind Kind, double Probability = 0.0) {
    FaultEvent E;
    E.Kind = Kind;
    E.Probability = Probability;
    return E;
  };
  struct Scenario {
    const char *Name;
    FaultPlan Plan;
    int MaxRetransmitAttempts = 0; ///< 0 keeps the default.
    int64_t StallTimeoutCycles = 0; ///< 0 keeps the default.
    bool Completes = true;
  };
  std::vector<Scenario> Scenarios;
  Scenarios.push_back({"empty reliable plan", FaultPlan()});
  Scenarios.push_back({"transient corruption", transientCorruption()});
  {
    FaultPlan Burst;
    Burst.Seed = 11;
    FaultEvent Corrupt = Event(FaultKind::PayloadCorruption, 0.5);
    Corrupt.StartCycle = 100;
    Corrupt.EndCycle = 220;
    Burst.Events.push_back(Corrupt);
    Scenarios.push_back({"corruption burst", std::move(Burst)});
  }
  {
    FaultPlan Brownout;
    FaultEvent Window = Event(FaultKind::MemoryBrownout);
    Window.Device = 0;
    Window.Factor = 0.1;
    Window.StartCycle = 50;
    Window.EndCycle = 400;
    Brownout.Events.push_back(Window);
    Scenarios.push_back({"memory brownout", std::move(Brownout)});
  }
  {
    FaultPlan Degrade;
    FaultEvent Slow = Event(FaultKind::LinkDegrade);
    Slow.Hop = -1;
    Slow.Factor = 0.1;
    Degrade.Events.push_back(Slow);
    Scenarios.push_back({"link degrade", std::move(Degrade)});
  }
  {
    FaultPlan Death;
    FaultEvent Lost = Event(FaultKind::DeviceFailure);
    Lost.Device = 1;
    Lost.StartCycle = 300;
    Death.Events.push_back(Lost);
    Scenarios.push_back({"device failure", std::move(Death), 0, 0, false});
  }
  {
    FaultPlan Exhaust;
    Exhaust.Events.push_back(Event(FaultKind::PayloadCorruption, 1.0));
    Scenarios.push_back(
        {"retransmit exhaustion", std::move(Exhaust), 4, 0, false});
  }
  {
    FaultPlan Outage;
    FaultEvent Down = Event(FaultKind::LinkOutage);
    Down.Hop = -1;
    Outage.Events.push_back(Down);
    Scenarios.push_back(
        {"watchdog starvation", std::move(Outage), 0, 2048, false});
  }

  for (const Scenario &S : Scenarios) {
    SCOPED_TRACE(S.Name);
    SimConfig Config = unconstrained();
    Config.Faults = &S.Plan;
    if (S.MaxRetransmitAttempts > 0)
      Config.MaxRetransmitAttempts = S.MaxRetransmitAttempts;
    if (S.StallTimeoutCycles > 0)
      Config.StallTimeoutCycles = S.StallTimeoutCycles;
    TimedRun Original = timedRun(jacobi3dChain(6, 4, 6, 6), 3, Config);
    TimedRun Reseeded =
        timedRun(reseeded(jacobi3dChain(6, 4, 6, 6)), 3, Config);
    EXPECT_EQ(Original.Timing, Reseeded.Timing);
    EXPECT_EQ(Original.Timing.rfind("failure ", 0) == 0, !S.Completes)
        << Original.Timing.substr(0, 200);
    if (S.Completes) {
      ASSERT_FALSE(Original.Outputs.empty());
      EXPECT_NE(Original.Outputs, Reseeded.Outputs);
    }
  }
}

TEST(TimingIndependenceTest, ReseededDeadlockReportsTheSameFailure) {
  // The Fig. 4 deadlock: undersized channels on the reconvergent diamond.
  SimConfig Config = unconstrained();
  Config.ClampChannelsToMinimum = true;
  Config.MinChannelDepth = 4;
  TimedRun Original = timedRun(diamondProgram(32, 32), 0, Config);
  TimedRun Reseeded = timedRun(reseeded(diamondProgram(32, 32)), 0, Config);
  ASSERT_EQ(Original.Timing.rfind("failure deadlock", 0), 0u)
      << Original.Timing;
  EXPECT_EQ(Original.Timing, Reseeded.Timing);
}

TEST(ParallelParityTest, SingleDevicePrograms) {
  // A built machine can be run again: every run starts from freshly reset
  // state, so repeated runs and a fresh machine agree exactly.
  for (auto MakeProgram :
       {+[] { return laplace2d(12, 12); },
        +[] { return diamondProgram(16, 16); },
        +[] { return jacobi3dChain(4, 6, 6, 6); }}) {
    auto Compiled = CompiledProgram::compile(MakeProgram());
    ASSERT_TRUE(Compiled);
    auto Dataflow = analyzeDataflow(*Compiled);
    auto Inputs = materializeInputs(Compiled->program());
    auto M = Machine::build(*Compiled, *Dataflow, nullptr, unconstrained());
    ASSERT_TRUE(M);
    auto First = M->run(Inputs);
    ASSERT_TRUE(First) << First.message();
    auto Second = M->run(Inputs);
    ASSERT_TRUE(Second) << Second.message();
    auto Fresh = simulate(MakeProgram(), 0, unconstrained());
    ASSERT_TRUE(Fresh) << Fresh.message();
    EXPECT_EQ(simDigestText(*First), simDigestText(*Second));
    EXPECT_EQ(simDigestText(*First), simDigestText(*Fresh));
    expectConsistentStats(*First);
  }
}

TEST(ParallelParityTest, TwoDeviceChain) {
  auto Result = twoDeviceChain(unconstrained());
  ASSERT_TRUE(Result) << Result.message();
  expectConsistentStats(*Result);
  // One crossing stream of 144 four-byte vectors.
  EXPECT_EQ(Result->Stats.NetworkBytesMoved, 144.0 * 4.0);
}

TEST(ParallelParityTest, FourDeviceChain) {
  auto Result = fourDeviceChain(unconstrained());
  ASSERT_TRUE(Result) << Result.message();
  expectConsistentStats(*Result);
  EXPECT_EQ(Result->Stats.MemoryBytesMoved.size(), 4u);
  EXPECT_GT(Result->Stats.NetworkBytesMoved, 0.0);
}

TEST(ParallelParityTest, ThrottledNetwork) {
  // Congested remote streams cost cycles, show up as network-denied
  // stalls, and move exactly the same bytes.
  SimConfig Throttled = unconstrained();
  Throttled.LinkBytesPerCycle = 1.0;
  for (auto Run : {&twoDeviceChain, &fourDeviceChain}) {
    auto Plain = Run(unconstrained());
    auto Slow = Run(Throttled);
    ASSERT_TRUE(Plain) << Plain.message();
    ASSERT_TRUE(Slow) << Slow.message();
    expectConsistentStats(*Slow);
    EXPECT_GT(Slow->Stats.Cycles, Plain->Stats.Cycles);
    EXPECT_GT(totalStalls(Slow->Stats.UnitStalls, StallCause::NetworkDenied),
              0);
    EXPECT_EQ(Slow->Stats.NetworkBytesMoved, Plain->Stats.NetworkBytesMoved);
    EXPECT_EQ(Slow->Outputs, Plain->Outputs);
  }
}

TEST(ParallelParityTest, ConstrainedMemory) {
  SimConfig Constrained;
  Constrained.PeakMemoryBytesPerCycle = 6.0;
  for (auto Run : {&twoDeviceChain, &fourDeviceChain}) {
    auto Plain = Run(unconstrained());
    auto Slow = Run(Constrained);
    ASSERT_TRUE(Plain) << Plain.message();
    ASSERT_TRUE(Slow) << Slow.message();
    expectConsistentStats(*Slow);
    EXPECT_GT(Slow->Stats.Cycles, Plain->Stats.Cycles);
    EXPECT_GT(totalStalls(Slow->Stats.ReaderStalls, StallCause::MemoryDenied) +
                  totalStalls(Slow->Stats.WriterStalls,
                              StallCause::MemoryDenied),
              0);
    EXPECT_EQ(Slow->Stats.MemoryBytesMoved, Plain->Stats.MemoryBytesMoved);
    EXPECT_EQ(Slow->Outputs, Plain->Outputs);
  }
}

TEST(ParallelParityTest, WatchdogEnabled) {
  // An armed watchdog only observes: a healthy run completes identically.
  SimConfig Armed = unconstrained();
  Armed.StallTimeoutCycles = 512;
  auto Plain = twoDeviceChain(unconstrained());
  auto Watched = twoDeviceChain(Armed);
  ASSERT_TRUE(Plain) << Plain.message();
  ASSERT_TRUE(Watched) << Watched.message();
  EXPECT_EQ(simDigestText(*Plain), simDigestText(*Watched));
}

TEST(ParallelParityTest, DeadlockReportsMatch) {
  // The Fig. 4 deadlock, on one device and with A, B and C on three
  // devices, classified and reported exactly as pinned: same cycle, same
  // culprit components and channels.
  SimConfig Config = unconstrained();
  Config.ClampChannelsToMinimum = true;
  Config.MinChannelDepth = 4;
  Config.NetworkExtraChannelDepth = 0;
  auto Single = simulate(diamondProgram(32, 32), 0, Config);
  ASSERT_FALSE(Single);
  EXPECT_EQ(Single.code(), ErrorCode::Deadlock);
  SimFailure SingleFail = Single.takeError();
  EXPECT_EQ(simDigest(SingleFail), 0x7288da4acd13bbddull)
      << simDigestText(SingleFail);

  auto Multi = simulate(diamondProgram(32, 32), 1, Config,
                        /*MaxStencilsPerDevice=*/1);
  ASSERT_FALSE(Multi);
  EXPECT_EQ(Multi.code(), ErrorCode::Deadlock);
  SimFailure MultiFail = Multi.takeError();
  EXPECT_EQ(MultiFail.report().Channels.size(), 5u);
  EXPECT_EQ(simDigest(MultiFail), 0xfb3131fd792e9260ull)
      << simDigestText(MultiFail);
}

TEST(ParallelParityTest, RepeatableAcrossThreadCounts) {
  // Machines share no mutable state, so simulations running concurrently
  // on 1, 2 or 4 host threads (as tuner and serving workers do) each
  // reproduce the single-threaded result exactly.
  auto Baseline = fourDeviceChain(unconstrained());
  ASSERT_TRUE(Baseline) << Baseline.message();
  std::string Want = simDigestText(*Baseline);
  for (int Threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << Threads);
    std::vector<std::string> Got(static_cast<size_t>(Threads));
    std::vector<std::thread> Workers;
    for (int T = 0; T != Threads; ++T)
      Workers.emplace_back([&Got, T] {
        auto Result = fourDeviceChain(unconstrained());
        Got[static_cast<size_t>(T)] =
            Result ? simDigestText(*Result) : Result.message();
      });
    for (std::thread &W : Workers)
      W.join();
    for (const std::string &Text : Got)
      EXPECT_EQ(Text, Want);
  }
}

TEST(ParallelParityTest, SerialTraceDoesNotPerturbResults) {
  // The tracer is purely observational: a traced run agrees exactly with
  // an untraced one.
  Tracer Trace(4);
  SimConfig Traced = unconstrained();
  Traced.Trace = &Trace;
  auto Plain = twoDeviceChain(unconstrained());
  auto Recorded = twoDeviceChain(Traced);
  ASSERT_TRUE(Plain) << Plain.message();
  ASSERT_TRUE(Recorded) << Recorded.message();
  EXPECT_EQ(simDigestText(*Plain), simDigestText(*Recorded));
  EXPECT_NE(Trace.chromeTraceJson().find("unit a6"), std::string::npos);
}

TEST(ParallelParityTest, RandomProgramsMatchSerial) {
  // Random single-device programs match the reference executor and report
  // consistent statistics.
  for (uint64_t Seed = 200; Seed <= 212; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    SimResult R = runAndValidate(randomProgram(Seed));
    expectConsistentStats(R);
  }
}

TEST(SimTest, HdiffJsonRoundTripRunsIdentically) {
  // The full case-study program survives serialization to the JSON
  // description format and back, producing bit-identical results.
  StencilProgram Original = workloads::horizontalDiffusion(4, 12, 12);
  json::Value Description = programToJson(Original);
  auto Reloaded = programFromJson(Description);
  ASSERT_TRUE(Reloaded) << Reloaded.message();
  auto CompiledA = CompiledProgram::compile(std::move(Original));
  auto CompiledB = CompiledProgram::compile(Reloaded.takeValue());
  ASSERT_TRUE(CompiledA);
  ASSERT_TRUE(CompiledB);
  auto Inputs = materializeInputs(CompiledA->program());
  auto A = runReference(*CompiledA, Inputs);
  auto B = runReference(*CompiledB, Inputs);
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  for (const std::string &Output : CompiledA->program().Outputs) {
    ValidationReport Report =
        validateField(Output, B->field(Output), A->field(Output));
    EXPECT_TRUE(Report.Passed) << Report.Summary;
  }
}
