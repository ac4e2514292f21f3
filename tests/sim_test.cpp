//===- tests/sim_test.cpp - Simulator tests ------------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "runtime/InputData.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Validation.h"
#include "frontend/ProgramLoader.h"
#include "sim/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

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
  StencilProgram P;
  P.IterationSpace = Shape({6, 6});
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
  runAndValidate(std::move(P));
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

/// Builds a two-device partition of a Jacobi chain by splitting at
/// \p SplitAt.
Partition makeSplitPartition(const CompiledProgram &Compiled,
                             const DataflowAnalysis &Dataflow, int SplitAt) {
  PartitionOptions Options;
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
// SimConfig::Builder
//===----------------------------------------------------------------------===//

TEST(SimConfigBuilderTest, DefaultsBuild) {
  auto Config = SimConfig::Builder().build();
  ASSERT_TRUE(Config) << Config.message();
  EXPECT_EQ(Config->Engine, SimEngine::Serial);
}

TEST(SimConfigBuilderTest, ChainedSettersStick) {
  auto Config = SimConfig::Builder()
                    .unconstrainedMemory(true)
                    .engine(SimEngine::Parallel)
                    .threads(8)
                    .stallTimeoutCycles(4096)
                    .build();
  ASSERT_TRUE(Config) << Config.message();
  EXPECT_TRUE(Config->UnconstrainedMemory);
  EXPECT_EQ(Config->Engine, SimEngine::Parallel);
  EXPECT_EQ(Config->Threads, 8);
  EXPECT_EQ(Config->StallTimeoutCycles, 4096);
}

TEST(SimConfigBuilderTest, RejectsNonPositiveRates) {
  EXPECT_FALSE(SimConfig::Builder().peakMemoryBytesPerCycle(0.0).build());
  EXPECT_FALSE(SimConfig::Builder().linkBytesPerCycle(-1.0).build());
  EXPECT_FALSE(SimConfig::Builder().minChannelDepth(0).build());
  EXPECT_FALSE(SimConfig::Builder().sendWindowVectors(0).build());
  EXPECT_FALSE(SimConfig::Builder().threads(-1).build());
}

TEST(SimConfigBuilderTest, RejectsTraceUnderParallel) {
  Tracer Trace;
  auto Config = SimConfig::Builder()
                    .engine(SimEngine::Parallel)
                    .trace(&Trace)
                    .build();
  ASSERT_FALSE(Config);
  EXPECT_EQ(Config.code(), ErrorCode::InvalidInput);
  EXPECT_NE(Config.message().find("serial engine"), std::string::npos);
}

TEST(SimConfigBuilderTest, RejectsDegenerateParallelLookahead) {
  // Zero hop latency leaves the parallel engine no cross-device
  // lookahead at all.
  EXPECT_FALSE(SimConfig::Builder()
                   .engine(SimEngine::Parallel)
                   .networkLatencyCyclesPerHop(0)
                   .build());
  // Clamped remote channels shallower than the hop latency bound every
  // epoch below one hop.
  EXPECT_FALSE(SimConfig::Builder()
                   .engine(SimEngine::Parallel)
                   .clampChannelsToMinimum(true)
                   .minChannelDepth(4)
                   .networkExtraChannelDepth(0)
                   .networkLatencyCyclesPerHop(32)
                   .build());
  // A send window below the hop latency bounds epochs the same way.
  EXPECT_FALSE(SimConfig::Builder()
                   .engine(SimEngine::Parallel)
                   .sendWindowVectors(8)
                   .networkLatencyCyclesPerHop(32)
                   .build());
  // The serial engine accepts all three.
  EXPECT_TRUE(SimConfig::Builder().networkLatencyCyclesPerHop(0).build());
}

TEST(SimConfigBuilderTest, SeededFromExistingConfig) {
  SimConfig Base;
  Base.UnconstrainedMemory = true;
  Base.MinChannelDepth = 16;
  auto Config =
      SimConfig::Builder(Base).engine(SimEngine::Parallel).build();
  ASSERT_TRUE(Config) << Config.message();
  EXPECT_TRUE(Config->UnconstrainedMemory);
  EXPECT_EQ(Config->MinChannelDepth, 16);
  EXPECT_EQ(Config->Engine, SimEngine::Parallel);
}

TEST(SimConfigBuilderTest, MachineBuildValidatesHandAssembledConfig) {
  StencilProgram P = laplace2d(8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Bad;
  Bad.Engine = SimEngine::Parallel;
  Bad.NetworkLatencyCyclesPerHop = 0;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Bad);
  ASSERT_FALSE(M);
  EXPECT_EQ(M.code(), ErrorCode::InvalidInput);
}

//===----------------------------------------------------------------------===//
// Parallel-engine parity: cycle- and bit-exact against the serial engine
//===----------------------------------------------------------------------===//

namespace {

void expectStallsEqual(const std::map<std::string, StallBreakdown> &S,
                       const std::map<std::string, StallBreakdown> &P,
                       const char *What) {
  ASSERT_EQ(S.size(), P.size()) << What;
  for (const auto &[Name, Serial] : S) {
    auto It = P.find(Name);
    ASSERT_NE(It, P.end()) << What << " " << Name;
    for (int Cause = 0; Cause < NumStallCauses; ++Cause)
      EXPECT_EQ(Serial.Counts[Cause], It->second.Counts[Cause])
          << What << " " << Name << " cause "
          << stallCauseName(static_cast<StallCause>(Cause));
  }
}

/// Asserts that two completed runs agree exactly: cycles, outputs (bit
/// exact), stall attributions, channel occupancies, bandwidth counters,
/// and reliable-link statistics.
void expectResultsEqual(const SimResult &S, const SimResult &P) {
  EXPECT_EQ(S.Stats.Cycles, P.Stats.Cycles);
  EXPECT_EQ(S.Termination, P.Termination);
  EXPECT_EQ(S.Stats.MemoryBytesMoved, P.Stats.MemoryBytesMoved);
  EXPECT_EQ(S.Stats.AchievedMemoryBytesPerCycle,
            P.Stats.AchievedMemoryBytesPerCycle);
  EXPECT_EQ(S.Stats.NetworkBytesMoved, P.Stats.NetworkBytesMoved);
  EXPECT_EQ(S.Stats.UnitStallCycles, P.Stats.UnitStallCycles);
  expectStallsEqual(S.Stats.UnitStalls, P.Stats.UnitStalls, "unit");
  expectStallsEqual(S.Stats.ReaderStalls, P.Stats.ReaderStalls, "reader");
  expectStallsEqual(S.Stats.WriterStalls, P.Stats.WriterStalls, "writer");
  EXPECT_EQ(S.Stats.ChannelHighWater, P.Stats.ChannelHighWater);
  EXPECT_EQ(S.Stats.ChannelPeakOccupancy, P.Stats.ChannelPeakOccupancy);
  EXPECT_EQ(S.Stats.ChannelCapacity, P.Stats.ChannelCapacity);
  ASSERT_EQ(S.Stats.Links.size(), P.Stats.Links.size());
  for (const auto &[Name, Link] : S.Stats.Links) {
    auto It = P.Stats.Links.find(Name);
    ASSERT_NE(It, P.Stats.Links.end()) << Name;
    EXPECT_EQ(Link.Transmissions, It->second.Transmissions) << Name;
    EXPECT_EQ(Link.Retransmissions, It->second.Retransmissions) << Name;
    EXPECT_EQ(Link.CorruptedVectors, It->second.CorruptedVectors) << Name;
    EXPECT_EQ(Link.Nacks, It->second.Nacks) << Name;
    EXPECT_EQ(Link.Delivered, It->second.Delivered) << Name;
  }
  ASSERT_EQ(S.Outputs.size(), P.Outputs.size());
  for (const auto &[Name, Serial] : S.Outputs) {
    auto It = P.Outputs.find(Name);
    ASSERT_NE(It, P.Outputs.end()) << Name;
    // operator== on vector<double> is element-exact: bit-identical
    // results, not merely within tolerance.
    EXPECT_EQ(Serial, It->second) << "output " << Name;
  }
}

/// Runs \p Compiled under the serial engine and under the parallel engine
/// (same config otherwise) and asserts exact agreement. Returns the
/// parallel result for engine-specific assertions.
SimResult expectEngineParity(const CompiledProgram &Compiled,
                             const DataflowAnalysis &Dataflow,
                             const Partition *Placement, SimConfig Config,
                             int Threads = 0) {
  auto Inputs = materializeInputs(Compiled.program());

  Config.Engine = SimEngine::Serial;
  auto Serial = Machine::build(Compiled, Dataflow, Placement, Config);
  EXPECT_TRUE(Serial) << Serial.message();
  auto SerialResult = Serial->run(Inputs);
  EXPECT_TRUE(SerialResult) << SerialResult.message();

  Config.Engine = SimEngine::Parallel;
  Config.Threads = Threads;
  auto Parallel = Machine::build(Compiled, Dataflow, Placement, Config);
  EXPECT_TRUE(Parallel) << Parallel.message();
  auto ParallelResult = Parallel->run(Inputs);
  EXPECT_TRUE(ParallelResult) << ParallelResult.message();

  expectResultsEqual(*SerialResult, *ParallelResult);
  EXPECT_EQ(SerialResult->Stats.Engine, "serial");
  return ParallelResult.takeValue();
}

} // namespace

TEST(ParallelParityTest, SingleDevicePrograms) {
  for (auto MakeProgram :
       {+[] { return laplace2d(12, 12); },
        +[] { return diamondProgram(16, 16); },
        +[] { return jacobi3dChain(4, 6, 6, 6); }}) {
    auto Compiled = CompiledProgram::compile(MakeProgram());
    ASSERT_TRUE(Compiled);
    auto Dataflow = analyzeDataflow(*Compiled);
    SimConfig Config;
    Config.UnconstrainedMemory = true;
    SimResult P = expectEngineParity(*Compiled, *Dataflow, nullptr, Config);
    EXPECT_EQ(P.Stats.Engine, "parallel");
  }
}

TEST(ParallelParityTest, TwoDeviceChain) {
  StencilProgram Program = jacobi3dChain(6, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 3);
  ASSERT_EQ(Placement.numDevices(), 2u);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  SimResult P =
      expectEngineParity(*Compiled, *Dataflow, &Placement, Config);
  EXPECT_EQ(P.Stats.Engine, "parallel");
  EXPECT_GT(P.Stats.ParallelEpochs, 0);
}

TEST(ParallelParityTest, FourDeviceChain) {
  StencilProgram Program = jacobi3dChain(8, 4, 4, 8);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 2);
  ASSERT_EQ(Placement.numDevices(), 4u);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  expectEngineParity(*Compiled, *Dataflow, &Placement, Config);
}

TEST(ParallelParityTest, ThrottledNetwork) {
  // Congested remote streams exercise the channel-slack epoch bound and
  // the hop-budget accounting in the bulk fast-forward.
  StencilProgram Program = jacobi3dChain(4, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 2);
  ASSERT_EQ(Placement.numDevices(), 2u);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.LinkBytesPerCycle = 1.0;
  expectEngineParity(*Compiled, *Dataflow, &Placement, Config);
}

TEST(ParallelParityTest, ConstrainedMemory) {
  StencilProgram Program = jacobi3dChain(6, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 3);
  ASSERT_EQ(Placement.numDevices(), 2u);
  SimConfig Config;
  Config.UnconstrainedMemory = false;
  Config.PeakMemoryBytesPerCycle = 6.0;
  expectEngineParity(*Compiled, *Dataflow, &Placement, Config);
}

TEST(ParallelParityTest, WatchdogEnabled) {
  // The watchdog forces epoch boundaries onto every 256-cycle mark; a
  // healthy run must still complete identically with it armed.
  StencilProgram Program = jacobi3dChain(6, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 3);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.StallTimeoutCycles = 512;
  expectEngineParity(*Compiled, *Dataflow, &Placement, Config);
}

TEST(ParallelParityTest, DeadlockReportsMatch) {
  // Both engines must classify the Fig. 4 deadlock identically — same
  // error code, same rendered failure report (same cycle, same culprit
  // components and channels) — which exercises the parallel engine's
  // mid-epoch abort rollback.
  StencilProgram Program = diamondProgram(32, 32);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.ClampChannelsToMinimum = true;
  Config.MinChannelDepth = 4;
  auto Inputs = materializeInputs(Compiled->program());

  auto Serial = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(Serial);
  auto SerialResult = Serial->run(Inputs);
  ASSERT_FALSE(SerialResult);

  Config.Engine = SimEngine::Parallel;
  auto Parallel = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(Parallel);
  auto ParallelResult = Parallel->run(Inputs);
  ASSERT_FALSE(ParallelResult);

  EXPECT_EQ(SerialResult.code(), ParallelResult.code());
  SimFailure SerialFail = SerialResult.takeError();
  SimFailure ParallelFail = ParallelResult.takeError();
  EXPECT_EQ(SerialFail.report().render(), ParallelFail.report().render());
}

TEST(ParallelParityTest, RepeatableAcrossThreadCounts) {
  // The epoch protocol makes the result independent of the worker count:
  // shards touch disjoint state between barriers and merge in a fixed
  // order on the main thread.
  StencilProgram Program = jacobi3dChain(8, 4, 4, 8);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 2);
  ASSERT_EQ(Placement.numDevices(), 4u);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.Engine = SimEngine::Parallel;
  auto Inputs = materializeInputs(Compiled->program());

  SimResult Baseline;
  for (int Threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << Threads);
    Config.Threads = Threads;
    auto M = Machine::build(*Compiled, *Dataflow, &Placement, Config);
    ASSERT_TRUE(M);
    auto Result = M->run(Inputs);
    ASSERT_TRUE(Result) << Result.message();
    if (Threads == 1)
      Baseline = Result.takeValue();
    else
      expectResultsEqual(Baseline, *Result);
  }
}

TEST(ParallelParityTest, QuiescenceFastForwardEngages) {
  // An unconstrained multi-device chain has long stretches where the
  // downstream device only waits on in-flight network vectors; the
  // quiescence skip must fast-forward through them, not step them.
  StencilProgram Program = jacobi3dChain(6, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 3);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.Engine = SimEngine::Parallel;
  auto M = Machine::build(*Compiled, *Dataflow, &Placement, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_GT(Result->Stats.SkippedCycles, 0);
  EXPECT_EQ(Result->Stats.SerialFallbackCycles, 0);
}

TEST(ParallelParityTest, SerialTraceDoesNotPerturbResults) {
  // Tracing is serial-only; a traced serial run must agree exactly with
  // an untraced parallel run, proving the tracer is purely observational.
  StencilProgram Program = jacobi3dChain(6, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 3);
  auto Inputs = materializeInputs(Compiled->program());

  Tracer Trace(4);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.Trace = &Trace;
  auto Serial = Machine::build(*Compiled, *Dataflow, &Placement, Config);
  ASSERT_TRUE(Serial);
  auto SerialResult = Serial->run(Inputs);
  ASSERT_TRUE(SerialResult) << SerialResult.message();

  Config.Trace = nullptr;
  Config.Engine = SimEngine::Parallel;
  auto Parallel = Machine::build(*Compiled, *Dataflow, &Placement, Config);
  ASSERT_TRUE(Parallel);
  auto ParallelResult = Parallel->run(Inputs);
  ASSERT_TRUE(ParallelResult) << ParallelResult.message();

  expectResultsEqual(*SerialResult, *ParallelResult);
}

TEST(ParallelParityTest, RandomProgramsMatchSerial) {
  for (uint64_t Seed = 200; Seed <= 212; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    auto Compiled = CompiledProgram::compile(randomProgram(Seed));
    ASSERT_TRUE(Compiled);
    auto Dataflow = analyzeDataflow(*Compiled);
    SimConfig Config;
    Config.UnconstrainedMemory = true;
    expectEngineParity(*Compiled, *Dataflow, nullptr, Config);
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
