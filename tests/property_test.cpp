//===- tests/property_test.cpp - Parameterized property sweeps -----------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-based invariants swept over parameter grids with TEST_P /
// INSTANTIATE_TEST_SUITE_P:
//
//  - end-to-end: for random programs across seeds and vector widths, the
//    simulator (a) matches the reference executor bit-exactly, (b) never
//    deadlocks with analysis-sized buffers, and (c) finishes in exactly
//    C = L + N cycles with unconstrained memory (Eq. 1);
//  - buffer formulas: internal buffer sizes follow the Sec. IV-A formula
//    for arbitrary offset patterns and vector widths;
//  - boundary semantics: constant/copy handling agrees between the
//    simulator and the reference executor for every boundary kind and
//    offset direction.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "core/BufferAnalysis.h"
#include "core/DataflowAnalysis.h"
#include "core/Partitioner.h"
#include "runtime/InputData.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Validation.h"
#include "sim/Fault.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

using namespace stencilflow;
using namespace stencilflow::testing;

//===----------------------------------------------------------------------===//
// End-to-end property: sim == reference, cycles == L + N, no deadlock.
//===----------------------------------------------------------------------===//

class EndToEndProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(EndToEndProperty, SimMatchesReferenceAndModel) {
  auto [Seed, VectorWidth] = GetParam();
  RandomProgramOptions Options;
  Options.VectorWidth = VectorWidth;
  StencilProgram Program = randomProgram(Seed, Options);

  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow) << Dataflow.message();

  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M) << M.message();
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  ASSERT_TRUE(Result) << Result.message(); // No deadlock, no overrun.

  // Eq. 1: exactly C = L + N cycles.
  EXPECT_EQ(Result->Stats.Cycles, M->expectedCycles());

  // Bit-exact agreement with the sequential reference.
  auto Reference = runReference(*Compiled, Inputs);
  ASSERT_TRUE(Reference);
  for (const std::string &Output : Compiled->program().Outputs) {
    ValidationReport Report = validateField(
        Output, Result->Outputs.at(Output), Reference->field(Output));
    EXPECT_TRUE(Report.Passed) << Report.Summary;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWidths, EndToEndProperty,
    ::testing::Combine(::testing::Values(301, 302, 303, 304, 305, 306, 307,
                                         308, 309, 310),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, int>> &Info) {
      return "seed" + std::to_string(std::get<0>(Info.param)) + "_w" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Buffer-size formula property (Sec. IV-A).
//===----------------------------------------------------------------------===//

struct BufferCase {
  std::string Name;
  std::string Accesses; ///< Expression summing the accesses.
  int64_t ExpectedDistance;
};

class BufferFormulaProperty
    : public ::testing::TestWithParam<std::tuple<BufferCase, int>> {};

TEST_P(BufferFormulaProperty, SizeIsDistancePlusW) {
  auto [Case, W] = GetParam();
  int64_t K = 8, J = 8, I = 16;
  StencilProgram P;
  P.IterationSpace = Shape({K, J, I});
  P.VectorWidth = W;
  addInput(P, "a");
  addStencil(P, "out", "out = " + Case.Accesses + ";");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  NodeBuffers Buffers = computeNodeBuffers(P, P.Nodes[0], P.VectorWidth);
  ASSERT_EQ(Buffers.Buffers.size(), 1u);
  const InternalBuffer &Buffer = Buffers.Buffers[0];
  EXPECT_EQ(Buffer.DistanceElements, Case.ExpectedDistance) << Case.Name;
  EXPECT_EQ(Buffer.SizeElements, Case.ExpectedDistance + W) << Case.Name;
  EXPECT_EQ(Buffer.InitCycles, (Case.ExpectedDistance + W - 1) / W)
      << Case.Name;
}

INSTANTIATE_TEST_SUITE_P(
    OffsetPatterns, BufferFormulaProperty,
    ::testing::Combine(
        ::testing::Values(
            // Center only: no reuse window.
            BufferCase{"center", "a[0,0,0]", 0},
            // Two rows (paper Fig. 7 top): 2I.
            BufferCase{"rows", "a[0,-1,0] + a[0,1,0]", 2 * 16},
            // Two slices (paper Fig. 7 bottom): 2JI.
            BufferCase{"slices", "a[-1,0,0] + a[1,0,0]", 2 * 8 * 16},
            // Asymmetric, clamped to include the center.
            BufferCase{"forward", "a[0,0,1] + a[0,0,3]", 3},
            BufferCase{"backward", "a[0,0,-2] + a[0,0,-1]", 2},
            // 7-point star: 2JI.
            BufferCase{"star",
                       "a[0,0,0] + a[0,0,-1] + a[0,0,1] + a[0,-1,0] + "
                       "a[0,1,0] + a[-1,0,0] + a[1,0,0]",
                       2 * 8 * 16},
            // In-between accesses do not change the window.
            BufferCase{"dense",
                       "a[0,-1,0] + a[0,0,-1] + a[0,0,0] + a[0,0,1] + "
                       "a[0,1,0]",
                       2 * 16}),
        ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<BufferCase, int>> &Info) {
      return std::get<0>(Info.param).Name + "_w" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Boundary-handling property: sim == reference for every kind/direction.
//===----------------------------------------------------------------------===//

struct BoundaryCase {
  std::string Name;
  std::string Expr;
  bool Copy; ///< Copy boundary (else constant 3.5).
};

class BoundaryProperty : public ::testing::TestWithParam<BoundaryCase> {};

TEST_P(BoundaryProperty, SimMatchesReference) {
  const BoundaryCase &Case = GetParam();
  StencilProgram P;
  P.IterationSpace = Shape({6, 10});
  addInput(P, "a", DataType::Float32, DataSource::random(77));
  addStencil(P, "out", "out = " + Case.Expr + ";", DataType::Float32,
             {{"a", Case.Copy ? BoundaryCondition::copy()
                              : BoundaryCondition::constant(3.5)}});
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  ASSERT_TRUE(Result) << Result.message();
  auto Reference = runReference(*Compiled, Inputs);
  ValidationReport Report = validateField(
      "out", Result->Outputs.at("out"), Reference->field("out"));
  EXPECT_TRUE(Report.Passed) << Report.Summary;
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndDirections, BoundaryProperty,
    ::testing::Values(
        BoundaryCase{"const_west", "a[0,-2] + a[0,0]", false},
        BoundaryCase{"const_east", "a[0,2] + a[0,0]", false},
        BoundaryCase{"const_north", "a[-2,0] + a[0,0]", false},
        BoundaryCase{"const_south", "a[2,0] + a[0,0]", false},
        BoundaryCase{"const_corner", "a[-1,-1] + a[1,1] + a[0,0]", false},
        BoundaryCase{"copy_west", "a[0,-2] + a[0,0]", true},
        BoundaryCase{"copy_east", "a[0,2] + a[0,0]", true},
        BoundaryCase{"copy_corner", "a[-1,-1] + a[1,1] + a[0,0]", true}),
    [](const ::testing::TestParamInfo<BoundaryCase> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// Channel-occupancy property: observed high-water marks validate the
// delay-buffer sizing (Sec. IV-B) empirically.
//===----------------------------------------------------------------------===//

class ChannelOccupancyProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChannelOccupancyProperty, HighWaterWithinComputedDepth) {
  uint64_t Seed = GetParam();
  StencilProgram Program = randomProgram(Seed);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();

  // Every streamed edge stays within its computed delay-buffer depth plus
  // the constant pipelining slack; the analysis never under-sizes.
  for (const DataflowEdge &Edge : Dataflow->Edges) {
    auto It = Result->Stats.ChannelHighWater.find(Edge.Source + "->" +
                                                  Edge.Consumer);
    ASSERT_NE(It, Result->Stats.ChannelHighWater.end());
    EXPECT_LE(It->second, Edge.BufferDepth + Config.MinChannelDepth)
        << Edge.Source << " -> " << Edge.Consumer;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelOccupancyProperty,
                         ::testing::Range<uint64_t>(400, 420));

TEST(ChannelOccupancyTest, DiamondCriticalEdgeActuallyFills) {
  // The A->C delay buffer is not conservative slack: the producer really
  // runs ahead by (close to) the computed depth while B fills.
  StencilProgram P = diamondProgram(32, 32);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  int64_t Depth = Dataflow->findEdge("A", "C")->BufferDepth;
  int64_t HighWater = Result->Stats.ChannelHighWater.at("A->C");
  EXPECT_GE(HighWater, Depth - 2);
  EXPECT_LE(HighWater, Depth + Config.MinChannelDepth);
}

//===----------------------------------------------------------------------===//
// Fault-resilience property: transient faults never change the bits.
//===----------------------------------------------------------------------===//

// For seed-derived multi-device chains under seed-derived transient fault
// plans (in-flight corruption, a link-degrade window, a memory brownout),
// the reliable transport must deliver bit-exact agreement with the
// sequential reference, and the per-link counters must stay consistent:
// every transmission is either delivered or replayed, and NACKs never
// exceed corrupted arrivals.
class FaultResilienceProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FaultResilienceProperty, TransientFaultsPreserveBitExactness) {
  uint64_t Seed = GetParam();
  int Length = 4 + static_cast<int>(Seed % 3); // 2-4 devices at 2/device.
  StencilProgram Program = jacobi3dChain(Length, 4, 6, 6);

  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow) << Dataflow.message();

  PartitionOptions PartOptions;
  PartOptions.TargetUtilization = 1.0;
  PartOptions.Device.DSPs = 7 * 2; // Two chained stencils per device.
  PartOptions.MaxDevices = 64;
  auto Placement = partitionProgram(*Compiled, *Dataflow, PartOptions);
  ASSERT_TRUE(Placement) << Placement.message();
  ASSERT_GT(Placement->numDevices(), 1u);

  // A seed-derived transient-fault cocktail.
  sim::FaultPlan Plan;
  Plan.Seed = Seed;
  sim::FaultEvent Corrupt;
  Corrupt.Kind = sim::FaultKind::PayloadCorruption;
  Corrupt.Probability = 0.05 + 0.04 * static_cast<double>(Seed % 5);
  Plan.Events.push_back(Corrupt);
  sim::FaultEvent Degrade;
  Degrade.Kind = sim::FaultKind::LinkDegrade;
  Degrade.Hop = static_cast<int>(Seed % Placement->numDevices()) - 1;
  Degrade.Factor = 0.3;
  Degrade.StartCycle = static_cast<int64_t>(Seed % 7) * 50;
  Degrade.EndCycle = Degrade.StartCycle + 400;
  Plan.Events.push_back(Degrade);
  sim::FaultEvent Brownout;
  Brownout.Kind = sim::FaultKind::MemoryBrownout;
  Brownout.Device = static_cast<int>(Seed % Placement->numDevices());
  Brownout.Factor = 0.5;
  Brownout.StartCycle = 100;
  Brownout.EndCycle = 600;
  Plan.Events.push_back(Brownout);
  ASSERT_FALSE(static_cast<bool>(Plan.validate()));

  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.Faults = &Plan;
  auto M = sim::Machine::build(*Compiled, *Dataflow, &*Placement, Config);
  ASSERT_TRUE(M) << M.message();
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  ASSERT_TRUE(Result) << Result.message();

  // Bit-exact despite the faults.
  auto Reference = runReference(*Compiled, Inputs);
  ASSERT_TRUE(Reference);
  for (const std::string &Output : Compiled->program().Outputs) {
    const auto &Sim = Result->Outputs.at(Output);
    const auto &Ref = Reference->field(Output);
    ASSERT_EQ(Sim.size(), Ref.size());
    for (size_t I = 0; I != Ref.size(); ++I)
      ASSERT_EQ(Sim[I], Ref[I]) << Output << "[" << I << "]";
  }

  // Counter consistency on every remote link.
  for (const auto &[Name, Link] : Result->Stats.Links) {
    EXPECT_EQ(Link.Transmissions - Link.Retransmissions, Link.Delivered)
        << Name;
    EXPECT_LE(Link.Nacks, Link.CorruptedVectors) << Name;
    EXPECT_GE(Link.Retransmissions, Link.Nacks) << Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultResilienceProperty,
                         ::testing::Range<uint64_t>(500, 510));
