//===- tests/fault_test.cpp - Fault injection and resilience tests -------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the resilience subsystem end to end:
//
//  - the ErrorCode taxonomy (name round-trips, distinct exit codes);
//  - FaultPlan validation, JSON round-trips, and deterministic corruption;
//  - FailureReport rendering and JSON round-trips;
//  - the Fig. 4 diamond deadlock as a structured report regression;
//  - the reliable transport: zero-overhead parity with faults disabled,
//    bit-exact completion under transient corruption, bounded-retransmit
//    exhaustion, detection-only aborts;
//  - brownouts, outages, the progress watchdog, device loss, and the
//    pipeline's graceful-degradation retry.
//
//===----------------------------------------------------------------------===//

#include "common/IntegerBoundaries.h"
#include "common/SimDigest.h"
#include "common/TestPrograms.h"
#include "core/Partitioner.h"
#include "runtime/InputData.h"
#include "runtime/Pipeline.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Validation.h"
#include "sim/Fault.h"
#include "sim/Machine.h"
#include "support/Error.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <set>

using namespace stencilflow;
using namespace stencilflow::sim;
using namespace stencilflow::testing;

//===----------------------------------------------------------------------===//
// ErrorCode taxonomy
//===----------------------------------------------------------------------===//

TEST(ErrorCodeTest, NamesRoundTrip) {
  std::set<std::string> Names;
  for (int I = 0; I != NumErrorCodes; ++I) {
    ErrorCode Code = static_cast<ErrorCode>(I);
    std::string Name = errorCodeName(Code);
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate name " << Name;
    auto Back = errorCodeFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Code);
  }
  EXPECT_FALSE(errorCodeFromName("no-such-code").has_value());
}

TEST(ErrorCodeTest, ExitCodesDistinguishResilienceFailures) {
  // CI scripts branch on the exit code; each resilience outcome must map
  // to its own nonzero value.
  std::set<int> Exits;
  for (ErrorCode Code :
       {ErrorCode::ValidationMismatch, ErrorCode::Deadlock,
        ErrorCode::CycleLimit, ErrorCode::DeviceLost,
        ErrorCode::LinkFailure, ErrorCode::DataCorruption,
        ErrorCode::Starvation}) {
    int Exit = exitCodeFor(Code);
    EXPECT_NE(Exit, 0) << errorCodeName(Code);
    EXPECT_TRUE(Exits.insert(Exit).second)
        << "exit code collision for " << errorCodeName(Code);
  }
  // Unclassified failures share the generic exit code 1.
  EXPECT_EQ(exitCodeFor(ErrorCode::Unknown), 1);
  EXPECT_EQ(exitCodeFor(ErrorCode::InvalidInput), 1);
}

TEST(ErrorCodeTest, ErrorsCarryCodesThroughContext) {
  Error Err = Error::failure(ErrorCode::DeviceLost, "node 2 gone");
  EXPECT_EQ(Err.code(), ErrorCode::DeviceLost);
  Err.addContext("simulation");
  EXPECT_EQ(Err.code(), ErrorCode::DeviceLost);
  EXPECT_NE(Err.message().find("node 2 gone"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// FaultPlan
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, NamesRoundTrip) {
  for (int I = 0; I != NumFaultKinds; ++I) {
    FaultKind Kind = static_cast<FaultKind>(I);
    auto Back = faultKindFromName(faultKindName(Kind));
    ASSERT_TRUE(Back.has_value()) << faultKindName(Kind);
    EXPECT_EQ(*Back, Kind);
  }
  EXPECT_FALSE(faultKindFromName("meteor-strike").has_value());
}

TEST(FaultPlanTest, ValidateRejectsBadEvents) {
  FaultPlan Plan;
  FaultEvent Bad;
  Bad.Kind = FaultKind::LinkDegrade;
  Bad.StartCycle = 100;
  Bad.EndCycle = 50; // Window ends before it starts.
  Plan.Events.push_back(Bad);
  Error Err = Plan.validate();
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::InvalidInput);

  Plan.Events.clear();
  FaultEvent BadFactor;
  BadFactor.Kind = FaultKind::MemoryBrownout;
  BadFactor.Factor = 1.5;
  Plan.Events.push_back(BadFactor);
  EXPECT_TRUE(static_cast<bool>(Plan.validate()));

  Plan.Events.clear();
  FaultEvent Good;
  Good.Kind = FaultKind::PayloadCorruption;
  Good.Probability = 0.25;
  Good.StartCycle = 0;
  Good.EndCycle = 1000;
  Plan.Events.push_back(Good);
  EXPECT_FALSE(static_cast<bool>(Plan.validate()));
}

TEST(FaultPlanTest, JsonRoundTrip) {
  FaultPlan Plan;
  Plan.Seed = 0xDEADBEEFu;
  FaultEvent Degrade;
  Degrade.Kind = FaultKind::LinkDegrade;
  Degrade.StartCycle = 10;
  Degrade.EndCycle = 200;
  Degrade.Hop = 1;
  Degrade.Factor = 0.25;
  Plan.Events.push_back(Degrade);
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.StartCycle = 0;
  Corrupt.EndCycle = 5000;
  Corrupt.Probability = 0.125;
  Plan.Events.push_back(Corrupt);
  FaultEvent Death;
  Death.Kind = FaultKind::DeviceFailure;
  Death.StartCycle = 999;
  Death.Device = 3;
  Plan.Events.push_back(Death);

  auto Back = FaultPlan::fromJson(Plan.toJson());
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_EQ(Back->Seed, Plan.Seed);
  ASSERT_EQ(Back->Events.size(), Plan.Events.size());
  for (size_t I = 0; I != Plan.Events.size(); ++I) {
    EXPECT_EQ(Back->Events[I].Kind, Plan.Events[I].Kind);
    EXPECT_EQ(Back->Events[I].StartCycle, Plan.Events[I].StartCycle);
    EXPECT_EQ(Back->Events[I].EndCycle, Plan.Events[I].EndCycle);
    EXPECT_EQ(Back->Events[I].Device, Plan.Events[I].Device);
    EXPECT_EQ(Back->Events[I].Hop, Plan.Events[I].Hop);
    EXPECT_EQ(Back->Events[I].Factor, Plan.Events[I].Factor);
    EXPECT_EQ(Back->Events[I].Probability, Plan.Events[I].Probability);
  }
  EXPECT_EQ(Back->earliestDeviceFailure(), 999);
  EXPECT_EQ(Back->firstFailedDevice(1000), 3);
  EXPECT_EQ(Back->firstFailedDevice(998), -1);
}

TEST(FaultPlanTest, SeedsSurviveTheirOwnJson) {
  // A double holds 53 bits: a larger seed is written as hex text, and
  // 0xdeadbeefcafebabe once came back as 0xdeadbeefcafeb800.
  for (uint64_t Seed : {uint64_t(7), uint64_t(1) << 53, (uint64_t(1) << 53) + 1,
                        uint64_t(0xdeadbeefcafebabeull),
                        uint64_t(0x9e3779b97f4a7c15ull), ~uint64_t(0)}) {
    FaultPlan Plan;
    Plan.Seed = Seed;
    std::string Text = Plan.toJson().toString();
    auto Back = FaultPlan::fromJsonText(Text);
    ASSERT_TRUE(Back) << Text << ": " << Back.message();
    EXPECT_EQ(Back->Seed, Seed) << Text;
  }
  // A seed a double holds keeps its numeric form.
  FaultPlan Small;
  Small.Seed = 7;
  EXPECT_NE(Small.toJson().toString().find("\"seed\":7"), std::string::npos)
      << Small.toJson().toString();
  auto Malformed = FaultPlan::fromJsonText(R"({"seed": "0xzz"})");
  ASSERT_FALSE(Malformed);
  EXPECT_EQ(Malformed.code(), ErrorCode::InvalidInput);
}

TEST(FaultPlanTest, FromJsonTextRejectsGarbage) {
  EXPECT_FALSE(FaultPlan::fromJsonText("{"));
  EXPECT_FALSE(
      FaultPlan::fromJsonText(R"({"events": [{"kind": "nope"}]})"));
  auto Empty = FaultPlan::fromJsonText(R"({"seed": 7, "events": []})");
  ASSERT_TRUE(Empty) << Empty.message();
  EXPECT_EQ(Empty->Seed, 7u);
  EXPECT_TRUE(Empty->empty());
}

TEST(FaultPlanTest, IntegerMembersRejectOutOfRangeNumbers) {
  expectIntegerBoundariesRejected(
      {{R"({"seed": @})", UInt64OnePast},
       {R"({"events": [{"kind": "link-outage", "start": @, "end": 10}]})",
        Int64OnePast},
       {R"({"events": [{"kind": "link-outage", "start": 0, "end": @}]})",
        Int64OnePast},
       {R"({"events": [{"kind": "device-failure", "start": 5,
                        "device": @}]})",
        IntOnePast},
       {R"({"events": [{"kind": "link-outage", "start": 0, "end": 10,
                        "hop": @}]})",
        IntOnePast}},
      [](const std::string &Text) { return FaultPlan::fromJsonText(Text); });
}

TEST(FaultPlanTest, OutOfRangeDeviceAndNegativeSeedAreErrors) {
  // Device 2^32 once wrapped to device 0 and failed it; seed -1 was an
  // undefined conversion to the unsigned seed.
  auto Device = FaultPlan::fromJsonText(
      R"({"events": [{"kind": "device-failure", "start": 5,
                      "device": 4294967296}]})");
  ASSERT_FALSE(Device);
  EXPECT_EQ(Device.code(), ErrorCode::InvalidInput);
  EXPECT_NE(Device.message().find("fault event: 'device' must be an integer"),
            std::string::npos)
      << Device.message();
  auto Seed = FaultPlan::fromJsonText(R"({"seed": -1})");
  ASSERT_FALSE(Seed);
  EXPECT_EQ(Seed.code(), ErrorCode::InvalidInput);
  EXPECT_NE(Seed.message().find("fault plan: 'seed' must be an integer"),
            std::string::npos)
      << Seed.message();
}

TEST(FaultPlanTest, CorruptionIsDeterministicAndSeeded) {
  FaultPlan Plan;
  Plan.Seed = 42;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.Probability = 0.5;
  Plan.Events.push_back(Corrupt);

  FaultPlan Other = Plan;
  Other.Seed = 43;

  int Corrupted = 0, Differs = 0;
  for (int64_t Seq = 0; Seq != 256; ++Seq) {
    bool A = Plan.corruptsTransmission(100, 0, Seq, 0, 0, 1);
    bool B = Plan.corruptsTransmission(100, 0, Seq, 0, 0, 1);
    EXPECT_EQ(A, B); // Same key, same decision, every time.
    Corrupted += A;
    Differs += A != Other.corruptsTransmission(100, 0, Seq, 0, 0, 1);
  }
  // A fair coin: roughly half corrupted, and the seed matters.
  EXPECT_GT(Corrupted, 64);
  EXPECT_LT(Corrupted, 192);
  EXPECT_GT(Differs, 0);

  // The retry nonce re-rolls the coin: some first-attempt corruptions
  // succeed on retransmission (otherwise Go-Back-N could never recover).
  int Recovered = 0;
  for (int64_t Seq = 0; Seq != 256; ++Seq)
    if (Plan.corruptsTransmission(100, 0, Seq, 0, 0, 1) &&
        !Plan.corruptsTransmission(100, 0, Seq, 1, 0, 1))
      ++Recovered;
  EXPECT_GT(Recovered, 0);
}

TEST(FaultPlanTest, WindowedFactors) {
  FaultPlan Plan;
  FaultEvent Brownout;
  Brownout.Kind = FaultKind::MemoryBrownout;
  Brownout.Device = 1;
  Brownout.StartCycle = 100;
  Brownout.EndCycle = 200;
  Brownout.Factor = 0.5;
  Plan.Events.push_back(Brownout);
  FaultEvent Outage;
  Outage.Kind = FaultKind::LinkOutage;
  Outage.Hop = 0;
  Outage.StartCycle = 50;
  Outage.EndCycle = 60;
  Plan.Events.push_back(Outage);

  EXPECT_EQ(Plan.memoryFactor(1, 99), 1.0);
  EXPECT_EQ(Plan.memoryFactor(1, 150), 0.5);
  EXPECT_EQ(Plan.memoryFactor(1, 200), 1.0); // End is exclusive.
  EXPECT_EQ(Plan.memoryFactor(0, 150), 1.0); // Wrong device.
  EXPECT_TRUE(Plan.memoryBrownoutAt(1, 150));
  EXPECT_FALSE(Plan.memoryBrownoutAt(1, 99));
  EXPECT_EQ(Plan.linkFactor(0, 55), 0.0);
  EXPECT_EQ(Plan.linkFactor(0, 60), 1.0);
  EXPECT_EQ(Plan.linkFactor(1, 55), 1.0); // Wrong hop.
}

//===----------------------------------------------------------------------===//
// FailureReport
//===----------------------------------------------------------------------===//

TEST(FailureReportTest, JsonRoundTrip) {
  FailureReport Report;
  Report.Code = ErrorCode::Deadlock;
  Report.Cycle = 1234;
  Report.Component = "stencil_b";
  Report.DominantCause = StallCause::OutputBlocked;
  Report.FailedDevice = -1;
  FailureComponent FC;
  FC.Name = "stencil_b";
  FC.Kind = "unit";
  FC.Device = 0;
  FC.Cause = StallCause::OutputBlocked;
  FC.StallCycles = 1200;
  FC.Progress = 17;
  FC.Total = 1024;
  Report.Components.push_back(FC);
  FailureChannel Ch;
  Ch.Name = "a->b";
  Ch.Occupancy = 4;
  Ch.Capacity = 4;
  Ch.Full = true;
  Report.Channels.push_back(Ch);

  auto Back = FailureReport::fromJson(Report.toJson());
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_EQ(Back->Code, Report.Code);
  EXPECT_EQ(Back->Cycle, Report.Cycle);
  EXPECT_EQ(Back->Component, Report.Component);
  EXPECT_EQ(Back->DominantCause, Report.DominantCause);
  EXPECT_EQ(Back->FailedDevice, Report.FailedDevice);
  ASSERT_EQ(Back->Components.size(), 1u);
  EXPECT_EQ(Back->Components[0].Name, "stencil_b");
  EXPECT_EQ(Back->Components[0].Cause, StallCause::OutputBlocked);
  EXPECT_EQ(Back->Components[0].Progress, 17);
  ASSERT_EQ(Back->Channels.size(), 1u);
  EXPECT_EQ(Back->Channels[0].Name, "a->b");
  EXPECT_TRUE(Back->Channels[0].Full);

  // The rendered form keeps the grep-able markers.
  std::string Text = Report.render();
  EXPECT_NE(Text.find("deadlock"), std::string::npos);
  EXPECT_NE(Text.find("[FULL]"), std::string::npos);
}

TEST(FailureReportTest, IntegerMembersRejectOutOfRangeNumbers) {
  expectIntegerBoundariesRejected(
      {{R"({"code": "deadlock", "cycle": @})", Int64OnePast},
       {R"({"code": "deadlock", "failed_device": @})", IntOnePast},
       {R"({"code": "deadlock", "components": [{"device": @}]})", IntOnePast},
       {R"({"code": "deadlock", "components": [{"stall_cycles": @}]})",
        Int64OnePast},
       {R"({"code": "deadlock", "components": [{"progress": @}]})",
        Int64OnePast},
       {R"({"code": "deadlock", "components": [{"total": @}]})",
        Int64OnePast},
       {R"({"code": "deadlock", "channels": [{"occupancy": @}]})",
        Int64OnePast},
       {R"({"code": "deadlock", "channels": [{"capacity": @}]})",
        Int64OnePast}},
      [](const std::string &Text) {
        return FailureReport::fromJsonText(Text);
      });
}

TEST(FailureReportTest, Fig4DiamondProducesStructuredDeadlock) {
  // The Fig. 4 regression: undersized channels on the diamond deadlock,
  // and the structured report names the full channel and the blocked
  // component with its attributed stall cause.
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
  EXPECT_EQ(Result.code(), ErrorCode::Deadlock);
  EXPECT_EQ(exitCodeFor(Result.code()), 3);

  // The structured report travels with the failure itself.
  const FailureReport &Failure = Result.error().report();
  EXPECT_EQ(Failure.Code, ErrorCode::Deadlock);
  EXPECT_FALSE(Failure.Component.empty());
  EXPECT_FALSE(Failure.Components.empty());
  ASSERT_FALSE(Failure.Channels.empty());
  // At least one adjacent channel is full at visible occupancy == capacity
  // — the cyclic resource dependency the paper's buffer analysis removes.
  bool AnyFull = false;
  for (const FailureChannel &Ch : Failure.Channels) {
    EXPECT_LE(Ch.Occupancy, Ch.Capacity);
    if (Ch.Full) {
      AnyFull = true;
      EXPECT_EQ(Ch.Occupancy, Ch.Capacity);
    }
  }
  EXPECT_TRUE(AnyFull);
  // The structured report survives a JSON round trip.
  auto Back = FailureReport::fromJson(Failure.toJson());
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_EQ(Back->Code, ErrorCode::Deadlock);
  EXPECT_EQ(Back->Channels.size(), Failure.Channels.size());
}

//===----------------------------------------------------------------------===//
// Reliable remote streams
//===----------------------------------------------------------------------===//

namespace {

/// Builds a multi-device partition of a Jacobi chain by budgeting
/// \p SplitAt nodes per device (7 DSPs per scalar node).
Partition makeSplitPartition(const CompiledProgram &Compiled,
                             const DataflowAnalysis &Dataflow, int SplitAt) {
  PartitionOptions Options;
  Options.TargetUtilization = 1.0;
  Options.Device.DSPs = 7 * Compiled.vectorWidth() * SplitAt;
  Options.MaxDevices = 64;
  auto Result = partitionProgram(Compiled, Dataflow, Options);
  EXPECT_TRUE(Result) << Result.message();
  return Result.takeValue();
}

struct TwoDeviceRun {
  Expected<SimResult, SimFailure> Result =
      Expected<SimResult, SimFailure>(SimResult{});
  std::map<std::string, std::vector<double>> Reference;
  FailureReport Failure;
};

/// Runs a two-device Jacobi chain under \p Config, returning the result
/// plus the reference-executor outputs.
TwoDeviceRun runTwoDeviceChain(SimConfig Config) {
  TwoDeviceRun Run;
  StencilProgram P = jacobi3dChain(6, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(P));
  EXPECT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = makeSplitPartition(*Compiled, *Dataflow, 3);
  EXPECT_EQ(Placement.numDevices(), 2u);
  Config.UnconstrainedMemory = true;
  auto M = Machine::build(*Compiled, *Dataflow, &Placement, Config);
  EXPECT_TRUE(M) << M.message();
  auto Inputs = materializeInputs(Compiled->program());
  Run.Result = M->run(Inputs);
  if (!Run.Result)
    Run.Failure = Run.Result.error().report();
  auto Reference = runReference(*Compiled, Inputs);
  EXPECT_TRUE(Reference);
  for (const std::string &Output : Compiled->program().Outputs)
    Run.Reference[Output] = Reference->field(Output);
  return Run;
}

} // namespace

TEST(ReliableStreamTest, EmptyPlanIsCycleAndBitExact) {
  // Attaching an empty plan switches the remote streams to the reliable
  // transport; with no faults scheduled, the run must be *identical* to
  // the plain transport — same cycle count, same bits, same peak
  // occupancies. This is the zero-overhead guarantee.
  SimConfig Plain;
  TwoDeviceRun Baseline = runTwoDeviceChain(Plain);
  ASSERT_TRUE(Baseline.Result) << Baseline.Result.message();

  FaultPlan Empty;
  SimConfig WithPlan;
  WithPlan.Faults = &Empty;
  TwoDeviceRun Reliable = runTwoDeviceChain(WithPlan);
  ASSERT_TRUE(Reliable.Result) << Reliable.Result.message();

  EXPECT_EQ(Reliable.Result->Stats.Cycles, Baseline.Result->Stats.Cycles);
  EXPECT_EQ(Reliable.Result->Termination, TerminationReason::Completed);
  for (const auto &[Name, Values] : Baseline.Result->Outputs) {
    const auto &Other = Reliable.Result->Outputs.at(Name);
    ASSERT_EQ(Other.size(), Values.size());
    for (size_t I = 0; I != Values.size(); ++I)
      EXPECT_EQ(Other[I], Values[I]) << Name << "[" << I << "]";
  }
  for (const auto &[Name, Peak] :
       Baseline.Result->Stats.ChannelPeakOccupancy)
    EXPECT_EQ(Reliable.Result->Stats.ChannelPeakOccupancy.at(Name), Peak)
        << Name;
  // No faults, no retransmissions.
  for (const auto &[Name, Link] : Reliable.Result->Stats.Links) {
    EXPECT_EQ(Link.Retransmissions, 0) << Name;
    EXPECT_EQ(Link.CorruptedVectors, 0) << Name;
    EXPECT_EQ(Link.Transmissions, Link.Delivered) << Name;
  }
}

TEST(ReliableStreamTest, TransientCorruptionIsAbsorbedBitExactly) {
  FaultPlan Plan;
  Plan.Seed = 7;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.Probability = 0.2;
  Corrupt.StartCycle = 0;
  Corrupt.EndCycle = std::numeric_limits<int64_t>::max();
  Plan.Events.push_back(Corrupt);

  SimConfig Config;
  Config.Faults = &Plan;
  TwoDeviceRun Run = runTwoDeviceChain(Config);
  ASSERT_TRUE(Run.Result) << Run.Result.message();
  EXPECT_EQ(Run.Result->Termination, TerminationReason::CompletedDegraded);

  // Bit-exact despite the in-flight corruption: the checksums caught every
  // bad vector and Go-Back-N replayed it.
  for (const auto &[Name, Values] : Run.Reference) {
    const auto &Sim = Run.Result->Outputs.at(Name);
    ASSERT_EQ(Sim.size(), Values.size());
    for (size_t I = 0; I != Values.size(); ++I)
      EXPECT_EQ(Sim[I], Values[I]) << Name << "[" << I << "]";
  }

  // Counter consistency: every transmission is either delivered or
  // replayed, and every NACK was triggered by a corrupted arrival.
  int64_t TotalRetransmissions = 0, TotalCorrupted = 0;
  for (const auto &[Name, Link] : Run.Result->Stats.Links) {
    EXPECT_EQ(Link.Transmissions - Link.Retransmissions, Link.Delivered)
        << Name;
    EXPECT_LE(Link.Nacks, Link.CorruptedVectors) << Name;
    TotalRetransmissions += Link.Retransmissions;
    TotalCorrupted += Link.CorruptedVectors;
  }
  EXPECT_GT(TotalCorrupted, 0);
  EXPECT_GT(TotalRetransmissions, 0);
}

TEST(ReliableStreamTest, PermanentCorruptionExhaustsRetransmitBudget) {
  FaultPlan Plan;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.Probability = 1.0; // Every transmission dies in flight.
  Plan.Events.push_back(Corrupt);

  SimConfig Config;
  Config.Faults = &Plan;
  Config.MaxRetransmitAttempts = 4;
  TwoDeviceRun Run = runTwoDeviceChain(Config);
  ASSERT_FALSE(Run.Result);
  EXPECT_EQ(Run.Result.code(), ErrorCode::LinkFailure);
  EXPECT_EQ(exitCodeFor(Run.Result.code()), 6);
  EXPECT_EQ(Run.Failure.Code, ErrorCode::LinkFailure);
  EXPECT_FALSE(Run.Failure.FailedChannel.empty());
}

TEST(ReliableStreamTest, DetectionOnlyModeAbortsOnFirstCorruption) {
  FaultPlan Plan;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.Probability = 1.0;
  Plan.Events.push_back(Corrupt);

  SimConfig Config;
  Config.Faults = &Plan;
  Config.ReliableStreams = false; // Detect, don't recover.
  TwoDeviceRun Run = runTwoDeviceChain(Config);
  ASSERT_FALSE(Run.Result);
  EXPECT_EQ(Run.Result.code(), ErrorCode::DataCorruption);
  EXPECT_EQ(exitCodeFor(Run.Result.code()), 7);
}

TEST(ReliableStreamTest, LinkDegradeSlowsButStaysCorrect) {
  FaultPlan Plan;
  FaultEvent Degrade;
  Degrade.Kind = FaultKind::LinkDegrade;
  Degrade.Hop = -1;
  Degrade.Factor = 0.1;
  Degrade.StartCycle = 0;
  Degrade.EndCycle = std::numeric_limits<int64_t>::max();
  Plan.Events.push_back(Degrade);

  SimConfig Baseline;
  TwoDeviceRun Fast = runTwoDeviceChain(Baseline);
  ASSERT_TRUE(Fast.Result);

  SimConfig Config;
  Config.Faults = &Plan;
  // At a tenth of the hop bandwidth (~3.3 B/cycle against an 8 B/cycle
  // stream) the crossing link cannot sustain one vector per cycle, so it
  // throttles the pipeline — but every bit still lands.
  TwoDeviceRun Slow = runTwoDeviceChain(Config);
  ASSERT_TRUE(Slow.Result) << Slow.Result.message();
  EXPECT_GT(Slow.Result->Stats.Cycles, Fast.Result->Stats.Cycles);
  for (const auto &[Name, Values] : Slow.Reference) {
    const auto &Sim = Slow.Result->Outputs.at(Name);
    for (size_t I = 0; I != Values.size(); ++I)
      ASSERT_EQ(Sim[I], Values[I]) << Name << "[" << I << "]";
  }
}

//===----------------------------------------------------------------------===//
// Watchdog, brownout, device loss
//===----------------------------------------------------------------------===//

TEST(WatchdogTest, PermanentOutageReportsStarvation) {
  // A permanent link outage starves the downstream device: upstream
  // keeps local progress for a while, so this is livelock/starvation,
  // not a deadlock — and only the watchdog can call it.
  FaultPlan Plan;
  FaultEvent Outage;
  Outage.Kind = FaultKind::LinkOutage;
  Outage.Hop = -1;
  Outage.StartCycle = 0;
  Outage.EndCycle = std::numeric_limits<int64_t>::max();
  Plan.Events.push_back(Outage);

  SimConfig Config;
  Config.Faults = &Plan;
  Config.StallTimeoutCycles = 2048;
  TwoDeviceRun Run = runTwoDeviceChain(Config);
  ASSERT_FALSE(Run.Result);
  EXPECT_EQ(Run.Result.code(), ErrorCode::Starvation);
  EXPECT_EQ(Run.Failure.Code, ErrorCode::Starvation);
  EXPECT_FALSE(Run.Failure.Components.empty());
}

TEST(WatchdogTest, MemoryBrownoutSlowsButCompletes) {
  StencilProgram P = laplace2d(24, 24);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);

  SimConfig Plain;
  Plain.UnconstrainedMemory = true;
  auto MFast = Machine::build(*Compiled, *Dataflow, nullptr, Plain);
  ASSERT_TRUE(MFast);
  auto Inputs = materializeInputs(Compiled->program());
  auto Fast = MFast->run(Inputs);
  ASSERT_TRUE(Fast);

  FaultPlan Plan;
  FaultEvent Brownout;
  Brownout.Kind = FaultKind::MemoryBrownout;
  Brownout.Device = 0;
  Brownout.Factor = 0.05; // 5% of peak DRAM bandwidth.
  Brownout.StartCycle = 0;
  Brownout.EndCycle = std::numeric_limits<int64_t>::max();
  Plan.Events.push_back(Brownout);
  SimConfig Config;
  Config.UnconstrainedMemory = true; // Brownout overrides this.
  Config.Faults = &Plan;
  auto MSlow = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(MSlow);
  auto Slow = MSlow->run(Inputs);
  ASSERT_TRUE(Slow) << Slow.message();
  EXPECT_GT(Slow->Stats.Cycles, Fast->Stats.Cycles);

  auto Reference = runReference(*Compiled, Inputs);
  for (const std::string &Output : Compiled->program().Outputs) {
    ValidationReport Report = validateField(
        Output, Slow->Outputs.at(Output), Reference->field(Output));
    EXPECT_TRUE(Report.Passed) << Report.Summary;
  }
}

TEST(DeviceLossTest, SingleDeviceFailureReportsDeviceLost) {
  FaultPlan Plan;
  FaultEvent Death;
  Death.Kind = FaultKind::DeviceFailure;
  Death.Device = 0;
  Death.StartCycle = 64;
  Plan.Events.push_back(Death);

  StencilProgram P = laplace2d(16, 16);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.Faults = &Plan;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::DeviceLost);
  EXPECT_EQ(Result.error().report().FailedDevice, 0);
  EXPECT_GE(Result.error().report().Cycle, 64);
}

TEST(DeviceLossTest, FailureReportTravelsWithTheSimFailure) {
  // The structured report arrives on the failure value itself — no
  // stateful second accessor on the machine (the deprecated shim that
  // once exposed the last run's report is gone).
  FaultPlan Plan;
  FaultEvent Death;
  Death.Kind = FaultKind::DeviceFailure;
  Death.Device = 0;
  Death.StartCycle = 64;
  Plan.Events.push_back(Death);

  StencilProgram P = laplace2d(16, 16);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.Faults = &Plan;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_FALSE(Result);
  const FailureReport &Report = Result.error().report();
  EXPECT_EQ(Report.Code, ErrorCode::DeviceLost);
  EXPECT_FALSE(Report.render().empty());
  EXPECT_EQ(Result.message(), Report.render());
}

TEST(DeviceLossTest, PipelineRecoversByRepartitioning) {
  // The graceful-degradation path: a two-device deployment loses device 1
  // mid-run; the failed node leaves the pool, the pipeline re-partitions
  // the DAG across the surviving pool (a spare takes its place), re-runs,
  // and still validates against the reference.
  FaultPlan Plan;
  FaultEvent Death;
  Death.Kind = FaultKind::DeviceFailure;
  Death.Device = 1;
  Death.StartCycle = 100;
  Plan.Events.push_back(Death);

  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Simulator.Faults = &Plan;
  // Budget 3 of the 6 chained stencils per device (cf. makeSplitPartition).
  Options.Partitioning.TargetUtilization = 1.0;
  Options.Partitioning.Device.DSPs = 7 * 3;
  Options.Partitioning.MaxDevices = 64;

  auto Result = runPipeline(jacobi3dChain(6, 4, 6, 6), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Recovery.Attempts, 2);
  EXPECT_EQ(Result->Recovery.DevicesLost, 1);
  EXPECT_FALSE(Result->Recovery.Log.empty());
  EXPECT_EQ(Result->Placement.numDevices(), 2u);
  EXPECT_TRUE(Result->ValidationPassed);
  EXPECT_EQ(Result->Simulation.Termination,
            sim::TerminationReason::Completed);
}

TEST(DeviceLossTest, RecoveryFailsWhenPoolIsExhausted) {
  // Same failure, but the testbed has exactly the two devices the
  // program needs: no spare, no feasible re-partition, so the device
  // loss propagates.
  FaultPlan Plan;
  FaultEvent Death;
  Death.Kind = FaultKind::DeviceFailure;
  Death.Device = 1;
  Death.StartCycle = 100;
  Plan.Events.push_back(Death);

  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Simulator.Faults = &Plan;
  Options.Partitioning.TargetUtilization = 1.0;
  Options.Partitioning.Device.DSPs = 7 * 3;
  Options.Partitioning.MaxDevices = 2;

  auto Result = runPipeline(jacobi3dChain(6, 4, 6, 6), Options);
  ASSERT_FALSE(Result);
  // The retry's re-partition cannot fit the program on the one remaining
  // node, and the classified infeasibility propagates to the caller.
  EXPECT_EQ(Result.code(), ErrorCode::Infeasible);
}

//===----------------------------------------------------------------------===//
// Pinned fault scenarios
//
// The ParallelFaultParityTest suite name is historical: these fault plans
// were once run against a second, threaded engine. Each now pins the exact
// outcome of the two-device chain (tests/common/SimDigest.h): a completed
// run's cycles, statistics and output bits, or a failed run's error code
// and structured report.
//===----------------------------------------------------------------------===//

namespace {

/// Runs the two-device chain under \p Config, checks the outputs of a
/// completed run against the reference, and asserts its digest.
TwoDeviceRun expectPinnedRun(SimConfig Config, uint64_t Digest) {
  TwoDeviceRun Run = runTwoDeviceChain(Config);
  if (Run.Result) {
    for (const auto &[Name, Values] : Run.Result->Outputs)
      EXPECT_EQ(Values, Run.Reference.at(Name)) << "output " << Name;
    EXPECT_EQ(simDigest(*Run.Result), Digest) << simDigestText(*Run.Result);
  } else {
    EXPECT_EQ(simDigest(Run.Result.error()), Digest)
        << simDigestText(Run.Result.error());
  }
  return Run;
}

} // namespace

TEST(ParallelFaultParityTest, EmptyReliablePlan) {
  FaultPlan Empty;
  SimConfig Config;
  Config.Faults = &Empty;
  TwoDeviceRun Run = expectPinnedRun(Config, 0x5cc7258d01c8f358ull);
  ASSERT_TRUE(Run.Result);
  EXPECT_EQ(Run.Result->Termination, TerminationReason::Completed);
}

TEST(ParallelFaultParityTest, TransientCorruption) {
  FaultPlan Plan;
  Plan.Seed = 7;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.Probability = 0.2;
  Corrupt.StartCycle = 0;
  Corrupt.EndCycle = std::numeric_limits<int64_t>::max();
  Plan.Events.push_back(Corrupt);
  SimConfig Config;
  Config.Faults = &Plan;
  TwoDeviceRun Run = expectPinnedRun(Config, 0xb12627e8ca0cca1eull);
  ASSERT_TRUE(Run.Result);
  EXPECT_EQ(Run.Result->Termination, TerminationReason::CompletedDegraded);
  EXPECT_EQ(Run.Result->Stats.Cycles, 1960);
}

TEST(ParallelFaultParityTest, CorruptionBurstThenCleanDrain) {
  FaultPlan Plan;
  Plan.Seed = 11;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.Probability = 0.5;
  Corrupt.StartCycle = 100;
  Corrupt.EndCycle = 220;
  Plan.Events.push_back(Corrupt);
  SimConfig Config;
  Config.Faults = &Plan;
  TwoDeviceRun Run = expectPinnedRun(Config, 0x5cc7258d01c8f358ull);
  ASSERT_TRUE(Run.Result);
}

TEST(ParallelFaultParityTest, MemoryBrownoutWindow) {
  FaultPlan Plan;
  FaultEvent Brownout;
  Brownout.Kind = FaultKind::MemoryBrownout;
  Brownout.Device = 0;
  Brownout.Factor = 0.1;
  Brownout.StartCycle = 50;
  Brownout.EndCycle = 400;
  Plan.Events.push_back(Brownout);
  SimConfig Config;
  Config.Faults = &Plan;
  expectPinnedRun(Config, 0x5cc7258d01c8f358ull);
}

TEST(ParallelFaultParityTest, LinkDegradeWindow) {
  FaultPlan Plan;
  FaultEvent Degrade;
  Degrade.Kind = FaultKind::LinkDegrade;
  Degrade.Hop = -1;
  Degrade.Factor = 0.1;
  Degrade.StartCycle = 0;
  Degrade.EndCycle = std::numeric_limits<int64_t>::max();
  Plan.Events.push_back(Degrade);
  SimConfig Config;
  Config.Faults = &Plan;
  expectPinnedRun(Config, 0x72a66cb57b0268b0ull);
}

TEST(ParallelFaultParityTest, DeviceFailureReportsMatch) {
  // The device-lost abort lands on the pinned cycle with the pinned
  // structured report.
  FaultPlan Plan;
  FaultEvent Death;
  Death.Kind = FaultKind::DeviceFailure;
  Death.Device = 1;
  Death.StartCycle = 300;
  Plan.Events.push_back(Death);
  SimConfig Config;
  Config.Faults = &Plan;
  TwoDeviceRun Run = expectPinnedRun(Config, 0x1a2902ffb1d85cf6ull);
  ASSERT_FALSE(Run.Result);
  EXPECT_EQ(Run.Result.code(), ErrorCode::DeviceLost);
  EXPECT_EQ(Run.Failure.FailedDevice, 1);
}

TEST(ParallelFaultParityTest, RetransmitExhaustionReportsMatch) {
  FaultPlan Plan;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.Probability = 1.0;
  Plan.Events.push_back(Corrupt);
  SimConfig Config;
  Config.Faults = &Plan;
  Config.MaxRetransmitAttempts = 4;
  TwoDeviceRun Run = expectPinnedRun(Config, 0x1d8e7b8fb4f90bc1ull);
  ASSERT_FALSE(Run.Result);
  EXPECT_EQ(Run.Result.code(), ErrorCode::LinkFailure);
}

TEST(ParallelFaultParityTest, WatchdogStarvationReportsMatch) {
  FaultPlan Plan;
  FaultEvent Outage;
  Outage.Kind = FaultKind::LinkOutage;
  Outage.Hop = -1;
  Outage.StartCycle = 0;
  Outage.EndCycle = std::numeric_limits<int64_t>::max();
  Plan.Events.push_back(Outage);
  SimConfig Config;
  Config.Faults = &Plan;
  Config.StallTimeoutCycles = 2048;
  TwoDeviceRun Run = expectPinnedRun(Config, 0x161aae9c4d18847eull);
  ASSERT_FALSE(Run.Result);
  EXPECT_EQ(Run.Result.code(), ErrorCode::Starvation);
}

TEST(DeviceLossTest, RecoveryCanBeDisabled) {
  FaultPlan Plan;
  FaultEvent Death;
  Death.Kind = FaultKind::DeviceFailure;
  Death.Device = 1;
  Death.StartCycle = 100;
  Plan.Events.push_back(Death);

  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Simulator.Faults = &Plan;
  Options.Partitioning.TargetUtilization = 1.0;
  Options.Partitioning.Device.DSPs = 7 * 3;
  Options.Partitioning.MaxDevices = 64;
  Options.RecoverFromDeviceLoss = false;

  auto Result = runPipeline(jacobi3dChain(6, 4, 6, 6), Options);
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::DeviceLost);
  EXPECT_EQ(exitCodeFor(Result.code()), 5);
}
