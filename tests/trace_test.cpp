//===- tests/trace_test.cpp - Observability layer tests ------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests of the simulator observability layer (sim/Trace.h): stall-cause
// attribution invariants, channel high-water semantics, and the Chrome
// trace / metrics CSV exports.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "core/Partitioner.h"
#include "runtime/InputData.h"
#include "sim/Machine.h"
#include "sim/Trace.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace stencilflow;
using namespace stencilflow::sim;
using namespace stencilflow::testing;

namespace {

struct BuiltSim {
  Expected<CompiledProgram> Compiled = makeError("unbuilt");
  Expected<DataflowAnalysis> Dataflow = makeError("unbuilt");
  Expected<Machine> M = makeError("unbuilt");
};

BuiltSim buildSim(StencilProgram Program, const SimConfig &Config,
                  const Partition *Placement = nullptr) {
  BuiltSim Sim;
  Sim.Compiled = CompiledProgram::compile(std::move(Program));
  EXPECT_TRUE(Sim.Compiled) << Sim.Compiled.message();
  Sim.Dataflow = analyzeDataflow(*Sim.Compiled);
  EXPECT_TRUE(Sim.Dataflow) << Sim.Dataflow.message();
  Sim.M = Machine::build(*Sim.Compiled, *Sim.Dataflow, Placement, Config);
  EXPECT_TRUE(Sim.M) << Sim.M.message();
  return Sim;
}

/// The core attribution invariant: every unit has a breakdown, and since
/// each stalled cycle is charged to exactly one cause, no count is
/// negative and a unit's stall total never exceeds the run's cycles.
void expectUnitStallsConsistent(const SimStats &Stats) {
  ASSERT_EQ(Stats.UnitStalls.size(), Stats.UnitKernelTiers.size());
  for (const auto &[Name, Stalls] : Stats.UnitStalls) {
    ASSERT_TRUE(Stats.UnitKernelTiers.count(Name)) << Name;
    for (int64_t Count : Stalls.Counts)
      EXPECT_GE(Count, 0) << "unit " << Name;
    EXPECT_LE(Stalls.total(), Stats.Cycles) << "unit " << Name;
  }
}

/// Two-device split of a chain (mirrors sim_test's helper).
Partition splitPartition(const CompiledProgram &Compiled,
                         const DataflowAnalysis &Dataflow, int PerDevice) {
  PartitionOptions Options;
  Options.TargetUtilization = 1.0;
  Options.Device.DSPs =
      7 * Compiled.vectorWidth() * PerDevice;
  Options.MaxDevices = 64;
  auto Result = partitionProgram(Compiled, Dataflow, Options);
  EXPECT_TRUE(Result) << Result.message();
  return Result.takeValue();
}

} // namespace

//===----------------------------------------------------------------------===//
// Stall attribution
//===----------------------------------------------------------------------===//

TEST(StallAttributionTest, CausesSumOnDiamondUnconstrained) {
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  BuiltSim Sim = buildSim(diamondProgram(16, 16), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  expectUnitStallsConsistent(Result->Stats);
}

TEST(StallAttributionTest, CausesSumOnDiamondConstrained) {
  SimConfig Config;
  Config.UnconstrainedMemory = false;
  Config.PeakMemoryBytesPerCycle = 6.0; // Heavily starved.
  BuiltSim Sim = buildSim(diamondProgram(16, 16), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  expectUnitStallsConsistent(Result->Stats);

  // Starved readers stall on memory; the units downstream starve on
  // inputs. Both must show up in the attribution.
  StallBreakdown Readers;
  for (const auto &[Name, Stalls] : Result->Stats.ReaderStalls)
    Readers += Stalls;
  EXPECT_GT(Readers[StallCause::MemoryDenied], 0);
  StallBreakdown Units;
  for (const auto &[Name, Stalls] : Result->Stats.UnitStalls)
    Units += Stalls;
  EXPECT_GT(Units[StallCause::InputStarved], 0);
}

TEST(StallAttributionTest, CausesSumOnRandomPrograms) {
  for (uint64_t Seed = 200; Seed <= 220; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    SimConfig Config; // Constrained DDR4 model.
    BuiltSim Sim = buildSim(randomProgram(Seed), Config);
    auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
    ASSERT_TRUE(Result) << Result.message();
    expectUnitStallsConsistent(Result->Stats);
  }
}

TEST(StallAttributionTest, TraceStallIntervalsMatchBreakdowns) {
  // A stalled cycle is charged and traced in one place: on every
  // component's timeline the "stall:<cause>" intervals last exactly as
  // many cycles as its breakdown charged to that cause.
  for (uint64_t Seed = 200; Seed <= 205; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    Tracer T;
    SimConfig Config;
    Config.PeakMemoryBytesPerCycle = 6.0; // Starved: every kind stalls.
    Config.Trace = &T;
    BuiltSim Sim = buildSim(randomProgram(Seed), Config);
    auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
    ASSERT_TRUE(Result) << Result.message();

    // Single device: track names are unique.
    std::map<std::string, StallBreakdown> Want;
    for (const auto &[Name, Stalls] : Result->Stats.UnitStalls)
      Want["unit " + Name] = Stalls;
    for (const auto &[Name, Stalls] : Result->Stats.ReaderStalls)
      Want["read " + Name.substr(0, Name.find('@'))] = Stalls;
    for (const auto &[Name, Stalls] : Result->Stats.WriterStalls)
      Want["write " + Name] = Stalls;

    auto Parsed = json::parse(T.chromeTraceJson());
    ASSERT_TRUE(Parsed) << Parsed.message();
    const std::vector<json::Value> &Events =
        Parsed->getObject().get("traceEvents")->getArray();
    std::map<double, std::string> TrackOf; // tid -> track name.
    for (const json::Value &Event : Events) {
      const json::Object &Obj = Event.getObject();
      if (Obj.get("ph")->getString() == "M" &&
          Obj.get("name")->getString() == "thread_name")
        TrackOf[Obj.get("tid")->getNumber()] =
            Obj.get("args")->getObject().get("name")->getString();
    }
    std::map<std::string, StallBreakdown> Traced;
    for (const json::Value &Event : Events) {
      const json::Object &Obj = Event.getObject();
      const std::string &State = Obj.get("name")->getString();
      if (Obj.get("ph")->getString() != "X" || State.rfind("stall:", 0) != 0)
        continue;
      int Cause = 0;
      while (Cause != NumStallCauses &&
             State.substr(6) !=
                 stallCauseName(static_cast<StallCause>(Cause)))
        ++Cause;
      ASSERT_NE(Cause, NumStallCauses) << State;
      Traced[TrackOf.at(Obj.get("tid")->getNumber())].Counts[Cause] +=
          json::toInteger<int64_t>(Obj.get("dur")->getNumber()).value_or(-1);
    }
    ASSERT_EQ(Want.size(), TrackOf.size());
    StallBreakdown All;
    for (const auto &[Track, Stalls] : Want) {
      All += Stalls;
      for (int Cause = 0; Cause != NumStallCauses; ++Cause)
        EXPECT_EQ(Traced[Track].Counts[Cause], Stalls.Counts[Cause])
            << Track << " "
            << stallCauseName(static_cast<StallCause>(Cause));
    }
    EXPECT_GT(All[StallCause::MemoryDenied], 0);
    EXPECT_GT(All[StallCause::InputStarved], 0);
  }
}

TEST(StallAttributionTest, WriterInitAttributedAsInputStarved) {
  // With unconstrained memory the only reason the writer waits is that
  // the pipeline has not produced data yet (initialization latency).
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  BuiltSim Sim = buildSim(laplace2d(16, 16), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  ASSERT_EQ(Result->Stats.WriterStalls.size(), 1u);
  const StallBreakdown &W = Result->Stats.WriterStalls.begin()->second;
  EXPECT_GT(W[StallCause::InputStarved], 0);
  EXPECT_EQ(W[StallCause::InputStarved], W.total());
}

TEST(StallAttributionTest, ThrottledNetworkShowsNetworkStalls) {
  StencilProgram P = jacobi3dChain(4, 4, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  Partition Placement = splitPartition(*Compiled, *Dataflow, 2);
  ASSERT_EQ(Placement.numDevices(), 2u);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.LinkBytesPerCycle = 1.0; // ~0.5 vectors/cycle across the hop.
  auto M = Machine::build(*Compiled, *Dataflow, &Placement, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  expectUnitStallsConsistent(Result->Stats);
  // The unit feeding the crossing stream is throttled by the link.
  StallBreakdown Units;
  for (const auto &[Name, Stalls] : Result->Stats.UnitStalls)
    Units += Stalls;
  EXPECT_GT(Units[StallCause::NetworkDenied], 0);
}

//===----------------------------------------------------------------------===//
// Channel high-water semantics
//===----------------------------------------------------------------------===//

TEST(ChannelHighWaterTest, FullAtFirstBurstIsCounted) {
  Channel C("c", 2, 1);
  double V = 1.0;
  C.push(&V, 0);
  C.push(&V, 0);
  EXPECT_TRUE(C.full());
  EXPECT_EQ(C.highWaterMark(), 2);
  EXPECT_EQ(C.peakOccupancy(), 2);
}

TEST(ChannelHighWaterTest, VisibleHighWaterExcludesInFlight) {
  Channel C("c", 8, 1, /*ArrivalLatency=*/10);
  double V = 1.0;
  C.push(&V, 0);
  C.push(&V, 1);
  C.push(&V, 2);
  // All three vectors are still on the wire: physically enqueued, but
  // invisible to the consumer.
  EXPECT_EQ(C.peakOccupancy(), 3);
  EXPECT_EQ(C.highWaterMark(), 0);
  // After maturation the consumer drains them; the visible high-water
  // mark is folded in at pop time.
  ASSERT_TRUE(C.readable(12));
  double Out;
  C.pop(&Out, 12);
  EXPECT_EQ(C.highWaterMark(), 3);
  EXPECT_EQ(C.peakOccupancy(), 3);
}

TEST(ChannelHighWaterTest, MixedMaturityCountsOnlyMatured) {
  Channel C("c", 8, 1, /*ArrivalLatency=*/4);
  double V = 1.0;
  C.push(&V, 0); // Ready at 4.
  C.push(&V, 1); // Ready at 5.
  C.push(&V, 6); // Ready at 10: first two matured, this one in flight.
  EXPECT_EQ(C.highWaterMark(), 2);
  EXPECT_EQ(C.peakOccupancy(), 3);
}

TEST(ChannelHighWaterTest, DiamondHighWaterWithinAnalysisDepth) {
  // Per the buffer-sizing guarantee (Sec. IV-B): no streamed edge ever
  // needs more than its computed delay-buffer depth plus the constant
  // pipelining slack, and the observed high water stays within the
  // allocated capacity.
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  BuiltSim Sim = buildSim(diamondProgram(24, 24), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  for (const DataflowEdge &Edge : Sim.Dataflow->Edges) {
    std::string Name = Edge.Source + "->" + Edge.Consumer;
    auto It = Result->Stats.Channels.find(Name);
    ASSERT_NE(It, Result->Stats.Channels.end()) << Name;
    const ChannelStats &Channel = It->second;
    EXPECT_LE(Channel.HighWater, Edge.BufferDepth + Config.MinChannelDepth)
        << Name;
    // Visible high water never exceeds the physical peak, which never
    // exceeds the allocated capacity.
    EXPECT_LE(Channel.HighWater, Channel.PeakOccupancy);
    EXPECT_LE(Channel.PeakOccupancy, Channel.Capacity);
  }
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

namespace {

/// Runs the diamond with a tracer attached and returns (trace, cycles).
std::pair<json::Value, int64_t> traceDiamond(Tracer &T) {
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.Trace = &T;
  BuiltSim Sim = buildSim(diamondProgram(16, 16), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  EXPECT_TRUE(Result) << Result.message();
  auto Parsed = json::parse(T.chromeTraceJson());
  EXPECT_TRUE(Parsed) << Parsed.message();
  return {Parsed.takeValue(), Result->Stats.Cycles};
}

} // namespace

TEST(ChromeTraceTest, ProducesValidEventStream) {
  Tracer T(/*SampleStride=*/8);
  auto [Trace, Cycles] = traceDiamond(T);
  ASSERT_TRUE(Trace.isObject());
  const json::Value *Events = Trace.getObject().get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  int Metadata = 0, Complete = 0, Counter = 0;
  bool SawUnitTrack = false, SawStateEvent = false;
  for (const json::Value &Event : Events->getArray()) {
    ASSERT_TRUE(Event.isObject());
    const json::Object &Obj = Event.getObject();
    const std::string &Phase = Obj.get("ph")->getString();
    if (Phase == "M") {
      ++Metadata;
      if (Obj.get("name")->getString() == "thread_name" &&
          Obj.get("args")->getObject().get("name")->getString() ==
              "unit A")
        SawUnitTrack = true;
    } else if (Phase == "X") {
      ++Complete;
      int64_t Ts =
          json::toInteger<int64_t>(Obj.get("ts")->getNumber()).value_or(-1);
      int64_t Dur =
          json::toInteger<int64_t>(Obj.get("dur")->getNumber()).value_or(0);
      EXPECT_GE(Ts, 0);
      EXPECT_GT(Dur, 0);
      EXPECT_LE(Ts + Dur, Cycles);
      const std::string &Name = Obj.get("name")->getString();
      if (Name == "active" || Name == "init" || Name == "drain")
        SawStateEvent = true;
    } else if (Phase == "C") {
      ++Counter;
      EXPECT_TRUE(Obj.get("args")->isObject());
    }
  }
  EXPECT_GT(Metadata, 0);
  EXPECT_GT(Complete, 0);
  EXPECT_GT(Counter, 0);
  EXPECT_TRUE(SawUnitTrack);
  EXPECT_TRUE(SawStateEvent);
  EXPECT_EQ(json::toInteger<int64_t>(Trace.getObject()
                                         .get("otherData")
                                         ->getObject()
                                         .get("cycles")
                                         ->getNumber()),
            std::optional<int64_t>(Cycles));
}

TEST(ChromeTraceTest, RerunResetsTheRecording) {
  Tracer T;
  auto [First, FirstCycles] = traceDiamond(T);
  auto [Second, SecondCycles] = traceDiamond(T);
  EXPECT_EQ(FirstCycles, SecondCycles);
  // The second run replaces the first instead of appending to it.
  EXPECT_EQ(First.getObject().get("traceEvents")->getArray().size(),
            Second.getObject().get("traceEvents")->getArray().size());
}

TEST(ChromeTraceTest, DeadlockedRunStillProducesATrace) {
  Tracer T;
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.ClampChannelsToMinimum = true;
  Config.MinChannelDepth = 4;
  Config.Trace = &T;
  BuiltSim Sim = buildSim(diamondProgram(32, 32), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.message().find("deadlock"), std::string::npos);
  auto Parsed = json::parse(T.chromeTraceJson());
  ASSERT_TRUE(Parsed) << Parsed.message();
  // The stuck components' stall intervals are visible in the trace.
  bool SawStall = false;
  for (const json::Value &Event :
       Parsed->getObject().get("traceEvents")->getArray()) {
    const json::Object &Obj = Event.getObject();
    if (Obj.get("ph")->getString() == "X" &&
        Obj.get("name")->getString().rfind("stall:", 0) == 0)
      SawStall = true;
  }
  EXPECT_TRUE(SawStall);
}

TEST(ChromeTraceTest, DisabledTracingRecordsNothing) {
  // The default config carries no tracer; the run must not touch one.
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  ASSERT_EQ(Config.Trace, nullptr);
  BuiltSim Sim = buildSim(diamondProgram(8, 8), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  // Attribution stays on regardless of tracing.
  expectUnitStallsConsistent(Result->Stats);
}

//===----------------------------------------------------------------------===//
// Metrics CSV export
//===----------------------------------------------------------------------===//

TEST(MetricsCsvTest, TidyFormatCoversAllSections) {
  SimConfig Config;
  Config.UnconstrainedMemory = false;
  Config.PeakMemoryBytesPerCycle = 6.0;
  BuiltSim Sim = buildSim(diamondProgram(16, 16), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  std::string Csv = formatMetricsCsv(Result->Stats);

  EXPECT_EQ(Csv.rfind("section,name,metric,value\n", 0), 0u);
  EXPECT_NE(Csv.find("\nsim,total,cycles,"), std::string::npos);
  EXPECT_NE(Csv.find("\ndevice,0,memory_bytes,"), std::string::npos);
  EXPECT_NE(Csv.find("\nunit,A,stall.input-starved,"), std::string::npos);
  EXPECT_NE(Csv.find("\nreader,in@0,stall.memory-denied,"),
            std::string::npos);
  EXPECT_NE(Csv.find("\nwriter,C,stall_cycles,"), std::string::npos);
  EXPECT_NE(Csv.find("\nchannel,A->C,high_water,"), std::string::npos);
  EXPECT_NE(Csv.find("\nchannel,A->C,capacity,"), std::string::npos);

  // Every data row has exactly three commas (tidy long format).
  size_t Start = Csv.find('\n') + 1;
  while (Start < Csv.size()) {
    size_t End = Csv.find('\n', Start);
    std::string Line = Csv.substr(Start, End - Start);
    EXPECT_EQ(std::count(Line.begin(), Line.end(), ','), 3) << Line;
    Start = End + 1;
  }
}

TEST(MetricsCsvTest, StallRowsMatchStats) {
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  BuiltSim Sim = buildSim(laplace2d(12, 12), Config);
  auto Result = Sim.M->run(materializeInputs(Sim.Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  const StallBreakdown &W = Result->Stats.WriterStalls.begin()->second;
  std::string Csv = formatMetricsCsv(Result->Stats);
  std::string Expected =
      formatString("writer,b,stall.input-starved,%lld",
                   static_cast<long long>(W[StallCause::InputStarved]));
  EXPECT_NE(Csv.find(Expected), std::string::npos) << Csv;
}

//===----------------------------------------------------------------------===//
// writeTextFileAtomic
//===----------------------------------------------------------------------===//

TEST(WriteTextFileTest, RoundTripsContent) {
  std::string Path = ::testing::TempDir() + "/sf_trace_roundtrip.txt";
  // Any bytes, embedded NULs included, and a second write replaces the
  // first rather than appending to it.
  std::string Text("line one\nline two\n\0tail", 23);
  ASSERT_FALSE(writeTextFileAtomic(Path, "stale content that is longer"));
  Error Err = writeTextFileAtomic(Path, Text);
  EXPECT_FALSE(Err) << Err.message();
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  std::string Read(Text.size() + 16, '\0');
  Read.resize(std::fread(Read.data(), 1, Read.size(), File));
  std::fclose(File);
  std::remove(Path.c_str());
  EXPECT_EQ(Read, Text);
}

TEST(WriteTextFileTest, OpenFailureNamesThePathAndCause) {
  Error Err = writeTextFileAtomic("/nonexistent-sf-dir/out.txt", "x");
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.message().find("/nonexistent-sf-dir/out.txt"),
            std::string::npos)
      << Err.message();
  // The errno context (ENOENT) must be part of the diagnostic.
  EXPECT_NE(Err.message().find("No such file or directory"),
            std::string::npos)
      << Err.message();
}
