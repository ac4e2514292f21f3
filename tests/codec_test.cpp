//===- tests/codec_test.cpp - Persisted JSON documents --------------------===//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the exact bytes of every JSON document the product persists or
// puts on the wire (tuning reports, Chrome traces, failure reports, serve
// responses and stats) as FNV-1a digests, so a serializer change that
// moves one byte fails here; and checks that each codec's values survive
// their own text: decode(encode(x)) keeps every field, at the 64-bit
// values a double cannot hold and at doubles with no short decimal form,
// and re-encoding the decoded value gives the same text.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "core/DataflowAnalysis.h"
#include "frontend/ProgramLoader.h"
#include "fuzz/Differential.h"
#include "runtime/InputData.h"
#include "runtime/Session.h"
#include "serve/Server.h"
#include "sim/Checkpoint.h"
#include "sim/Fault.h"
#include "sim/Machine.h"
#include "tuner/Tuner.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

using namespace stencilflow;
using namespace stencilflow::testing;

namespace {

uint64_t digest(const std::string &Text) {
  return sim::fnv1a(Text.data(), Text.size());
}
uint64_t digest(const json::Value &V) { return digest(V.toString()); }

/// Seeds and CRCs at the edges of what a double holds exactly.
constexpr uint64_t WideValues[] = {0, 1ull << 53, (1ull << 53) + 1,
                                   std::numeric_limits<uint64_t>::max()};

/// Doubles whose shortest decimal text is not exact.
constexpr double Fractions[] = {0.1, 1.0 / 3.0};

/// The Fig. 4 deadlock: undersized channels on the reconvergent diamond.
sim::FailureReport diamondDeadlock() {
  auto Compiled = CompiledProgram::compile(diamondProgram(32, 32));
  EXPECT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.ClampChannelsToMinimum = true;
  Config.MinChannelDepth = 4;
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  EXPECT_TRUE(M) << M.message();
  auto Result = M->run(materializeInputs(Compiled->program()));
  EXPECT_FALSE(Result);
  return Result.error().report();
}

} // namespace

//===----------------------------------------------------------------------===//
// Pinned documents
//===----------------------------------------------------------------------===//

// Every digest here was captured from the streaming JSON writer that these
// documents were emitted through before json::Value became the only
// serializer; the rewrite must not move a byte.

TEST(DocumentDigestTest, TuningReports) {
  struct Case {
    const char *Name;
    StencilProgram Program;
    uint64_t Digest;
  };
  Case Cases[] = {
      {"diffusion2d", workloads::diffusion2dChain(4, 16, 16),
       0x61199711daa776e9ull},
      {"jacobi3d", workloads::jacobi3dChain(4, 4, 8, 8),
       0x564fc5cadd203e3full},
      {"hdiff", workloads::horizontalDiffusion(4, 8, 8),
       0x9f8580cd347b09ecull},
  };
  for (Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    Session S = Session::fromProgram(std::move(C.Program));
    S.unconstrainedMemory(true);
    tuner::TuneOptions Opts;
    Opts.Space.DeviceCounts = {1, 2};
    Opts.Search.CandidateBudget = 16;
    Opts.TopK = 2;
    Opts.Workers = 2;
    Expected<tuner::TuningOutcome> Out = S.tune(Opts);
    ASSERT_TRUE(Out) << Out.message();
    EXPECT_EQ(digest(Out->Report.toJson()), C.Digest)
        << Out->Report.toJson();
  }
}

TEST(DocumentDigestTest, ChromeTraces) {
  struct Case {
    const char *Name;
    StencilProgram Program;
    uint64_t Digest;
  };
  Case Cases[] = {
      {"laplace2d", laplace2d(16, 16), 0x6289a81b9e500201ull},
      {"diamond", diamondProgram(16, 16), 0xf0ef9eeeecb37856ull},
  };
  for (Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    Session S = Session::fromProgram(std::move(C.Program));
    S.unconstrainedMemory(true).trace(/*SampleStride=*/4);
    auto Result = S.run();
    ASSERT_TRUE(Result) << Result.message();
    EXPECT_EQ(digest(S.tracer()->chromeTraceJson()), C.Digest);
  }
}

TEST(DocumentDigestTest, DeadlockFailureReport) {
  sim::FailureReport Report = diamondDeadlock();
  EXPECT_EQ(Report.Code, ErrorCode::Deadlock);
  EXPECT_EQ(digest(Report.toJson()), 0xf1b1f9ebd2d73ef6ull) << Report.render();
}

TEST(DocumentDigestTest, ServeResponsesAndStats) {
  serve::Response Success;
  Success.Id = "ok1";
  Success.Ok = true;
  Success.CacheHit = false;
  Success.Cycles = 4240;
  Success.Devices = 2;
  Success.FrequencyMHz = 316.5;
  Success.ValidationPassed = true;
  Success.OutputsCrc = 0xeaceeb4720cb410aull;
  Success.KernelTiers = "specialized x1";
  Success.QueueMicros = 12;
  Success.CompileMicros = 55;
  Success.ExecuteMicros = 1234567;
  EXPECT_EQ(digest(Success.toJsonText()), 0x1b6265194aecd9b0ull)
      << Success.toJsonText();

  serve::Response Plain = serve::Response::failure(
      "err1", makeError(ErrorCode::Overloaded,
                        "admission queue is full: \"tenant\"\n"));
  EXPECT_EQ(digest(Plain.toJsonText()), 0xbf29a74859d8de93ull)
      << Plain.toJsonText();

  sim::FailureReport Report = diamondDeadlock();
  serve::Response Reported = serve::Response::failure(
      "dead", makeError(ErrorCode::Deadlock, Report.render()));
  Reported.Failure = Report;
  EXPECT_EQ(digest(Reported.toJsonText()), 0x8f6e264169229804ull)
      << Reported.toJsonText();

  serve::ServeStats Stats;
  Stats.Received = 1000;
  Stats.Completed = 990;
  Stats.Failed = 4;
  Stats.Shed = 5;
  Stats.Rejected = 1;
  Stats.CacheHits = 900;
  Stats.CacheMisses = 90;
  Stats.CacheEvictions = 10;
  Stats.CacheSize = 64;
  Stats.QueueDepth = 3;
  Stats.QueueHighWater = 17;
  Stats.DevicesBusy = 2;
  Stats.DevicesBusyHighWater = 8;
  EXPECT_EQ(digest(Stats.toJson()), 0x15b6727dfe36feb2ull)
      << Stats.toJson().toString();
}

//===----------------------------------------------------------------------===//
// Codec round trips
//===----------------------------------------------------------------------===//

TEST(CodecRoundTripTest, FaultPlan) {
  for (uint64_t Seed : WideValues)
    for (double F : Fractions) {
      sim::FaultPlan Plan;
      Plan.Seed = Seed;
      sim::FaultEvent Brownout;
      Brownout.Kind = sim::FaultKind::MemoryBrownout;
      Brownout.StartCycle = 10;
      Brownout.EndCycle = 20;
      Brownout.Device = 1;
      Brownout.Factor = F;
      sim::FaultEvent Degrade;
      Degrade.Kind = sim::FaultKind::LinkDegrade;
      Degrade.StartCycle = 5;
      Degrade.Hop = 2;
      Degrade.Factor = 1.0 - F;
      sim::FaultEvent Corruption;
      Corruption.Kind = sim::FaultKind::PayloadCorruption;
      Corruption.EndCycle = 1000;
      Corruption.Probability = F;
      sim::FaultEvent Loss;
      Loss.Kind = sim::FaultKind::DeviceFailure;
      Loss.StartCycle = 30;
      Loss.Device = 3;
      Plan.Events = {Brownout, Degrade, Corruption, Loss};

      std::string Text = Plan.toJson().toString();
      Expected<sim::FaultPlan> Back = sim::FaultPlan::fromJsonText(Text);
      ASSERT_TRUE(Back) << Back.message() << "\n" << Text;
      EXPECT_EQ(Back->Seed, Seed) << Text;
      ASSERT_EQ(Back->Events.size(), Plan.Events.size());
      for (size_t I = 0; I != Plan.Events.size(); ++I) {
        const sim::FaultEvent &A = Plan.Events[I], &B = Back->Events[I];
        EXPECT_EQ(B.Kind, A.Kind) << I;
        EXPECT_EQ(B.StartCycle, A.StartCycle) << I;
        EXPECT_EQ(B.EndCycle, A.EndCycle) << I;
        EXPECT_EQ(B.Device, A.Device) << I;
        EXPECT_EQ(B.Hop, A.Hop) << I;
        EXPECT_EQ(B.Factor, A.Factor) << I;
        EXPECT_EQ(B.Probability, A.Probability) << I;
      }
      EXPECT_EQ(Back->toJson().toString(), Text);
    }
}

TEST(CodecRoundTripTest, FailureReport) {
  sim::FailureReport Report = diamondDeadlock();
  Report.FailedDevice = 2;
  Report.FailedChannel = "A->\"C\"\n";
  json::Value Encoded = Report.toJson();
  Expected<sim::FailureReport> Back = sim::FailureReport::fromJson(Encoded);
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_EQ(Back->Code, Report.Code);
  EXPECT_EQ(Back->Cycle, Report.Cycle);
  EXPECT_EQ(Back->Component, Report.Component);
  EXPECT_EQ(Back->DominantCause, Report.DominantCause);
  EXPECT_EQ(Back->FailedDevice, Report.FailedDevice);
  EXPECT_EQ(Back->FailedChannel, Report.FailedChannel);
  ASSERT_EQ(Back->Components.size(), Report.Components.size());
  for (size_t I = 0; I != Report.Components.size(); ++I) {
    const sim::FailureComponent &A = Report.Components[I],
                                &B = Back->Components[I];
    EXPECT_EQ(B.Name, A.Name);
    EXPECT_EQ(B.Kind, A.Kind);
    EXPECT_EQ(B.Device, A.Device);
    EXPECT_EQ(B.Cause, A.Cause);
    EXPECT_EQ(B.StallCycles, A.StallCycles);
    EXPECT_EQ(B.Progress, A.Progress);
    EXPECT_EQ(B.Total, A.Total);
  }
  ASSERT_EQ(Back->Channels.size(), Report.Channels.size());
  for (size_t I = 0; I != Report.Channels.size(); ++I) {
    const sim::FailureChannel &A = Report.Channels[I], &B = Back->Channels[I];
    EXPECT_EQ(B.Name, A.Name);
    EXPECT_EQ(B.Occupancy, A.Occupancy);
    EXPECT_EQ(B.Capacity, A.Capacity);
    EXPECT_EQ(B.Full, A.Full);
  }
  // Through text too, as the serve protocol carries it.
  std::string Text = Encoded.toString();
  Expected<sim::FailureReport> FromText =
      sim::FailureReport::fromJsonText(Text);
  ASSERT_TRUE(FromText) << FromText.message();
  EXPECT_EQ(FromText->toJson().toString(), Text);
}

TEST(CodecRoundTripTest, FuzzFindingAndDiffConfig) {
  for (uint64_t Wide : WideValues) {
    fuzz::FuzzFinding Finding;
    Finding.Kind = fuzz::FindingKind::ErrorAsymmetry;
    Finding.Seed = Wide;
    Finding.Config.Kernel = "scalar";
    Finding.Config.TemporalDegree = 4;
    Finding.Config.Faults = true;
    Finding.Config.Resume = true;
    Finding.Detail = "crc \"mismatch\"\tafter resume";
    Finding.ExpectedCrc = Wide;
    Finding.ActualCrc = ~Wide;
    Finding.Program = laplace2d(8, 8);

    std::string Text = Finding.toJson().toString();
    Expected<json::Value> Parsed = json::parse(Text);
    ASSERT_TRUE(Parsed) << Parsed.message();
    Expected<fuzz::FuzzFinding> Back = fuzz::FuzzFinding::fromJson(*Parsed);
    ASSERT_TRUE(Back) << Back.message();
    EXPECT_EQ(Back->Kind, Finding.Kind);
    EXPECT_EQ(Back->Seed, Wide);
    EXPECT_EQ(Back->Config.id(), Finding.Config.id());
    EXPECT_EQ(Back->Detail, Finding.Detail);
    EXPECT_EQ(Back->ExpectedCrc, Wide);
    EXPECT_EQ(Back->ActualCrc, ~Wide);
    EXPECT_EQ(programToJson(Back->Program).toString(),
              programToJson(Finding.Program).toString());
    EXPECT_EQ(Back->toJson().toString(), Text);

    Expected<fuzz::DiffConfig> Config =
        fuzz::DiffConfig::fromJson(Finding.Config.toJson());
    ASSERT_TRUE(Config) << Config.message();
    EXPECT_EQ(Config->toJson().toString(),
              Finding.Config.toJson().toString());
  }
}

TEST(CodecRoundTripTest, ServeRequest) {
  for (double F : Fractions) {
    serve::Request R;
    R.Id = "tenant \"7\"";
    R.Program = programToJson(laplace2d(8, 8));
    R.Options.Fuse = true;
    R.Options.Vectorize = 4;
    R.Options.TemporalDegree = 2;
    R.Options.MaxDevices = 3;
    R.Options.TargetUtilization = F;
    R.Options.KernelExec = compute::KernelEngine::Scalar;
    R.Options.Validate = false;
    R.Options.Tune = true;
    R.Options.TuneBudget = 9;

    std::string Text = R.toJsonText();
    Expected<serve::Request> Back = serve::Request::fromJsonText(Text);
    ASSERT_TRUE(Back) << Back.message();
    EXPECT_EQ(Back->Id, R.Id);
    EXPECT_EQ(Back->Op, R.Op);
    EXPECT_EQ(Back->Program.toString(), R.Program.toString());
    EXPECT_EQ(Back->Options.Fuse, R.Options.Fuse);
    EXPECT_EQ(Back->Options.Simplify, R.Options.Simplify);
    EXPECT_EQ(Back->Options.Vectorize, R.Options.Vectorize);
    EXPECT_EQ(Back->Options.TemporalDegree, R.Options.TemporalDegree);
    EXPECT_EQ(Back->Options.MaxDevices, R.Options.MaxDevices);
    EXPECT_EQ(Back->Options.TargetUtilization, F);
    EXPECT_EQ(Back->Options.KernelExec, R.Options.KernelExec);
    EXPECT_EQ(Back->Options.Validate, R.Options.Validate);
    EXPECT_EQ(Back->Options.Tune, R.Options.Tune);
    EXPECT_EQ(Back->Options.TuneBudget, R.Options.TuneBudget);
    EXPECT_EQ(Back->toJsonText(), Text);
  }
}

TEST(CodecRoundTripTest, ServeResponse) {
  for (uint64_t Crc : WideValues)
    for (double F : Fractions) {
      serve::Response R;
      R.Id = "run";
      R.Ok = true;
      R.CacheHit = true;
      R.Cycles = 4240;
      R.Devices = 2;
      R.FrequencyMHz = 300.0 + F;
      R.ValidationPassed = true;
      R.OutputsCrc = Crc;
      R.KernelTiers = "specialized x2";
      R.QueueMicros = 1;
      R.CompileMicros = 2;
      R.ExecuteMicros = 3;

      std::string Text = R.toJsonText();
      Expected<serve::Response> Back = serve::Response::fromJsonText(Text);
      ASSERT_TRUE(Back) << Back.message();
      EXPECT_EQ(Back->Id, R.Id);
      EXPECT_TRUE(Back->Ok);
      EXPECT_EQ(Back->CacheHit, R.CacheHit);
      EXPECT_EQ(Back->Cycles, R.Cycles);
      EXPECT_EQ(Back->Devices, R.Devices);
      EXPECT_EQ(Back->FrequencyMHz, R.FrequencyMHz);
      EXPECT_EQ(Back->ValidationPassed, R.ValidationPassed);
      EXPECT_EQ(Back->OutputsCrc, Crc);
      EXPECT_EQ(Back->KernelTiers, R.KernelTiers);
      EXPECT_EQ(Back->QueueMicros, R.QueueMicros);
      EXPECT_EQ(Back->CompileMicros, R.CompileMicros);
      EXPECT_EQ(Back->ExecuteMicros, R.ExecuteMicros);
      EXPECT_EQ(Back->toJsonText(), Text);
    }

  // A failure that carries the simulator's report.
  sim::FailureReport Report = diamondDeadlock();
  serve::Response Failed = serve::Response::failure(
      "dead", makeError(ErrorCode::Deadlock, Report.render()));
  Failed.Failure = Report;
  std::string Text = Failed.toJsonText();
  Expected<serve::Response> Back = serve::Response::fromJsonText(Text);
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_FALSE(Back->Ok);
  EXPECT_EQ(Back->Code, ErrorCode::Deadlock);
  EXPECT_EQ(Back->ErrorMessage, Failed.ErrorMessage);
  ASSERT_TRUE(Back->Failure.has_value());
  EXPECT_EQ(Back->Failure->toJson().toString(), Report.toJson().toString());
  EXPECT_EQ(Back->toJsonText(), Text);
}

TEST(CodecRoundTripTest, TuningReportSeed) {
  // TuningReport has no reader: its seed is read back the way any consumer
  // would, and the numbers re-encode to the same text.
  for (uint64_t Seed : WideValues)
    for (double F : Fractions) {
      tuner::TuningReport Report;
      Report.ProgramName = "p";
      Report.SearchKind = "beam";
      Report.Seed = Seed;
      tuner::CandidateRecord R;
      R.Mapping.TargetUtilization = F;
      R.Cost.Feasible = true;
      R.Cost.PredictedSeconds = F * 1e-6;
      R.Cost.PeakUtilization = F;
      Report.Candidates.push_back(R);

      std::string Text = Report.toJson();
      Expected<json::Value> Parsed = json::parse(Text);
      ASSERT_TRUE(Parsed) << Parsed.message();
      const json::Object &Root = Parsed->getObject();
      uint64_t Back = 0;
      EXPECT_FALSE(json::readUInt64Member(Root, "seed", Back));
      EXPECT_EQ(Back, Seed) << Text;
      const json::Object &Candidate =
          Root.get("candidates")->getArray()[0].getObject();
      double Utilization = 0.0, Seconds = 0.0;
      EXPECT_FALSE(json::readMembers(
          Candidate, {{"target_utilization", &Utilization},
                      {"predicted_seconds", &Seconds}}));
      EXPECT_EQ(Utilization, F);
      EXPECT_EQ(Seconds, F * 1e-6);
      EXPECT_EQ(Parsed->toString(), Text);
    }
}
