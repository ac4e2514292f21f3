//===- tests/serve_test.cpp - Serving subsystem tests --------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the serving daemon's core (serve/Server.h): plan-cache key
// correctness (repeat traffic hits, any plan-affecting knob change
// misses), single-flight compilation under concurrent identical misses,
// bounded-queue admission and typed shedding, device-pool rejection,
// graceful stop, parity of daemon results against a direct Session run,
// and the wire protocol round trip (serve/Protocol.h).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "common/TestPrograms.h"
#include "frontend/ProgramLoader.h"
#include "runtime/Session.h"
#include "tuner/Tuner.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

using namespace stencilflow;
using namespace stencilflow::serve;
using namespace stencilflow::testing;

namespace {

/// A run request for the shared Laplace test program.
Request laplaceRequest(std::string Id) {
  Request R;
  R.Id = std::move(Id);
  R.Op = RequestOp::Run;
  R.Program = programToJson(laplace2d());
  return R;
}

/// An in-process server with test-friendly defaults.
ServerOptions testOptions() {
  ServerOptions O;
  O.Workers = 2;
  O.QueueDepth = 16;
  return O;
}

//===----------------------------------------------------------------------===//
// Plan fingerprint and cache key
//===----------------------------------------------------------------------===//

TEST(PlanFingerprint, DeterministicAcrossEncodings) {
  StencilProgram Program = laplace2d();
  uint64_t A = fingerprintProgram(Program);
  uint64_t B = fingerprintProgram(Program);
  EXPECT_EQ(A, B);
  // The JSON round trip preserves the fingerprint: a program loaded from
  // a file and the same program sent inline share cache entries.
  EXPECT_EQ(A, fingerprintProgramJson(programToJson(Program)));
}

TEST(PlanFingerprint, DistinguishesPrograms) {
  EXPECT_NE(fingerprintProgram(laplace2d()),
            fingerprintProgram(diamondProgram()));
  EXPECT_NE(fingerprintProgram(laplace2d(32, 32)),
            fingerprintProgram(laplace2d(32, 64)));
}

TEST(PlanKey, EveryKnobChangesTheKey) {
  PlanKey Base;
  Base.ProgramHash = 0x1234;
  std::set<std::string> Ids;
  Ids.insert(Base.id());

  PlanKey K = Base;
  K.ProgramHash = 0x1235;
  Ids.insert(K.id());
  K = Base;
  K.Fuse = true;
  Ids.insert(K.id());
  K = Base;
  K.Simplify = true;
  Ids.insert(K.id());
  K = Base;
  K.VectorWidth = 4;
  Ids.insert(K.id());
  K = Base;
  K.MaxDevices = 2;
  Ids.insert(K.id());
  K = Base;
  K.TargetUtilization = 0.5;
  Ids.insert(K.id());
  K = Base;
  K.KernelExec = compute::KernelEngine::Jit;
  Ids.insert(K.id());
  K = Base;
  K.Tuned = true;
  Ids.insert(K.id());
  K = Base;
  K.Tuned = true;
  K.TuneBudget = 64;
  Ids.insert(K.id());
  K = Base;
  K.TemporalDegree = 4;
  Ids.insert(K.id());

  // Eleven distinct configurations, eleven distinct keys.
  EXPECT_EQ(Ids.size(), 11u);
  // And the encoding is stable: rebuilding the base key reproduces it.
  EXPECT_EQ(PlanKey{Base}.id(), Base.id());
  // Degree 1 leaves the id untouched, so keys of temporally-unblocked
  // plans are unchanged across the introduction of the knob.
  EXPECT_EQ(Base.id().find("-T"), std::string::npos);
}

TEST(PlanCacheLru, EvictsLeastRecentlyUsed) {
  PlanCache Cache(2);
  auto P = std::make_shared<const CompiledPlan>();
  Cache.insert("a", P);
  Cache.insert("b", P);
  EXPECT_TRUE(Cache.find("a")); // refreshes "a"; "b" is now LRU
  Cache.insert("c", P);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.evictions(), 1);
  EXPECT_TRUE(Cache.find("a"));
  EXPECT_FALSE(Cache.find("b"));
  EXPECT_TRUE(Cache.find("c"));
}

//===----------------------------------------------------------------------===//
// Cache behavior through the server
//===----------------------------------------------------------------------===//

TEST(ServeCache, RepeatRequestHitsAnyKnobChangeMisses) {
  Server S(testOptions());
  S.start();

  Response First = S.handle(laplaceRequest("r1"));
  ASSERT_TRUE(First.Ok) << First.ErrorMessage;
  ASSERT_TRUE(First.CacheHit.has_value());
  EXPECT_FALSE(*First.CacheHit);
  EXPECT_GT(First.CompileMicros, 0);

  Response Second = S.handle(laplaceRequest("r2"));
  ASSERT_TRUE(Second.Ok) << Second.ErrorMessage;
  EXPECT_TRUE(*Second.CacheHit);
  // The hit path never compiles.
  EXPECT_EQ(Second.CompileMicros, 0);
  // Identical plan, identical results.
  EXPECT_EQ(First.Cycles, Second.Cycles);
  EXPECT_EQ(First.OutputsCrc, Second.OutputsCrc);

  // Each plan-affecting knob forces a fresh compilation...
  Request Fused = laplaceRequest("r3");
  Fused.Options.Fuse = true;
  Request Simplified = laplaceRequest("r4");
  Simplified.Options.Simplify = true;
  Request Vectorized = laplaceRequest("r5");
  Vectorized.Options.Vectorize = 4;
  Request FewerDevices = laplaceRequest("r6");
  FewerDevices.Options.MaxDevices = 2;
  Request Hotter = laplaceRequest("r7");
  Hotter.Options.TargetUtilization = 0.95;
  Request Scalar = laplaceRequest("r8");
  Scalar.Options.KernelExec = compute::KernelEngine::Scalar;
  Request Tuned = laplaceRequest("r9");
  Tuned.Options.Tune = true;
  Tuned.Options.TuneBudget = 4;
  for (Request *R :
       {&Fused, &Simplified, &Vectorized, &FewerDevices, &Hotter, &Scalar,
        &Tuned}) {
    Response Out = S.handle(std::move(*R));
    ASSERT_TRUE(Out.Ok) << Out.Id << ": " << Out.ErrorMessage;
    EXPECT_FALSE(*Out.CacheHit) << Out.Id;
  }

  // ...while execution-only knobs reuse the cached plan.
  Request Parallel = laplaceRequest("r10");
  Parallel.Options.Engine = "parallel";
  Parallel.Options.Threads = 2;
  Request Unvalidated = laplaceRequest("r11");
  Unvalidated.Options.Validate = false;
  for (Request *R : {&Parallel, &Unvalidated}) {
    Response Out = S.handle(std::move(*R));
    ASSERT_TRUE(Out.Ok) << Out.Id << ": " << Out.ErrorMessage;
    EXPECT_TRUE(*Out.CacheHit) << Out.Id;
  }

  ServeStats Stats = S.stats();
  EXPECT_EQ(Stats.Received, 11);
  EXPECT_EQ(Stats.Completed, 11);
  EXPECT_EQ(Stats.CacheHits, 3);
  EXPECT_EQ(Stats.CacheMisses, 8);
  S.stop();
}

TEST(ServeCache, EvictionForcesRecompilation) {
  ServerOptions O = testOptions();
  O.CacheCapacity = 1;
  Server S(O);
  S.start();

  ASSERT_FALSE(*S.handle(laplaceRequest("a1")).CacheHit);

  Request Diamond;
  Diamond.Id = "b1";
  Diamond.Program = programToJson(diamondProgram());
  ASSERT_FALSE(*S.handle(std::move(Diamond)).CacheHit);

  // The diamond evicted the Laplace plan from the single-entry cache.
  Response Again = S.handle(laplaceRequest("a2"));
  ASSERT_TRUE(Again.Ok) << Again.ErrorMessage;
  EXPECT_FALSE(*Again.CacheHit);

  ServeStats Stats = S.stats();
  EXPECT_EQ(Stats.CacheSize, 1);
  EXPECT_GE(Stats.CacheEvictions, 2);
  S.stop();
}

TEST(ServeCache, SingleFlightCompilesOnceUnderConcurrentMisses) {
  constexpr int Clients = 8;
  Server S(testOptions());
  S.start();

  std::vector<Response> Out(Clients);
  std::vector<std::thread> Threads;
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&S, &Out, I] {
      Out[I] = S.handle(laplaceRequest("c" + std::to_string(I)));
    });
  for (std::thread &T : Threads)
    T.join();

  for (const Response &R : Out) {
    ASSERT_TRUE(R.Ok) << R.Id << ": " << R.ErrorMessage;
    EXPECT_EQ(R.Cycles, Out[0].Cycles);
    EXPECT_EQ(R.OutputsCrc, Out[0].OutputsCrc);
  }
  ServeStats Stats = S.stats();
  // Exactly one request compiled; everyone else hit the cache or joined
  // the in-flight compilation.
  EXPECT_EQ(Stats.CacheMisses, 1);
  EXPECT_EQ(Stats.CacheHits, Clients - 1);
  EXPECT_EQ(Stats.Completed, Clients);
  S.stop();
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(ServeAdmission, FullQueueShedsWithTypedError) {
  ServerOptions O = testOptions();
  O.QueueDepth = 0; // every run request finds the queue "full"
  Server S(O);
  S.start();

  Response Out = S.handle(laplaceRequest("shed"));
  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Code, ErrorCode::Overloaded);
  EXPECT_EQ(exitCodeFor(Out.Code), 11);
  EXPECT_NE(Out.ErrorMessage.find("queue"), std::string::npos);

  ServeStats Stats = S.stats();
  EXPECT_EQ(Stats.Shed, 1);
  EXPECT_EQ(Stats.Completed, 0);
  S.stop();
}

TEST(ServeAdmission, OversubscribingPlanIsRejected) {
  ServerOptions O = testOptions();
  O.DevicePool = 0; // any plan (>= 1 device) oversubscribes
  Server S(O);
  S.start();

  Response Out = S.handle(laplaceRequest("reject"));
  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Code, ErrorCode::Overloaded);
  EXPECT_NE(Out.ErrorMessage.find("device"), std::string::npos);

  ServeStats Stats = S.stats();
  EXPECT_EQ(Stats.Rejected, 1);
  EXPECT_EQ(Stats.Completed, 0);
  // The plan still compiled and is cached: a later request on a larger
  // pool would hit.
  EXPECT_EQ(Stats.CacheMisses, 1);
  S.stop();
}

TEST(ServeAdmission, StoppedServerShedsNewWork) {
  Server S(testOptions());
  S.start();
  ASSERT_TRUE(S.handle(laplaceRequest("before")).Ok);
  S.stop();

  Response Out = S.handle(laplaceRequest("after"));
  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Code, ErrorCode::Overloaded);
  // stop() is idempotent.
  S.stop();
}

TEST(ServeAdmission, InvalidProgramFailsGracefully) {
  Server S(testOptions());
  S.start();

  Request Bad;
  Bad.Id = "bad";
  json::Object O;
  O.set("name", json::Value("nonsense"));
  Bad.Program = json::Value(std::move(O));
  Response Out = S.handle(std::move(Bad));
  EXPECT_FALSE(Out.Ok);
  EXPECT_FALSE(Out.ErrorMessage.empty());

  // The server keeps serving after a failed request.
  EXPECT_TRUE(S.handle(laplaceRequest("good")).Ok);
  ServeStats Stats = S.stats();
  EXPECT_EQ(Stats.Failed, 1);
  EXPECT_EQ(Stats.Completed, 1);
  S.stop();
}

//===----------------------------------------------------------------------===//
// Parity with direct Session runs
//===----------------------------------------------------------------------===//

TEST(ServeParity, MatchesDirectSessionRun) {
  // N concurrent daemon clients and a direct Session::run must agree on
  // cycles, validation, and placement for the same program and options.
  Session Direct = Session::fromProgram(laplace2d());
  Expected<PipelineResult> Reference = Direct.run();
  ASSERT_TRUE(Reference) << Reference.message();

  constexpr int Clients = 4;
  Server S(testOptions());
  S.start();
  std::vector<Response> Out(Clients);
  std::vector<std::thread> Threads;
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&S, &Out, I] {
      Out[I] = S.handle(laplaceRequest("p" + std::to_string(I)));
    });
  for (std::thread &T : Threads)
    T.join();
  S.stop();

  for (const Response &R : Out) {
    ASSERT_TRUE(R.Ok) << R.Id << ": " << R.ErrorMessage;
    EXPECT_EQ(R.Cycles,
              static_cast<int64_t>(Reference->Simulation.Stats.Cycles));
    EXPECT_EQ(R.Devices, static_cast<int>(Reference->Placement.numDevices()));
    EXPECT_TRUE(R.ValidationPassed);
  }
}

TEST(ServeParity, TemporalDegreeMatchesDirectSessionRun) {
  // A temporally-unrolled daemon run must be bit-identical (same output
  // CRC) to a direct Session run at the same degree, and the knob must be
  // a distinct plan-cache key from the degree-1 plan.
  StencilProgram Program = workloads::diffusion2dChain(1, 12, 16);
  Session Direct = Session::fromProgram(Program.clone());
  Expected<PipelineResult> Reference = Direct.temporalDegree(2).run();
  ASSERT_TRUE(Reference) << Reference.message();

  Server S(testOptions());
  S.start();
  auto MakeRequest = [&](std::string Id, int Degree) {
    Request R;
    R.Id = std::move(Id);
    R.Op = RequestOp::Run;
    R.Program = programToJson(Program);
    R.Options.TemporalDegree = Degree;
    return R;
  };
  Response Plain = S.handle(MakeRequest("t1", 1));
  ASSERT_TRUE(Plain.Ok) << Plain.ErrorMessage;
  EXPECT_FALSE(*Plain.CacheHit);
  Response Unrolled = S.handle(MakeRequest("t2", 2));
  ASSERT_TRUE(Unrolled.Ok) << Unrolled.ErrorMessage;
  EXPECT_FALSE(*Unrolled.CacheHit); // Different degree, different plan.
  Response Again = S.handle(MakeRequest("t3", 2));
  ASSERT_TRUE(Again.Ok) << Again.ErrorMessage;
  EXPECT_TRUE(*Again.CacheHit);
  S.stop();

  EXPECT_EQ(Unrolled.Cycles,
            static_cast<int64_t>(Reference->Simulation.Stats.Cycles));
  EXPECT_TRUE(Unrolled.ValidationPassed);
  EXPECT_EQ(Unrolled.OutputsCrc, Again.OutputsCrc);
  EXPECT_NE(Unrolled.OutputsCrc, Plain.OutputsCrc);
  EXPECT_GT(Plain.Cycles, Unrolled.Cycles / 2); // Sanity, not a perf gate.
}

TEST(ServeParity, TunedTemporalPlanUnrollsOnce) {
  // A tuned request at temporal degree 2 gets a mapping that already
  // carries T=2. The served plan must be that mapping applied once, not
  // unrolled again by the pipeline (T^2 = 4 steps).
  StencilProgram Program = workloads::diffusion2dChain(1, 12, 16);
  Request R;
  R.Id = "tuned";
  R.Op = RequestOp::Run;
  R.Program = programToJson(Program);
  R.Options.TemporalDegree = 2;
  R.Options.Tune = true;
  R.Options.TuneBudget = 4;

  // The server's tuning configuration for this request.
  PipelineOptions Base = testOptions().Base;
  Base.TemporalDegree = R.Options.TemporalDegree;
  Base.Partitioning.MaxDevices = R.Options.MaxDevices;
  Base.Partitioning.TargetUtilization = R.Options.TargetUtilization;
  tuner::TuneOptions TO;
  TO.Simulate = false;
  TO.Search.CandidateBudget = R.Options.TuneBudget;
  Expected<tuner::TuningOutcome> Tuned =
      tuner::tuneProgram(Program, Base, TO);
  ASSERT_TRUE(Tuned) << Tuned.message();
  ASSERT_EQ(Tuned->Best.TemporalDegree, 2) << Tuned->Best.id();

  Expected<StencilProgram> Applied =
      tuner::applyMapping(Program, Tuned->Best);
  ASSERT_TRUE(Applied) << Applied.message();
  PipelineOptions Once = testOptions().Base;
  Once.Partitioning.MaxDevices = Tuned->Best.MaxDevices;
  Once.Partitioning.TargetUtilization = Tuned->Best.TargetUtilization;
  Expected<PipelineResult> Reference =
      runPipeline(Applied.takeValue(), Once);
  ASSERT_TRUE(Reference) << Reference.message();

  Server S(testOptions());
  S.start();
  Response Served = S.handle(R);
  S.stop();
  ASSERT_TRUE(Served.Ok) << Served.ErrorMessage;
  EXPECT_TRUE(Served.ValidationPassed);
  EXPECT_EQ(Served.Cycles,
            static_cast<int64_t>(Reference->Simulation.Stats.Cycles))
      << Tuned->Best.id();
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, RequestRoundTrip) {
  Request R = laplaceRequest("round");
  R.Options.Fuse = true;
  R.Options.Vectorize = 4;
  R.Options.TemporalDegree = 4;
  R.Options.KernelExec = compute::KernelEngine::Jit;
  R.Options.Engine = "parallel";
  R.Options.Threads = 3;
  R.Options.Validate = false;
  R.Options.Tune = true;
  R.Options.TuneBudget = 7;

  Expected<Request> Back = Request::fromJsonText(R.toJsonText());
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_EQ(Back->Id, "round");
  EXPECT_EQ(Back->Op, RequestOp::Run);
  EXPECT_TRUE(Back->Options.Fuse);
  EXPECT_EQ(Back->Options.Vectorize, 4);
  EXPECT_EQ(Back->Options.TemporalDegree, 4);
  EXPECT_EQ(Back->Options.KernelExec, compute::KernelEngine::Jit);
  EXPECT_EQ(Back->Options.Engine, "parallel");
  EXPECT_EQ(Back->Options.Threads, 3);
  EXPECT_FALSE(Back->Options.Validate);
  EXPECT_TRUE(Back->Options.Tune);
  EXPECT_EQ(Back->Options.TuneBudget, 7);
  EXPECT_EQ(fingerprintProgramJson(Back->Program),
            fingerprintProgramJson(R.Program));
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  // Not JSON at all.
  EXPECT_FALSE(Request::fromJsonText("not json"));
  // "run" with neither program nor program_path.
  EXPECT_FALSE(Request::fromJsonText("{\"op\":\"run\"}"));
  // ...and with both.
  EXPECT_FALSE(Request::fromJsonText(
      "{\"op\":\"run\",\"program\":{},\"program_path\":\"x.json\"}"));
  // Unknown op.
  EXPECT_FALSE(Request::fromJsonText("{\"op\":\"dance\"}"));
  // Unknown simulation engine.
  Expected<Request> Bad = Request::fromJsonText(
      "{\"op\":\"run\",\"program\":{},\"options\":{\"engine\":\"warp\"}}");
  EXPECT_FALSE(Bad);
  // Mistyped option value.
  EXPECT_FALSE(Request::fromJsonText(
      "{\"op\":\"run\",\"program\":{},\"options\":{\"fuse\":\"yes\"}}"));
  // Non-run ops need no program.
  EXPECT_TRUE(Request::fromJsonText("{\"op\":\"stats\"}"));
  EXPECT_TRUE(Request::fromJsonText("{\"op\":\"ping\"}"));
}

TEST(ServeProtocol, ResponseRoundTripPreservesCrcAndErrors) {
  Response R;
  R.Id = "ok1";
  R.Ok = true;
  R.CacheHit = true;
  R.Cycles = 4240;
  R.Devices = 2;
  R.FrequencyMHz = 316.5;
  R.ValidationPassed = true;
  R.OutputsCrc = 0xeaceeb4720cb410aull; // does not fit a double exactly
  R.KernelTiers = "specialized x1";
  R.CompileMicros = 55;

  Expected<Response> Back = Response::fromJsonText(R.toJsonText());
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_TRUE(Back->Ok);
  ASSERT_TRUE(Back->CacheHit.has_value());
  EXPECT_TRUE(*Back->CacheHit);
  EXPECT_EQ(Back->Cycles, 4240);
  EXPECT_EQ(Back->OutputsCrc, 0xeaceeb4720cb410aull);
  EXPECT_EQ(Back->KernelTiers, "specialized x1");

  Response E = Response::failure(
      "err1", makeError(ErrorCode::Overloaded, "admission queue is full"));
  Expected<Response> EBack = Response::fromJsonText(E.toJsonText());
  ASSERT_TRUE(EBack) << EBack.message();
  EXPECT_FALSE(EBack->Ok);
  EXPECT_EQ(EBack->Code, ErrorCode::Overloaded);
  EXPECT_NE(EBack->ErrorMessage.find("queue is full"), std::string::npos);
}

TEST(ServeProtocol, FailureResponsesCarryTheSimulatorReport) {
  // The Fig. 4 regression through the serving layer: undersized channels
  // deadlock the diamond, and the simulator's structured FailureReport
  // must survive the trip into (and through) the wire response.
  ServerOptions O = testOptions();
  O.Base.Simulator.ClampChannelsToMinimum = true;
  O.Base.Simulator.MinChannelDepth = 4;
  Server S(O);
  S.start();
  Request R;
  R.Id = "dead";
  R.Program = programToJson(diamondProgram(32, 32));
  Response Out = S.handle(std::move(R));
  S.stop();

  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Code, ErrorCode::Deadlock);
  EXPECT_EQ(exitCodeFor(Out.Code), 3);
  ASSERT_TRUE(Out.Failure.has_value());
  EXPECT_EQ(Out.Failure->Code, ErrorCode::Deadlock);
  EXPECT_FALSE(Out.Failure->Channels.empty());

  // And the report is still attached after an encode/decode round trip.
  Expected<Response> Back = Response::fromJsonText(Out.toJsonText());
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_EQ(Back->Code, ErrorCode::Deadlock);
  ASSERT_TRUE(Back->Failure.has_value());
  EXPECT_EQ(Back->Failure->Code, ErrorCode::Deadlock);
}

} // namespace
