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

#include "common/IntegerBoundaries.h"
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

/// \p R as a client that still sends the retired "engine" and "threads"
/// options would put it on the wire, parsed back.
Request withRetiredEngineOptions(const Request &R) {
  std::string Text = R.toJsonText();
  const std::string Options = "\"options\":{";
  size_t At = Text.find(Options);
  EXPECT_NE(At, std::string::npos) << Text;
  Text.insert(At + Options.size(), "\"engine\":\"parallel\",\"threads\":2,");
  Expected<Request> Parsed = Request::fromJsonText(Text);
  EXPECT_TRUE(Parsed) << Parsed.message();
  return Parsed.takeValue();
}

/// Parses a run request whose options object is \p Options and returns the
/// error message, which must be an InvalidInput rejection.
std::string rejectedOptions(const std::string &Options) {
  Expected<Request> R = Request::fromJsonText(
      "{\"op\":\"run\",\"program\":{},\"options\":" + Options + "}");
  EXPECT_FALSE(R) << Options;
  if (R)
    return std::string();
  EXPECT_EQ(R.code(), ErrorCode::InvalidInput) << Options;
  return R.message();
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
  json::Value Description = programToJson(laplace2d());
  uint64_t A = fingerprintProgramJson(Description);
  EXPECT_EQ(A, fingerprintProgramJson(Description));
  // The text round trip preserves the fingerprint: a program loaded from
  // a file and the same program sent inline share cache entries.
  Expected<json::Value> Reparsed = json::parse(Description.toString());
  ASSERT_TRUE(Reparsed) << Reparsed.message();
  EXPECT_EQ(A, fingerprintProgramJson(*Reparsed));
  // Pinned: FNV-1a of the compact text, so plan key ids stay stable.
  Expected<json::Value> Tiny = json::parse(R"({"a":1})");
  ASSERT_TRUE(Tiny) << Tiny.message();
  EXPECT_EQ(fingerprintProgramJson(*Tiny), 0x32e51dac937672f3ull);
}

TEST(PlanFingerprint, DistinguishesPrograms) {
  auto Fingerprint = [](const StencilProgram &P) {
    return fingerprintProgramJson(programToJson(P));
  };
  EXPECT_NE(Fingerprint(laplace2d()), Fingerprint(diamondProgram()));
  EXPECT_NE(Fingerprint(laplace2d(32, 32)), Fingerprint(laplace2d(32, 64)));
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
  K.KernelExec = compute::KernelEngine::Scalar;
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

  // ...while execution-only knobs and retired options reuse the cached
  // plan.
  Request Retired = withRetiredEngineOptions(laplaceRequest("r10"));
  Request Unvalidated = laplaceRequest("r11");
  Unvalidated.Options.Validate = false;
  for (Request *R : {&Retired, &Unvalidated}) {
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

TEST(ServeAdmission, UnallocatableProgramFailsAloneAndTheWorkerLivesOn) {
  // 2^61 cells: a well-formed program whose fields no host can allocate.
  // The request fails with a typed error; the process and its worker
  // keep serving.
  Server S(testOptions());
  S.start();
  Expected<Request> Req = Request::fromJsonText(
      R"({"id":"big","op":"run","program":{"dimensions":[2305843009213693952],
          "inputs":{"a":{}},"program":{"b":{"computation":"b = a[0];"}}}})");
  ASSERT_TRUE(Req) << Req.message();
  Response Big = S.handle(Req.takeValue());
  EXPECT_FALSE(Big.Ok);
  EXPECT_EQ(Big.Code, ErrorCode::Infeasible);
  EXPECT_NE(Big.ErrorMessage.find("more host memory"), std::string::npos)
      << Big.ErrorMessage;

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
  R.Options.KernelExec = compute::KernelEngine::Scalar;
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
  EXPECT_EQ(Back->Options.KernelExec, compute::KernelEngine::Scalar);
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
  // Mistyped option value.
  EXPECT_FALSE(Request::fromJsonText(
      "{\"op\":\"run\",\"program\":{},\"options\":{\"fuse\":\"yes\"}}"));
  // Non-run ops need no program.
  EXPECT_TRUE(Request::fromJsonText("{\"op\":\"stats\"}"));
  EXPECT_TRUE(Request::fromJsonText("{\"op\":\"ping\"}"));
}

TEST(ServeProtocol, RejectsOverflowingVectorize) {
  // Truncated to int, 2^32 + 4 would wrap to width 4.
  std::string Message = rejectedOptions("{\"vectorize\":4294967300}");
  EXPECT_NE(Message.find("'vectorize' must be an integer"), std::string::npos)
      << Message;
}

TEST(ServeProtocol, RejectsFractionalMaxDevices) {
  // Truncated, 2.7 would become 2 devices.
  std::string Message = rejectedOptions("{\"max_devices\":2.7}");
  EXPECT_NE(Message.find("'max_devices' must be an integer"),
            std::string::npos)
      << Message;
}

TEST(ServeProtocol, RejectsOutOfRangeTuneBudget) {
  // Truncated to int, 1e12 would wrap to a negative budget.
  std::string Message = rejectedOptions("{\"tune_budget\":1e12}");
  EXPECT_NE(Message.find("'tune_budget' must be an integer"),
            std::string::npos)
      << Message;
}

TEST(ServeProtocol, IntegerMembersRejectOutOfRangeNumbers) {
  // Request options and response counters alike: a fraction or an
  // out-of-range magnitude is an error, never a truncated count.
  expectIntegerBoundariesRejected(
      {{R"({"program":{},"options":{"vectorize":@}})", IntOnePast},
       {R"({"program":{},"options":{"temporal_degree":@}})", IntOnePast},
       {R"({"program":{},"options":{"max_devices":@}})", IntOnePast},
       {R"({"program":{},"options":{"tune_budget":@}})", IntOnePast}},
      [](const std::string &Text) { return Request::fromJsonText(Text); });
  expectIntegerBoundariesRejected(
      {{R"({"ok":true,"cycles":@})", Int64OnePast},
       {R"({"ok":true,"devices":@})", IntOnePast},
       {R"({"ok":true,"queue_us":@})", Int64OnePast},
       {R"({"ok":true,"compile_us":@})", Int64OnePast},
       {R"({"ok":true,"execute_us":@})", Int64OnePast}},
      [](const std::string &Text) { return Response::fromJsonText(Text); });
}

TEST(ServeProtocol, RejectsMalformedOutputsCrc) {
  // A CRC that is not 64-bit hex text is an error, not a zero CRC.
  for (const char *Crc : {R"("")", R"("0x")", R"("12zz")",
                          R"("10000000000000000")", "7"}) {
    std::string Text = std::string(R"({"ok":true,"outputs_crc":)") + Crc + "}";
    Expected<Response> R = Response::fromJsonText(Text);
    EXPECT_FALSE(R) << Text;
  }
}

TEST(ServeProtocol, RejectsRetiredKernelEngine) {
  std::string Message = rejectedOptions("{\"kernel_engine\":\"jit\"}");
  EXPECT_NE(Message.find("expected scalar or specialized"), std::string::npos)
      << Message;
}

TEST(ServeProtocol, DecodeFailureKeepsRequestId) {
  // A well-formed line with a bad option still correlates with its id;
  // a line that is not JSON has no id to echo.
  Server S(testOptions());
  bool Shutdown = false;
  Response Bad = S.handleLine(
      "{\"id\":\"r7\",\"op\":\"run\",\"program\":{},"
      "\"options\":{\"kernel_engine\":\"warp\"}}",
      Shutdown);
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Id, "r7");
  EXPECT_EQ(Bad.Code, ErrorCode::InvalidInput);
  EXPECT_NE(Bad.toJsonText().find("\"id\":\"r7\""), std::string::npos)
      << Bad.toJsonText();

  Response Garbage = S.handleLine("{\"id\":\"r8\",", Shutdown);
  EXPECT_FALSE(Garbage.Ok);
  EXPECT_TRUE(Garbage.Id.empty());
  EXPECT_EQ(Garbage.Code, ErrorCode::InvalidInput);

  EXPECT_FALSE(Shutdown);
  Response Ack = S.handleLine("{\"id\":\"bye\",\"op\":\"shutdown\"}",
                              Shutdown);
  EXPECT_TRUE(Ack.Ok);
  EXPECT_EQ(Ack.Id, "bye");
  EXPECT_TRUE(Shutdown);
}

TEST(ServeProtocol, AcksCarryNoErrorBlock) {
  // Ping and shutdown succeed with a bare ack: only failures carry an
  // "error" object.
  Server S(testOptions());
  bool Shutdown = false;
  for (const char *Line : {"{\"id\":\"a\",\"op\":\"ping\"}",
                           "{\"id\":\"b\",\"op\":\"shutdown\"}"}) {
    Response Ack = S.handleLine(Line, Shutdown);
    ASSERT_TRUE(Ack.Ok) << Line;
    std::string Text = Ack.toJsonText();
    Expected<json::Value> Doc = json::parse(Text);
    ASSERT_TRUE(Doc) << Doc.message();
    const json::Object &O = Doc->getObject();
    EXPECT_FALSE(O.contains("error")) << Text;
    EXPECT_FALSE(O.contains("cycles")) << Text;
    EXPECT_TRUE(O.get("ok")->getBoolean()) << Text;
  }
  EXPECT_TRUE(Shutdown);
}

TEST(ServeParity, RetiredEngineOptionsAreIgnored) {
  // Clients that still send "engine" and "threads" get the same answer as
  // clients that do not.
  Server S(testOptions());
  S.start();
  Response Plain = S.handle(laplaceRequest("plain"));
  Response Retired = S.handle(withRetiredEngineOptions(laplaceRequest("old")));
  S.stop();
  ASSERT_TRUE(Plain.Ok) << Plain.ErrorMessage;
  ASSERT_TRUE(Retired.Ok) << Retired.ErrorMessage;
  EXPECT_EQ(Retired.OutputsCrc, Plain.OutputsCrc);
  EXPECT_EQ(Retired.Cycles, Plain.Cycles);
  EXPECT_TRUE(Retired.ValidationPassed);
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
