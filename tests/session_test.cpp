//===- tests/session_test.cpp - Session facade tests ---------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The stencilflow::Session facade is the library's stable front door; these
// tests pin its contract:
//
//  - factory error handling (bad JSON, missing files) with typed errors;
//  - chainable configuration reaching the pipeline;
//  - fail-fast validation of inconsistent settings at run();
//  - repeatability: one Session sweeps engines and fault plans over one
//    loaded program, with identical results where the model says so;
//  - ownership: fault plans and tracers attached to the Session outlive
//    the run without caller-managed lifetimes.
//
//===----------------------------------------------------------------------===//

#include "StencilFlow.h"
#include "common/TestPrograms.h"

#include <gtest/gtest.h>

using namespace stencilflow;
using namespace stencilflow::testing;

namespace {

const char *LaplaceJson = R"({
  "name": "laplace2d",
  "dimensions": [16, 16],
  "inputs": {
    "a": {"data_type": "float32", "data": {"kind": "random", "seed": 42}}
  },
  "outputs": ["b"],
  "program": {
    "b": {
      "computation":
        "b = a[0,-1] + a[0,1] + a[-1,0] + a[1,0] - 4.0 * a[0,0];",
      "boundary_conditions": {"a": {"type": "constant", "value": 0.0}}
    }
  }
})";

} // namespace

TEST(SessionTest, FromJsonTextParsesAndRuns) {
  auto S = Session::fromJsonText(LaplaceJson);
  ASSERT_TRUE(S) << S.message();
  EXPECT_EQ(S->program().Name, "laplace2d");
  S->unconstrainedMemory(true);
  auto Result = S->run();
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_TRUE(Result->ValidationPassed);
  EXPECT_EQ(Result->Simulation.Stats.KernelExec, "specialized");
}

TEST(SessionTest, FromJsonTextRejectsGarbageWithContext) {
  auto S = Session::fromJsonText("{ not json");
  ASSERT_FALSE(S);
  EXPECT_NE(S.message().find("session"), std::string::npos);
}

TEST(SessionTest, FromFileRejectsMissingFile) {
  auto S = Session::fromFile("/nonexistent/program.json");
  ASSERT_FALSE(S);
  EXPECT_NE(S.message().find("session"), std::string::npos);
}

TEST(SessionTest, ChainedSettersReachThePipeline) {
  Session S = Session::fromProgram(laplace2d(12, 12));
  S.fuseStencils(true)
      .simplifyCode(false)
      .emitCode(true)
      .validate(false)
      .unconstrainedMemory(true)
      .stallTimeout(4096)
      .kernelEngine(compute::KernelEngine::Scalar);
  const PipelineOptions &O =
      static_cast<const Session &>(S).pipelineOptions();
  EXPECT_TRUE(O.FuseStencils);
  EXPECT_FALSE(O.SimplifyCode);
  EXPECT_TRUE(O.EmitCode);
  EXPECT_FALSE(O.Validate);
  EXPECT_TRUE(O.Simulator.UnconstrainedMemory);
  EXPECT_EQ(O.Simulator.StallTimeoutCycles, 4096);
  EXPECT_EQ(O.Simulator.KernelExec, compute::KernelEngine::Scalar);

  auto Result = S.run();
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Simulation.Stats.KernelExec, "scalar");
  EXPECT_FALSE(Result->Sources.empty());
  EXPECT_TRUE(Result->Validations.empty());
}

TEST(SessionTest, RunIsRepeatableAndSweepsEngines) {
  // One loaded program, three runs: specialized, scalar, specialized
  // again. The facade clones the program per run and every kernel engine
  // is bit-exact, so results are identical.
  auto S = Session::fromJsonText(LaplaceJson);
  ASSERT_TRUE(S) << S.message();
  S->unconstrainedMemory(true);

  auto First = S->run();
  ASSERT_TRUE(First) << First.message();

  S->kernelEngine(compute::KernelEngine::Scalar);
  auto Second = S->run();
  ASSERT_TRUE(Second) << Second.message();
  EXPECT_EQ(Second->Simulation.Stats.KernelExec, "scalar");
  EXPECT_EQ(Second->Simulation.Stats.Cycles,
            First->Simulation.Stats.Cycles);

  S->kernelEngine(compute::KernelEngine::Specialized);
  auto Third = S->run();
  ASSERT_TRUE(Third) << Third.message();
  EXPECT_EQ(Third->Simulation.Stats.Cycles, First->Simulation.Stats.Cycles);
  for (const auto &[Name, Values] : First->Simulation.Outputs) {
    EXPECT_EQ(Values, Second->Simulation.Outputs.at(Name)) << Name;
    EXPECT_EQ(Values, Third->Simulation.Outputs.at(Name)) << Name;
  }
}

TEST(SessionTest, VectorizeOverridesProgramWidth) {
  Session S = Session::fromProgram(laplace2d(12, 16));
  S.unconstrainedMemory(true);
  auto Scalar = S.run();
  ASSERT_TRUE(Scalar) << Scalar.message();
  S.vectorize(4);
  auto Vector = S.run();
  ASSERT_TRUE(Vector) << Vector.message();
  EXPECT_LT(Vector->Simulation.Stats.Cycles, Scalar->Simulation.Stats.Cycles);
}

TEST(SessionTest, RunRejectsInconsistentConfigBeforeThePipeline) {
  Session S = Session::fromProgram(laplace2d(8, 8));
  // A negative watchdog threshold is inconsistent; the facade's fail-fast
  // validation catches it at run().
  S.stallTimeout(-1);
  auto Result = S.run();
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::InvalidInput);
  EXPECT_NE(Result.message().find("session"), std::string::npos);

  // Disabling the watchdog makes the same Session run.
  S.stallTimeout(0);
  auto Fixed = S.run();
  ASSERT_TRUE(Fixed) << Fixed.message();
}

TEST(SessionTest, OwnedTracerRecordsTheRun) {
  Session S = Session::fromProgram(laplace2d(8, 8));
  S.unconstrainedMemory(true).trace(/*SampleStride=*/4);
  ASSERT_NE(S.tracer(), nullptr);
  auto Result = S.run();
  ASSERT_TRUE(Result) << Result.message();
  // The recording is on the Session-owned tracer; no raw pointers were
  // handed around.
  std::string Json = S.tracer()->chromeTraceJson();
  EXPECT_NE(Json.find("traceEvents"), std::string::npos);
  EXPECT_GT(Json.size(), 100u);
}

TEST(SessionTest, OwnedFaultPlanOutlivesTheCaller) {
  Session S = Session::fromProgram(laplace2d(8, 8));
  S.unconstrainedMemory(true);
  // Disable the graceful-degradation retry so the injected loss surfaces
  // instead of being healed by re-partitioning onto a spare.
  S.pipelineOptions().RecoverFromDeviceLoss = false;
  {
    // The plan dies at the end of this scope; the Session keeps a copy,
    // so there is no dangling SimConfig::Faults pointer to misuse.
    sim::FaultPlan Doomed;
    sim::FaultEvent Death;
    Death.Kind = sim::FaultKind::DeviceFailure;
    Death.Device = 0;
    Death.StartCycle = 32;
    Doomed.Events.push_back(Death);
    S.faults(std::move(Doomed));
  }
  auto Result = S.run();
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::DeviceLost);

  // Detaching the plan restores the fault-free run.
  S.clearFaults();
  auto Clean = S.run();
  ASSERT_TRUE(Clean) << Clean.message();
  EXPECT_TRUE(Clean->ValidationPassed);
}

TEST(SessionTest, RunValidatesFaultPlan) {
  Session S = Session::fromProgram(laplace2d(8, 8));
  sim::FaultPlan Bad;
  sim::FaultEvent Event;
  Event.Kind = sim::FaultKind::LinkDegrade;
  Event.StartCycle = 100;
  Event.EndCycle = 50; // Ends before it starts.
  Bad.Events.push_back(Event);
  S.faults(std::move(Bad));
  auto Result = S.run();
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::InvalidInput);
  EXPECT_NE(Result.message().find("fault plan"), std::string::npos);
}

TEST(SessionTest, MultiDeviceParallelEndToEnd) {
  // The facade drives the whole multi-device story: partition a chain
  // across devices that stream to each other in parallel, simulate,
  // validate.
  Session S = Session::fromProgram(jacobi3dChain(6, 4, 6, 6));
  S.unconstrainedMemory(true);
  S.pipelineOptions().Partitioning.TargetUtilization = 1.0;
  S.pipelineOptions().Partitioning.Device.DSPs = 7 * 3;
  S.pipelineOptions().Partitioning.MaxDevices = 64;
  auto Result = S.run();
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Placement.numDevices(), 2u);
  EXPECT_TRUE(Result->ValidationPassed);
  EXPECT_GT(Result->Simulation.Stats.NetworkBytesMoved, 0.0);
}
