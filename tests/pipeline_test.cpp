//===- tests/pipeline_test.cpp - End-to-end pipeline tests ---------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "frontend/ProgramLoader.h"
#include "runtime/InputData.h"
#include "runtime/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace stencilflow;
using namespace stencilflow::testing;

TEST(PipelineTest, QuickstartFromJson) {
  const char *Json = R"({
    "name": "quickstart",
    "dimensions": [32, 32],
    "inputs": {"a": {"data": {"kind": "random", "seed": 3}}},
    "outputs": ["b"],
    "program": {
      "b": {
        "computation":
          "b = a[0,-1] + a[0,1] + a[-1,0] + a[1,0] - 4.0 * a[0,0];",
        "boundary_conditions": {"a": {"type": "constant", "value": 0.0}}
      }
    }
  })";
  auto Program = programFromJsonText(Json);
  ASSERT_TRUE(Program) << Program.message();
  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  Options.EmitCode = true;
  auto Result = runPipeline(Program.takeValue(), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_TRUE(Result->ValidationPassed);
  EXPECT_EQ(Result->Simulation.Stats.Cycles, Result->Runtime.TotalCycles);
  EXPECT_FALSE(Result->Sources.empty());
  EXPECT_GT(Result->FrequencyMHz, 250.0);
  EXPECT_GT(Result->simulatedOpsPerSecond(), 0.0);
}

TEST(PipelineTest, RandomProgramsEndToEnd) {
  for (uint64_t Seed = 200; Seed <= 212; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    PipelineOptions Options;
    Options.Simulator.UnconstrainedMemory = true;
    auto Result = runPipeline(randomProgram(Seed), Options);
    ASSERT_TRUE(Result) << Result.message();
    EXPECT_TRUE(Result->ValidationPassed);
    EXPECT_EQ(Result->Simulation.Stats.Cycles,
              Result->Runtime.TotalCycles);
  }
}

TEST(PipelineTest, GivenReferenceStillValidatesEveryOutput) {
  // A caller may hand executePlan the reference outputs it computed once
  // for many plans of one program; each output is still compared with
  // them element by element, so one perturbed value fails the run.
  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  Expected<CompiledPlan> Plan =
      compilePipeline(workloads::diffusion2dChain(2, 16, 32), Options);
  ASSERT_TRUE(Plan) << Plan.message();
  Expected<ExecutionResult> Reference = runReference(
      Plan->Compiled, materializeInputs(Plan->Compiled.program()));
  ASSERT_TRUE(Reference) << Reference.message();

  auto Exact = executePlan(*Plan, Options, &*Reference);
  ASSERT_TRUE(Exact) << Exact.message();
  EXPECT_TRUE(Exact->ValidationPassed);
  EXPECT_EQ(Exact->Validations.size(),
            Plan->Compiled.program().Outputs.size());

  ExecutionResult Perturbed = *Reference;
  std::vector<double> &Output =
      Perturbed.Fields.at(Plan->Compiled.program().Outputs.front());
  Output[Output.size() / 2] += 1.0;
  auto Wrong = executePlan(*Plan, Options, &Perturbed);
  ASSERT_TRUE(Wrong) << Wrong.message();
  EXPECT_FALSE(Wrong->ValidationPassed);
  EXPECT_EQ(Wrong->Simulation.Stats.Cycles, Exact->Simulation.Stats.Cycles);
}

TEST(PipelineTest, FusionOptionShrinksProgram) {
  PipelineOptions Plain;
  Plain.Simulator.UnconstrainedMemory = true;
  PipelineOptions Fused = Plain;
  Fused.FuseStencils = true;
  auto A = runPipeline(workloads::jacobi3dChain(4, 4, 8, 8), Plain);
  auto B = runPipeline(workloads::jacobi3dChain(4, 4, 8, 8), Fused);
  ASSERT_TRUE(A);
  ASSERT_TRUE(B) << B.message();
  EXPECT_EQ(A->Compiled.program().Nodes.size(), 4u);
  EXPECT_EQ(B->Compiled.program().Nodes.size(), 1u);
  EXPECT_EQ(B->FusedPairs, 3);
  EXPECT_TRUE(B->ValidationPassed);
}

TEST(PipelineTest, MultiDevicePathExercised) {
  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Partitioning.TargetUtilization = 1.0;
  Options.Partitioning.Device.DSPs = 7 * 2; // Two Jacobi nodes per device.
  Options.Partitioning.MaxDevices = 8;
  Options.EmitCode = true;
  auto Result = runPipeline(workloads::jacobi3dChain(6, 4, 6, 6), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Placement.numDevices(), 3u);
  EXPECT_TRUE(Result->ValidationPassed);
  // One source per device plus the host summary.
  EXPECT_EQ(Result->Sources.size(), 4u);
}

TEST(PipelineTest, SingleDeviceOnlyFailsWhenTooLarge) {
  PipelineOptions Options;
  Options.AllowMultiDevice = false;
  Options.Partitioning.Device.DSPs = 7; // One node fits.
  Options.Partitioning.TargetUtilization = 1.0;
  auto Result = runPipeline(workloads::jacobi3dChain(4, 4, 6, 6), Options);
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.message().find("partitioning"), std::string::npos);
}

TEST(PipelineTest, ConstrainedMemorySlowsHdiff) {
  // With DDR4-class bandwidth the 9-operand/cycle horizontal diffusion is
  // memory bound (Sec. IX-B); unconstrained memory must be faster.
  PipelineOptions Constrained;
  Constrained.Simulator.UnconstrainedMemory = false;
  PipelineOptions Unconstrained;
  Unconstrained.Simulator.UnconstrainedMemory = true;
  // Use W=4 so the demand (36 operands/cycle = 144 B/cycle data + 9
  // transactions of overhead) approaches the 256 B/cycle peak.
  StencilProgram P = workloads::horizontalDiffusion(4, 16, 16, 4);
  auto Slow = runPipeline(P.clone(), Constrained);
  auto Fast = runPipeline(std::move(P), Unconstrained);
  ASSERT_TRUE(Slow) << Slow.message();
  ASSERT_TRUE(Fast) << Fast.message();
  EXPECT_TRUE(Slow->ValidationPassed);
  EXPECT_GE(Slow->Simulation.Stats.Cycles, Fast->Simulation.Stats.Cycles);
}

TEST(PipelineTest, SimplifyOptionPreservesResults) {
  // A program with removable identities: simplified and plain pipelines
  // agree on the outputs, and simplification prunes operations.
  StencilProgram P;
  P.IterationSpace = Shape({12, 12});
  addInput(P, "a");
  addStencil(P, "mid", "mid = a[0, 0] * 1.0 + a[0, 1] + 0.0;");
  addStencil(P, "out", "out = 1.0 ? mid[0, 0] - 0.0 : a[0, 0];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));

  PipelineOptions Plain;
  Plain.Simulator.UnconstrainedMemory = true;
  PipelineOptions Simplified = Plain;
  Simplified.SimplifyCode = true;

  auto A = runPipeline(P.clone(), Plain);
  auto B = runPipeline(std::move(P), Simplified);
  ASSERT_TRUE(A) << A.message();
  ASSERT_TRUE(B) << B.message();
  EXPECT_TRUE(A->ValidationPassed);
  EXPECT_TRUE(B->ValidationPassed);
  EXPECT_LT(B->Compiled.totalCensus().total(),
            A->Compiled.totalCensus().total());
  // Identical output values.
  EXPECT_EQ(A->Simulation.Outputs.at("out"),
            B->Simulation.Outputs.at("out"));
}

TEST(PipelineTest, Float64ProgramsRunEndToEnd) {
  StencilProgram P;
  P.IterationSpace = Shape({10, 10});
  Field Input;
  Input.Name = "a";
  Input.Type = DataType::Float64;
  Input.DimensionMask = {true, true};
  Input.Source = DataSource::random(5);
  P.Inputs.push_back(std::move(Input));
  addStencil(P, "out",
             "out = a[0,-1] + a[0,1] + a[-1,0] + a[1,0] - 4.0 * a[0,0];",
             DataType::Float64,
             {{"a", BoundaryCondition::constant(0.0)}});
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  auto Result = runPipeline(std::move(P), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_TRUE(Result->ValidationPassed);
}

TEST(PipelineTest, HdiffVectorized8EndToEnd) {
  PipelineOptions Options;
  Options.FuseStencils = true;
  Options.Simulator.UnconstrainedMemory = true;
  auto Result =
      runPipeline(workloads::horizontalDiffusion(4, 16, 16, 8), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_TRUE(Result->ValidationPassed);
  EXPECT_EQ(Result->Simulation.Stats.Cycles, Result->Runtime.TotalCycles);
}
