//===- tests/core_test.cpp - Core analysis tests ------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "core/BufferAnalysis.h"
#include "core/DataflowAnalysis.h"
#include "core/Partitioner.h"
#include "core/ResourceModel.h"
#include "core/RuntimeModel.h"

#include <gtest/gtest.h>

using namespace stencilflow;
using namespace stencilflow::testing;

namespace {

const InternalBuffer *findBuffer(const NodeBuffers &Buffers,
                                 const std::string &Field) {
  for (const InternalBuffer &Buffer : Buffers.Buffers)
    if (Buffer.Field == Field)
      return &Buffer;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Internal buffers (Sec. IV-A)
//===----------------------------------------------------------------------===//

TEST(BufferAnalysisTest, PaperExampleTwoRows) {
  // 3D space {K, J, I}; accesses a[0,1,0] and a[0,-1,0] buffer two 1D rows:
  // 2I + W elements.
  int64_t K = 6, J = 8, I = 16;
  StencilProgram P;
  P.IterationSpace = Shape({K, J, I});
  addInput(P, "a");
  addStencil(P, "out", "out = a[0, 1, 0] + a[0, -1, 0];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  NodeBuffers Buffers =
      computeNodeBuffers(P, *P.findNode("out"), P.VectorWidth);
  const InternalBuffer *Buffer = findBuffer(Buffers, "a");
  ASSERT_NE(Buffer, nullptr);
  EXPECT_TRUE(Buffer->NeedsShiftRegister);
  EXPECT_EQ(Buffer->DistanceElements, 2 * I);
  EXPECT_EQ(Buffer->SizeElements, 2 * I + 1); // W = 1.
  EXPECT_EQ(Buffers.InitCycles, 2 * I);
}

TEST(BufferAnalysisTest, PaperExampleTwoSlices) {
  // Accesses b[0,0,0] and b[1,0,0] buffer one 2D slice: IJ + W elements
  // ([1,..] vs [-1,..] would be 2IJ + W, Fig. 7 bottom).
  int64_t K = 6, J = 8, I = 16;
  StencilProgram P;
  P.IterationSpace = Shape({K, J, I});
  addInput(P, "b");
  addStencil(P, "out", "out = b[0, 0, 0] + b[1, 0, 0];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  NodeBuffers Buffers =
      computeNodeBuffers(P, *P.findNode("out"), P.VectorWidth);
  const InternalBuffer *Buffer = findBuffer(Buffers, "b");
  ASSERT_NE(Buffer, nullptr);
  EXPECT_EQ(Buffer->DistanceElements, J * I);
  EXPECT_EQ(Buffer->SizeElements, J * I + 1);
}

TEST(BufferAnalysisTest, VectorWidthAddsToSize) {
  int64_t J = 8, I = 16, W = 4;
  StencilProgram P = laplace2d(J, I, static_cast<int>(W));
  NodeBuffers Buffers = computeNodeBuffers(P, P.Nodes[0], P.VectorWidth);
  const InternalBuffer *Buffer = findBuffer(Buffers, "a");
  ASSERT_NE(Buffer, nullptr);
  // Laplace accesses [-1,0]..[1,0]: distance = 2I.
  EXPECT_EQ(Buffer->DistanceElements, 2 * I);
  EXPECT_EQ(Buffer->SizeElements, 2 * I + W);
  // Init cycles shrink by W.
  EXPECT_EQ(Buffer->InitCycles, 2 * I / W);
}

TEST(BufferAnalysisTest, SingleAccessNeedsNoShiftRegister) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "out = a[0, 0] * 2.0;");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  NodeBuffers Buffers =
      computeNodeBuffers(P, *P.findNode("out"), P.VectorWidth);
  const InternalBuffer *Buffer = findBuffer(Buffers, "a");
  ASSERT_NE(Buffer, nullptr);
  EXPECT_FALSE(Buffer->NeedsShiftRegister);
  EXPECT_EQ(Buffer->DistanceElements, 0);
  EXPECT_EQ(Buffer->InitCycles, 0);
  EXPECT_EQ(Buffers.InitCycles, 0);
}

TEST(BufferAnalysisTest, MiddleAccessesDoNotChangeSize) {
  // "Additional accesses in between the highest and lowest offset in memory
  // order do not affect the total buffer size" (Sec. IV-A).
  int64_t J = 8, I = 16;
  StencilProgram P;
  P.IterationSpace = Shape({J, I});
  addInput(P, "a");
  addStencil(P, "two", "two = a[-1, 0] + a[1, 0];");
  addStencil(P, "five",
             "five = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1] + a[0, 0];");
  P.Outputs = {"two", "five"};
  ASSERT_FALSE(analyzeProgram(P));
  NodeBuffers Two = computeNodeBuffers(P, *P.findNode("two"), P.VectorWidth);
  NodeBuffers Five = computeNodeBuffers(P, *P.findNode("five"), P.VectorWidth);
  EXPECT_EQ(findBuffer(Two, "a")->SizeElements,
            findBuffer(Five, "a")->SizeElements);
  // But the tap count differs.
  EXPECT_EQ(findBuffer(Two, "a")->TapsElements.size(), 2u);
  EXPECT_EQ(findBuffer(Five, "a")->TapsElements.size(), 5u);
}

TEST(BufferAnalysisTest, FillDelaysSynchronizeFields) {
  // Two fields with different buffer sizes: the smaller starts filling
  // after max{B} - B_i iterations (Sec. IV-A).
  int64_t J = 8, I = 16;
  StencilProgram P;
  P.IterationSpace = Shape({J, I});
  addInput(P, "a");
  addInput(P, "b");
  addStencil(P, "out", "out = a[-1, 0] + a[1, 0] + b[0, -1] + b[0, 1];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  NodeBuffers Buffers =
      computeNodeBuffers(P, *P.findNode("out"), P.VectorWidth);
  const InternalBuffer *A = findBuffer(Buffers, "a");
  const InternalBuffer *B = findBuffer(Buffers, "b");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(A->DistanceElements, 2 * I);
  EXPECT_EQ(B->DistanceElements, 2);
  EXPECT_EQ(Buffers.InitCycles, 2 * I);
  EXPECT_EQ(A->FillDelayCycles, 0);
  EXPECT_EQ(B->FillDelayCycles, 2 * I - 2);
}

TEST(BufferAnalysisTest, TapsRelativeToOldest) {
  StencilProgram P = laplace2d(8, 16);
  NodeBuffers Buffers = computeNodeBuffers(P, P.Nodes[0], P.VectorWidth);
  const InternalBuffer *Buffer = findBuffer(Buffers, "a");
  ASSERT_NE(Buffer, nullptr);
  // Offsets [-1,0],[0,-1],[0,0],[0,1],[1,0] with I=16: taps 0,15,16,17,32.
  EXPECT_EQ(Buffer->TapsElements,
            (std::vector<int64_t>{0, 15, 16, 17, 32}));
}

TEST(BufferAnalysisTest, LowerRankInputsExcluded) {
  StencilProgram P;
  P.IterationSpace = Shape({4, 8, 8});
  addInput(P, "a");
  Field C;
  C.Name = "c";
  C.DimensionMask = {true, false, false};
  P.Inputs.push_back(C);
  addStencil(P, "out", "out = a[0,0,0] * c[0] + a[0,0,1] * c[1];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  NodeBuffers Buffers =
      computeNodeBuffers(P, *P.findNode("out"), P.VectorWidth);
  EXPECT_EQ(findBuffer(Buffers, "c"), nullptr);
  EXPECT_NE(findBuffer(Buffers, "a"), nullptr);
}

//===----------------------------------------------------------------------===//
// Delay buffers (Sec. IV-B)
//===----------------------------------------------------------------------===//

TEST(DataflowTest, DiamondGetsDelayBuffer) {
  StencilProgram P = diamondProgram(24, 24);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow) << Dataflow.message();

  // C consumes A directly and through B. The A->C edge must buffer B's
  // init + circuit latency; the B->C edge gets zero.
  const DataflowEdge *AC = Dataflow->findEdge("A", "C");
  const DataflowEdge *BC = Dataflow->findEdge("B", "C");
  ASSERT_NE(AC, nullptr);
  ASSERT_NE(BC, nullptr);
  EXPECT_EQ(BC->BufferDepth, 0);
  const NodeDataflow &B = Dataflow->nodeInfo("B");
  EXPECT_EQ(AC->BufferDepth, B.InitCycles + B.CircuitLatency);
  EXPECT_GT(AC->BufferDepth, 0);
}

TEST(DataflowTest, EveryNodeHasAZeroBufferEdge) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    StencilProgram P = randomProgram(Seed);
    auto Compiled = CompiledProgram::compile(std::move(P));
    ASSERT_TRUE(Compiled);
    auto Dataflow = analyzeDataflow(*Compiled);
    ASSERT_TRUE(Dataflow);
    for (const NodeDataflow &Node : Dataflow->Nodes) {
      int64_t MinBuffer = std::numeric_limits<int64_t>::max();
      bool HasEdge = false;
      for (const DataflowEdge &Edge : Dataflow->Edges) {
        if (Edge.Consumer != Node.Node)
          continue;
        HasEdge = true;
        MinBuffer = std::min(MinBuffer, Edge.BufferDepth);
        EXPECT_GE(Edge.BufferDepth, 0);
      }
      if (HasEdge) {
        EXPECT_EQ(MinBuffer, 0) << "node " << Node.Node << " seed " << Seed;
      }
    }
  }
}

TEST(DataflowTest, ChainDelaysAccumulate) {
  StencilProgram P = jacobi3dChain(4, 6, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow);
  // In a linear chain every node's total delay strictly grows and all
  // delay buffers are zero (single-path DAG).
  int64_t Last = -1;
  for (const NodeDataflow &Node : Dataflow->Nodes) {
    EXPECT_GT(Node.TotalDelay, Last);
    Last = Node.TotalDelay;
  }
  for (const DataflowEdge &Edge : Dataflow->Edges)
    EXPECT_EQ(Edge.BufferDepth, 0);
  // L equals the last node's delay.
  EXPECT_EQ(Dataflow->PipelineLatency, Last);
}

TEST(DataflowTest, PipelineLatencyComposition) {
  StencilProgram P = jacobi3dChain(3, 6, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  compute::LatencyTable Latencies;
  auto Dataflow = analyzeDataflow(*Compiled, Latencies);
  ASSERT_TRUE(Dataflow);
  // Each Jacobi buffers 2*J*I elements and has a known circuit depth.
  int64_t Init = 2 * 6 * 6;
  int64_t Circuit = Compiled->kernel(0).criticalPathLatency(Latencies);
  EXPECT_EQ(Dataflow->PipelineLatency, 3 * (Init + Circuit));
}

TEST(DataflowTest, VectorizationShrinksLatency) {
  StencilProgram Scalar = jacobi3dChain(2, 8, 8, 8, 1);
  StencilProgram Vector = jacobi3dChain(2, 8, 8, 8, 4);
  auto CompiledScalar = CompiledProgram::compile(std::move(Scalar));
  auto CompiledVector = CompiledProgram::compile(std::move(Vector));
  ASSERT_TRUE(CompiledScalar);
  ASSERT_TRUE(CompiledVector);
  auto DataflowScalar = analyzeDataflow(*CompiledScalar);
  auto DataflowVector = analyzeDataflow(*CompiledVector);
  ASSERT_TRUE(DataflowScalar);
  ASSERT_TRUE(DataflowVector);
  EXPECT_LT(DataflowVector->PipelineLatency,
            DataflowScalar->PipelineLatency);
}

TEST(DataflowTest, SharedInputReadOnce) {
  // Two stencils read the same input: both get edges from the same source
  // (it is "sufficient to read it from memory once", Sec. IV-B).
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "x", "x = a[0, 0] * 2.0;");
  addStencil(P, "y", "y = a[0, 1] + x[0, 0];");
  P.Outputs = {"y"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow);
  EXPECT_NE(Dataflow->findEdge("a", "x"), nullptr);
  EXPECT_NE(Dataflow->findEdge("a", "y"), nullptr);
  // y's direct 'a' edge must buffer x's latency.
  EXPECT_GT(Dataflow->findEdge("a", "y")->BufferDepth, 0);
}

TEST(DataflowTest, ReportIsReadable) {
  StencilProgram P = diamondProgram();
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow);
  std::string Report = Dataflow->report();
  EXPECT_NE(Report.find("pipeline latency"), std::string::npos);
  EXPECT_NE(Report.find("delay buffers"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Runtime model (Sec. VIII-A)
//===----------------------------------------------------------------------===//

TEST(RuntimeModelTest, CyclesAreLatencyPlusIterations) {
  StencilProgram P = jacobi3dChain(2, 8, 8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow);
  RuntimeEstimate Estimate = computeRuntimeEstimate(*Compiled, *Dataflow);
  EXPECT_EQ(Estimate.StreamedCycles, 8 * 8 * 8);
  EXPECT_EQ(Estimate.LatencyCycles, Dataflow->PipelineLatency);
  EXPECT_EQ(Estimate.TotalCycles,
            Estimate.LatencyCycles + Estimate.StreamedCycles);
  EXPECT_EQ(Estimate.FlopsPerCell, 14); // 2 stencils * (6 add + 1 mul).
  EXPECT_EQ(Estimate.TotalFlops, 14 * 8 * 8 * 8);
}

TEST(RuntimeModelTest, VectorizationDividesIterations) {
  StencilProgram P = jacobi3dChain(1, 8, 8, 8, 4);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow);
  RuntimeEstimate Estimate = computeRuntimeEstimate(*Compiled, *Dataflow);
  EXPECT_EQ(Estimate.StreamedCycles, 8 * 8 * 8 / 4);
}

TEST(RuntimeModelTest, SecondsAndOps) {
  RuntimeEstimate Estimate;
  Estimate.TotalCycles = 300000000;
  Estimate.TotalFlops = 600000000;
  EXPECT_DOUBLE_EQ(Estimate.seconds(300e6), 1.0);
  EXPECT_DOUBLE_EQ(Estimate.opsPerSecond(300e6), 600e6);
}

TEST(MemoryTrafficTest, PerfectReuseCountsEachFieldOnce) {
  // Diamond: input read once despite two consumers of A; one output.
  StencilProgram P = diamondProgram(8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  MemoryTraffic Traffic = computeMemoryTraffic(*Compiled);
  EXPECT_EQ(Traffic.ReadElements, 8 * 8);
  EXPECT_EQ(Traffic.WriteElements, 8 * 8);
  EXPECT_EQ(Traffic.ReadBytes, 8 * 8 * 4);
  // One streamed input + one output, W=1.
  EXPECT_EQ(Traffic.OperandsPerCycle, 2);
}

TEST(MemoryTrafficTest, HdiffStyleVolumes) {
  // 5 full-rank inputs + 5 1D inputs + 4 outputs: reads 5*KJI + 5*K,
  // writes 4*KJI (the Sec. IX-A accounting).
  int64_t K = 4, J = 6, I = 8;
  StencilProgram P;
  P.IterationSpace = Shape({K, J, I});
  for (int N = 0; N < 5; ++N)
    addInput(P, formatString("f%d", N));
  for (int N = 0; N < 5; ++N) {
    Field C;
    C.Name = formatString("c%d", N);
    C.DimensionMask = {true, false, false};
    P.Inputs.push_back(C);
  }
  for (int N = 0; N < 4; ++N)
    addStencil(P, formatString("o%d", N),
               formatString("o%d = f%d[0,0,0] * c%d[0] + f4[0,0,0] * c4[0];",
                            N, N, N));
  P.Outputs = {"o0", "o1", "o2", "o3"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  MemoryTraffic Traffic = computeMemoryTraffic(*Compiled);
  EXPECT_EQ(Traffic.ReadElements, 5 * K * J * I + 5 * K);
  EXPECT_EQ(Traffic.WriteElements, 4 * K * J * I);
  // Streamed endpoints: 5 full-rank inputs + 4 outputs = 9 operands/cycle
  // (the paper's "approximately 9 operands/cycle").
  EXPECT_EQ(Traffic.OperandsPerCycle, 9);
}

TEST(RooflineTest, LaplaceIntensity) {
  StencilProgram P = laplace2d(16, 16);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  RooflineAnalysis Roofline = computeRoofline(*Compiled);
  // Laplace: 4 adds + 1 mul = 5 flops; 1 read + 1 write = 2 operands.
  EXPECT_DOUBLE_EQ(Roofline.OpsPerOperand, 2.5);
  EXPECT_DOUBLE_EQ(Roofline.OpsPerByte, 2.5 / 4.0);
  EXPECT_DOUBLE_EQ(Roofline.boundPerformance(58.3e9), 2.5 / 4.0 * 58.3e9);
  EXPECT_NEAR(Roofline.requiredBandwidth(917.1e9), 917.1e9 / (2.5 / 4.0),
              1.0);
}

//===----------------------------------------------------------------------===//
// Resource model
//===----------------------------------------------------------------------===//

TEST(ResourceModelTest, Stratix10Capacities) {
  DeviceResources Device = DeviceResources::stratix10GX2800();
  EXPECT_EQ(Device.ALMs, 692000);
  EXPECT_EQ(Device.DSPs, 4468);
  EXPECT_EQ(Device.M20Ks, 8900);
}

TEST(ResourceModelTest, DSPsScaleWithVectorWidth) {
  auto CompiledScalar =
      CompiledProgram::compile(jacobi3dChain(1, 8, 8, 8, 1));
  auto CompiledVector =
      CompiledProgram::compile(jacobi3dChain(1, 8, 8, 8, 4));
  ASSERT_TRUE(CompiledScalar);
  ASSERT_TRUE(CompiledVector);
  auto DataflowScalar = analyzeDataflow(*CompiledScalar);
  auto DataflowVector = analyzeDataflow(*CompiledVector);
  ResourceUsage Scalar = estimateNodeResources(*CompiledScalar, 0,
                                               DataflowScalar->Buffers[0]);
  ResourceUsage Vector = estimateNodeResources(*CompiledVector, 0,
                                               DataflowVector->Buffers[0]);
  EXPECT_EQ(Vector.DSPs, 4 * Scalar.DSPs);
}

TEST(ResourceModelTest, JacobiDSPCount) {
  // Jacobi 3D: 6 adds + 1 mul = 7 flops -> 7 DSPs per lane (the paper's
  // peak kernels show ~1 DSP per flop lane).
  auto Compiled = CompiledProgram::compile(jacobi3dChain(1, 8, 8, 8, 1));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ResourceUsage Usage =
      estimateNodeResources(*Compiled, 0, Dataflow->Buffers[0]);
  EXPECT_EQ(Usage.DSPs, 7);
}

TEST(ResourceModelTest, M20KsTrackBufferBytes) {
  // A stencil buffering a full 2D slice needs slice_bytes / 2560 blocks.
  int64_t K = 4, J = 32, I = 80;
  StencilProgram P;
  P.IterationSpace = Shape({K, J, I});
  addInput(P, "a");
  addStencil(P, "out", "out = a[1, 0, 0] + a[-1, 0, 0];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Dataflow = analyzeDataflow(*Compiled);
  ResourceUsage Usage =
      estimateNodeResources(*Compiled, 0, Dataflow->Buffers[0]);
  ResourceModelConfig Config;
  int64_t BufferBytes = (2 * J * I + 1) * 4;
  EXPECT_GE(Usage.M20Ks, BufferBytes / Config.M20KBytes);
}

TEST(ResourceModelTest, FrequencyDegradesWithUtilization) {
  DeviceResources Device = DeviceResources::stratix10GX2800();
  ResourceUsage Small;
  Small.ALMs = 10000;
  ResourceUsage Large;
  Large.ALMs = 600000;
  double FSmall = estimateFrequencyMHz(Small, Device);
  double FLarge = estimateFrequencyMHz(Large, Device);
  EXPECT_GT(FSmall, FLarge);
  // Both in the paper's observed 292-317 MHz range (Sec. VIII-C) modulo
  // the clamp.
  EXPECT_LE(FSmall, 317.0);
  EXPECT_GE(FLarge, 250.0);
}

TEST(ResourceModelTest, UsageReportFormat) {
  ResourceUsage Usage;
  Usage.ALMs = 449000;
  Usage.FFs = 1329000;
  Usage.M20Ks = 2565;
  Usage.DSPs = 2304;
  std::string Report = Usage.report(DeviceResources::stratix10GX2800());
  EXPECT_NE(Report.find("ALM 449K (64.9%)"), std::string::npos);
  EXPECT_NE(Report.find("DSP 2304 (51.6%)"), std::string::npos);
}

TEST(ResourceModelTest, ProgramEstimateIncludesEndpoints) {
  auto Compiled = CompiledProgram::compile(laplace2d(16, 16));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ResourceUsage Node =
      estimateNodeResources(*Compiled, 0, Dataflow->Buffers[0]);
  ResourceUsage Total = estimateProgramResources(*Compiled, *Dataflow);
  EXPECT_GT(Total.ALMs, Node.ALMs); // Reader + writer endpoints.
}

//===----------------------------------------------------------------------===//
// Partitioner (Sec. III-B)
//===----------------------------------------------------------------------===//

TEST(PartitionerTest, SmallProgramFitsOneDevice) {
  auto Compiled = CompiledProgram::compile(laplace2d(16, 16));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  auto Result = partitionProgram(*Compiled, *Dataflow);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->numDevices(), 1u);
  EXPECT_TRUE(Result->RemoteStreams.empty());
}

TEST(PartitionerTest, LongChainSpills) {
  auto Compiled = CompiledProgram::compile(jacobi3dChain(40, 4, 8, 8));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  PartitionOptions Options;
  // Shrink the device so the chain must span several devices.
  Options.Device.ALMs = 60000;
  Options.Device.FFs = 240000;
  Options.Device.M20Ks = 800;
  Options.Device.DSPs = 400;
  Options.MaxDevices = 16;
  auto Result = partitionProgram(*Compiled, *Dataflow, Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_GT(Result->numDevices(), 1u);
  // A linear chain crossing D devices has exactly D-1 remote streams.
  EXPECT_EQ(Result->RemoteStreams.size(), Result->numDevices() - 1);
  // Streams flow forward.
  for (const RemoteStream &Stream : Result->RemoteStreams)
    EXPECT_LT(Stream.SourceDevice, Stream.ConsumerDevice);
}

TEST(PartitionerTest, InputReplication) {
  // Two stencils on (forced) different devices read the same input field:
  // it must be resident on both (Fig. 5).
  StencilProgram P;
  P.IterationSpace = Shape({16, 16});
  addInput(P, "a");
  addStencil(P, "x", "x = a[0, 0] * 2.0;");
  addStencil(P, "y", "y = x[0, 0] + a[0, 1];");
  P.Outputs = {"y"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Dataflow = analyzeDataflow(*Compiled);
  PartitionOptions Options;
  // Force one node per device: each node uses at least one DSP, so a
  // one-DSP budget admits exactly one node per device.
  Options.TargetUtilization = 1.0;
  Options.Device.DSPs = 1;
  auto Result = partitionProgram(*Compiled, *Dataflow, Options);
  ASSERT_TRUE(Result) << Result.message();
  ASSERT_EQ(Result->numDevices(), 2u);
  // 'a' is consumed by x (device 0) and y (device 1): replicated to both.
  EXPECT_NE(std::find(Result->Devices[0].ReplicatedInputs.begin(),
                      Result->Devices[0].ReplicatedInputs.end(), "a"),
            Result->Devices[0].ReplicatedInputs.end());
  EXPECT_NE(std::find(Result->Devices[1].ReplicatedInputs.begin(),
                      Result->Devices[1].ReplicatedInputs.end(), "a"),
            Result->Devices[1].ReplicatedInputs.end());
}

TEST(PartitionerTest, FailsWhenTooLarge) {
  auto Compiled = CompiledProgram::compile(jacobi3dChain(40, 4, 8, 8));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  PartitionOptions Options;
  Options.Device.ALMs = 60000;
  Options.Device.FFs = 240000;
  Options.Device.M20Ks = 800;
  Options.Device.DSPs = 400;
  Options.MaxDevices = 1;
  auto Result = partitionProgram(*Compiled, *Dataflow, Options);
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.message().find("does not fit"), std::string::npos);
}

TEST(PartitionerTest, OutputsWrittenFromProducerDevice) {
  auto Compiled = CompiledProgram::compile(laplace2d(16, 16));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  auto Result = partitionProgram(*Compiled, *Dataflow);
  ASSERT_TRUE(Result);
  EXPECT_EQ(Result->Devices[0].OutputsWritten,
            (std::vector<std::string>{"b"}));
}
