//===- tests/compute_test.cpp - Compute library tests -------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "compute/Kernel.h"
#include "core/CompiledProgram.h"
#include "core/DataflowAnalysis.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace stencilflow;
using namespace stencilflow::compute;
using namespace stencilflow::testing;

namespace {

/// Compiles a single-node program around \p Source with input fields
/// \p Fields in a 2D space.
Kernel compileKernel(const std::string &Source,
                     const std::vector<std::string> &Fields = {"a"},
                     const KernelOptions &Options = {},
                     DataType Type = DataType::Float32) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  for (const std::string &F : Fields)
    addInput(P, F);
  addStencil(P, "out", Source, Type);
  P.Outputs = {"out"};
  Error Err = analyzeProgram(P);
  EXPECT_FALSE(Err) << (Err ? Err.message() : "");
  auto Compiled = Kernel::compile(*P.findNode("out"), Options);
  EXPECT_TRUE(Compiled);
  return Compiled.takeValue();
}

} // namespace

TEST(KernelTest, EvaluatesArithmetic) {
  Kernel K = compileKernel("out = a[0, 0] * 2.0 + a[0, 1];");
  ASSERT_EQ(K.inputs().size(), 2u);
  // Input order is deterministic: first use first.
  int Center = K.inputIndex("a", {0, 0});
  int East = K.inputIndex("a", {0, 1});
  ASSERT_GE(Center, 0);
  ASSERT_GE(East, 0);
  std::vector<double> Inputs(2);
  Inputs[static_cast<size_t>(Center)] = 3.0;
  Inputs[static_cast<size_t>(East)] = 4.0;
  EXPECT_DOUBLE_EQ(K.evaluate(Inputs), 10.0);
}

TEST(KernelTest, EvaluatesLocals) {
  Kernel K = compileKernel("t = a[0, 0] + 1.0; u = t * t; out = u - t;");
  std::vector<double> Inputs{2.0};
  EXPECT_DOUBLE_EQ(K.evaluate(Inputs), 9.0 - 3.0);
}

TEST(KernelTest, EvaluatesSelect) {
  Kernel K = compileKernel("out = a[0, 0] > 0.0 ? a[0, 1] : a[0, -1];");
  int Guard = K.inputIndex("a", {0, 0});
  int TrueVal = K.inputIndex("a", {0, 1});
  int FalseVal = K.inputIndex("a", {0, -1});
  std::vector<double> Inputs(3);
  Inputs[static_cast<size_t>(Guard)] = 1.0;
  Inputs[static_cast<size_t>(TrueVal)] = 10.0;
  Inputs[static_cast<size_t>(FalseVal)] = 20.0;
  EXPECT_DOUBLE_EQ(K.evaluate(Inputs), 10.0);
  Inputs[static_cast<size_t>(Guard)] = -1.0;
  EXPECT_DOUBLE_EQ(K.evaluate(Inputs), 20.0);
}

TEST(KernelTest, EvaluatesIntrinsics) {
  Kernel K = compileKernel(
      "out = min(sqrt(a[0, 0]), max(a[0, 1], 2.0)) + fabs(a[0, -1]);");
  int A = K.inputIndex("a", {0, 0});
  int B = K.inputIndex("a", {0, 1});
  int C = K.inputIndex("a", {0, -1});
  std::vector<double> Inputs(3);
  Inputs[static_cast<size_t>(A)] = 16.0;
  Inputs[static_cast<size_t>(B)] = 1.0;
  Inputs[static_cast<size_t>(C)] = -3.0;
  EXPECT_FLOAT_EQ(static_cast<float>(K.evaluate(Inputs)),
                  static_cast<float>(std::fmin(4.0, 2.0) + 3.0));
}

TEST(KernelTest, Float32RoundsIntermediates) {
  // 1 + 1e-9 rounds to 1.0f in fp32 but not in fp64.
  Kernel K32 = compileKernel("out = a[0, 0] + 0.000000001;", {"a"}, {},
                             DataType::Float32);
  Kernel K64 = compileKernel("out = a[0, 0] + 0.000000001;", {"a"}, {},
                             DataType::Float64);
  EXPECT_DOUBLE_EQ(K32.evaluate({1.0}), 1.0);
  EXPECT_GT(K64.evaluate({1.0}), 1.0);
}

TEST(KernelTest, CSEDeduplicatesSubexpressions) {
  KernelOptions NoCSE;
  NoCSE.EnableCSE = false;
  Kernel WithCSE =
      compileKernel("out = (a[0,0] + a[0,1]) * (a[0,0] + a[0,1]);");
  Kernel WithoutCSE = compileKernel(
      "out = (a[0,0] + a[0,1]) * (a[0,0] + a[0,1]);", {"a"}, NoCSE);
  EXPECT_LT(WithCSE.instructions().size(), WithoutCSE.instructions().size());
  EXPECT_EQ(WithCSE.census().Additions, 1);
  EXPECT_EQ(WithoutCSE.census().Additions, 2);
  // Semantics identical.
  EXPECT_DOUBLE_EQ(WithCSE.evaluate({2.0, 3.0}), 25.0);
  EXPECT_DOUBLE_EQ(WithoutCSE.evaluate({2.0, 3.0}), 25.0);
}

TEST(KernelTest, ConstantFolding) {
  Kernel K = compileKernel("out = a[0, 0] + (2.0 * 3.0 - 4.0);");
  // The constant subtree folds to a single constant: one add remains.
  OpCensus Census = K.census();
  EXPECT_EQ(Census.Additions, 1);
  EXPECT_EQ(Census.Multiplications, 0);
  EXPECT_DOUBLE_EQ(K.evaluate({1.0}), 3.0);
}

TEST(KernelTest, ConstantFoldingDisabled) {
  KernelOptions NoFold;
  NoFold.EnableConstantFolding = false;
  Kernel K = compileKernel("out = a[0, 0] + 2.0 * 3.0;", {"a"}, NoFold);
  EXPECT_EQ(K.census().Multiplications, 1);
  EXPECT_DOUBLE_EQ(K.evaluate({1.0}), 7.0);
}

TEST(KernelTest, CensusMatchesPaperAccounting) {
  Kernel K = compileKernel(
      "t = a[0,0] - a[0,1];"
      "u = sqrt(t * t);"
      "v = min(u, 1.0);"
      "w = max(v, 0.0);"
      "out = a[0,0] > 0.5 ? w / 2.0 : w + t;");
  OpCensus Census = K.census();
  EXPECT_EQ(Census.Additions, 2);       // sub + add
  EXPECT_EQ(Census.Multiplications, 1); // t * t
  EXPECT_EQ(Census.Divisions, 1);
  EXPECT_EQ(Census.SquareRoots, 1);
  EXPECT_EQ(Census.MinMax, 2);
  EXPECT_EQ(Census.Comparisons, 1);
  EXPECT_EQ(Census.Branches, 1);
  // Paper flop accounting: adds + muls + sqrts (+ divs).
  EXPECT_EQ(Census.flops(), 2 + 1 + 1 + 1);
}

TEST(KernelTest, CriticalPathLatency) {
  LatencyTable Latencies;
  // Chain of two adds: 8 cycles. Balanced tree of two adds: also depends
  // on structure.
  Kernel Chain = compileKernel("out = a[0,0] + a[0,1] + a[0,-1];");
  EXPECT_EQ(Chain.criticalPathLatency(Latencies),
            2 * Latencies.latency(OpCode::Add));

  Kernel Single = compileKernel("out = a[0,0] + a[0,1];");
  EXPECT_EQ(Single.criticalPathLatency(Latencies),
            Latencies.latency(OpCode::Add));
}

TEST(KernelTest, CriticalPathUsesConfiguredLatencies) {
  Kernel K = compileKernel("out = sqrt(a[0,0]) + 1.0;");
  LatencyTable Default;
  LatencyTable Custom;
  Custom.setLatency(OpCode::Sqrt, 100);
  EXPECT_EQ(K.criticalPathLatency(Default),
            Default.latency(OpCode::Sqrt) + Default.latency(OpCode::Add));
  EXPECT_EQ(K.criticalPathLatency(Custom),
            100 + Custom.latency(OpCode::Add));
}

TEST(KernelTest, CriticalPathPicksLongestBranch) {
  // One branch has a sqrt (deep); the other a single add (shallow).
  Kernel K = compileKernel("out = sqrt(a[0,0]) * (a[0,1] + 1.0);");
  LatencyTable Latencies;
  EXPECT_EQ(K.criticalPathLatency(Latencies),
            Latencies.latency(OpCode::Sqrt) +
                Latencies.latency(OpCode::Mul));
}

TEST(KernelTest, InputSlotsAreUnique) {
  Kernel K = compileKernel("out = a[0,0] + a[0,0] * a[0,1];");
  EXPECT_EQ(K.inputs().size(), 2u);
}

TEST(KernelTest, DumpShowsTape) {
  Kernel K = compileKernel("out = a[0, 0] + 1.0;");
  std::string Dump = K.dump();
  EXPECT_NE(Dump.find("input a[0, 0]"), std::string::npos);
  EXPECT_NE(Dump.find("add"), std::string::npos);
  EXPECT_NE(Dump.find("; output"), std::string::npos);
}

TEST(KernelTest, LogicalOperators) {
  Kernel K = compileKernel(
      "out = (a[0,0] > 0.0 && a[0,1] > 0.0) || !(a[0,-1] > 0.0) ? 1.0 : "
      "0.0;");
  int A = K.inputIndex("a", {0, 0});
  int B = K.inputIndex("a", {0, 1});
  int C = K.inputIndex("a", {0, -1});
  std::vector<double> Inputs(3, 1.0);
  EXPECT_DOUBLE_EQ(K.evaluate(Inputs), 1.0);
  Inputs[static_cast<size_t>(A)] = -1.0;
  EXPECT_DOUBLE_EQ(K.evaluate(Inputs), 0.0); // and fails, not-c fails
  Inputs[static_cast<size_t>(C)] = -1.0;
  EXPECT_DOUBLE_EQ(K.evaluate(Inputs), 1.0); // !(c>0) holds
  (void)B;
}

TEST(CompiledProgramTest, CompilesAllNodes) {
  StencilProgram P = diamondProgram();
  auto Compiled = CompiledProgram::compile(P.clone());
  ASSERT_TRUE(Compiled) << Compiled.message();
  EXPECT_EQ(Compiled->topologicalOrder().size(), 3u);
  EXPECT_GT(Compiled->kernelFor("B").census().Additions, 0);
}

TEST(CompiledProgramTest, TotalCensusAggregates) {
  StencilProgram P = jacobi3dChain(3, 8, 8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  // Each Jacobi has 6 adds + 1 mul.
  EXPECT_EQ(Compiled->totalCensus().Additions, 18);
  EXPECT_EQ(Compiled->totalCensus().Multiplications, 3);
  EXPECT_EQ(Compiled->totalCensus().flops(), 21);
}

TEST(CompiledProgramTest, RejectsInvalidProgram) {
  StencilProgram P;
  P.IterationSpace = Shape({8});
  EXPECT_FALSE(CompiledProgram::compile(std::move(P)));
}

//===----------------------------------------------------------------------===//
// Algebraic simplification
//===----------------------------------------------------------------------===//

#include "compute/LatencyConfig.h"
#include "compute/Simplify.h"

namespace {

/// Parses, simplifies and prints an expression.
std::string simplified(const std::string &Source) {
  auto E = parseExpression(Source);
  EXPECT_TRUE(E);
  ExprPtr Root = E.takeValue();
  compute::simplifyExpr(Root);
  return Root->toString();
}

} // namespace

TEST(SimplifyTest, AdditiveIdentities) {
  EXPECT_EQ(simplified("a + 0.0"), "a");
  EXPECT_EQ(simplified("0.0 + a"), "a");
  EXPECT_EQ(simplified("a - 0.0"), "a");
}

TEST(SimplifyTest, MultiplicativeIdentities) {
  EXPECT_EQ(simplified("a * 1.0"), "a");
  EXPECT_EQ(simplified("1.0 * a"), "a");
  EXPECT_EQ(simplified("a / 1.0"), "a");
  EXPECT_EQ(simplified("a * 0.0"), "0.0");
  EXPECT_EQ(simplified("0.0 * a"), "0.0");
}

TEST(SimplifyTest, SelectFolding) {
  EXPECT_EQ(simplified("1.0 ? a : b"), "a");
  EXPECT_EQ(simplified("0.0 ? a : b"), "b");
  EXPECT_EQ(simplified("c > 0.0 ? a : a"), "a");
}

TEST(SimplifyTest, DoubleNegation) {
  EXPECT_EQ(simplified("-(-a)"), "a");
}

TEST(SimplifyTest, CascadesToFixpoint) {
  // (a * 1 + 0) * 1 -> a in one call.
  EXPECT_EQ(simplified("(a * 1.0 + 0.0) * 1.0"), "a");
  // Select collapse exposes a multiplicative identity.
  EXPECT_EQ(simplified("(1.0 ? a : b) * 1.0 + 0.0 * c"), "a");
}

TEST(SimplifyTest, LeavesRealWorkAlone) {
  EXPECT_EQ(simplified("a + b"), "(a + b)");
  EXPECT_EQ(simplified("a * 2.0"), "(a * 2.0)");
  EXPECT_EQ(simplified("!(!a)"), "(!(!a))"); // Not idempotent on floats.
}

TEST(SimplifyTest, ReducesOpCensus) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "out = a[0, 0] * 1.0 + a[0, 1] * 0.0;");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  StencilNode &Node = P.Nodes[0];
  EXPECT_GT(compute::simplifyNodeCode(Node), 0);
  ASSERT_FALSE(analyzeNode(P, Node)); // Refresh accesses.
  auto Kernel = compute::Kernel::compile(Node);
  ASSERT_TRUE(Kernel);
  EXPECT_EQ(Kernel->census().Multiplications, 0);
  // The a[0,1] access disappeared entirely.
  EXPECT_EQ(Node.Accesses[0].Offsets.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Degenerate tapes: simplified vs unsimplified, across tiers
//===----------------------------------------------------------------------===//
//
// Degenerate shapes — constant-only subexpressions, zero coefficients,
// copy chains — are what the fuzzer's `degenerate` profile generates and
// what the tape compiler's folding/DRE passes rewrite most aggressively.
// Every tier must stay bit-exact with the scalar interpreter on them, and
// simplifying first (compute/Simplify.h) must not change a single bit.

#include "compute/Engine.h"

namespace {

/// Deterministic awkward input value for one cell, keyed by the slot's
/// (field, offset) identity so simplification-induced slot renumbering
/// cannot shift the grid: not exactly representable in float32,
/// sign-varying.
double cellValue(const KernelInput &Slot, int Lane) {
  size_t H = std::hash<std::string>{}(Slot.Field);
  for (int C : Slot.Off)
    H = H * 31 + static_cast<size_t>(C + 7);
  double Salt = static_cast<double>(H % 97);
  return 0.1 + 0.7 * Salt - 1.3 * static_cast<double>(Lane) + 1e-7 * Salt;
}

/// Evaluates \p K under \p Engine at width \p Lanes on the cellValue grid.
std::vector<double> evalTiered(const Kernel &K, KernelEngine Engine,
                               int Lanes) {
  KernelEvaluator E = KernelEvaluator::compile(K, Engine, Lanes);
  std::vector<double> SoA(K.inputs().size() * static_cast<size_t>(Lanes));
  for (size_t Slot = 0; Slot != K.inputs().size(); ++Slot)
    for (int Lane = 0; Lane != Lanes; ++Lane)
      SoA[Slot * static_cast<size_t>(Lanes) + static_cast<size_t>(Lane)] =
          cellValue(K.inputs()[Slot], Lane);
  std::vector<double> Out(static_cast<size_t>(Lanes));
  std::vector<double> Scratch(std::max<size_t>(1, E.scratchDoubles()));
  E.evaluate(SoA.data(), Out.data(), Scratch.data());
  return Out;
}

/// Builds the node, compiles it as-is and after simplification, and
/// asserts all tiers at widths {1, 4} agree bit-exactly on both.
void expectDegenerateParity(const std::string &Source, DataType Type,
                            const std::string &What) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addInput(P, "b");
  addStencil(P, "out", Source, Type);
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P)) << What;
  StencilNode &Node = P.Nodes[0];

  auto Unsimplified = Kernel::compile(Node);
  ASSERT_TRUE(Unsimplified) << What;
  compute::simplifyNodeCode(Node);
  ASSERT_FALSE(analyzeNode(P, Node)) << What;
  auto Simplified = Kernel::compile(Node);
  ASSERT_TRUE(Simplified) << What;

  for (int Lanes : {1, 4}) {
    // The scalar interpreter on the unsimplified kernel is the reference
    // everything else must hit bit-for-bit.
    std::vector<double> Want =
        evalTiered(*Unsimplified, KernelEngine::Scalar, Lanes);
    for (KernelEngine Engine :
         {KernelEngine::Scalar, KernelEngine::Specialized})
      for (const Kernel *K : {&*Unsimplified, &*Simplified}) {
        std::vector<double> Got = evalTiered(*K, Engine, Lanes);
        ASSERT_EQ(Got.size(), Want.size());
        for (size_t I = 0; I != Got.size(); ++I)
          ASSERT_EQ(Got[I], Want[I])
              << What << " tier " << kernelEngineName(Engine) << " lanes "
              << Lanes << " (simplified: " << (K == &*Simplified) << ")";
      }
  }
}

} // namespace

TEST(SimplifyTest, DegenerateZeroCoefficientParity) {
  for (DataType Type : {DataType::Float32, DataType::Float64})
    expectDegenerateParity("out = a[0, 0] * 1.0 + b[0, 0] * 0.0;", Type,
                           "zero-coefficient");
}

TEST(SimplifyTest, DegenerateCopyChainParity) {
  for (DataType Type : {DataType::Float32, DataType::Float64})
    expectDegenerateParity(
        "t1 = a[0, 0]; t2 = t1 * 1.0; t3 = t2 + 0.0; out = t3;", Type,
        "copy-chain");
}

TEST(SimplifyTest, DegenerateConstantSelectParity) {
  for (DataType Type : {DataType::Float32, DataType::Float64})
    expectDegenerateParity(
        "c = 1.0 * 4.0; out = (0.0 ? b[0, 0] : a[0, 0]) + c * 0.0;", Type,
        "constant-select");
}

TEST(SimplifyTest, DegenerateConstantOnlyLocalParity) {
  // The local folds to a constant inside the tape; the field read keeps
  // the node legal.
  for (DataType Type : {DataType::Float32, DataType::Float64})
    expectDegenerateParity(
        "c = 2.0 + 3.0; d = c * 0.5; out = a[0, 0] + d - d;", Type,
        "constant-only-local");
}

TEST(KernelEngineTest, JitRoundsPureCopyTapes) {
  // Regression (found by sf_fuzz, tests/fuzz_corpus/jit-copy-narrowing):
  // a pure-copy tape of a float32 node must round its input load to
  // float32 in every tier, at every width. A vectorizing compiler may
  // fold the (double)(float)x round-trip into a plain copy.
  Kernel K = compileKernel("out = a[0, 0];");
  ASSERT_EQ(K.elementType(), DataType::Float32);
  for (KernelEngine Engine : {KernelEngine::Scalar, KernelEngine::Specialized})
    for (int Lanes : {1, 2, 4, 8}) {
      KernelEvaluator Eval = KernelEvaluator::compile(K, Engine, Lanes);
      std::vector<double> SoA(static_cast<size_t>(Lanes), 0.1);
      std::vector<double> Out(static_cast<size_t>(Lanes));
      std::vector<double> Scratch(std::max<size_t>(1, Eval.scratchDoubles()));
      Eval.evaluate(SoA.data(), Out.data(), Scratch.data());
      for (double V : Out)
        EXPECT_EQ(V, static_cast<double>(static_cast<float>(0.1)))
            << kernelEngineName(Engine) << " lanes " << Lanes;
    }
}

//===----------------------------------------------------------------------===//
// Latency configuration
//===----------------------------------------------------------------------===//

TEST(LatencyConfigTest, OverridesFromJson) {
  auto Table = compute::latencyTableFromJsonText(
      R"({"add": 3, "sqrt": 28, "select": 2})");
  ASSERT_TRUE(Table) << Table.message();
  EXPECT_EQ(Table->latency(compute::OpCode::Add), 3);
  EXPECT_EQ(Table->latency(compute::OpCode::Sqrt), 28);
  EXPECT_EQ(Table->latency(compute::OpCode::Select), 2);
  // Unlisted ops keep defaults.
  compute::LatencyTable Defaults;
  EXPECT_EQ(Table->latency(compute::OpCode::Mul),
            Defaults.latency(compute::OpCode::Mul));
}

TEST(LatencyConfigTest, RejectsUnknownOps) {
  EXPECT_FALSE(compute::latencyTableFromJsonText(R"({"frobnicate": 1})"));
}

TEST(LatencyConfigTest, RejectsBadValues) {
  EXPECT_FALSE(compute::latencyTableFromJsonText(R"({"add": -1})"));
  EXPECT_FALSE(compute::latencyTableFromJsonText(R"({"add": 1.5})"));
  EXPECT_FALSE(compute::latencyTableFromJsonText(R"([1, 2])"));
}

TEST(LatencyConfigTest, ConfiguredLatenciesReachTheModel) {
  // Larger configured latencies increase circuit critical paths and with
  // them the pipeline latency L.
  StencilProgram P = laplace2d(16, 16);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Slow = compute::latencyTableFromJsonText(R"({"add": 40})");
  ASSERT_TRUE(Slow);
  auto DataflowDefault = analyzeDataflow(*Compiled);
  auto DataflowSlow = analyzeDataflow(*Compiled, *Slow);
  EXPECT_GT(DataflowSlow->PipelineLatency,
            DataflowDefault->PipelineLatency);
}
