//===- tests/engine_test.cpp - Kernel execution engine tests -------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Parity and tape-compilation tests for compute/Engine.h. The contract
// under test: every tier (scalar, batched, specialized, jit — and the
// per-unit auto mode) produces the SAME BITS as the reference
// Kernel::evaluate interpreter, for every opcode, for NaN/Inf inputs, for
// drain-padding zero lanes, and end-to-end through both simulation
// engines. The jit tier is covered through the same helpers: when no host
// compiler is available it degrades to specialized, so the parity
// assertions still hold (the directed jit tests guard on
// jit::compilerAvailable() where the Jit tier itself is asserted).
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "compute/Engine.h"
#include "compute/Jit.h"
#include "compute/Kernel.h"
#include "core/CompiledProgram.h"
#include "core/DataflowAnalysis.h"
#include "runtime/InputData.h"
#include "sim/Machine.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace stencilflow;
using namespace stencilflow::compute;
using namespace stencilflow::testing;

namespace {

/// Compiles a single-node program around \p Source with input fields
/// \p Fields in a 2D space (mirrors compute_test.cpp).
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

/// The bit pattern of a double, so NaN payloads and signed zeros compare
/// exactly instead of through IEEE == (where NaN != NaN and -0.0 == 0.0).
uint64_t bits(double Value) {
  uint64_t Pattern;
  std::memcpy(&Pattern, &Value, sizeof(Pattern));
  return Pattern;
}

/// Runs \p Krn under \p Tier at width \p Lanes over the SoA input block.
std::vector<double> evalTier(const Kernel &Krn, KernelEngine Tier, int Lanes,
                             const std::vector<double> &SoAInputs) {
  KernelEvaluator Eval = KernelEvaluator::compile(Krn, Tier, Lanes);
  std::vector<double> Out(static_cast<size_t>(Lanes), 0.0);
  std::vector<double> Scratch(Eval.scratchDoubles(), 0.0);
  Eval.evaluate(SoAInputs.data(), Out.data(), Scratch.data());
  return Out;
}

/// Asserts all three tiers agree bit-for-bit with the reference
/// interpreter on \p SoAInputs at width \p Lanes.
void expectTierParity(const Kernel &Krn, int Lanes,
                      const std::vector<double> &SoAInputs,
                      const std::string &Context) {
  // Reference: the scalar interpreter, one lane column at a time.
  size_t NumInputs = Krn.inputs().size();
  std::vector<double> Reference(static_cast<size_t>(Lanes));
  std::vector<double> Column(NumInputs);
  for (int Lane = 0; Lane != Lanes; ++Lane) {
    for (size_t In = 0; In != NumInputs; ++In)
      Column[In] = SoAInputs[In * static_cast<size_t>(Lanes) +
                             static_cast<size_t>(Lane)];
    Reference[static_cast<size_t>(Lane)] = Krn.evaluate(Column);
  }
  for (KernelEngine Tier :
       {KernelEngine::Scalar, KernelEngine::Batched, KernelEngine::Specialized,
        KernelEngine::Jit, KernelEngine::Auto}) {
    std::vector<double> Out = evalTier(Krn, Tier, Lanes, SoAInputs);
    for (int Lane = 0; Lane != Lanes; ++Lane) {
      double Got = Out[static_cast<size_t>(Lane)];
      double Want = Reference[static_cast<size_t>(Lane)];
      // When BOTH operands of an x86 arithmetic op are NaN the result takes
      // the first source operand's payload, and C lets the compiler commute
      // a+b freely — so two separately-compiled evaluations of the same
      // expression may legitimately return different NaN payloads. IEEE 754
      // leaves the choice unspecified. The parity contract is therefore:
      // bit-exact everywhere, with any-NaN == any-NaN. (NaN vs non-NaN,
      // signed zeros, and every finite value still compare by bits.)
      if (std::isnan(Got) && std::isnan(Want))
        continue;
      std::string Dump;
      for (double V : SoAInputs)
        Dump += formatString("%016llx ",
                             static_cast<unsigned long long>(bits(V)));
      ASSERT_EQ(bits(Got), bits(Want))
          << Context << ": tier " << kernelEngineName(Tier) << ", lane "
          << Lane << ": " << Got << " vs " << Want << "\ninputs: " << Dump;
    }
  }
}

/// A value pool heavy on IEEE edge cases: NaN, infinities, signed zeros,
/// denormals, and magnitudes that overflow float.
double specialValue(Random &Rng) {
  static const double Pool[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      -2.5,
      3.25,
      1e30,
      -1e30,
      1e300,
      1e-300,
      5e-324,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  if (Rng.nextBounded(2) == 0)
    return Pool[Rng.nextBounded(sizeof(Pool) / sizeof(Pool[0]))];
  return Rng.nextDoubleInRange(-8.0, 8.0);
}

std::vector<double> randomSoA(Random &Rng, size_t NumInputs, int Lanes,
                              bool PadTail) {
  std::vector<double> SoA(NumInputs * static_cast<size_t>(Lanes));
  for (double &V : SoA)
    V = specialValue(Rng);
  // Drain-phase padding: the machine zero-fills lanes past the edge of
  // the iteration space, so the tail lanes see literal 0.0 everywhere.
  if (PadTail && Lanes > 1)
    for (size_t In = 0; In != NumInputs; ++In)
      SoA[In * static_cast<size_t>(Lanes) + static_cast<size_t>(Lanes) - 1] =
          0.0;
  return SoA;
}

//===----------------------------------------------------------------------===//
// Random expression generator covering every parser-reachable opcode.
//===----------------------------------------------------------------------===//

std::string randomLeaf(Random &Rng) {
  static const char *Consts[] = {"0.0",  "1.0",  "2.0",   "0.5",
                                 "0.25", "-3.0", "1.5e3", "-0.125"};
  if (Rng.nextBounded(3) == 0)
    return Consts[Rng.nextBounded(sizeof(Consts) / sizeof(Consts[0]))];
  const char *Field = Rng.nextBool() ? "a" : "b";
  int64_t J = Rng.nextInRange(-1, 1);
  int64_t I = Rng.nextInRange(-1, 1);
  return formatString("%s[%lld, %lld]", Field, static_cast<long long>(J),
                      static_cast<long long>(I));
}

std::string randomExpr(Random &Rng, int Depth) {
  if (Depth <= 0 || Rng.nextBounded(5) == 0)
    return randomLeaf(Rng);
  switch (Rng.nextBounded(5)) {
  case 0: { // Binary operator.
    static const char *Ops[] = {"+",  "-",  "*",  "/",  "<",  "<=",
                                ">",  ">=", "==", "!=", "&&", "||"};
    return "(" + randomExpr(Rng, Depth - 1) + " " +
           Ops[Rng.nextBounded(sizeof(Ops) / sizeof(Ops[0]))] + " " +
           randomExpr(Rng, Depth - 1) + ")";
  }
  case 1: { // Unary operator.
    return std::string(Rng.nextBool() ? "(-" : "(!") +
           randomExpr(Rng, Depth - 1) + ")";
  }
  case 2: { // One-argument intrinsic.
    static const char *Fns[] = {"sqrt", "fabs",  "exp",  "log", "sin",
                                "cos",  "tanh",  "floor", "ceil"};
    return std::string(Fns[Rng.nextBounded(sizeof(Fns) / sizeof(Fns[0]))]) +
           "(" + randomExpr(Rng, Depth - 1) + ")";
  }
  case 3: { // Two-argument intrinsic.
    static const char *Fns[] = {"min", "max", "pow"};
    return std::string(Fns[Rng.nextBounded(3)]) + "(" +
           randomExpr(Rng, Depth - 1) + ", " + randomExpr(Rng, Depth - 1) +
           ")";
  }
  default: // Ternary select.
    return "(" + randomExpr(Rng, Depth - 1) + " ? " +
           randomExpr(Rng, Depth - 1) + " : " + randomExpr(Rng, Depth - 1) +
           ")";
  }
}

//===----------------------------------------------------------------------===//
// Machine-level parity helper.
//===----------------------------------------------------------------------===//

/// Runs \p Program end to end on the simulator under the requested kernel
/// engine, returning the raw output fields.
std::map<std::string, std::vector<double>>
runMachine(StencilProgram Program, KernelEngine KernelExec) {
  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.KernelExec = KernelExec;
  auto Compiled = CompiledProgram::compile(std::move(Program));
  EXPECT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  EXPECT_TRUE(Dataflow) << Dataflow.message();
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  EXPECT_TRUE(M) << M.message();
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = M->run(Inputs);
  EXPECT_TRUE(Result) << Result.message();
  return Result->Outputs;
}

/// Asserts all kernel tiers produce bit-identical outputs for the program
/// \p Build returns, using the scalar tier as the reference. Takes a
/// builder because StencilProgram is move-only: each run gets a fresh
/// instance.
template <class BuilderFn>
void expectMachineParity(BuilderFn Build, const std::string &Context) {
  auto Reference = runMachine(Build(), KernelEngine::Scalar);
  for (KernelEngine Exec : {KernelEngine::Batched, KernelEngine::Specialized,
                            KernelEngine::Jit, KernelEngine::Auto}) {
    auto Outputs = runMachine(Build(), Exec);
    ASSERT_EQ(Outputs.size(), Reference.size()) << Context;
    for (const auto &[Name, Field] : Reference) {
      const std::vector<double> &Got = Outputs.at(Name);
      ASSERT_EQ(Got.size(), Field.size()) << Context;
      for (size_t I = 0; I != Field.size(); ++I)
        ASSERT_EQ(bits(Got[I]), bits(Field[I]))
            << Context << ": field " << Name << "[" << I << "] under "
            << kernelEngineName(Exec) << ": " << Got[I] << " vs " << Field[I];
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine selection plumbing
//===----------------------------------------------------------------------===//

TEST(EngineTest, NameRoundTrip) {
  for (KernelEngine Engine :
       {KernelEngine::Scalar, KernelEngine::Batched, KernelEngine::Specialized,
        KernelEngine::Jit, KernelEngine::Auto}) {
    auto Parsed = parseKernelEngine(kernelEngineName(Engine));
    ASSERT_TRUE(Parsed) << Parsed.message();
    EXPECT_EQ(*Parsed, Engine);
  }
  EXPECT_FALSE(parseKernelEngine("vectorized"));
  EXPECT_FALSE(parseKernelEngine(""));
}

TEST(EngineTest, TierReporting) {
  // A pure weighted sum pattern-matches into the chain specialization.
  Kernel Weighted = compileKernel(
      "out = 0.5 * a[0, 0] + 0.25 * a[0, 1] + 0.25 * a[0, -1];");
  KernelEvaluator Spec =
      KernelEvaluator::compile(Weighted, KernelEngine::Specialized, 4);
  EXPECT_EQ(Spec.tier(), KernelEngine::Specialized);
  EXPECT_EQ(Spec.specialization(), "weighted-sum-chain");
  EXPECT_EQ(Spec.scratchDoubles(), 0u);

  // Scalar compiles stay scalar and never specialize.
  KernelEvaluator Scalar =
      KernelEvaluator::compile(Weighted, KernelEngine::Scalar, 4);
  EXPECT_EQ(Scalar.tier(), KernelEngine::Scalar);
  EXPECT_TRUE(Scalar.specialization().empty());

  // A select cannot be expressed as a weighted-sum chain: the Specialized
  // tier must fall back to the batched tape and report the effective tier.
  Kernel Select =
      compileKernel("out = a[0, 0] > 0.0 ? a[0, 1] : a[0, -1];");
  KernelEvaluator Fallback =
      KernelEvaluator::compile(Select, KernelEngine::Specialized, 4);
  EXPECT_EQ(Fallback.tier(), KernelEngine::Batched);
  EXPECT_TRUE(Fallback.specialization().empty());
}

TEST(EngineTest, LaplaceSpecializes) {
  // The canonical 5-point Laplacian — the tape class the specialization
  // exists for — must pattern-match at both element types.
  for (DataType Type : {DataType::Float32, DataType::Float64}) {
    Kernel Krn = compileKernel(
        "out = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1] - 4.0 * a[0, 0];",
        {"a"}, {}, Type);
    KernelEvaluator Eval =
        KernelEvaluator::compile(Krn, KernelEngine::Specialized, 8);
    EXPECT_EQ(Eval.tier(), KernelEngine::Specialized);
    EXPECT_EQ(Eval.specialization(), "weighted-sum-chain");
    // Five taps fold into five chain terms (init + 3 adds + mul-sub).
    EXPECT_EQ(Eval.tapeLength(), 5u);
  }
}

TEST(EngineTest, CommutedConstChainSpecializes) {
  // jacobi3d's final statement multiplies the accumulated sum from the
  // *commuted* operand position: `const * sum`. A non-NaN constant cannot
  // win a NaN-payload selection, so IEEE add/mul are bit-commutative here
  // and the chain matcher accepts it instead of falling back to the
  // batched tape.
  for (DataType Type : {DataType::Float32, DataType::Float64}) {
    Kernel Krn = compileKernel(
        "out = 0.142857 * (a[0, -1] + a[0, 0] + a[0, 1]);", {"a"}, {},
        Type);
    KernelEvaluator Eval =
        KernelEvaluator::compile(Krn, KernelEngine::Specialized, 8);
    EXPECT_EQ(Eval.tier(), KernelEngine::Specialized);
    EXPECT_EQ(Eval.specialization(), "weighted-sum-chain");

    // Bit-exact across tiers, including NaN/Inf/signed-zero inputs.
    Random Rng(Type == DataType::Float32 ? 505 : 606);
    for (int Lanes : {1, 4, 8})
      for (int Round = 0; Round != 8; ++Round)
        expectTierParity(
            Krn, Lanes,
            randomSoA(Rng, Krn.inputs().size(), Lanes, Round % 2 == 1),
            formatString("commuted-const type=%d lanes=%d round=%d",
                         static_cast<int>(Type), Lanes, Round));
  }

  // `input * acc` must still fall back: the input operand can carry a
  // NaN at runtime, and then operand order picks the payload.
  Kernel Unsafe = compileKernel(
      "out = b[0, 0] * (a[0, -1] + a[0, 0] + a[0, 1]);", {"a", "b"});
  EXPECT_EQ(
      KernelEvaluator::compile(Unsafe, KernelEngine::Specialized, 8).tier(),
      KernelEngine::Batched);
}

TEST(EngineTest, DeadRegisterElimination) {
  // "u" is never used: its Mul and the Const feeding it must vanish from
  // the batched tape, leaving fewer ops than the kernel's instruction
  // stream. Disable builder-side folding/CSE so the engine passes do the
  // work themselves.
  KernelOptions Options;
  Options.EnableConstantFolding = false;
  Options.EnableCSE = false;
  Kernel Krn = compileKernel(
      "t = a[0, 0] + 1.0; u = t * 3.0; out = t + a[0, 1];", {"a"}, Options);
  KernelEvaluator Batched =
      KernelEvaluator::compile(Krn, KernelEngine::Batched, 4);
  EXPECT_LT(Batched.tapeLength(), Krn.instructions().size());

  Random Rng(7);
  expectTierParity(Krn, 4, randomSoA(Rng, Krn.inputs().size(), 4, false),
                   "dead-register kernel");
}

TEST(EngineTest, ConstantFolding) {
  // With builder folding off, "2.0 * 3.0" survives into the kernel tape;
  // the engine's fold pass must collapse it so the batched tape carries
  // no arithmetic between constants.
  KernelOptions Options;
  Options.EnableConstantFolding = false;
  Kernel Krn =
      compileKernel("out = a[0, 0] + 2.0 * 3.0;", {"a"}, Options);
  KernelEvaluator Batched =
      KernelEvaluator::compile(Krn, KernelEngine::Batched, 4);
  EXPECT_LT(Batched.tapeLength(), Krn.instructions().size());

  Random Rng(11);
  expectTierParity(Krn, 4, randomSoA(Rng, Krn.inputs().size(), 4, false),
                   "const-fold kernel");
}

//===----------------------------------------------------------------------===//
// Bit-exact parity: directed
//===----------------------------------------------------------------------===//

TEST(EngineTest, AllOpcodesParity) {
  // One kernel through every opcode the parser can emit, including the
  // fused-multiply candidates and a select, under NaN/Inf-heavy inputs.
  const std::string Source =
      "t0 = a[0, 0] * b[0, 0] + a[0, 1];"
      "t1 = a[0, -1] - b[0, 1] * b[-1, 0];"
      "t2 = b[1, 0] * a[-1, 0] - t0;"
      "t3 = (a[0, 0] < b[0, 0]) + (a[0, 0] <= b[0, 0]) + "
      "     (a[0, 0] > b[0, 0]) + (a[0, 0] >= b[0, 0]) + "
      "     (a[0, 0] == b[0, 0]) + (a[0, 0] != b[0, 0]);"
      "t4 = (t3 && t0) + (t3 || t1) + (!t2);"
      "t5 = sqrt(fabs(t0)) + exp(t3) + log(fabs(t1)) + sin(t2) + cos(t3) "
      "     + tanh(t4) + floor(t0) + ceil(t1);"
      "t6 = min(t0, t1) + max(t2, t3) + pow(fabs(t4), 0.5) + (-t5);"
      "out = t3 != 0.0 ? t5 / (t6 + 1.0) : t6 - t4;";
  for (DataType Type : {DataType::Float32, DataType::Float64}) {
    Kernel Krn = compileKernel(Source, {"a", "b"}, {}, Type);
    Random Rng(Type == DataType::Float32 ? 101 : 202);
    for (int Lanes : {1, 4, 8})
      for (int Round = 0; Round != 8; ++Round)
        expectTierParity(
            Krn, Lanes,
            randomSoA(Rng, Krn.inputs().size(), Lanes, Round % 2 == 1),
            formatString("all-opcodes type=%d lanes=%d round=%d",
                         static_cast<int>(Type), Lanes, Round));
  }
}

TEST(EngineTest, WeightedSumParityWithSpecialValues) {
  // The specialized chain path specifically, under NaN/Inf/signed-zero
  // inputs and drain-padding zero lanes.
  for (DataType Type : {DataType::Float32, DataType::Float64}) {
    Kernel Krn = compileKernel(
        "out = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1] - 4.0 * a[0, 0];",
        {"a"}, {}, Type);
    ASSERT_EQ(
        KernelEvaluator::compile(Krn, KernelEngine::Specialized, 8).tier(),
        KernelEngine::Specialized);
    Random Rng(Type == DataType::Float32 ? 303 : 404);
    for (int Lanes : {1, 4, 8})
      for (int Round = 0; Round != 8; ++Round)
        expectTierParity(
            Krn, Lanes,
            randomSoA(Rng, Krn.inputs().size(), Lanes, Round % 2 == 1),
            formatString("weighted-sum type=%d lanes=%d round=%d",
                         static_cast<int>(Type), Lanes, Round));
  }
}

TEST(EngineTest, DrainPaddingAllZeroParity) {
  // During drain the machine feeds all-zero vectors; the tiers must agree
  // on the exact zero-input result too (e.g. 0*Inf never appears, but
  // 0/0 can when the kernel divides).
  Kernel Krn = compileKernel("out = a[0, 0] / (a[0, 1] + b[0, 0]) "
                             "+ sqrt(b[0, 1]) * 2.0;",
                             {"a", "b"});
  std::vector<double> Zero(Krn.inputs().size() * 8, 0.0);
  expectTierParity(Krn, 8, Zero, "all-zero drain padding");
}

//===----------------------------------------------------------------------===//
// Bit-exact parity: randomized tapes
//===----------------------------------------------------------------------===//

TEST(EngineTest, RandomizedTapeParity) {
  // Random expression DAGs over the full opcode set, both element types,
  // special-value-heavy inputs. Each seed yields a different tape shape,
  // so collectively this sweeps fusion, chain-matching, folding, and DRE
  // decisions against the reference interpreter.
  //
  // Only the float types are exercised: casting NaN to an integer type is
  // undefined behavior in the (pre-existing) rounding rule for Int32 and
  // Int64 kernels, and those types never receive non-finite inputs in
  // real programs.
  for (uint64_t Seed = 0; Seed != 40; ++Seed) {
    Random Rng(Seed * 7919 + 1);
    std::string Expr = randomExpr(Rng, 4);
    // An all-constant draw compiles to a stencil reading no fields, which
    // semantic analysis rejects; anchor it on a field access.
    if (Expr.find('[') == std::string::npos)
      Expr = "(" + Expr + ") + 0.0 * a[0, 0]";
    std::string Source = "out = " + Expr + ";";
    DataType Type = Seed % 2 ? DataType::Float64 : DataType::Float32;
    Kernel Krn = compileKernel(Source, {"a", "b"}, {}, Type);
    for (int Lanes : {1, 4, 8})
      expectTierParity(
          Krn, Lanes,
          randomSoA(Rng, Krn.inputs().size(), Lanes, Seed % 3 == 0),
          formatString("seed=%llu lanes=%d source=%s",
                       static_cast<unsigned long long>(Seed), Lanes,
                       Source.c_str()));
  }
}

//===----------------------------------------------------------------------===//
// End-to-end parity through the machine (serial and parallel engines)
//===----------------------------------------------------------------------===//

TEST(EngineTest, MachineParityLaplace) {
  expectMachineParity([] { return laplace2d(12, 16, 4); }, "laplace2d W=4");
}

TEST(EngineTest, MachineParityDiamond) {
  expectMachineParity([] { return diamondProgram(10, 10); }, "diamond");
}

TEST(EngineTest, MachineParityJacobiChain) {
  expectMachineParity([] { return jacobi3dChain(3, 4, 6, 8, 4); },
                      "jacobi3dChain W=4");
}

TEST(EngineTest, MachineParityRandomPrograms) {
  for (uint64_t Seed : {1u, 2u, 5u}) {
    RandomProgramOptions Options;
    Options.VectorWidth = 4;
    expectMachineParity(
        [&] { return randomProgram(Seed, Options); },
        formatString("randomProgram seed=%llu W=4",
                     static_cast<unsigned long long>(Seed)));
  }
  expectMachineParity([] { return randomProgram(9); },
                      "randomProgram seed=9 W=1");
}

TEST(EngineTest, JitTierReporting) {
  if (!jit::compilerAvailable())
    GTEST_SKIP() << "no host C++ compiler on PATH";
  Kernel Krn = compileKernel(
      "out = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1] - 4.0 * a[0, 0];");
  jit::CacheStats Before = jit::cacheStats();
  KernelEvaluator Eval = KernelEvaluator::compile(Krn, KernelEngine::Jit, 8);
  EXPECT_EQ(Eval.tier(), KernelEngine::Jit);
  EXPECT_EQ(Eval.specialization(), "jit");
  EXPECT_EQ(Eval.scratchDoubles(), 0u);
  // The fused Laplacian tape: 5 inputs + the 4.0 constant + 3 adds + a
  // mul-sub (the jit reports tape ops, not chain terms).
  EXPECT_EQ(Eval.tapeLength(), 10u);

  // A second compile of the same (tape, width) must hit the cache, and
  // the cached object stays mapped while any evaluator references it.
  KernelEvaluator Again = KernelEvaluator::compile(Krn, KernelEngine::Jit, 8);
  EXPECT_EQ(Again.tier(), KernelEngine::Jit);
  jit::CacheStats After = jit::cacheStats();
  EXPECT_GT(After.Entries, 0u);
  EXPECT_GT(After.Hits, Before.Hits);

  Random Rng(909);
  for (int Round = 0; Round != 4; ++Round)
    expectTierParity(Krn, 8,
                     randomSoA(Rng, Krn.inputs().size(), 8, Round % 2 == 1),
                     formatString("jit laplace round=%d", Round));
}

TEST(EngineTest, JitSourceEmitsRoundingDiscipline) {
  // The emitted translation unit must round after every op and embed
  // constants as bit patterns — never decimal literals that could
  // round-trip differently.
  Kernel Krn = compileKernel("out = a[0, 0] * 0.1 + a[0, 1];");
  KernelEvaluator Probe =
      KernelEvaluator::compile(Krn, KernelEngine::Batched, 4);
  ASSERT_GT(Probe.tapeLength(), 0u);
  // Rebuild the fused tape the way compile() does is private; instead
  // golden-check emitTapeSource on a hand-made tape.
  std::vector<TapeOp> Ops(3);
  Ops[0].Op = TapeOp::Kind::Input;
  Ops[0].Dst = 0;
  Ops[0].InputIndex = 0;
  Ops[1].Op = TapeOp::Kind::Const;
  Ops[1].Dst = 1;
  Ops[1].Constant = 0.1;
  Ops[2].Op = TapeOp::Kind::MulAdd;
  Ops[2].Dst = 2;
  Ops[2].A = 0;
  Ops[2].B = 0;
  Ops[2].C = 1;
  std::string Source =
      jit::emitTapeSource(Ops, 2, DataType::Float32, 4);
  EXPECT_NE(Source.find("(double)(float)"), std::string::npos)
      << Source;
  EXPECT_NE(Source.find("sf_c(0x3fb999999999999aULL)"), std::string::npos)
      << Source;
  EXPECT_NE(Source.find("sf_jit_eval"), std::string::npos);
  EXPECT_EQ(Source.find("0.1"), std::string::npos)
      << "constants must be bit patterns, not decimal literals\n" << Source;
  // The F64 variant must not narrow through float.
  std::string F64 = jit::emitTapeSource(Ops, 2, DataType::Float64, 4);
  EXPECT_EQ(F64.find("(double)(float)"), std::string::npos) << F64;
}

TEST(EngineTest, JitIrregularTapeParity) {
  // The tapes the specialized chain matcher REJECTS — hdiff-style selects
  // and flux limiting, jacobi3d-shaped non-chain groupings — are exactly
  // where the jit tier must carry its weight. Assert it actually jits
  // (no silent fallback) and stays bit-exact under NaN/Inf inputs.
  if (!jit::compilerAvailable())
    GTEST_SKIP() << "no host C++ compiler on PATH";
  const struct {
    const char *Name;
    const char *Source;
  } Cases[] = {
      {"hdiff-flux",
       "lap = a[0, 1] + a[0, -1] + a[1, 0] + a[-1, 0] - 4.0 * a[0, 0];"
       "flx = lap * (a[0, 1] - a[0, 0]);"
       "out = flx * (a[0, 1] - a[0, 0]) > 0.0 ? 0.0 : flx;"},
      {"jacobi3d-grouped",
       "out = ((a[0, -1] + a[0, 1]) + (a[-1, 0] + a[1, 0])) * 0.25 "
       "      / (1.0 + b[0, 0] * b[0, 0]);"},
  };
  for (const auto &C : Cases) {
    for (DataType Type : {DataType::Float32, DataType::Float64}) {
      Kernel Krn = compileKernel(C.Source, {"a", "b"}, {}, Type);
      KernelEvaluator Eval =
          KernelEvaluator::compile(Krn, KernelEngine::Jit, 8);
      ASSERT_EQ(Eval.tier(), KernelEngine::Jit) << C.Name;
      // These shapes must NOT chain-match — that is the point.
      ASSERT_EQ(
          KernelEvaluator::compile(Krn, KernelEngine::Specialized, 8).tier(),
          KernelEngine::Batched)
          << C.Name << " unexpectedly specialized";
      Random Rng(Type == DataType::Float32 ? 707 : 808);
      for (int Lanes : {1, 4, 8})
        for (int Round = 0; Round != 6; ++Round)
          expectTierParity(
              Krn, Lanes,
              randomSoA(Rng, Krn.inputs().size(), Lanes, Round % 2 == 1),
              formatString("%s type=%d lanes=%d round=%d", C.Name,
                           static_cast<int>(Type), Lanes, Round));
    }
  }
}

TEST(EngineTest, JitFallsBackWithoutCompiler) {
  // Pointing the compiler override at a nonexistent binary forces the
  // no-toolchain path: compile(Jit) must degrade gracefully — to the
  // chain specialization when one matches, else the batched tape — and
  // still evaluate correctly. Distinct sources/widths from every other
  // test so the process-wide cache cannot mask the failure path.
  ASSERT_EQ(setenv("STENCILFLOW_JIT_CXX", "/nonexistent/sf-jit-cxx", 1), 0);
  struct Restore {
    ~Restore() { unsetenv("STENCILFLOW_JIT_CXX"); }
  } RestoreEnv;
  EXPECT_FALSE(jit::compilerAvailable());

  Kernel Chain = compileKernel(
      "out = a[0, 0] * 1.2345 + a[0, 1] * 9.876 + a[0, -1];");
  KernelEvaluator Spec = KernelEvaluator::compile(Chain, KernelEngine::Jit, 2);
  EXPECT_EQ(Spec.tier(), KernelEngine::Specialized);
  EXPECT_EQ(Spec.specialization(), "weighted-sum-chain");

  Kernel Irregular = compileKernel(
      "out = a[0, 0] > 1.5 ? a[0, 1] * 3.25 : a[0, -1] / 1.75;");
  KernelEvaluator Tape =
      KernelEvaluator::compile(Irregular, KernelEngine::Jit, 2);
  EXPECT_EQ(Tape.tier(), KernelEngine::Batched);

  // Auto must also degrade without a compiler.
  KernelEvaluator Auto =
      KernelEvaluator::compile(Irregular, KernelEngine::Auto, 2);
  EXPECT_NE(Auto.tier(), KernelEngine::Jit);

  Random Rng(1234);
  for (const Kernel *K : {&Chain, &Irregular})
    expectTierParity(*K, 2, randomSoA(Rng, K->inputs().size(), 2, false),
                     "no-compiler fallback");
}

TEST(EngineTest, JitCompileTimeoutFallsBack) {
  // A hung (or pathologically slow) compiler must not hang the
  // simulator: the wall-clock bound kills the child's whole process
  // group, records a Timeouts cache stat, and compile(Jit) degrades
  // exactly as if no compiler existed.
  std::string Script = ::testing::TempDir() + "/sf_slow_cxx.sh";
  {
    std::FILE *File = std::fopen(Script.c_str(), "w");
    ASSERT_NE(File, nullptr);
    std::fputs("#!/bin/sh\nsleep 600\n", File);
    ASSERT_EQ(std::fclose(File), 0);
  }
  ASSERT_EQ(::chmod(Script.c_str(), 0755), 0);
  ASSERT_EQ(setenv("STENCILFLOW_JIT_CXX", Script.c_str(), 1), 0);
  ASSERT_EQ(setenv("STENCILFLOW_JIT_TIMEOUT_S", "1", 1), 0);
  struct Restore {
    ~Restore() {
      unsetenv("STENCILFLOW_JIT_CXX");
      unsetenv("STENCILFLOW_JIT_TIMEOUT_S");
    }
  } RestoreEnv;
  // The script is discoverable and executable, so the availability probe
  // says yes — the timeout is only observable at compile time.
  EXPECT_TRUE(jit::compilerAvailable());

  // A distinct source/width from every other test so the process-wide
  // cache cannot mask the timeout path.
  Kernel Krn = compileKernel(
      "out = a[0, 0] * 6.125 + a[0, 1] * 0.375 - a[0, -1] * 2.75;");
  jit::CacheStats Before = jit::cacheStats();
  auto Start = std::chrono::steady_clock::now();
  KernelEvaluator Eval = KernelEvaluator::compile(Krn, KernelEngine::Jit, 3);
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  // Bounded: the 600-second sleep was killed, not awaited.
  EXPECT_LT(Elapsed, 60.0);
  EXPECT_NE(Eval.tier(), KernelEngine::Jit);
  jit::CacheStats After = jit::cacheStats();
  EXPECT_EQ(After.Timeouts, Before.Timeouts + 1);
  EXPECT_GT(After.Failures, Before.Failures);

  // The fallback still evaluates correctly.
  Random Rng(5678);
  expectTierParity(Krn, 3, randomSoA(Rng, Krn.inputs().size(), 3, false),
                   "timeout fallback");
}

TEST(EngineTest, AutoSelectsPerKernel) {
  // The per-kernel policy: trivial copies stay on the specialized chain
  // (no compile spawned), substantial tapes prefer the jit when a
  // compiler exists.
  Kernel Copy = compileKernel("out = a[0, 0];");
  KernelEvaluator Triv = KernelEvaluator::compile(Copy, KernelEngine::Auto, 8);
  EXPECT_EQ(Triv.tier(), KernelEngine::Specialized);

  Kernel Big = compileKernel(
      "out = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1] - 4.0 * a[0, 0];");
  KernelEvaluator Chosen = KernelEvaluator::compile(Big, KernelEngine::Auto, 8);
  if (jit::compilerAvailable()) {
    EXPECT_EQ(Chosen.tier(), KernelEngine::Jit);
  } else {
    EXPECT_EQ(Chosen.tier(), KernelEngine::Specialized);
  }
  // tier() never reports the Auto mode itself.
  EXPECT_NE(Chosen.tier(), KernelEngine::Auto);
}

TEST(EngineTest, MachineReportsKernelEngine) {
  StencilProgram Program = laplace2d(12, 12);
  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.KernelExec = KernelEngine::Specialized;
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow) << Dataflow.message();
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M) << M.message();
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Stats.KernelExec, "specialized");
  // The Laplacian is a weighted sum: its unit must have specialized.
  EXPECT_GE(Result->Stats.SpecializedUnits, 1);
  // The effective tier is visible per unit, not just as a count.
  ASSERT_FALSE(Result->Stats.UnitKernelTiers.empty());
  for (const auto &[Unit, Tier] : Result->Stats.UnitKernelTiers)
    EXPECT_EQ(Tier, "specialized") << Unit;
  EXPECT_EQ(Result->Stats.kernelTierSummary(), "specialized x1");
}

TEST(EngineTest, MachineReportsEffectiveJitTiers) {
  // Requesting jit must surface the per-unit effective tier — jitted
  // units counted and named — so silent degradation is visible.
  if (!jit::compilerAvailable())
    GTEST_SKIP() << "no host C++ compiler on PATH";
  StencilProgram Program = diamondProgram(10, 10);
  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.KernelExec = KernelEngine::Jit;
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow) << Dataflow.message();
  auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M) << M.message();
  auto Result = M->run(materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Stats.KernelExec, "jit");
  EXPECT_GE(Result->Stats.JittedUnits, 1);
  ASSERT_FALSE(Result->Stats.UnitKernelTiers.empty());
  int64_t Jitted = 0;
  for (const auto &[Unit, Tier] : Result->Stats.UnitKernelTiers)
    Jitted += Tier == "jit" ? 1 : 0;
  EXPECT_EQ(Jitted, Result->Stats.JittedUnits);
  EXPECT_NE(Result->Stats.kernelTierSummary().find("jit x"),
            std::string::npos);
}
