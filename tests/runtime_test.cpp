//===- tests/runtime_test.cpp - Runtime library tests -------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "core/ValidRegion.h"
#include "fuzz/Generate.h"
#include "runtime/InputData.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Validation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace stencilflow;
using namespace stencilflow::testing;

//===----------------------------------------------------------------------===//
// Input materialization
//===----------------------------------------------------------------------===//

TEST(InputDataTest, SourcesProduceExpectedPatterns) {
  Shape Space({4, 4});
  Field F;
  F.Name = "a";
  F.DimensionMask = {true, true};

  F.Source = DataSource::zero();
  for (double V : materializeField(F, Space))
    EXPECT_EQ(V, 0.0);

  F.Source = DataSource::constant(2.5);
  for (double V : materializeField(F, Space))
    EXPECT_EQ(V, 2.5);

  F.Source = DataSource::ramp(0.5);
  std::vector<double> Ramp = materializeField(F, Space);
  EXPECT_EQ(Ramp[0], 0.0);
  EXPECT_EQ(Ramp[4], 2.0);

  F.Source = DataSource::random(7);
  std::vector<double> R1 = materializeField(F, Space);
  std::vector<double> R2 = materializeField(F, Space);
  EXPECT_EQ(R1, R2); // Deterministic.
  F.Source = DataSource::random(8);
  EXPECT_NE(R1, materializeField(F, Space));
}

TEST(InputDataTest, ValuesRoundedToFloat32) {
  Shape Space({8});
  Field F;
  F.Name = "a";
  F.DimensionMask = {true};
  F.Source = DataSource::random(3);
  for (double V : materializeField(F, Space))
    EXPECT_EQ(V, static_cast<double>(static_cast<float>(V)));
}

TEST(InputDataTest, LowerRankFieldSized) {
  Shape Space({4, 8, 16});
  Field F;
  F.Name = "c";
  F.DimensionMask = {true, false, false};
  EXPECT_EQ(materializeField(F, Space).size(), 4u);
}

//===----------------------------------------------------------------------===//
// Reference executor
//===----------------------------------------------------------------------===//

TEST(ReferenceTest, LaplaceInterior) {
  StencilProgram P = laplace2d(8, 8);
  P.Inputs[0].Source = DataSource::ramp(1.0);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Inputs = materializeInputs(Compiled->program());
  auto Result = runReference(*Compiled, Inputs);
  ASSERT_TRUE(Result) << Result.message();
  // Laplace of a linear ramp is zero in the interior.
  const std::vector<double> &B = Result->field("b");
  for (int64_t J = 1; J < 7; ++J)
    for (int64_t I = 1; I < 7; ++I)
      EXPECT_NEAR(B[static_cast<size_t>(J * 8 + I)], 0.0, 1e-4);
}

TEST(ReferenceTest, ConstantBoundaryApplied) {
  StencilProgram P;
  P.IterationSpace = Shape({1, 4});
  addInput(P, "a", DataType::Float32, DataSource::constant(1.0));
  addStencil(P, "out", "out = a[0, -1];", DataType::Float32,
             {{"a", BoundaryCondition::constant(9.0)}});
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Result = runReference(*Compiled, materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result);
  const std::vector<double> &Out = Result->field("out");
  EXPECT_EQ(Out[0], 9.0); // i=0 reads a[-1]: out of bounds.
  EXPECT_EQ(Out[1], 1.0);
}

TEST(ReferenceTest, CopyBoundaryUsesCenter) {
  StencilProgram P;
  P.IterationSpace = Shape({1, 4});
  addInput(P, "a", DataType::Float32, DataSource::ramp(1.0));
  addStencil(P, "out", "out = a[0, -1] + a[0, 0] * 0.0;", DataType::Float32,
             {{"a", BoundaryCondition::copy()}});
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Result = runReference(*Compiled, materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result);
  const std::vector<double> &Out = Result->field("out");
  EXPECT_EQ(Out[0], 0.0); // Copy: center value a[0] = 0.
  EXPECT_EQ(Out[1], 0.0); // In bounds: a[0] = 0.
  EXPECT_EQ(Out[2], 1.0);
}

TEST(ReferenceTest, ShrinkLeavesBoundaryUntouched) {
  StencilProgram P;
  P.IterationSpace = Shape({4, 4});
  addInput(P, "a", DataType::Float32, DataSource::constant(1.0));
  StencilNode Node;
  Node.Name = "out";
  Node.ShrinkOutput = true;
  auto Code = parseStencilCode(
      "out = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1];");
  ASSERT_TRUE(Code);
  Node.Code = Code.takeValue();
  P.Nodes.push_back(std::move(Node));
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Result = runReference(*Compiled, materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result);
  const std::vector<double> &Out = Result->field("out");
  // Border cells dropped (remain 0), interior computed.
  EXPECT_EQ(Out[0], 0.0);
  EXPECT_EQ(Out[3], 0.0);
  EXPECT_EQ(Out[static_cast<size_t>(1 * 4 + 1)], 4.0);
}

TEST(ReferenceTest, ChainPropagates) {
  StencilProgram P = jacobi3dChain(3, 6, 6, 6);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Result = runReference(*Compiled, materializeInputs(Compiled->program()));
  ASSERT_TRUE(Result);
  // All intermediates present.
  EXPECT_TRUE(Result->Fields.count("a1"));
  EXPECT_TRUE(Result->Fields.count("a2"));
  EXPECT_TRUE(Result->Fields.count("a3"));
}

TEST(ReferenceTest, MissingInputRejected) {
  StencilProgram P = laplace2d(4, 4);
  auto Compiled = CompiledProgram::compile(std::move(P));
  std::map<std::string, std::vector<double>> Empty;
  EXPECT_FALSE(runReference(*Compiled, Empty));
}

TEST(ReferenceTest, WrongSizeInputRejected) {
  StencilProgram P = laplace2d(4, 4);
  auto Compiled = CompiledProgram::compile(std::move(P));
  std::map<std::string, std::vector<double>> Inputs;
  Inputs["a"] = std::vector<double>(7, 0.0);
  EXPECT_FALSE(runReference(*Compiled, Inputs));
}

TEST(ReferenceTest, ParallelMatchesSequential) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    StencilProgram P = randomProgram(Seed);
    auto Compiled = CompiledProgram::compile(std::move(P));
    ASSERT_TRUE(Compiled);
    auto Inputs = materializeInputs(Compiled->program());
    auto Sequential = runReference(*Compiled, Inputs);
    auto Parallel = runReferenceParallel(*Compiled, Inputs, 4);
    ASSERT_TRUE(Sequential);
    ASSERT_TRUE(Parallel);
    for (const auto &[Name, Data] : Sequential->Fields) {
      ValidationReport Report =
          validateField(Name, Parallel->field(Name), Data);
      EXPECT_TRUE(Report.Passed) << "seed " << Seed << ": "
                                 << Report.Summary;
    }
  }
}

//===----------------------------------------------------------------------===//
// The block oracle against the per-cell reference it replaced
//===----------------------------------------------------------------------===//

namespace {

/// The reference executor before it evaluated blocks of cells: for every
/// cell, a bounds-checked read per slot, then the scalar interpreter
/// (\c Kernel::evaluate). Kept here as the check of the block oracle.
class PerCellReference {
public:
  static std::map<std::string, std::vector<double>>
  run(const CompiledProgram &Compiled,
      const std::map<std::string, std::vector<double>> &Inputs) {
    const StencilProgram &Program = Compiled.program();
    std::map<std::string, std::vector<double>> Fields;
    for (const Field &Input : Program.Inputs)
      Fields[Input.Name] = Inputs.at(Input.Name);
    const Shape &Space = Program.IterationSpace;
    for (size_t NodeIndex : Compiled.topologicalOrder()) {
      const StencilNode &Node = Program.Nodes[NodeIndex];
      const compute::Kernel &Kernel = Compiled.kernel(NodeIndex);
      std::vector<Slot> Slots;
      for (const compute::KernelInput &In : Kernel.inputs())
        Slots.push_back(slotOf(Program, Node, In, Fields));
      ValidRegion Region = computeValidRegion(Program, Node);
      std::vector<double> Output(static_cast<size_t>(Space.numCells()), 0.0);
      std::vector<double> Values(Slots.size());
      std::vector<double> Scratch(Kernel.instructions().size());
      for (int64_t Cell = 0; Cell != Space.numCells(); ++Cell) {
        std::vector<int64_t> Index = Space.delinearize(Cell);
        for (size_t S = 0; S != Slots.size(); ++S)
          Values[S] = Slots[S].read(Index);
        double Value = Kernel.evaluate(Values.data(), Scratch.data());
        if (!Node.ShrinkOutput || Region.contains(Index))
          Output[static_cast<size_t>(Cell)] = Value;
      }
      Fields[Node.Name] = std::move(Output);
    }
    return Fields;
  }

private:
  struct Slot {
    const std::vector<double> *Data = nullptr;
    std::vector<size_t> SpannedDims;
    std::vector<int64_t> Offsets, Extents, Strides;
    BoundaryCondition Boundary;

    double read(const std::vector<int64_t> &Index) const {
      int64_t Linear = 0, Center = 0;
      bool InBounds = true;
      for (size_t Dim = 0; Dim != SpannedDims.size(); ++Dim) {
        int64_t Component = Index[SpannedDims[Dim]] + Offsets[Dim];
        InBounds &= Component >= 0 && Component < Extents[Dim];
        Linear += Component * Strides[Dim];
        Center += Index[SpannedDims[Dim]] * Strides[Dim];
      }
      if (InBounds)
        return (*Data)[static_cast<size_t>(Linear)];
      if (Boundary.Kind == BoundaryKind::Constant)
        return Boundary.Value;
      return (*Data)[static_cast<size_t>(Center)];
    }
  };

  static Slot slotOf(const StencilProgram &Program, const StencilNode &Node,
                     const compute::KernelInput &In,
                     const std::map<std::string, std::vector<double>> &Fields) {
    Slot S;
    S.Data = &Fields.at(In.Field);
    const std::vector<bool> &Mask = Program.fieldDimensionMask(In.Field);
    for (size_t Dim = 0; Dim != Mask.size(); ++Dim)
      if (Mask[Dim])
        S.SpannedDims.push_back(Dim);
    for (int Component : In.Off)
      S.Offsets.push_back(Component);
    S.Extents = Program.fieldShape(In.Field).extents();
    S.Strides.assign(S.Extents.size(), 1);
    for (size_t Dim = S.Extents.size(); Dim-- > 1;)
      S.Strides[Dim - 1] = S.Strides[Dim] * S.Extents[Dim];
    S.Boundary = Node.boundaryFor(In.Field);
    return S;
  }
};

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

/// Runs \p P through the block oracle, sequentially and on several thread
/// counts whose ranges split rows, and expects every field bit-identical
/// to the per-cell reference.
void expectBlockOracleMatchesPerCell(StencilProgram P,
                                     const std::string &What) {
  SCOPED_TRACE(What);
  Expected<CompiledProgram> Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled) << Compiled.message();
  auto Inputs = materializeInputs(Compiled->program());
  auto Expected = PerCellReference::run(*Compiled, Inputs);
  for (int Threads : {1, 3, 7}) {
    auto Blocks = Threads == 1
                      ? runReference(*Compiled, Inputs)
                      : runReferenceParallel(*Compiled, Inputs, Threads);
    ASSERT_TRUE(Blocks) << Blocks.message();
    ASSERT_EQ(Blocks->Fields.size(), Expected.size());
    for (const auto &[Name, Data] : Expected)
      EXPECT_TRUE(sameBits(Blocks->field(Name), Data))
          << Name << " with " << Threads << " thread(s): "
          << validateField(Name, Blocks->field(Name), Data).Summary;
  }
}

/// \p P with every node and input retyped to \p Type, and every other
/// node's output shrunk to its valid region.
StencilProgram retyped(StencilProgram P, DataType Type) {
  for (Field &Input : P.Inputs)
    Input.Type = Type;
  for (size_t I = 0; I != P.Nodes.size(); ++I) {
    P.Nodes[I].Type = Type;
    P.Nodes[I].ShrinkOutput = I % 2 == 1;
  }
  return P;
}

} // namespace

TEST(BlockOracleTest, GeneratedProgramsOfEveryProfile) {
  std::pair<const char *, fuzz::GenConfig> Profiles[] = {
      {"default", fuzz::GenConfig()},
      {"deep-rings", fuzz::GenConfig::deepRings()},
      {"wide-dags", fuzz::GenConfig::wideDags()},
      {"degenerate", fuzz::GenConfig::degenerate()},
  };
  for (const auto &[Name, Config] : Profiles)
    for (uint64_t Seed = 1; Seed <= 8; ++Seed)
      expectBlockOracleMatchesPerCell(
          fuzz::generateProgram(Seed, Config),
          formatString("%s seed %llu", Name,
                       static_cast<unsigned long long>(Seed)));
}

TEST(BlockOracleTest, EveryElementTypeAndShrunkOutputs) {
  // Ramps reach past 1, so the integer types keep nonzero values.
  std::pair<const char *, DataType> Types[] = {
      {"float32", DataType::Float32},
      {"float64", DataType::Float64},
      {"int32", DataType::Int32},
      {"int64", DataType::Int64},
  };
  for (const auto &[Name, Type] : Types)
    for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
      StencilProgram P = retyped(fuzz::generateProgram(Seed), Type);
      for (Field &Input : P.Inputs)
        Input.Source = DataSource::ramp(0.75);
      expectBlockOracleMatchesPerCell(
          std::move(P), formatString("%s seed %llu", Name,
                                     static_cast<unsigned long long>(Seed)));
    }
}

TEST(BlockOracleTest, WideRowsSubDimensionalInputsAndBothBoundaries) {
  // Rows of 150 cells span three blocks; the line inputs b (middle
  // dimension only) and c (outer and inner) and the scalar alpha read
  // with a stride of zero along some dimensions; shifted reads cross
  // every edge under constant and copy boundaries.
  for (BoundaryCondition Boundary :
       {BoundaryCondition::constant(-2.5), BoundaryCondition::copy()}) {
    StencilProgram P;
    P.IterationSpace = Shape({3, 5, 150});
    addInput(P, "a", DataType::Float64);
    for (auto [Name, Mask] :
         {std::pair<const char *, std::vector<bool>>{"b", {false, true, false}},
          {"c", {true, false, true}},
          {"alpha", {false, false, false}}}) {
      Field F;
      F.Name = Name;
      F.Type = DataType::Float64;
      F.DimensionMask = Mask;
      F.Source = DataSource::random(11);
      P.Inputs.push_back(F);
    }
    addStencil(P, "s",
               "s = a[0, 0, -70] + a[1, -1, 3] * b[1] - c[-1, 65] + "
               "alpha * a[0, 2, 1] + a[0, 0, 0] * b[0] * c[0, 0];",
               DataType::Float64,
               {{"a", Boundary}, {"b", Boundary}, {"c", Boundary}});
    addStencil(P, "t", "t = s[0, 0, -1] + s[0, 0, 1] - s[0, 0, 0] + c[0, 0];",
               DataType::Float64, {{"s", Boundary}});
    P.Nodes.back().ShrinkOutput = true;
    P.Outputs = {"t"};
    Error Err = analyzeProgram(P);
    ASSERT_FALSE(Err) << Err.message();
    expectBlockOracleMatchesPerCell(
        std::move(P), Boundary.Kind == BoundaryKind::Copy ? "copy"
                                                          : "constant");
  }
  // One-dimensional rows of every length around the block size.
  for (int64_t Extent : {1, 63, 64, 65, 129, 200}) {
    StencilProgram P;
    P.IterationSpace = Shape({Extent});
    addInput(P, "a");
    addStencil(P, "out", "out = a[-1] + a[0] * 2.0 + a[1];",
               DataType::Float32, {{"a", BoundaryCondition::copy()}});
    P.Outputs = {"out"};
    ASSERT_FALSE(analyzeProgram(P));
    expectBlockOracleMatchesPerCell(std::move(P),
                                    formatString("extent %lld",
                                                 static_cast<long long>(
                                                     Extent)));
  }
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

TEST(ValidationTest, ExactMatchPasses) {
  std::vector<double> A{1.0, 2.0, 3.0};
  ValidationReport Report = validateField("x", A, A);
  EXPECT_TRUE(Report.Passed);
  EXPECT_EQ(Report.Mismatches, 0);
}

TEST(ValidationTest, MismatchLocated) {
  std::vector<double> A{1.0, 2.0, 3.0};
  std::vector<double> B{1.0, 2.5, 3.0};
  ValidationReport Report = validateField("x", A, B);
  EXPECT_FALSE(Report.Passed);
  EXPECT_EQ(Report.Mismatches, 1);
  EXPECT_EQ(Report.FirstMismatch, 1);
  EXPECT_DOUBLE_EQ(Report.MaxAbsoluteError, 0.5);
}

TEST(ValidationTest, ToleranceAccepted) {
  std::vector<double> A{1.0, 2.0};
  std::vector<double> B{1.0, 2.0 + 1e-9};
  EXPECT_FALSE(validateField("x", A, B).Passed);
  EXPECT_TRUE(validateField("x", A, B, 1e-6).Passed);
}

TEST(ValidationTest, SizeMismatchFails) {
  std::vector<double> A{1.0};
  std::vector<double> B{1.0, 2.0};
  ValidationReport Report = validateField("x", A, B);
  EXPECT_FALSE(Report.Passed);
  EXPECT_NE(Report.Summary.find("size mismatch"), std::string::npos);
}

TEST(ValidationTest, NaNsCompareEqual) {
  double NaN = std::nan("");
  std::vector<double> A{NaN};
  std::vector<double> B{NaN};
  EXPECT_TRUE(validateField("x", A, B).Passed);
}

//===----------------------------------------------------------------------===//
// Iterative (time-loop) execution
//===----------------------------------------------------------------------===//

#include "runtime/Iterate.h"
#include "workloads/Workloads.h"

TEST(IterateTest, SingleStepEqualsPlainRun) {
  StencilProgram P = laplace2d(10, 10);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Inputs = materializeInputs(Compiled->program());
  auto Plain = runReference(*Compiled, Inputs);
  auto Iterated = iterateReference(*Compiled, Inputs, {}, 1);
  ASSERT_TRUE(Plain);
  ASSERT_TRUE(Iterated) << Iterated.message();
  EXPECT_EQ(Iterated->field("b"), Plain->field("b"));
}

TEST(IterateTest, IteratedSingleStepEqualsSpatialChain) {
  // The core equivalence behind the paper's scaling workload: iterating
  // one Jacobi step T times through memory is bit-identical to the
  // spatially chained T-deep program evaluated once (Sec. VIII-C).
  const int Steps = 4;
  StencilProgram Chain = workloads::jacobi3dChain(Steps, 8, 10, 10);
  StencilProgram Single = workloads::jacobi3dChain(1, 8, 10, 10);
  auto CompiledChain = CompiledProgram::compile(std::move(Chain));
  auto CompiledSingle = CompiledProgram::compile(std::move(Single));
  ASSERT_TRUE(CompiledChain);
  ASSERT_TRUE(CompiledSingle);

  auto Inputs = materializeInputs(CompiledChain->program());
  auto ChainResult = runReference(*CompiledChain, Inputs);
  ASSERT_TRUE(ChainResult);

  auto Iterated = iterateReference(
      *CompiledSingle, Inputs, {IterationBinding{"a1", "a0"}}, Steps);
  ASSERT_TRUE(Iterated) << Iterated.message();

  ValidationReport Report =
      validateField("a4", Iterated->field("a1"),
                    ChainResult->field(formatString("a%d", Steps)));
  EXPECT_TRUE(Report.Passed) << Report.Summary;
}

TEST(IterateTest, HdiffTimeLoopRuns) {
  // The production usage pattern: horizontal diffusion applied to the
  // wind/pressure fields every timestep.
  StencilProgram P = workloads::horizontalDiffusion(4, 12, 12);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Inputs = materializeInputs(Compiled->program());
  std::vector<IterationBinding> Bindings = {
      {"u_out", "u_in"}, {"v_out", "v_in"}, {"w_out", "w_in"},
      {"pp_out", "pp_in"}};
  auto Result = iterateReference(*Compiled, Inputs, Bindings, 3);
  ASSERT_TRUE(Result) << Result.message();
  // Three applications differ from one.
  auto Once = runReference(*Compiled, Inputs);
  EXPECT_NE(Result->field("u_out"), Once->field("u_out"));
}

TEST(IterateTest, RejectsBadBindings) {
  StencilProgram P = laplace2d(8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Inputs = materializeInputs(Compiled->program());
  EXPECT_FALSE(iterateReference(*Compiled, Inputs,
                                {IterationBinding{"nope", "a"}}, 2));
  EXPECT_FALSE(iterateReference(*Compiled, Inputs,
                                {IterationBinding{"b", "nope"}}, 2));
  EXPECT_FALSE(iterateReference(*Compiled, Inputs, {}, 0));
}
