//===- tests/common/TestPrograms.h - Shared program builders ------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program builders shared by tests and benchmarks: classic kernels
/// (Laplace, Jacobi, diffusion), the Fig. 4 diamond DAG, linear chains for
/// the scaling experiments, and a random-program generator for
/// property-based tests.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TESTS_COMMON_TESTPROGRAMS_H
#define STENCILFLOW_TESTS_COMMON_TESTPROGRAMS_H

#include "frontend/ProgramLoader.h"
#include "frontend/Parser.h"
#include "frontend/SemanticAnalysis.h"
#include "ir/StencilProgram.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>
#include <vector>

namespace stencilflow {
namespace testing {

/// Builds and analyzes a program from parts; asserts success (programs in
/// tests are expected to be well-formed).
inline StencilProgram buildProgram(StencilProgram Program) {
  Error Err = analyzeProgram(Program);
  if (Err) {
    assert(false && "test program failed analysis");
  }
  return Program;
}

/// Adds a stencil node parsed from source to \p Program.
inline void addStencil(StencilProgram &Program, const std::string &Name,
                       const std::string &Source,
                       DataType Type = DataType::Float32,
                       std::map<std::string, BoundaryCondition> Boundaries =
                           {}) {
  StencilNode Node;
  Node.Name = Name;
  Node.Type = Type;
  Expected<StencilCode> Code = parseStencilCode(Source);
  assert(Code && "test stencil failed to parse");
  Node.Code = Code.takeValue();
  Node.Boundaries = std::move(Boundaries);
  Program.Nodes.push_back(std::move(Node));
}

/// Adds a full-rank input field.
inline void addInput(StencilProgram &Program, const std::string &Name,
                     DataType Type = DataType::Float32,
                     DataSource Source = DataSource::random(7)) {
  Field Input;
  Input.Name = Name;
  Input.Type = Type;
  Input.DimensionMask =
      std::vector<bool>(Program.IterationSpace.rank(), true);
  Input.Source = Source;
  Program.Inputs.push_back(std::move(Input));
}

/// 2D Laplace: b = a[N] + a[S] + a[W] + a[E] - 4*a[C] (Fig. 9).
inline StencilProgram laplace2d(int64_t J = 32, int64_t I = 32,
                                int VectorWidth = 1) {
  StencilProgram Program;
  Program.Name = "laplace2d";
  Program.IterationSpace = Shape({J, I});
  Program.VectorWidth = VectorWidth;
  addInput(Program, "a");
  addStencil(Program, "b",
             "b = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1] - 4.0 * a[0, 0];",
             DataType::Float32,
             {{"a", BoundaryCondition::constant(0.0)}});
  Program.Outputs = {"b"};
  return buildProgram(std::move(Program));
}

/// Jacobi 3D 7-point: 6 additions + 1 multiplication per cell.
inline std::string jacobi3dSource(const std::string &Out,
                                  const std::string &In) {
  return Out + " = 0.142857 * (" + In + "[0,0,0] + " + In + "[-1,0,0] + " +
         In + "[1,0,0] + " + In + "[0,-1,0] + " + In + "[0,1,0] + " + In +
         "[0,0,-1] + " + In + "[0,0,1]);";
}

/// A chain of \p Length Jacobi 3D stencils (the iterative-stencil scaling
/// workload of Sec. VIII-C: "chaining together long linear sequences of
/// stencils ... analogous to time-tiled iterative stencils").
inline StencilProgram jacobi3dChain(int Length, int64_t K = 16,
                                    int64_t J = 16, int64_t I = 16,
                                    int VectorWidth = 1) {
  assert(Length >= 1);
  StencilProgram Program;
  Program.Name = formatString("jacobi3d_chain_%d", Length);
  Program.IterationSpace = Shape({K, J, I});
  Program.VectorWidth = VectorWidth;
  addInput(Program, "a0");
  for (int Step = 0; Step < Length; ++Step) {
    std::string In = formatString("a%d", Step);
    std::string Out = formatString("a%d", Step + 1);
    addStencil(Program, Out, jacobi3dSource(Out, In), DataType::Float32,
               {{In, BoundaryCondition::constant(0.0)}});
  }
  Program.Outputs = {formatString("a%d", Length)};
  return buildProgram(std::move(Program));
}

/// The Fig. 4 diamond: A feeds both B and C; C also consumes A directly.
/// B's initialization delay forces a delay buffer on the A->C edge.
inline StencilProgram diamondProgram(int64_t J = 24, int64_t I = 24) {
  StencilProgram Program;
  Program.Name = "diamond";
  Program.IterationSpace = Shape({J, I});
  addInput(Program, "in");
  addStencil(Program, "A", "A = in[0, 0] * 2.0;");
  addStencil(Program, "B",
             "B = A[-1, 0] + A[1, 0] + A[0, -1] + A[0, 1];",
             DataType::Float32, {{"A", BoundaryCondition::constant(0.0)}});
  addStencil(Program, "C", "C = A[0, 0] + B[0, 0];");
  Program.Outputs = {"C"};
  return buildProgram(std::move(Program));
}

/// A weighted sum feeding a select. Under the default kernel tier "b"
/// matches the weighted-sum chain and "c" runs the fused tape, so one
/// machine mixes both effective tiers.
inline StencilProgram mixedTierProgram(int64_t J = 10, int64_t I = 10,
                                       int VectorWidth = 1) {
  StencilProgram Program;
  Program.Name = "mixed_tiers";
  Program.IterationSpace = Shape({J, I});
  Program.VectorWidth = VectorWidth;
  addInput(Program, "a");
  addStencil(Program, "b", "b = a[0, -1] + a[0, 1] - 2.0 * a[0, 0];",
             DataType::Float32, {{"a", BoundaryCondition::constant(0.0)}});
  addStencil(Program, "c", "c = b[0, 0] > 0.0 ? b[0, 0] : a[0, 0];");
  Program.Outputs = {"c"};
  return buildProgram(std::move(Program));
}

/// Generates a random, valid stencil DAG for property-based testing.
///
/// The generator produces programs with 1-3 dimensions, multiple inputs,
/// fan-out and fan-in, mixed boundary conditions, ternaries, and varying
/// offset patterns — exercising the full analysis surface.
struct RandomProgramOptions {
  int MinNodes = 2;
  int MaxNodes = 8;
  int MaxInputs = 3;
  int MaxOffset = 2;
  int64_t MaxExtent = 12;
  bool AllowSelect = true;
  int VectorWidth = 1;
};

inline StencilProgram randomProgram(uint64_t Seed,
                                    RandomProgramOptions Options = {}) {
  Random Rng(Seed);
  StencilProgram Program;
  Program.Name = formatString("random_%llu",
                              static_cast<unsigned long long>(Seed));

  size_t Rank = static_cast<size_t>(Rng.nextInRange(1, 3));
  std::vector<int64_t> Extents;
  for (size_t Dim = 0; Dim != Rank; ++Dim) {
    int64_t Extent = Rng.nextInRange(4, Options.MaxExtent);
    Extents.push_back(Extent);
  }
  // Make the innermost extent divisible by the vector width.
  Extents.back() =
      ((Extents.back() + Options.VectorWidth - 1) / Options.VectorWidth) *
      Options.VectorWidth;
  Program.IterationSpace = Shape(Extents);
  Program.VectorWidth = Options.VectorWidth;

  int NumInputs = static_cast<int>(Rng.nextInRange(1, Options.MaxInputs));
  for (int In = 0; In < NumInputs; ++In)
    addInput(Program, formatString("in%d", In), DataType::Float32,
             DataSource::random(Seed * 31 + static_cast<uint64_t>(In)));

  int NumNodes = static_cast<int>(
      Rng.nextInRange(Options.MinNodes, Options.MaxNodes));
  std::vector<std::string> Available;
  for (const Field &Input : Program.Inputs)
    Available.push_back(Input.Name);

  for (int N = 0; N < NumNodes; ++N) {
    std::string Name = formatString("s%d", N);
    // Pick 1-3 distinct upstream fields.
    int NumSources = static_cast<int>(
        Rng.nextInRange(1, std::min<int64_t>(3, Available.size())));
    std::vector<std::string> Sources;
    while (static_cast<int>(Sources.size()) < NumSources) {
      std::string Candidate =
          Available[Rng.nextBounded(Available.size())];
      if (std::find(Sources.begin(), Sources.end(), Candidate) ==
          Sources.end())
        Sources.push_back(Candidate);
    }

    auto randomAccess = [&](const std::string &Field) {
      std::string Access = Field + "[";
      for (size_t Dim = 0; Dim != Rank; ++Dim) {
        if (Dim)
          Access += ", ";
        // Keep offsets small relative to extents.
        int MaxOff = static_cast<int>(
            std::min<int64_t>(Options.MaxOffset,
                              Program.IterationSpace.extent(Dim) / 2 - 1));
        if (MaxOff < 0)
          MaxOff = 0;
        Access += formatString(
            "%d", static_cast<int>(Rng.nextInRange(-MaxOff, MaxOff)));
      }
      return Access + "]";
    };

    // Build an expression summing a few accesses, with optional ternary.
    std::string Source;
    int Terms = static_cast<int>(Rng.nextInRange(2, 5));
    std::string Expr;
    for (int T = 0; T < Terms; ++T) {
      if (T)
        Expr += Rng.nextBool(0.7) ? " + " : " * ";
      const std::string &Field = Sources[Rng.nextBounded(Sources.size())];
      Expr += randomAccess(Field);
    }
    Expr = formatString("0.25 * (%s)", Expr.c_str());
    if (Options.AllowSelect && Rng.nextBool(0.3)) {
      std::string Guard = randomAccess(Sources[0]);
      Expr = formatString("(%s > 0.5) ? (%s) : (%s * 0.5)", Guard.c_str(),
                          Expr.c_str(), Expr.c_str());
    }
    Source = Name + " = " + Expr + ";";

    addStencil(Program, Name, Source, DataType::Float32, {});
    // Boundary conditions may only name fields the stencil actually reads;
    // the random expression does not necessarily use every candidate
    // source, so derive them from the recovered accesses.
    StencilNode &Node = Program.Nodes.back();
    Error AccessErr = analyzeNode(Program, Node);
    assert(!AccessErr && "random stencil failed analysis");
    (void)AccessErr;
    for (const FieldAccesses &FA : Node.Accesses) {
      bool HasCenter = false;
      for (const Offset &Off : FA.Offsets)
        HasCenter |= std::all_of(Off.begin(), Off.end(),
                                 [](int O) { return O == 0; });
      // Copy boundaries require a center access (validated by the IR).
      if (HasCenter && Rng.nextBool(0.5))
        Node.Boundaries[FA.Field] = BoundaryCondition::copy();
      else
        Node.Boundaries[FA.Field] =
            BoundaryCondition::constant(Rng.nextDoubleInRange(-1.0, 1.0));
    }
    Available.push_back(Name);
  }

  // Outputs: every node with no consumer. Need semantic analysis first.
  for (StencilNode &Node : Program.Nodes) {
    Error Err = analyzeNode(Program, Node);
    assert(!Err && "random program node failed analysis");
    (void)Err;
  }
  for (const StencilNode &Node : Program.Nodes)
    if (Program.consumersOf(Node.Name).empty())
      Program.Outputs.push_back(Node.Name);

  return buildProgram(std::move(Program));
}

} // namespace testing
} // namespace stencilflow

#endif // STENCILFLOW_TESTS_COMMON_TESTPROGRAMS_H
