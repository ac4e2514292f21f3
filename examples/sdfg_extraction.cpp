//===- examples/sdfg_extraction.cpp - The external-programs path --------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The "external programs" path of paper Fig. 13: instead of a JSON
// description, the input is a dataflow graph (SDFG) containing
// domain-specific stencil library nodes — the form a front-end compiler
// like Dawn produces for COSMO kernels (Fig. 17a). The graph is
// canonicalized with the MapFission and NestDim transformations
// (Sec. V-A), the standard stencil program is extracted, aggressively
// fused (Sec. V-B), and executed on the simulated hardware.
//
// Run:  ./sdfg_extraction [--size N]
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "runtime/Pipeline.h"
#include "sdfg/Graph.h"
#include "sdfg/Transforms.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace stencilflow;
using namespace stencilflow::sdfg;

namespace {

/// Builds a Dawn-style SDFG: a vertical map over k containing a chain of
/// two 2D stencils communicating through a scoped transient (Fig. 17a in
/// miniature).
SDFG buildExternalSDFG(int64_t K, int64_t Size) {
  SDFG G("external_laplap");
  G.Domain = Shape({K, Size, Size});
  (void)G.addContainer(Container{"field_in", DataType::Float32,
                                 {true, true, true}, ContainerKind::Array,
                                 0, false});
  (void)G.addContainer(Container{"lap", DataType::Float32,
                                 {false, true, true}, ContainerKind::Array,
                                 0, true});
  (void)G.addContainer(Container{"field_out", DataType::Float32,
                                 {true, true, true}, ContainerKind::Array,
                                 0, false});

  State &S = G.addState("vertical_loop");
  auto [Entry, Exit] = S.addMap("k", 0, K);

  StencilNode Lap;
  Lap.Name = "lap_op";
  Lap.Code = parseStencilCode("lap_op = field_in[0,-1] + field_in[0,1] + "
                              "field_in[-1,0] + field_in[1,0] - 4.0 * "
                              "field_in[0,0];")
                 .takeValue();
  Lap.Boundaries["field_in"] = BoundaryCondition::constant(0.0);
  StencilLibraryNode *LapNode = S.addStencil(std::move(Lap));

  StencilNode LapLap;
  LapLap.Name = "laplap_op";
  LapLap.Code = parseStencilCode("laplap_op = lap[0,-1] + lap[0,1] + "
                                 "lap[-1,0] + lap[1,0] - 4.0 * lap[0,0];")
                    .takeValue();
  LapLap.Boundaries["lap"] = BoundaryCondition::constant(0.0);
  StencilLibraryNode *LapLapNode = S.addStencil(std::move(LapLap));

  AccessNode *In = S.addAccess("field_in");
  AccessNode *Tmp = S.addAccess("lap");
  AccessNode *Out = S.addAccess("field_out");
  S.connect(In, Entry, "field_in");
  S.connect(Entry, LapNode, "field_in");
  S.connect(LapNode, Tmp, "lap");
  S.connect(Tmp, LapLapNode, "lap");
  S.connect(LapLapNode, Exit, "field_out");
  S.connect(Exit, Out, "field_out");
  return G;
}

} // namespace

int main(int argc, char **argv) {
  auto Args = CommandLine::parse(argc, argv, {"size", "k"});
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  int64_t K = 8, Size = 32;
  Error Err = Args->read("k", K);
  if (!Err)
    Err = Args->read("size", Size);
  if (Err) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }

  SDFG G = buildExternalSDFG(K, Size);
  std::printf("input SDFG (Fig. 17a style):\n%s\n", G.toDot().c_str());

  // Canonicalize: MapFission splits the vertical map, NestDim raises each
  // 2D stencil to 3D.
  if (Error Err = canonicalize(G)) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }
  std::printf("canonicalized SDFG (Fig. 17b style):\n%s\n",
              G.toDot().c_str());

  Expected<StencilProgram> Program = extractStencilProgram(G);
  if (!Program) {
    std::fprintf(stderr, "error: %s\n", Program.message().c_str());
    return 1;
  }
  std::printf("extracted stencil program:\n%s\n",
              Program->summary().c_str());

  PipelineOptions Options;
  Options.FuseStencils = true;
  Options.Simulator.UnconstrainedMemory = true;
  Expected<PipelineResult> Result = runPipeline(Program.takeValue(),
                                                Options);
  if (!Result) {
    std::fprintf(stderr, "error: %s\n", Result.message().c_str());
    return 1;
  }
  std::printf("after aggressive fusion: %zu stencil(s) (Fig. 17c style)\n",
              Result->Compiled.program().Nodes.size());
  std::printf("simulated %lld cycles; validation %s\n",
              static_cast<long long>(Result->Simulation.Stats.Cycles),
              Result->ValidationPassed ? "PASSED" : "FAILED");
  return Result->ValidationPassed ? 0 : 1;
}
