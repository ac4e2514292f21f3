//===- examples/deadlock_demo.cpp - The Fig. 4 deadlock -----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Demonstrates the deadlock scenario of paper Fig. 4: stencil C consumes
// both A directly and A through B. B buffers two full rows of A before
// producing, so without a delay buffer on the direct A->C edge, A blocks
// on C (full channel), C waits on B (empty channel), and B waits on A — a
// circular dependency. The delay-buffer analysis of Sec. IV-B sizes the
// A->C FIFO to absorb exactly B's initialization delay, restoring
// continuous streaming.
//
// Run:  ./deadlock_demo [--size N]
//
//===----------------------------------------------------------------------===//

#include "core/DataflowAnalysis.h"
#include "runtime/InputData.h"
#include "sim/Machine.h"
#include "frontend/Parser.h"
#include "frontend/SemanticAnalysis.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace stencilflow;

namespace {

StencilProgram buildDiamond(int64_t Size) {
  StencilProgram Program;
  Program.Name = "fig4_diamond";
  Program.IterationSpace = Shape({Size, Size});
  Field Input;
  Input.Name = "in";
  Input.DimensionMask = {true, true};
  Input.Source = DataSource::random(4);
  Program.Inputs.push_back(std::move(Input));

  auto addNode = [&](const std::string &Name, const std::string &Source) {
    StencilNode Node;
    Node.Name = Name;
    auto Code = parseStencilCode(Source);
    Node.Code = Code.takeValue();
    Program.Nodes.push_back(std::move(Node));
  };
  addNode("A", "A = in[0, 0] * 2.0;");
  addNode("B", "B = A[-1, 0] + A[1, 0] + A[0, -1] + A[0, 1];");
  addNode("C", "C = A[0, 0] + B[0, 0];");
  Program.Outputs = {"C"};
  Error Err = analyzeProgram(Program);
  (void)Err;
  return Program;
}

} // namespace

int main(int argc, char **argv) {
  auto Args = CommandLine::parse(argc, argv, {"size"});
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  int64_t Size = 32;
  if (Error Err = Args->read("size", Size)) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }

  StencilProgram Program = buildDiamond(Size);
  auto Compiled = CompiledProgram::compile(Program.clone());
  auto Dataflow = analyzeDataflow(*Compiled);
  auto Inputs = materializeInputs(Compiled->program());

  std::printf("Fig. 4 diamond: C consumes A directly and through B\n\n");
  std::printf("%s\n", Dataflow->report().c_str());

  // Attempt 1: all channels clamped to a minimal FIFO depth -> deadlock.
  {
    sim::SimConfig Config;
    Config.UnconstrainedMemory = true;
    Config.ClampChannelsToMinimum = true;
    Config.MinChannelDepth = 4;
    auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
    auto Result = M->run(Inputs);
    std::printf("--- without delay buffers (all FIFOs at depth 4) ---\n");
    if (!Result)
      std::printf("%s\n", Result.message().c_str());
    else
      std::printf("unexpectedly completed!\n");
  }

  // Attempt 2: channels carry the analysis' delay-buffer depths -> runs.
  {
    sim::SimConfig Config;
    Config.UnconstrainedMemory = true;
    auto M = sim::Machine::build(*Compiled, *Dataflow, nullptr, Config);
    auto Result = M->run(Inputs);
    std::printf("--- with the Sec. IV-B delay buffers ---\n");
    if (!Result) {
      std::printf("error: %s\n", Result.message().c_str());
      return 1;
    }
    std::printf("completed in %lld cycles (model bound C = L + N = %lld)\n",
                static_cast<long long>(Result->Stats.Cycles),
                static_cast<long long>(M->expectedCycles()));
  }
  return 0;
}
