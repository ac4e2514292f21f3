//===- examples/horizontal_diffusion.cpp - The COSMO case study ----------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The weather-simulation application study of paper Sec. IX: the COSMO
// horizontal-diffusion stencil program (Smagorinsky diffusion of the wind
// components plus 4th-order diffusion of w and the pressure perturbation).
// Loads the program, optionally applies aggressive stencil fusion
// (Fig. 17c), prints the DAG, the operation census and arithmetic
// intensity (Sec. IX-A, Eq. 2-4), and runs the simulated hardware with
// validation.
//
// Run:  ./horizontal_diffusion [--k K --j J --i I] [--no-fusion]
//                              [--vectorize W]
//
//===----------------------------------------------------------------------===//

#include "runtime/Pipeline.h"
#include "support/CommandLine.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace stencilflow;

int main(int argc, char **argv) {
  auto Args = CommandLine::parse(
      argc, argv, {"k", "j", "i", "no-fusion", "vectorize"});
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  // Default: a reduced domain so the cycle-level simulation finishes in
  // seconds; pass --k 80 --j 128 --i 128 for the MeteoSwiss benchmark size.
  long long K = 16, J = 32, I = 32;
  int W = 1;
  Error Err = Args->read("k", K);
  if (!Err)
    Err = Args->read("j", J);
  if (!Err)
    Err = Args->read("i", I);
  if (!Err)
    Err = Args->read("vectorize", W);
  if (Err) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }

  StencilProgram Program = workloads::horizontalDiffusion(K, J, I, W);
  std::printf("%s\n", Program.summary().c_str());

  PipelineOptions Options;
  Options.FuseStencils = !Args->has("no-fusion");
  Options.Simulator.UnconstrainedMemory = true;
  Expected<PipelineResult> Result = runPipeline(std::move(Program), Options);
  if (!Result) {
    std::fprintf(stderr, "error: %s\n", Result.message().c_str());
    return 1;
  }

  if (Options.FuseStencils)
    std::printf("aggressive fusion merged %d producer/consumer pairs -> "
                "%zu stencil(s)\n\n",
                Result->FusedPairs,
                Result->Compiled.program().Nodes.size());

  compute::OpCensus Census = Result->Compiled.totalCensus();
  std::printf("operation census per cell (paper: 87 add, 41 mul, 2 sqrt, "
              "2 min, 2 max, 20 branches):\n");
  std::printf("  %lld additions, %lld multiplications, %lld square "
              "roots,\n  %lld min/max, %lld comparisons, %lld "
              "data-dependent branches\n",
              static_cast<long long>(Census.Additions),
              static_cast<long long>(Census.Multiplications),
              static_cast<long long>(Census.SquareRoots),
              static_cast<long long>(Census.MinMax),
              static_cast<long long>(Census.Comparisons),
              static_cast<long long>(Census.Branches));

  RooflineAnalysis Roofline = computeRoofline(Result->Compiled);
  MemoryTraffic Traffic = computeMemoryTraffic(Result->Compiled);
  std::printf("\narithmetic intensity: %.2f Op/operand = %.2f Op/B "
              "(paper: %.2f / %.2f)\n",
              Roofline.OpsPerOperand, Roofline.OpsPerByte, 130.0 / 9.0,
              65.0 / 18.0);
  std::printf("roofline bound at 58.3 GB/s measured bandwidth: %.1f "
              "GOp/s (paper Eq. 3: 210.5)\n",
              Roofline.boundPerformance(58.3e9) / 1e9);
  std::printf("operands per cycle in steady state: %lld (paper: ~9)\n",
              static_cast<long long>(Traffic.OperandsPerCycle));

  std::printf("\npipeline latency L = %lld cycles over N = %lld "
              "iterations (L/N = %.2f%%)\n",
              static_cast<long long>(Result->Runtime.LatencyCycles),
              static_cast<long long>(Result->Runtime.StreamedCycles),
              100.0 * static_cast<double>(Result->Runtime.LatencyCycles) /
                  static_cast<double>(Result->Runtime.StreamedCycles));
  std::printf("simulated cycles %lld at %.0f MHz -> %.0f us, %.1f GOp/s\n",
              static_cast<long long>(Result->Simulation.Stats.Cycles),
              Result->FrequencyMHz, Result->simulatedSeconds() * 1e6,
              Result->simulatedOpsPerSecond() / 1e9);
  std::printf("resources: %s\n",
              Result->Resources
                  .report(DeviceResources::stratix10GX2800())
                  .c_str());
  for (const ValidationReport &Report : Result->Validations)
    std::printf("validation: %s\n", Report.Summary.c_str());
  return Result->ValidationPassed ? 0 : 1;
}
