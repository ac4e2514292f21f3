//===- examples/jacobi_multidevice.cpp - Spanning multiple devices ------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The distributed scenario of paper Sec. III-B / Fig. 5: a chain of Jacobi
// 3D stencils long enough to exceed one device's resources. The
// partitioner splits the DAG across devices in topological order, crossing
// edges become SMI remote streams, and the multi-device design is
// simulated end to end (including network latency and link bandwidth) and
// validated against the reference executor.
//
// Run:  ./jacobi_multidevice [--length N] [--devices D] [--size S]
//
//===----------------------------------------------------------------------===//

#include "runtime/Pipeline.h"
#include "support/CommandLine.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace stencilflow;

int main(int argc, char **argv) {
  auto Args = CommandLine::parse(argc, argv, {"length", "devices", "size"});
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  int Length = 12, Devices = 4;
  long long Size = 16;
  Error Err = Args->read("length", Length);
  if (!Err)
    Err = Args->read("devices", Devices);
  if (!Err)
    Err = Args->read("size", Size);
  if (Err) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }

  StencilProgram Program =
      workloads::jacobi3dChain(Length, Size, Size, Size);
  std::printf("chained %d Jacobi 3D stencils over %s cells\n", Length,
              Program.IterationSpace.toString().c_str());

  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  // Shrink the per-device budget so the chain must span devices, standing
  // in for genuinely huge designs on real hardware.
  Options.Partitioning.TargetUtilization = 1.0;
  Options.Partitioning.Device.DSPs =
      7 * Program.VectorWidth * ((Length + Devices - 1) / Devices);
  Options.Partitioning.MaxDevices = Devices;

  Expected<PipelineResult> Result = runPipeline(std::move(Program), Options);
  if (!Result) {
    std::fprintf(stderr, "error: %s\n", Result.message().c_str());
    return 1;
  }

  std::printf("\n%s\n", Result->Placement.report().c_str());
  std::printf("simulated cycles: %lld (single-device model bound: %lld)\n",
              static_cast<long long>(Result->Simulation.Stats.Cycles),
              static_cast<long long>(Result->Runtime.TotalCycles));
  std::printf("network traffic:  %.1f KB across %zu remote stream(s)\n",
              Result->Simulation.Stats.NetworkBytesMoved / 1024.0,
              Result->Placement.RemoteStreams.size());
  for (const ValidationReport &Report : Result->Validations)
    std::printf("validation: %s\n", Report.Summary.c_str());
  return Result->ValidationPassed ? 0 : 1;
}
