//===- bench/parallel_speedup.cpp - Parallel-engine speedup harness -----------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Wall-clock comparison of the serial reference stepper and the
// event-sliced parallel engine on a multi-device Jacobi chain at the
// fig14/fig15 simulation scale. For every thread count the harness
// verifies cycle-exact agreement with the serial engine before reporting
// a speedup, so a "fast but wrong" engine cannot produce a number.
//
// Usage: ./parallel_speedup [--chain N] [--per-device N]
//                           [--k K] [--j J] [--i I]
//                           [--reps R] [--threads-max T] [--csv FILE]
//
// Defaults build a 16-stencil chain split 2 per device across 8 devices.
// Results land in docs/parallel_speedup.md; regenerate on a machine with
// at least as many cores as simulated devices for meaningful multi-thread
// numbers (the epoch protocol gives identical *results* at any core
// count, but only distinct cores give wall-clock parallelism).
//
//===----------------------------------------------------------------------===//

#include "common/BenchUtils.h"
#include "runtime/InputData.h"
#include "support/CommandLine.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace stencilflow;
using namespace stencilflow::bench;

namespace {

struct Measurement {
  double WallMs = 0.0;
  int64_t Cycles = 0;
  int64_t Epochs = 0;
  int64_t SerialFallback = 0;
  int64_t Skipped = 0;
  std::string Engine;
  bool Succeeded = false;
  std::string Message;
};

/// Runs the machine \p Reps times and keeps the fastest wall time (the
/// usual benchmark convention: minimum filters scheduler noise).
Measurement measure(const CompiledProgram &Compiled,
                    const DataflowAnalysis &Dataflow,
                    const Partition &Placement, const sim::SimConfig &Config,
                    const std::map<std::string, std::vector<double>> &Inputs,
                    int Reps) {
  Measurement M;
  auto Machine = sim::Machine::build(Compiled, Dataflow, &Placement, Config);
  if (!Machine) {
    M.Message = Machine.message();
    return M;
  }
  M.WallMs = 1e300;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    auto Result = Machine->run(Inputs);
    auto End = std::chrono::steady_clock::now();
    if (!Result) {
      M.Succeeded = false;
      M.Message = Result.message();
      return M;
    }
    double Ms =
        std::chrono::duration<double, std::milli>(End - Start).count();
    M.WallMs = std::min(M.WallMs, Ms);
    M.Cycles = Result->Stats.Cycles;
    M.Epochs = Result->Stats.ParallelEpochs;
    M.SerialFallback = Result->Stats.SerialFallbackCycles;
    M.Skipped = Result->Stats.SkippedCycles;
    M.Engine = Result->Stats.Engine;
    M.Succeeded = true;
  }
  return M;
}

} // namespace

int main(int argc, char **argv) {
  auto Args = CommandLine::parse(argc, argv,
                                 {"chain", "per-device", "k", "j", "i",
                                  "reps", "threads-max", "csv"});
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  const int Chain = static_cast<int>(Args->getInt("chain", 16));
  const int PerDevice = static_cast<int>(Args->getInt("per-device", 2));
  const int64_t K = Args->getInt("k", 16);
  const int64_t J = Args->getInt("j", 48);
  const int64_t I = Args->getInt("i", 48);
  const int Reps = static_cast<int>(Args->getInt("reps", 3));
  const int ThreadsMax = static_cast<int>(Args->getInt("threads-max", 8));

  printHeader(formatString(
      "Parallel-engine speedup - %d-stencil Jacobi 3D chain, %lld x %lld "
      "x %lld, %d stencil(s)/device",
      Chain, static_cast<long long>(K), static_cast<long long>(J),
      static_cast<long long>(I), PerDevice));
  std::printf("host: %u hardware thread(s)\n\n",
              std::thread::hardware_concurrency());

  StencilProgram Program = workloads::jacobi3dChain(Chain, K, J, I);
  auto Compiled = CompiledProgram::compile(std::move(Program));
  if (!Compiled) {
    std::fprintf(stderr, "error: %s\n", Compiled.message().c_str());
    return 1;
  }
  auto Dataflow = analyzeDataflow(*Compiled);
  PartitionOptions PartOptions;
  PartOptions.TargetUtilization = 1.0;
  PartOptions.Device.DSPs =
      7 * Compiled->vectorWidth() * PerDevice;
  PartOptions.MaxDevices = 64;
  auto Placement = partitionProgram(*Compiled, *Dataflow, PartOptions);
  if (!Placement) {
    std::fprintf(stderr, "error: %s\n", Placement.message().c_str());
    return 1;
  }
  std::printf("devices: %zu\n\n", Placement->numDevices());
  auto Inputs = materializeInputs(Compiled->program());

  sim::SimConfig Config;
  Config.UnconstrainedMemory = true;

  Measurement Serial =
      measure(*Compiled, *Dataflow, *Placement, Config, Inputs, Reps);
  if (!Serial.Succeeded) {
    std::fprintf(stderr, "serial run failed: %s\n", Serial.Message.c_str());
    return 1;
  }

  std::printf("%-10s %8s %12s %9s %9s %10s %10s %10s\n", "engine",
              "threads", "sim-cycles", "wall-ms", "speedup", "epochs",
              "fallback", "skipped");
  std::printf("%-10s %8s %12lld %9.1f %9s %10s %10s %10s\n", "serial", "-",
              static_cast<long long>(Serial.Cycles), Serial.WallMs, "1.00x",
              "-", "-", "-");

  std::string Csv = "engine,threads,sim_cycles,wall_ms,speedup,epochs,"
                    "serial_fallback_cycles,skipped_cycles\n";
  Csv += formatString("serial,0,%lld,%.3f,1.0,0,0,0\n",
                      static_cast<long long>(Serial.Cycles), Serial.WallMs);

  bool AllExact = true;
  for (int Threads = 1; Threads <= ThreadsMax; Threads *= 2) {
    sim::SimConfig Par = Config;
    Par.Engine = sim::SimEngine::Parallel;
    Par.Threads = Threads;
    Measurement P =
        measure(*Compiled, *Dataflow, *Placement, Par, Inputs, Reps);
    if (!P.Succeeded) {
      std::fprintf(stderr, "parallel (%d threads) failed: %s\n", Threads,
                   P.Message.c_str());
      return 1;
    }
    if (P.Cycles != Serial.Cycles) {
      std::fprintf(stderr,
                   "EXACTNESS VIOLATION at %d threads: parallel %lld "
                   "cycles vs serial %lld\n",
                   Threads, static_cast<long long>(P.Cycles),
                   static_cast<long long>(Serial.Cycles));
      AllExact = false;
    }
    double Speedup = Serial.WallMs / P.WallMs;
    std::printf("%-10s %8d %12lld %9.1f %8.2fx %10lld %10lld %10lld\n",
                P.Engine.c_str(), Threads,
                static_cast<long long>(P.Cycles), P.WallMs, Speedup,
                static_cast<long long>(P.Epochs),
                static_cast<long long>(P.SerialFallback),
                static_cast<long long>(P.Skipped));
    Csv += formatString("parallel,%d,%lld,%.3f,%.3f,%lld,%lld,%lld\n",
                        Threads, static_cast<long long>(P.Cycles), P.WallMs,
                        Speedup, static_cast<long long>(P.Epochs),
                        static_cast<long long>(P.SerialFallback),
                        static_cast<long long>(P.Skipped));
  }

  if (Args->has("csv")) {
    std::string Path = Args->getString("csv");
    if (Error Err = sim::writeTextFileAtomic(Path, Csv))
      std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    else
      std::printf("\ncsv: wrote %s\n", Path.c_str());
  }
  std::printf("\nexactness: %s\n",
              AllExact ? "all thread counts cycle-exact vs serial"
                       : "VIOLATED (see above)");
  return AllExact ? 0 : 1;
}
