//===- examples/sf_tune.cpp - Mapping autotuner CLI ----------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Design-space exploration over the paper's mapping knobs — vectorization
// width (Sec. IV-C), stencil fusion (Sec. V-B), device count and
// partitioner target utilization (Sec. III-B) — ranked by the analytic
// runtime/resource models and validated on the cycle-level simulator.
//
// Usage:  ./sf_tune (<program.json> | --workload NAME) [flags]
//         (--help lists them)
//
// Takes the shared autotuner flag pack (support/Args.h: --tune-budget
// --tune-seed --tune-top-k --tune-workers --tune-beam --no-simulate —
// the same spellings run_program's --auto-tune mode uses) plus:
//
//   --workload NAME   a built-in benchmark (jacobi3d, diffusion2d,
//                     diffusion3d, hdiff) instead of a description file
//   --length N        chain length for the first three workloads
//   --max-devices N   cap the device axis of the design space
//   --kernel-engines LIST  comma-separated kernel-execution axis
//                     (e.g. "specialized,scalar"); default keeps the
//                     base configuration's single tier
//   --temporal-degrees LIST  comma-separated temporal-blocking axis
//                     (e.g. "1,2,4,8"); degrees above 1 unroll the
//                     program's time loop on-chip (requires time_loop
//                     bindings); default keeps the base degree
//   --json FILE       write the machine-readable TuningReport
//   --candidates      print the per-candidate table
//   --constrained-memory   model the finite memory controller
//
// Exit codes follow the shared table printed by --help
// (support/Error.h exitCodeLegend).
//
//===----------------------------------------------------------------------===//

#include "StencilFlow.h"
#include "support/Args.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace stencilflow;

namespace {

Expected<StencilProgram> builtinWorkload(const std::string &Name,
                                         int Length) {
  if (Name == "jacobi3d")
    return workloads::jacobi3dChain(Length, 16, 32, 64);
  if (Name == "diffusion2d")
    return workloads::diffusion2dChain(Length, 64, 64);
  if (Name == "diffusion3d")
    return workloads::diffusion3dChain(Length, 16, 32, 64);
  if (Name == "hdiff")
    return workloads::horizontalDiffusion();
  return makeError(ErrorCode::InvalidInput,
                   "unknown workload '" + Name +
                       "' (expected jacobi3d, diffusion2d, diffusion3d, "
                       "or hdiff)");
}

/// Prints \p Err and returns its process exit code.
int fail(const Error &Err) {
  std::fprintf(stderr, "error: %s\n", Err.message().c_str());
  return exitCodeFor(Err.code());
}

} // namespace

int main(int argc, char **argv) {
  cli::ArgSet Spec("sf_tune",
                   "Design-space exploration over the mapping knobs, "
                   "ranked analytically and validated on the simulator.",
                   "(<program.json> | --workload NAME)");
  Spec.group("input")
      .option("workload", "NAME",
              "built-in benchmark: jacobi3d diffusion2d diffusion3d hdiff")
      .option("length", "N", "chain length for the built-in workloads")
      .flag("constrained-memory",
            "model the finite memory controller (default is ideal memory)")
      .option("max-devices", "N", "cap the device axis of the space")
      .pack(cli::tuneFlagSpecs())
      .group("output")
      .option("kernel-engines", "LIST",
              "comma-separated kernel-execution axis, e.g. specialized,scalar")
      .option("temporal-degrees", "LIST",
              "comma-separated temporal-blocking axis, e.g. 1,2,4,8")
      .option("json", "FILE", "write the machine-readable TuningReport")
      .flag("candidates", "print the per-candidate table");
  auto Args = Spec.parse(argc, argv);
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  if (Spec.helpShown())
    return 0;
  bool HaveWorkload = Args->has("workload");
  if (Args->positional().size() != (HaveWorkload ? 0u : 1u)) {
    std::fprintf(stderr, "%s\n", Spec.usageLine().c_str());
    return 1;
  }

  // The autotuner pack is read exactly as run_program --auto-tune reads
  // it; the axis lists below are this tool's own.
  Expected<tuner::TuneOptions> TuneOpts = tuner::tuneOptionsFromArgs(*Args);
  if (!TuneOpts)
    return fail(TuneOpts.error());
  tuner::TuneOptions &Opts = *TuneOpts;

  Expected<Session> S = [&]() -> Expected<Session> {
    if (!HaveWorkload)
      return Session::fromFile(Args->positional()[0]);
    int Length = 8;
    if (Error Err = Args->read("length", Length))
      return Err;
    Expected<StencilProgram> P =
        builtinWorkload(Args->getString("workload"), Length);
    if (!P)
      return P.takeError();
    return Session::fromProgram(P.takeValue());
  }();
  if (!S)
    return fail(S.error());
  std::printf("%s\n", S->program().summary().c_str());

  S->unconstrainedMemory(!Args->has("constrained-memory"));
  if (Error Err = Args->read("max-devices",
                                S->pipelineOptions().Partitioning.MaxDevices))
    return fail(Err);

  if (Args->has("kernel-engines")) {
    for (const std::string &Name :
         splitString(Args->getString("kernel-engines"), ',')) {
      Expected<compute::KernelEngine> Engine = compute::parseKernelEngine(Name);
      if (!Engine)
        return fail(Engine.error());
      Opts.Space.KernelEngines.push_back(*Engine);
    }
  }
  if (Error Err =
          Args->readList("temporal-degrees", Opts.Space.TemporalDegrees))
    return fail(Err);

  Expected<tuner::TuningOutcome> Out = S->tune(Opts);
  if (!Out)
    return fail(Out.error());
  const tuner::TuningReport &Report = Out->Report;
  std::printf("%s", Report.summary().c_str());

  if (Args->has("candidates")) {
    std::printf("%-18s %5s %10s %10s %8s %5s %6s  %s\n", "candidate",
                "round", "predicted", "simulated", "err%", "dev", "util%",
                "status");
    for (const tuner::CandidateRecord &R : Report.Candidates) {
      if (!R.Cost.Feasible) {
        std::printf("%-18s %5d %10s %10s %8s %5s %6s  pruned: %s\n",
                    R.Mapping.id().c_str(), R.Round, "-", "-", "-", "-",
                    "-", R.Cost.PruneReason.c_str());
        continue;
      }
      std::printf(
          "%-18s %5d %10lld %10s %8s %5d %6.1f  %s\n",
          R.Mapping.id().c_str(), R.Round,
          static_cast<long long>(R.Cost.PredictedCycles),
          R.Simulated && R.SimulationError.empty()
              ? std::to_string(R.SimulatedCycles).c_str()
              : "-",
          R.Simulated && R.SimulationError.empty()
              ? (std::to_string(R.ModelErrorPct).substr(0, 5)).c_str()
              : "-",
          R.Cost.Devices, R.Cost.PeakUtilization * 100.0,
          !R.Simulated            ? "costed"
          : !R.SimulationError.empty() ? R.SimulationError.c_str()
          : R.ValidationPassed    ? "validated"
                                  : "VALIDATION FAILED");
    }
  }

  if (Args->has("json")) {
    std::string Path = Args->getString("json");
    if (Error Err = sim::writeTextFileAtomic(Path, Report.toJson())) {
      std::fprintf(stderr, "error: %s\n", Err.message().c_str());
      return 1;
    }
    std::printf("report: wrote %s\n", Path.c_str());
  }

  if (Opts.Simulate) {
    const tuner::CandidateRecord *Best = Report.best();
    std::printf("plan %s: %zu device(s), %.0f MHz, %s\n",
                Best->Mapping.id().c_str(),
                Out->BestRun.Placement.numDevices(),
                Best->Cost.FrequencyMHz,
                Out->BestRun.Resources
                    .report(DeviceResources::stratix10GX2800())
                    .c_str());
    const sim::SimStats &BestStats = Out->BestRun.Simulation.Stats;
    std::string Tiers = BestStats.kernelTierSummary();
    std::printf("kernel engine: %s requested, effective: %s\n",
                BestStats.KernelExec.c_str(),
                Tiers.empty() ? "<none>" : Tiers.c_str());
    for (const ValidationReport &V : Out->BestRun.Validations)
      std::printf("validation: %s\n", V.Summary.c_str());
    return Out->BestRun.ValidationPassed
               ? 0
               : exitCodeFor(ErrorCode::ValidationMismatch);
  }
  return 0;
}
