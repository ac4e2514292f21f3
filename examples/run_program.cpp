//===- examples/run_program.cpp - The Fig. 13 one-shot driver ------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// "StencilFlow can directly run the stencil program from the input
// description, transparently executing parsing, dependency analysis,
// buffering analysis, [dataflow] generation, domain-specific optimization,
// ... code generation, ... execution of the program, and validation of
// results." (paper Sec. VII)
//
// Usage:  ./run_program <program.json> [flags]   (--help lists them)
//
// Flags come from the shared CLI surface (support/Args.h): the session
// pack (--fuse --simplify --vectorize --constrained-memory
// --kernel-engine --stall-timeout), the checkpoint pack
// (--checkpoint-dir --checkpoint-every --checkpoint-every-seconds
// --checkpoint-keep --resume --crash-after-checkpoints), and the
// autotuner pack (--tune-budget --tune-seed --tune-top-k --tune-workers)
// behind --auto-tune; plus this tool's own knobs:
//
//   --emit          print generated OpenCL kernel sources
//   --dot           print the extracted SDFG in Graphviz format
//   --report        print the dataflow/buffering analysis report
//   --trace FILE    write a Chrome trace-event timeline of the simulation
//                   (open in chrome://tracing or https://ui.perfetto.dev)
//   --trace-stride N  counter sampling stride for --trace
//   --metrics FILE  write a tidy CSV of stall attribution and occupancies
//   --fault-plan FILE  inject a deterministic fault schedule (sim/Fault.h)
//                   and switch remote streams to the reliable transport
//   --auto-tune     run the mapping autotuner instead of one
//                   configuration; the winning mapping is applied,
//                   simulated, and validated
//   --tune-json FILE  dump the machine-readable TuningReport
//
// The process exit code classifies the outcome so CI scripts can branch
// on it — see the table printed by --help (support/Error.h
// exitCodeLegend), e.g. 0 success, 2 validation mismatch, 3 deadlock,
// 9 invalid snapshot.
//
//===----------------------------------------------------------------------===//

#include "StencilFlow.h"
#include "sdfg/Lowering.h"
#include "runtime/SessionArgs.h"
#include "support/Args.h"
#include "support/Json.h"

#include <cstdio>

using namespace stencilflow;

int main(int argc, char **argv) {
  cli::ArgSet Spec("run_program",
                   "One-shot pipeline driver: parse, analyze, partition, "
                   "simulate, and validate a stencil program description.",
                   "<program.json>");
  Spec.pack(cli::sessionFlagSpecs())
      .group("output")
      .flag("emit", "print generated OpenCL kernel sources")
      .flag("dot", "print the extracted SDFG in Graphviz format")
      .flag("report", "print the dataflow/buffering analysis report")
      .option("trace", "FILE", "write a Chrome trace-event timeline")
      .option("trace-stride", "N", "counter sampling stride for --trace")
      .option("metrics", "FILE", "write the stall/occupancy metrics CSV")
      .group("resilience")
      .option("fault-plan", "FILE",
              "inject a deterministic fault schedule (sim/Fault.h)")
      .pack(cli::checkpointFlagSpecs())
      .group("autotuning")
      .flag("auto-tune", "search the mapping space instead of running "
                         "one configuration")
      .option("tune-json", "FILE", "dump the machine-readable TuningReport")
      .pack(cli::tuneFlagSpecs());
  auto Args = Spec.parse(argc, argv);
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  if (Spec.helpShown())
    return 0;
  if (Args->positional().size() != 1) {
    std::fprintf(stderr, "%s\n", Spec.usageLine().c_str());
    return 1;
  }

  Expected<Session> S = Session::fromFile(Args->positional()[0]);
  if (!S) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 1;
  }
  std::printf("%s\n", S->program().summary().c_str());

  if (Error Err = cli::applySessionArgs(*S, *Args)) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return exitCodeFor(Err.code());
  }
  if (Error Err = cli::applyCheckpointArgs(*S, *Args)) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return exitCodeFor(Err.code());
  }
  S->emitCode(Args->has("emit"));

  if (Args->has("fault-plan")) {
    Expected<json::Value> PlanJson =
        json::parseFile(Args->getString("fault-plan"));
    if (!PlanJson) {
      std::fprintf(stderr, "error: %s\n", PlanJson.message().c_str());
      return 1;
    }
    Expected<sim::FaultPlan> Parsed = sim::FaultPlan::fromJson(*PlanJson);
    if (!Parsed) {
      std::fprintf(stderr, "error: %s\n", Parsed.message().c_str());
      return 1;
    }
    std::printf("faults: injecting %zu event(s), seed %llu\n",
                Parsed->Events.size(),
                static_cast<unsigned long long>(Parsed->Seed));
    S->faults(Parsed.takeValue());
  }

  if (Args->has("trace"))
    S->trace(Args->getInt("trace-stride", 16));

  if (Args->has("auto-tune")) {
    // Tune instead of running one configuration: search the mapping
    // space, then report the winning plan's simulated, validated run.
    // The shared applier seeds the fluent tune* knobs; the no-argument
    // tune() overload folds them into the search options.
    if (Error Err = cli::applyTuneArgs(*S, *Args)) {
      std::fprintf(stderr, "error: %s\n", Err.message().c_str());
      return exitCodeFor(Err.code());
    }
    Expected<tuner::TuningOutcome> Tuned = S->tune();
    if (!Tuned) {
      std::fprintf(stderr, "error: %s\n", Tuned.message().c_str());
      return exitCodeFor(Tuned.code());
    }
    std::printf("%s", Tuned->Report.summary().c_str());
    if (Args->has("tune-json")) {
      std::string Path = Args->getString("tune-json");
      if (Error Err = sim::writeTextFileAtomic(Path, Tuned->Report.toJson()))
        std::fprintf(stderr, "error: %s\n", Err.message().c_str());
      else
        std::printf("report: wrote %s\n", Path.c_str());
    }
    const PipelineResult &Best = Tuned->BestRun;
    std::printf("devices: %zu, frequency %.0f MHz, resources %s\n",
                Best.Placement.numDevices(), Best.FrequencyMHz,
                Best.Resources.report(DeviceResources::stratix10GX2800())
                    .c_str());
    std::printf("cycles: %lld simulated vs %lld modeled (Eq. 1)\n",
                static_cast<long long>(Best.Simulation.Stats.Cycles),
                static_cast<long long>(Best.Runtime.TotalCycles));
    std::string BestTiers = Best.Simulation.Stats.kernelTierSummary();
    std::printf("kernel engine: %s requested, effective: %s\n",
                Best.Simulation.Stats.KernelExec.c_str(),
                BestTiers.empty() ? "<none>" : BestTiers.c_str());
    for (const ValidationReport &Report : Best.Validations)
      std::printf("validation: %s\n", Report.Summary.c_str());
    return Best.ValidationPassed
               ? 0
               : exitCodeFor(ErrorCode::ValidationMismatch);
  }

  Expected<PipelineResult> Result = S->run();
  // Write the trace even when the pipeline fails: a deadlocked or
  // cycle-limited simulation is exactly when the timeline is most useful.
  if (Args->has("trace")) {
    std::string Path = Args->getString("trace");
    if (Error Err = S->tracer()->writeChromeTrace(Path))
      std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    else
      std::printf("trace: wrote %s (open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  Path.c_str());
  }
  if (!Result) {
    std::fprintf(stderr, "error: %s\n", Result.message().c_str());
    return exitCodeFor(Result.code());
  }

  if (Args->has("metrics")) {
    std::string Path = Args->getString("metrics");
    if (Error Err = sim::writeTextFileAtomic(
            Path, sim::formatMetricsCsv(Result->Simulation.Stats)))
      std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    else
      std::printf("metrics: wrote %s\n", Path.c_str());
  }

  if (Args->has("report"))
    std::printf("%s\n", Result->Dataflow.report().c_str());

  if (Args->has("dot")) {
    auto G = sdfg::buildSDFG(Result->Compiled, Result->Dataflow);
    if (G)
      std::printf("%s\n", G->toDot().c_str());
  }

  std::printf("devices: %zu, frequency %.0f MHz, resources %s\n",
              Result->Placement.numDevices(), Result->FrequencyMHz,
              Result->Resources
                  .report(DeviceResources::stratix10GX2800())
                  .c_str());
  std::printf("cycles: %lld simulated vs %lld modeled (Eq. 1); %.2f GOp/s "
              "at the modeled frequency\n",
              static_cast<long long>(Result->Simulation.Stats.Cycles),
              static_cast<long long>(Result->Runtime.TotalCycles),
              Result->simulatedOpsPerSecond() / 1e9);
  const sim::SimStats &Stats = Result->Simulation.Stats;
  std::string Tiers = Stats.kernelTierSummary();
  std::printf("kernel engine: %s requested, effective: %s "
              "(%lld specialized, %lld jitted)\n",
              Stats.KernelExec.c_str(),
              Tiers.empty() ? "<none>" : Tiers.c_str(),
              static_cast<long long>(Stats.SpecializedUnits),
              static_cast<long long>(Stats.JittedUnits));
  sim::StallBreakdown TotalStalls;
  for (const auto &[Name, Stalls] : Stats.UnitStalls)
    TotalStalls += Stalls;
  for (const auto &[Name, Stalls] : Stats.ReaderStalls)
    TotalStalls += Stalls;
  for (const auto &[Name, Stalls] : Stats.WriterStalls)
    TotalStalls += Stalls;
  if (TotalStalls.total() > 0)
    std::printf("stalls: %lld component-cycles, dominant cause: %s\n",
                static_cast<long long>(TotalStalls.total()),
                sim::stallCauseName(TotalStalls.dominant()));
  if (!Result->Recovery.Log.empty()) {
    for (const std::string &Line : Result->Recovery.Log)
      std::printf("recovery: %s\n", Line.c_str());
    std::printf("recovery: %s after %d attempt(s)\n",
                sim::terminationReasonName(
                    Result->Simulation.Termination),
                Result->Recovery.Attempts);
  }
  for (const ValidationReport &Report : Result->Validations)
    std::printf("validation: %s\n", Report.Summary.c_str());

  if (Args->has("emit"))
    for (const GeneratedSource &Source : Result->Sources)
      std::printf("\n===== %s =====\n%s", Source.FileName.c_str(),
                  Source.Source.c_str());
  return Result->ValidationPassed
             ? 0
             : exitCodeFor(ErrorCode::ValidationMismatch);
}
