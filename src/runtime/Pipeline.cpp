//===- runtime/Pipeline.cpp - End-to-end driver --------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Pipeline.h"

#include "core/ValidRegion.h"
#include "runtime/InputData.h"
#include "sim/Checkpoint.h"
#include "compute/Simplify.h"
#include "frontend/SemanticAnalysis.h"
#include "sdfg/StencilFusion.h"
#include "sdfg/TemporalUnroll.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <optional>

using namespace stencilflow;

Expected<CompiledProgram>
stencilflow::compileProgram(StencilProgram Program,
                            const PipelineOptions &Options, int *FusedPairs) {
  // Temporal blocking first: unroll T timesteps into one chained graph.
  // Fusion and the width knob then see an ordinary (longer) program.
  if (Options.TemporalDegree != 1) {
    Expected<StencilProgram> Unrolled =
        sdfg::unrollTimeSteps(Program, Options.TemporalDegree);
    if (!Unrolled)
      return Unrolled.takeError().addContext("temporal unrolling");
    Program = Unrolled.takeValue();
  }

  // Domain-specific optimization: aggressive stencil fusion (Sec. V-B).
  if (Options.FuseStencils) {
    Expected<FusionReport> Fusion = fuseAllStencils(Program);
    if (!Fusion)
      return Fusion.takeError().addContext("stencil fusion");
    if (FusedPairs)
      *FusedPairs = Fusion->FusedPairs;
  }

  // Algebraic simplification (after fusion, which exposes identities).
  if (Options.SimplifyCode) {
    for (StencilNode &Node : Program.Nodes)
      compute::simplifyNodeCode(Node);
    if (Error Err = analyzeProgram(Program))
      return Err.addContext("post-simplification analysis");
  }

  Expected<CompiledProgram> Compiled =
      CompiledProgram::compile(std::move(Program), Options.Kernel);
  if (!Compiled)
    return Compiled.takeError().addContext("compilation");
  return Compiled;
}

Expected<CompiledProgram>
stencilflow::compileProgram(std::shared_ptr<const StencilProgram> Program,
                            const PipelineOptions &Options) {
  if (Options.TemporalDegree != 1 || Options.FuseStencils ||
      Options.SimplifyCode)
    return compileProgram(Program->clone(), Options);
  Expected<CompiledProgram> Compiled =
      CompiledProgram::compile(std::move(Program), Options.Kernel);
  if (!Compiled)
    return Compiled.takeError().addContext("compilation");
  return Compiled;
}

Expected<CompiledPlan>
stencilflow::planProgram(CompiledProgram Compiled, DataflowAnalysis Dataflow,
                         const PipelineOptions &Options) {
  CompiledPlan Plan;
  Plan.Compiled = std::move(Compiled);
  Plan.Dataflow = std::move(Dataflow);

  Plan.Runtime = computeRuntimeEstimate(Plan.Compiled, Plan.Dataflow);
  ResourceLedger Ledger = estimateResourceLedger(
      Plan.Compiled, Plan.Dataflow, Options.Partitioning.ResourceConfig);
  Plan.Resources = Ledger.SingleDevice;
  Plan.FrequencyMHz =
      estimateFrequencyMHz(Plan.Resources, Options.Partitioning.Device,
                           Options.Partitioning.ResourceConfig);

  // Device mapping.
  PartitionOptions PartOptions = Options.Partitioning;
  if (!Options.AllowMultiDevice)
    PartOptions.MaxDevices = 1;
  Expected<Partition> Placement =
      partitionProgram(Plan.Compiled, Ledger, PartOptions);
  if (!Placement)
    return Placement.takeError().addContext("partitioning");
  Plan.Placement = Placement.takeValue();

  // Code generation.
  if (Options.EmitCode) {
    Expected<std::vector<GeneratedSource>> Sources = emitOpenCL(
        Plan.Compiled, Plan.Dataflow,
        Plan.Placement.numDevices() > 1 ? &Plan.Placement : nullptr);
    if (!Sources)
      return Sources.takeError().addContext("code generation");
    Plan.Sources = Sources.takeValue();
  }
  return Plan;
}

Expected<CompiledPlan>
stencilflow::compilePipeline(StencilProgram Program,
                             const PipelineOptions &Options) {
  int FusedPairs = 0;
  Expected<CompiledProgram> Compiled =
      compileProgram(std::move(Program), Options, &FusedPairs);
  if (!Compiled)
    return Compiled.takeError();
  Expected<DataflowAnalysis> Dataflow =
      analyzeDataflow(*Compiled, Options.Latencies);
  if (!Dataflow)
    return Dataflow.takeError().addContext("dataflow analysis");
  Expected<CompiledPlan> Plan =
      planProgram(Compiled.takeValue(), Dataflow.takeValue(), Options);
  if (Plan)
    Plan->FusedPairs = FusedPairs;
  return Plan;
}

Expected<PlanExecution, sim::SimFailure>
stencilflow::executePlan(const CompiledPlan &Plan,
                         const PipelineOptions &Options,
                         const ExecutionResult *Reference) {
  PlanExecution Exec;
  Exec.Placement = Plan.Placement;
  if (!Options.Simulate)
    return Exec;

  // Simulated execution and validation, with graceful degradation: a
  // permanent device loss re-partitions the DAG across the survivors and
  // re-runs (paper Sec. VI-B fabrics must outlive single-node failures).
  PartitionOptions PartOptions = Options.Partitioning;
  if (!Options.AllowMultiDevice)
    PartOptions.MaxDevices = 1;

  auto Inputs = materializeInputs(Plan.Compiled.program());
  sim::SimConfig SimConfig = Options.Simulator;
  sim::FaultPlan SurvivorPlan; // Retry plan: device failures stripped.

  // Explicit resume: the user pointed at a snapshot (or a directory of
  // them); failing to load it is a hard error, unlike the best-effort
  // automatic reload on device loss below.
  sim::MachineSnapshot ResumeSnap;
  bool HaveResume = false;
  if (!Options.ResumeFrom.empty()) {
    Expected<std::string> Latest =
        sim::findLatestSnapshot(Options.ResumeFrom);
    if (!Latest)
      return Latest.takeError().addContext("resolving --resume");
    Expected<sim::MachineSnapshot> Snap = sim::readSnapshotFile((*Latest));
    if (!Snap)
      return Snap.takeError().addContext("loading resume snapshot");
    ResumeSnap = Snap.takeValue();
    HaveResume = true;
    Exec.Recovery.Log.push_back(formatString(
        "resuming from snapshot '%s' at cycle %lld", (*Latest).c_str(),
        static_cast<long long>(ResumeSnap.Cycle)));
  }

  for (int Attempt = 1;; ++Attempt) {
    Exec.Recovery.Attempts = Attempt;
    Expected<sim::Machine> M = sim::Machine::build(
        Plan.Compiled, Plan.Dataflow,
        Exec.Placement.numDevices() > 1 ? &Exec.Placement : nullptr,
        SimConfig);
    if (!M)
      return M.takeError().addContext("simulator construction");
    Expected<sim::SimResult, sim::SimFailure> Sim =
        M->run(Inputs, HaveResume ? &ResumeSnap : nullptr);
    if (Sim) {
      Exec.Simulation = Sim.takeValue();
      // Transient faults the reliable transport absorbed on this attempt.
      int64_t Retransmissions = 0, CorruptedVectors = 0;
      for (const auto &[Name, Link] : Exec.Simulation.Stats.Links) {
        Retransmissions += Link.Retransmissions;
        CorruptedVectors += Link.CorruptedVectors;
      }
      if (Attempt > 1 || Retransmissions > 0 || CorruptedVectors > 0)
        Exec.Recovery.Log.push_back(formatString(
            "attempt %d: completed on %zu device(s), absorbing %lld "
            "corrupted vector(s) via %lld retransmission(s)",
            Attempt, Exec.Placement.numDevices(),
            static_cast<long long>(CorruptedVectors),
            static_cast<long long>(Retransmissions)));
      break;
    }
    // The structured report travels with the failure itself.
    sim::SimFailure Fail = Sim.takeError();
    const sim::FailureReport &Failure = Fail.report();
    // Each lost node shrinks the testbed's device pool by one; the
    // program is re-partitioned across the survivors (a spare takes the
    // failed node's place when the pool still has slack). Unrecoverable
    // when the pool is exhausted.
    int Survivors =
        PartOptions.MaxDevices - (Exec.Recovery.DevicesLost + 1);
    bool Recoverable = Fail.code() == ErrorCode::DeviceLost &&
                       Options.RecoverFromDeviceLoss &&
                       Attempt < Options.MaxSimAttempts && Survivors >= 1;
    if (!Recoverable)
      return Fail.addContext("simulation");

    ++Exec.Recovery.DevicesLost;
    Exec.Recovery.Log.push_back(formatString(
        "attempt %d: device %d lost at cycle %lld; re-partitioning "
        "across a pool of %d surviving device(s)",
        Attempt, Failure.FailedDevice,
        static_cast<long long>(Failure.Cycle), Survivors));

    // Incremental recovery: when the run was checkpointing, reload the
    // latest snapshot and rehydrate it onto the survivor placement so
    // the retry replays only the tail since that snapshot instead of
    // the whole run. Best-effort — a missing or unreadable snapshot
    // falls back to the pre-checkpoint behavior (restart from zero).
    HaveResume = false;
    if (!SimConfig.CheckpointDir.empty()) {
      Expected<std::string> Latest =
          sim::findLatestSnapshot(SimConfig.CheckpointDir);
      Expected<sim::MachineSnapshot> Snap =
          Latest ? sim::readSnapshotFile((*Latest))
                 : Expected<sim::MachineSnapshot>(Latest.takeError());
      if (Snap) {
        ResumeSnap = Snap.takeValue();
        HaveResume = true;
        Exec.Recovery.Log.push_back(formatString(
            "attempt %d: rehydrating survivors from checkpoint at "
            "cycle %lld (skipping %lld completed cycle(s))",
            Attempt + 1, static_cast<long long>(ResumeSnap.Cycle),
            static_cast<long long>(ResumeSnap.Cycle)));
      } else {
        Error Why = Snap.takeError();
        Exec.Recovery.Log.push_back(formatString(
            "attempt %d: no usable checkpoint (%s); restarting from "
            "cycle zero",
            Attempt + 1, Why.message().c_str()));
      }
    }

    PartitionOptions Degraded = PartOptions;
    Degraded.MaxDevices = Survivors;
    Expected<Partition> Replacement =
        partitionProgram(Plan.Compiled, Plan.Dataflow, Degraded);
    if (!Replacement)
      return Replacement.takeError().addContext(formatString(
          "re-partitioning after losing device %d", Failure.FailedDevice));
    Exec.Placement = Replacement.takeValue();

    // The failed node is gone; keep only the survivors' faults.
    if (SimConfig.Faults) {
      SurvivorPlan = *SimConfig.Faults;
      SurvivorPlan.Events.erase(
          std::remove_if(SurvivorPlan.Events.begin(),
                         SurvivorPlan.Events.end(),
                         [](const sim::FaultEvent &E) {
                           return E.Kind == sim::FaultKind::DeviceFailure;
                         }),
          SurvivorPlan.Events.end());
      SimConfig.Faults = &SurvivorPlan;
    }
  }

  if (Options.Validate)
    if (Error Err = validateExecution(Plan, Options.Tolerance, Reference,
                                      Exec, &Inputs))
      return Err;
  return Exec;
}

Error stencilflow::validateExecution(
    const CompiledPlan &Plan, double Tolerance,
    const ExecutionResult *Reference, PlanExecution &Exec,
    const std::map<std::string, std::vector<double>> *Inputs) {
  std::optional<ExecutionResult> Computed;
  if (!Reference) {
    Expected<ExecutionResult> Ran =
        Inputs ? runReference(Plan.Compiled, *Inputs)
               : runReference(Plan.Compiled,
                              materializeInputs(Plan.Compiled.program()));
    if (!Ran)
      return Ran.takeError().addContext("reference execution");
    Reference = &Computed.emplace(Ran.takeValue());
  }
  for (const std::string &Output : Plan.Compiled.program().Outputs) {
    ValidationReport Report =
        validateField(Output, Exec.Simulation.Outputs.at(Output),
                      Reference->field(Output), Tolerance);
    Exec.ValidationPassed &= Report.Passed;
    Exec.Validations.push_back(std::move(Report));
  }
  return Error::success();
}

Expected<PipelineResult>
stencilflow::runPipeline(CompiledPlan Plan, const PipelineOptions &Options,
                         const ExecutionResult *Reference) {
  Expected<PlanExecution, sim::SimFailure> Exec =
      executePlan(Plan, Options, Reference);
  if (!Exec)
    return Error(Exec.takeError());
  return PipelineResult{std::move(Plan), Exec.takeValue()};
}

Expected<PipelineResult>
stencilflow::runPipeline(StencilProgram Program,
                         const PipelineOptions &Options) {
  Expected<CompiledPlan> Plan =
      compilePipeline(std::move(Program), Options);
  if (!Plan)
    return Plan.takeError();
  return runPipeline(Plan.takeValue(), Options);
}
