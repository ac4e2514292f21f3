//===- runtime/Pipeline.h - End-to-end driver ---------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end StencilFlow pipeline (paper Sec. VII): from a program
/// description, transparently executes parsing/validation, optional
/// aggressive stencil fusion, dependency and buffering analysis, resource
/// estimation and device partitioning, code generation, simulated hardware
/// execution, and validation against the reference executor — the software
/// equivalent of the paper's "run the stencil program from the input
/// description" workflow.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_RUNTIME_PIPELINE_H
#define STENCILFLOW_RUNTIME_PIPELINE_H

#include "codegen/OpenCLEmitter.h"
#include "core/DataflowAnalysis.h"
#include "core/Partitioner.h"
#include "core/ResourceModel.h"
#include "core/RuntimeModel.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Validation.h"
#include "sim/Machine.h"
#include "support/Error.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace stencilflow {

/// Pipeline configuration.
struct PipelineOptions {
  /// Temporal blocking degree T: unroll T timesteps of the program's
  /// time loop into the dataflow graph before any other transformation
  /// (sdfg/TemporalUnroll.h), so T generations flow through per off-chip
  /// round trip. Requires `StencilProgram::TimeLoop` bindings when > 1.
  int TemporalDegree = 1;

  /// Apply aggressive stencil fusion before analysis (Sec. V-B).
  bool FuseStencils = false;

  /// Apply algebraic simplification to every node before analysis
  /// (prunes identity operations the optimizing HLS compiler would strip;
  /// see compute/Simplify.h for the NaN/Inf caveats).
  bool SimplifyCode = false;

  /// Simulate execution and validate against the reference executor.
  bool Simulate = true;
  bool Validate = true;

  /// Allow spanning multiple devices when one does not suffice.
  bool AllowMultiDevice = true;

  /// Emit OpenCL kernel sources.
  bool EmitCode = false;

  compute::KernelOptions Kernel;
  compute::LatencyTable Latencies;
  PartitionOptions Partitioning;
  sim::SimConfig Simulator;

  /// Graceful degradation: when the simulation aborts with
  /// ErrorCode::DeviceLost, the failed node leaves the testbed's device
  /// pool (Partitioning.MaxDevices shrinks by one), the DAG is
  /// re-partitioned across the survivors — a spare takes the failed
  /// node's place when the pool has slack — the machine is rebuilt, and
  /// the run retried. Permanent device-failure events are stripped from
  /// the fault plan on the retry (the failed node is gone; the survivors'
  /// transient faults stay in force). Unrecoverable once the pool is
  /// exhausted or MaxSimAttempts is reached.
  bool RecoverFromDeviceLoss = true;

  /// Total simulation attempts (first run plus device-loss re-runs).
  int MaxSimAttempts = 3;

  /// Resume the first simulation attempt from this snapshot file, or from
  /// the most recent snapshot in this directory (sim/Checkpoint.h). Empty
  /// — the default — starts from cycle zero. Unlike the automatic
  /// checkpoint reload on device loss, an unreadable or incompatible
  /// snapshot here is a hard failure: the user explicitly asked for it.
  std::string ResumeFrom;

  /// Validation tolerance: fused programs compute through the halo, so
  /// boundary cells may differ; interior cells must match exactly.
  double Tolerance = 0.0;
};

/// What the pipeline's resilience policy did across simulation attempts.
/// The faults the reliable transport absorbed are in the simulation's
/// SimStats::Links, and the cycles a snapshot resume saved are its
/// SimStats::ResumedFromCycle.
struct RecoveryReport {
  /// Simulation attempts performed (1 = no recovery needed).
  int Attempts = 1;

  /// Devices lost (and recovered from) across attempts.
  int DevicesLost = 0;

  /// Human-readable narrative, one line per recovery action.
  std::vector<std::string> Log;
};

/// The reusable product of the pipeline's *compile half*: everything
/// derived from the program description alone — fusion, kernel
/// compilation, dataflow/buffer analysis, the runtime/resource/frequency
/// estimates, optional code generation, and the device placement. A plan
/// holds no per-run simulator state, so one plan can be executed many
/// times concurrently via \c executePlan; the serving layer caches plans
/// across requests (serve/PlanCache.h) so repeat traffic skips this half
/// entirely.
struct CompiledPlan {
  CompiledProgram Compiled;
  DataflowAnalysis Dataflow;
  RuntimeEstimate Runtime;
  ResourceUsage Resources;   ///< Single-device aggregate estimate.
  double FrequencyMHz = 0.0; ///< From the utilization model.
  Partition Placement;
  std::vector<GeneratedSource> Sources; ///< When EmitCode.
  int FusedPairs = 0;
};

/// What one execution of a compiled plan produced: the simulation, its
/// validation against the reference executor, and the resilience
/// narrative. The compile-side artifacts stay with the (shared, possibly
/// cached) \c CompiledPlan rather than being copied per run.
struct PlanExecution {
  sim::SimResult Simulation;
  std::vector<ValidationReport> Validations;
  bool ValidationPassed = true;
  RecoveryReport Recovery;
  /// The placement the successful attempt actually ran on — differs from
  /// the plan's when device-loss recovery re-partitioned onto survivors.
  Partition Placement;
};

/// Everything the pipeline produced: the compiled plan plus one execution
/// of it. Fields of both are accessed directly (\c Compiled, \c Dataflow,
/// \c Simulation, \c ValidationPassed, ...). \c Placement is the placement
/// the run actually used — the execution's, which differs from the plan's
/// (still reachable as \c CompiledPlan::Placement) when device-loss
/// recovery re-partitioned onto survivors.
struct PipelineResult : CompiledPlan, PlanExecution {
  using PlanExecution::Placement;

  /// Simulated wall-clock seconds at the modeled frequency.
  double simulatedSeconds() const {
    return static_cast<double>(Simulation.Stats.Cycles) /
           (FrequencyMHz * 1e6);
  }

  /// Simulated performance in Op/s.
  double simulatedOpsPerSecond() const {
    return static_cast<double>(Runtime.TotalFlops) / simulatedSeconds();
  }
};

/// The program half of compilation: temporal unrolling, fusion and
/// simplification, then kernel compilation. Reads only TemporalDegree,
/// FuseStencils, SimplifyCode and Kernel from \p Options. The result
/// does not depend on the vectorization width, so one compiled program
/// serves every width (\c CompiledProgram::withVectorWidth). When
/// \p FusedPairs is non-null it receives the number of pairs fused.
Expected<CompiledProgram> compileProgram(StencilProgram Program,
                                         const PipelineOptions &Options,
                                         int *FusedPairs = nullptr);

/// \c compileProgram on a program shared with other owners: when
/// \p Options leave nothing to unroll, fuse or simplify, the compiled
/// program shares \p Program instead of copying it.
Expected<CompiledProgram>
compileProgram(std::shared_ptr<const StencilProgram> Program,
               const PipelineOptions &Options);

/// The planning half of compilation: model estimates, partitioning and
/// optional code generation of \p Compiled with \p Dataflow, its
/// dataflow analysis (\c analyzeDataflow). Reads only Partitioning,
/// AllowMultiDevice and EmitCode from \p Options. The plan's FusedPairs
/// is left at zero.
Expected<CompiledPlan> planProgram(CompiledProgram Compiled,
                                   DataflowAnalysis Dataflow,
                                   const PipelineOptions &Options);

/// The compile half: \c compileProgram, \c analyzeDataflow and
/// \c planProgram. Only \p Options fields consumed before simulation are
/// read (TemporalDegree, FuseStencils, SimplifyCode, Kernel, Latencies,
/// Partitioning, AllowMultiDevice, EmitCode).
Expected<CompiledPlan> compilePipeline(StencilProgram Program,
                                       const PipelineOptions &Options = {});

/// The execute half: simulation with graceful device-loss degradation,
/// then validation. \p Plan is shared-read-only — concurrent executions
/// of one plan are safe — and per-run knobs (Simulator, ResumeFrom,
/// Validate, Tolerance, recovery policy) come from \p Options. Honors
/// Options.Simulate == false by returning an empty execution. Failures
/// are \c sim::SimFailure so the structured \c FailureReport travels to
/// callers (the serving layer forwards it in error responses); it
/// converts to plain \c Error for generic propagation.
///
/// \p Reference, when given, stands in for the reference executor's run:
/// the outputs of the plan's program on its inputs (materializeInputs).
/// They depend on neither the width nor the placement, so callers running
/// one program under many plans compute them once; every output is still
/// validated against them field by field.
Expected<PlanExecution, sim::SimFailure>
executePlan(const CompiledPlan &Plan, const PipelineOptions &Options = {},
            const ExecutionResult *Reference = nullptr);

/// The validation tail of \c executePlan, for callers that simulate with
/// Validate off and check later: compares every output of \p Exec's
/// simulation with \p Reference field by field under \p Tolerance,
/// appending to Exec.Validations and folding into Exec.ValidationPassed.
/// A null \p Reference runs the reference executor on \p Inputs (the
/// plan's program inputs; null materializes them), and its failure is the
/// error.
Error validateExecution(
    const CompiledPlan &Plan, double Tolerance,
    const ExecutionResult *Reference, PlanExecution &Exec,
    const std::map<std::string, std::vector<double>> *Inputs = nullptr);

/// Runs the full pipeline on \p Program: \c compilePipeline composed with
/// \c executePlan, assembled into the all-in-one \c PipelineResult.
Expected<PipelineResult> runPipeline(StencilProgram Program,
                                     const PipelineOptions &Options = {});

/// Runs the execute half on an already compiled \p Plan (validating
/// against \p Reference when given, as \c executePlan does) and assembles
/// the all-in-one \c PipelineResult.
Expected<PipelineResult> runPipeline(CompiledPlan Plan,
                                     const PipelineOptions &Options,
                                     const ExecutionResult *Reference =
                                         nullptr);

} // namespace stencilflow

#endif // STENCILFLOW_RUNTIME_PIPELINE_H
