//===- runtime/Session.h - Stable facade API ----------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable front door of the library: \c stencilflow::Session wraps the
/// whole parse -> analyze -> partition -> simulate -> validate pipeline
/// behind a small, chainable configuration surface, and owns the
/// cross-cutting state (fault plan, tracer) whose raw-pointer lifetimes the
/// lower layers deliberately do not manage:
///
/// \code
///   auto Session = stencilflow::Session::fromFile("diamond.json");
///   if (!Session)
///     return report(Session.takeError());
///   Session->unconstrainedMemory(true)
///           .stallTimeout(4096)
///           .faults(Plan);                      // owned copy, no dangling
///   Expected<PipelineResult> Result = Session->run();
/// \endcode
///
/// \c run() may be called repeatedly (each run works on a fresh copy of the
/// program), so one Session can sweep configurations — kernel tiers,
/// fault plans, vector widths — over one loaded program.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_RUNTIME_SESSION_H
#define STENCILFLOW_RUNTIME_SESSION_H

#include "runtime/Pipeline.h"
#include "sim/Fault.h"
#include "sim/Trace.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace stencilflow {

namespace tuner {
struct TuneOptions;
struct TuningOutcome;
} // namespace tuner

/// A loaded stencil program plus the pipeline configuration to run it
/// under. Movable, not copyable (it may own a tracer recording).
class Session {
public:
  //===--------------------------------------------------------------------===//
  // Construction
  //===--------------------------------------------------------------------===//

  /// Loads a program description from a JSON file.
  static Expected<Session> fromFile(const std::string &Path);

  /// Parses a program description from JSON text.
  static Expected<Session> fromJsonText(std::string_view Json);

  /// Wraps an already-built program.
  static Session fromProgram(StencilProgram Program);

  //===--------------------------------------------------------------------===//
  // Chainable configuration
  //===--------------------------------------------------------------------===//

  /// Mutable access to the full option block, for the knobs the named
  /// setters below do not cover (partitioning, recovery policy, ...).
  PipelineOptions &pipelineOptions() { return Opts; }

  /// Aggressive stencil fusion before analysis (paper Sec. V-B).
  Session &fuseStencils(bool Enable = true) {
    Opts.FuseStencils = Enable;
    return *this;
  }
  /// Algebraic simplification of every node's code before analysis.
  Session &simplifyCode(bool Enable = true) {
    Opts.SimplifyCode = Enable;
    return *this;
  }
  /// Emit OpenCL kernel sources into the result.
  Session &emitCode(bool Enable = true) {
    Opts.EmitCode = Enable;
    return *this;
  }
  /// Validate simulated outputs against the reference executor.
  Session &validate(bool Enable = true) {
    Opts.Validate = Enable;
    return *this;
  }
  /// Overrides the program's vectorization width.
  Session &vectorize(int Width) {
    Program.VectorWidth = Width;
    return *this;
  }
  /// Temporal blocking: unroll \p Degree timesteps of the program's time
  /// loop into the dataflow graph (sdfg/TemporalUnroll.h), so that many
  /// generations flow on-chip per off-chip round trip. Requires the
  /// program to declare `TimeLoop` bindings when > 1.
  Session &temporalDegree(int Degree) {
    Opts.TemporalDegree = Degree;
    return *this;
  }

  /// Ideal (infinite-bandwidth) memory controller toggle.
  Session &unconstrainedMemory(bool Enable = true) {
    Opts.Simulator.UnconstrainedMemory = Enable;
    return *this;
  }
  /// Progress watchdog threshold (0 disables).
  Session &stallTimeout(int64_t Cycles) {
    Opts.Simulator.StallTimeoutCycles = Cycles;
    return *this;
  }
  /// Selects the kernel execution tier (compute/Engine.h). Both tiers are
  /// bit-exact; Scalar is the reference interpreter and Specialized the
  /// default. SimStats::UnitKernelTiers reports what actually ran.
  Session &kernelEngine(compute::KernelEngine Engine) {
    Opts.Simulator.KernelExec = Engine;
    return *this;
  }

  /// Crash-safe checkpointing (sim/Checkpoint.h), one setter per
  /// SimConfig field: snapshots land in the directory every N completed
  /// cycles and/or S wall-clock seconds (whichever fires first), keeping
  /// the most recent K files. Cycle- and bit-exact resume is guaranteed
  /// for any kill point.
  Session &checkpointDir(std::string Dir) {
    Opts.Simulator.CheckpointDir = std::move(Dir);
    return *this;
  }
  Session &checkpointEveryCycles(int64_t Cycles) {
    Opts.Simulator.CheckpointEveryCycles = Cycles;
    return *this;
  }
  Session &checkpointEverySeconds(double Seconds) {
    Opts.Simulator.CheckpointEverySeconds = Seconds;
    return *this;
  }
  Session &checkpointKeep(int Keep) {
    Opts.Simulator.CheckpointKeep = Keep;
    return *this;
  }
  /// Crash-consistency test hook: SIGKILL after the N-th snapshot.
  Session &checkpointCrashAfter(int Count) {
    Opts.Simulator.CheckpointCrashAfter = Count;
    return *this;
  }
  /// Resumes the first simulation attempt from \p PathOrDir: a snapshot
  /// file, or a checkpoint directory (the latest snapshot wins). An
  /// unreadable or incompatible snapshot fails the run with
  /// SnapshotInvalid / SnapshotIncompatible.
  Session &resumeFrom(std::string PathOrDir) {
    Opts.ResumeFrom = std::move(PathOrDir);
    return *this;
  }

  /// Attaches an owned copy of \p Plan (an attached plan — even an empty
  /// one — switches remote streams to the reliable transport). The copy
  /// removes the SimConfig::Faults raw-pointer lifetime hazard.
  Session &faults(sim::FaultPlan Plan) {
    OwnedFaults = std::move(Plan);
    return *this;
  }
  /// Detaches any owned fault plan.
  Session &clearFaults() {
    OwnedFaults.reset();
    return *this;
  }

  /// Enables tracing with a Session-owned tracer sampling counters every
  /// \p SampleStride cycles. The recording of the most recent run is
  /// available via \c tracer().
  Session &trace(int64_t SampleStride = 16);
  /// The owned tracer, or null when \c trace() was never called.
  sim::Tracer *tracer() { return OwnedTracer.get(); }

  //===--------------------------------------------------------------------===//
  // Introspection and execution
  //===--------------------------------------------------------------------===//

  /// The loaded program.
  const StencilProgram &program() const { return Program; }
  /// The current option block.
  const PipelineOptions &pipelineOptions() const { return Opts; }

  /// Runs the full pipeline under the current configuration. Validates
  /// the program and the simulator configuration up front, so
  /// inconsistent settings fail here with a typed error instead of deep
  /// inside the pipeline. Repeatable: each call runs a fresh copy of the
  /// program.
  Expected<PipelineResult> run();

  /// Runs only the compile half (runtime/Pipeline.h compilePipeline)
  /// under the current configuration: fusion, kernel compilation,
  /// dataflow analysis, estimates, partitioning. The returned plan is
  /// independent of this session and reusable across many \c runPlan
  /// calls — the serving layer caches plans across requests.
  Expected<CompiledPlan> compilePlan();

  /// Runs only the execute half on a previously compiled plan: simulation
  /// with device-loss recovery, then validation. The plan is read-only;
  /// concurrent \c runPlan calls on one shared plan are safe. Per-run
  /// knobs (kernel tier, faults, checkpointing, validation) come from this
  /// session's current configuration, validated up front like \c run().
  /// Failures carry the structured \c sim::FailureReport (convertible to
  /// plain \c Error for generic propagation).
  Expected<PlanExecution, sim::SimFailure> runPlan(const CompiledPlan &Plan);

  /// Runs the mapping autotuner (tuner/Tuner.h) over this session's
  /// program and base configuration: searches vectorization width x
  /// fusion x device count x target utilization, validates the top
  /// candidates on the simulator, and returns the chosen plan plus the
  /// full report. Defined in sf_tuner (link it to use this). The base
  /// configuration is validated and carries the owned fault plan, as in
  /// \c run(); checkpointing and resume are per-run state the concurrent
  /// candidates cannot share, so either one is an InvalidInput error.
  Expected<tuner::TuningOutcome> tune(const tuner::TuneOptions &Options);

private:
  explicit Session(StencilProgram Program) : Program(std::move(Program)) {}

  /// Stored options + owned fault plan/tracer, validated.
  Expected<PipelineOptions> effectiveOptions() const;

  StencilProgram Program;
  PipelineOptions Opts;
  std::optional<sim::FaultPlan> OwnedFaults;
  std::unique_ptr<sim::Tracer> OwnedTracer;
};

} // namespace stencilflow

#endif // STENCILFLOW_RUNTIME_SESSION_H
