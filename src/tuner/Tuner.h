//===- tuner/Tuner.h - Mapping autotuner front door ---------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mapping autotuner: closes the loop around the paper's analyses by
/// searching the design space of vectorization width x stencil fusion x
/// device count x partitioner target utilization (see tuner/DesignSpace.h)
/// instead of evaluating one hand-picked configuration.
///
/// Flow: enumerate -> prune/cost analytically (tuner/CostModel.h) ->
/// deterministic search (tuner/Search.h) -> validate the top-K candidates
/// bit-exactly on the cycle-level simulator, concurrently across worker
/// threads -> emit the Pareto front and the chosen plan
/// (tuner/TuningReport.h).
///
/// The default mapping (W=1, unfused, base device budget and utilization)
/// is always costed and always simulated, so every report quantifies the
/// tuned-vs-default speedup on simulator ground truth.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TUNER_TUNER_H
#define STENCILFLOW_TUNER_TUNER_H

#include "runtime/Pipeline.h"
#include "support/CommandLine.h"
#include "tuner/CostModel.h"
#include "tuner/DesignSpace.h"
#include "tuner/Search.h"
#include "tuner/TuningReport.h"

namespace stencilflow {
namespace tuner {

/// Autotuner configuration.
struct TuneOptions {
  /// Design-space axis overrides (empty axes are derived per program).
  DesignSpaceOptions Space;

  /// Search strategy (budget, beam width, seed).
  SearchOptions Search;

  /// Analytically best candidates to validate on the simulator, in
  /// addition to the default mapping.
  int TopK = 3;

  /// Worker threads for concurrent candidate simulation; 0 = one per
  /// hardware core (capped at the number of simulation jobs).
  int Workers = 0;

  /// When false, skip simulation entirely: the plan is chosen by the
  /// analytic model alone and \c TuningOutcome::BestRun stays empty.
  bool Simulate = true;
};

/// Fills a \c TuneOptions from the shared autotuner flag pack
/// (support/Args.h \c tuneFlagSpecs): --tune-budget, --tune-beam,
/// --tune-seed, --tune-top-k, --tune-workers and --no-simulate. Absent
/// flags keep the \c TuneOptions defaults; a value that is not an integer
/// is an InvalidInput error naming the flag.
Expected<TuneOptions> tuneOptionsFromArgs(const CommandLine &Args);

/// The tuner's result: the chosen mapping, the full report, and — when
/// simulation ran — the winning candidate's complete pipeline result
/// (simulator stats and reference-executor validation included).
struct TuningOutcome {
  CandidateMapping Best;
  TuningReport Report;

  /// Valid when \c TuneOptions::Simulate was set; the winning plan's run.
  PipelineResult BestRun;
};

/// Tunes \p Program under base configuration \p Base (partitioner device
/// and resource calibration, simulator config, kernel options are all
/// taken from it; its MaxDevices caps the device axis). Fails only when
/// the space cannot be enumerated or *no* candidate is feasible —
/// individual infeasible candidates are pruned into the report instead.
/// \p Base must not checkpoint or resume (InvalidInput): those are per-run
/// state the concurrently simulated candidates cannot share.
Expected<TuningOutcome> tuneProgram(const StencilProgram &Program,
                                    const PipelineOptions &Base,
                                    const TuneOptions &Options = {});

} // namespace tuner
} // namespace stencilflow

#endif // STENCILFLOW_TUNER_TUNER_H
