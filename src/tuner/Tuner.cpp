//===- tuner/Tuner.cpp - Mapping autotuner front door -------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include "runtime/Session.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

using namespace stencilflow;
using namespace stencilflow::tuner;

namespace {

/// Simulates and validates one candidate on the cost model's shared
/// compile prefix and reference outputs: only the width, the plan and the
/// run are its own, so jobs are embarrassingly parallel.
Expected<PipelineResult> runCandidate(const CostModel &Model,
                                      const PipelineOptions &Base,
                                      const CandidateMapping &Mapping) {
  Expected<CompiledProgram> Compiled = Model.compile(Mapping);
  if (!Compiled)
    return Compiled.takeError();
  PipelineOptions O = mappingOptions(Base, Mapping);
  O.Simulate = true;
  O.Validate = true;
  O.EmitCode = false;
  O.Simulator.Trace = nullptr; // One tracer cannot record N runs at once.
  Expected<CompiledPlan> Plan = planProgram(Compiled.takeValue(), O);
  if (!Plan)
    return Plan.takeError();
  std::shared_ptr<const ExecutionResult> Reference = Model.reference(Mapping);
  return runPipeline(Plan.takeValue(), O, Reference.get());
}

/// Ranks simulated, validation-passing records: fastest simulated time,
/// then fewest devices, lowest peak utilization, id.
bool rankBySimulation(const CandidateRecord &A, const CandidateRecord &B) {
  if (A.SimulatedSeconds != B.SimulatedSeconds)
    return A.SimulatedSeconds < B.SimulatedSeconds;
  if (A.Cost.Devices != B.Cost.Devices)
    return A.Cost.Devices < B.Cost.Devices;
  if (A.Cost.PeakUtilization != B.Cost.PeakUtilization)
    return A.Cost.PeakUtilization < B.Cost.PeakUtilization;
  return A.Mapping.id() < B.Mapping.id();
}

} // namespace

Expected<TuningOutcome>
stencilflow::tuner::tuneProgram(const StencilProgram &Program,
                                const PipelineOptions &Base,
                                const TuneOptions &Options) {
  // The kernel-engine and temporal-degree axes default to the base
  // configuration's values so the space (and every existing trajectory)
  // is unchanged unless the caller opts into exploring them.
  DesignSpaceOptions SpaceOpts = Options.Space;
  if (SpaceOpts.KernelEngines.empty())
    SpaceOpts.KernelEngines = {Base.Simulator.KernelExec};
  if (SpaceOpts.TemporalDegrees.empty())
    SpaceOpts.TemporalDegrees = {std::max(1, Base.TemporalDegree)};
  Expected<DesignSpace> Space = DesignSpace::enumerate(
      Program, SpaceOpts, Base.Partitioning.MaxDevices);
  if (!Space)
    return Space.takeError().addContext("design space");

  // The default mapping — unvectorized, unfused, base partitioning and
  // kernel tier — snapped onto the enumerated axes so it is a point of
  // the space.
  size_t Index[6];
  Space->closestIndices(
      CandidateMapping{1, 0, Base.Partitioning.MaxDevices,
                       Base.Partitioning.TargetUtilization,
                       std::max(1, Base.TemporalDegree),
                       Base.Simulator.KernelExec},
      Index);
  CandidateMapping Default = Space->at(Index[0], Index[1], Index[2],
                                       Index[3], Index[4], Index[5]);

  CostModel Model(Program, Base, *Space);
  SearchResult Search =
      searchDesignSpace(*Space, Model, Options.Search, Default);

  TuningReport Report;
  Report.ProgramName = Program.Name;
  Report.SearchKind = std::move(Search.Kind);
  Report.Seed = Options.Search.Seed;
  Report.SpaceSize = Space->size();
  Report.Candidates = std::move(Search.Records);

  // The default is part of the beam seed, so it is normally already
  // costed; guard anyway (e.g. a budget of 1 point).
  for (size_t I = 0; I != Report.Candidates.size(); ++I)
    if (Report.Candidates[I].Mapping == Default)
      Report.DefaultIndex = static_cast<int>(I);
  if (Report.DefaultIndex < 0) {
    CandidateRecord Record;
    Record.Mapping = Default;
    Record.Cost = Model.cost(Default);
    Report.DefaultIndex = static_cast<int>(Report.Candidates.size());
    Report.Candidates.push_back(std::move(Record));
  }

  Report.Explored = Report.Candidates.size();
  for (const CandidateRecord &R : Report.Candidates)
    Report.Pruned += R.Cost.Feasible ? 0 : 1;
  Report.ParetoFront = paretoFront(Report.Candidates);

  // Analytic ranking of the feasible survivors.
  std::vector<size_t> Ranked;
  for (size_t I = 0; I != Report.Candidates.size(); ++I)
    if (Report.Candidates[I].Cost.Feasible)
      Ranked.push_back(I);
  if (Ranked.empty())
    return makeError(
        ErrorCode::Infeasible,
        formatString("no feasible mapping among %zu explored candidate(s) "
                     "of '%s'",
                     Report.Explored, Program.Name.c_str()));
  std::sort(Ranked.begin(), Ranked.end(), [&](size_t A, size_t B) {
    return rankByPrediction(Report.Candidates[A], Report.Candidates[B]);
  });

  TuningOutcome Outcome;
  if (!Options.Simulate) {
    Report.BestIndex = static_cast<int>(Ranked[0]);
    Outcome.Best = Report.Candidates[Ranked[0]].Mapping;
    Outcome.Report = std::move(Report);
    return Outcome;
  }

  // Simulation set: the analytic top-K plus the default baseline.
  std::vector<size_t> Jobs(
      Ranked.begin(),
      Ranked.begin() + std::min<size_t>(std::max(1, Options.TopK),
                                        Ranked.size()));
  if (Report.Candidates[Report.DefaultIndex].Cost.Feasible &&
      std::find(Jobs.begin(), Jobs.end(),
                static_cast<size_t>(Report.DefaultIndex)) == Jobs.end())
    Jobs.push_back(static_cast<size_t>(Report.DefaultIndex));

  // Candidates simulate concurrently; results land in per-job slots so
  // thread scheduling cannot reorder anything observable.
  std::vector<std::optional<Expected<PipelineResult>>> Slots(Jobs.size());
  std::atomic<size_t> NextJob{0};
  auto Worker = [&]() {
    for (;;) {
      size_t Job = NextJob.fetch_add(1);
      if (Job >= Jobs.size())
        return;
      Slots[Job].emplace(
          runCandidate(Model, Base, Report.Candidates[Jobs[Job]].Mapping));
    }
  };
  size_t WorkerCount = Options.Workers > 0
                           ? static_cast<size_t>(Options.Workers)
                           : std::max(1u, std::thread::hardware_concurrency());
  WorkerCount = std::min(WorkerCount, Jobs.size());
  if (WorkerCount <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Threads;
    for (size_t I = 0; I != WorkerCount; ++I)
      Threads.emplace_back(Worker);
    for (std::thread &T : Threads)
      T.join();
  }

  for (size_t Job = 0; Job != Jobs.size(); ++Job) {
    CandidateRecord &R = Report.Candidates[Jobs[Job]];
    Expected<PipelineResult> &Run = *Slots[Job];
    R.Simulated = true;
    ++Report.SimulatedCount;
    if (!Run) {
      R.SimulationError = Run.message();
      continue;
    }
    R.SimulatedCycles = Run->Simulation.Stats.Cycles;
    // One clock for both sides of the comparison: the cost model's
    // worst-device frequency. Like PredictedSeconds, amortize over the
    // temporal degree so candidates compete on seconds per timestep;
    // SimulatedCycles stays the raw per-pass count for ModelErrorPct.
    R.SimulatedSeconds =
        static_cast<double>(R.SimulatedCycles) /
        (R.Cost.FrequencyMHz * 1e6 * std::max(1, R.Mapping.TemporalDegree));
    R.ValidationPassed = Run->ValidationPassed;
    if (R.SimulatedCycles > 0)
      R.ModelErrorPct =
          100.0 *
          std::abs(static_cast<double>(R.Cost.PredictedCycles) -
                   static_cast<double>(R.SimulatedCycles)) /
          static_cast<double>(R.SimulatedCycles);
  }

  // Refit the first-order slowdown factors against this run's simulated
  // ground truth; observable via report.Calibration and the JSON dump.
  calibrateSlowdowns(Report);

  // The plan: fastest simulated candidate that passed bit-exact
  // validation against the reference executor.
  int BestJob = -1;
  for (size_t Job = 0; Job != Jobs.size(); ++Job) {
    const CandidateRecord &R = Report.Candidates[Jobs[Job]];
    if (!R.SimulationError.empty() || !R.ValidationPassed)
      continue;
    if (BestJob < 0 ||
        rankBySimulation(R, Report.Candidates[Jobs[BestJob]]))
      BestJob = static_cast<int>(Job);
  }
  if (BestJob < 0)
    return makeError(ErrorCode::Infeasible,
                     formatString("all %zu simulated candidate(s) of '%s' "
                                  "failed simulation or validation",
                                  Jobs.size(), Program.Name.c_str()));

  Report.BestIndex = static_cast<int>(Jobs[BestJob]);
  Outcome.Best = Report.Candidates[Jobs[BestJob]].Mapping;
  Outcome.BestRun = Slots[BestJob]->takeValue();
  Outcome.Report = std::move(Report);
  return Outcome;
}

//===----------------------------------------------------------------------===//
// Session facade
//===----------------------------------------------------------------------===//

// Defined here rather than in runtime/Session.cpp so sf_runtime does not
// depend on sf_tuner (the tuner sits above the pipeline it drives).
Expected<tuner::TuningOutcome>
Session::tune(const tuner::TuneOptions &Options) {
  if (Error Err = Program.validate())
    return Err.addContext("program validation");
  return tuner::tuneProgram(Program, Opts, Options);
}

Expected<tuner::TuningOutcome> Session::tune() {
  // Fold the fluent tune* setters into an option block; axis overrides
  // beyond these knobs go through the explicit tune(Options) overload.
  tuner::TuneOptions Options;
  Options.Search.CandidateBudget = Tuning.Budget;
  if (Tuning.HaveSeed)
    Options.Search.Seed = Tuning.Seed;
  Options.TopK = Tuning.TopK;
  Options.Workers = Tuning.Workers;
  Options.Simulate = Tuning.Simulate;
  return tune(Options);
}
