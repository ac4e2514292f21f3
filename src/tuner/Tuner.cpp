//===- tuner/Tuner.cpp - Mapping autotuner front door -------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include "runtime/Session.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

using namespace stencilflow;
using namespace stencilflow::tuner;

namespace {

/// Simulates one candidate on the plan the cost model costed it on, with
/// validation deferred: only the placement and the run are its own, so
/// simulations are embarrassingly parallel, and none waits for its
/// prefix's reference outputs.
Expected<PipelineResult> simulateCandidate(const CostModel &Model,
                                           const PipelineOptions &Base,
                                           const CandidateMapping &Mapping) {
  Expected<CompiledPlan> Plan = Model.plan(Mapping);
  if (!Plan)
    return Plan.takeError();
  PipelineOptions O = mappingOptions(Base, Mapping);
  O.Simulate = true;
  O.Validate = false;
  O.Simulator.Trace = nullptr; // One tracer cannot record N runs at once.
  return runPipeline(Plan.takeValue(), O);
}

/// A FIFO pool of at most \c MaxThreads threads, started one per queued
/// task while none is idle, so a pool never runs more threads than it
/// has had tasks. With a cap of at most 1, \c submit runs the task on the
/// calling thread. The destructor drains the queue and joins.
class TaskPool {
public:
  explicit TaskPool(size_t MaxThreads) : MaxThreads(MaxThreads) {}
  TaskPool(const TaskPool &) = delete;
  TaskPool &operator=(const TaskPool &) = delete;
  ~TaskPool() { drain(); }

  void submit(std::function<void()> Task) {
    if (MaxThreads <= 1) {
      Task();
      return;
    }
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
    if (Queue.size() > Idle && Threads.size() < MaxThreads)
      Threads.emplace_back([this] { work(); });
    Ready.notify_one();
  }

  /// Waits for every queued task to finish and joins the threads.
  void drain() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Closing = true;
    }
    Ready.notify_all();
    for (std::thread &T : Threads)
      T.join();
    Threads.clear();
  }

private:
  void work() {
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      if (Queue.empty()) {
        if (Closing)
          return;
        ++Idle;
        Ready.wait(Lock, [this] { return !Queue.empty() || Closing; });
        --Idle;
        continue;
      }
      std::function<void()> Task = std::move(Queue.front());
      Queue.pop_front();
      Lock.unlock();
      Task();
      Lock.lock();
    }
  }

  const size_t MaxThreads;
  std::mutex Mutex;
  std::condition_variable Ready;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Threads;
  size_t Idle = 0;
  bool Closing = false;
};

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
  // Candidates simulate concurrently, each on its own machine: a shared
  // snapshot directory would mix their snapshots, and one snapshot cannot
  // resume them all.
  if (!Base.Simulator.CheckpointDir.empty())
    return makeError(ErrorCode::InvalidInput,
                     "tuning does not support CheckpointDir: concurrent "
                     "candidates cannot share one snapshot directory");
  if (!Base.ResumeFrom.empty())
    return makeError(ErrorCode::InvalidInput,
                     "tuning does not support ResumeFrom: one snapshot "
                     "cannot resume candidates of different machines");

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
  CandidateCost DefaultCost = Model.cost(Default);

  // Validation: one pool of reference runs and simulations. Each job's run
  // lands in its own slot (a deque, so later slots never move earlier
  // ones) and is validated once the pool drains, so thread scheduling
  // cannot reorder anything observable.
  using Slot = std::optional<Expected<PipelineResult>>;
  std::deque<Slot> Slots;
  std::set<std::pair<int, int>> Referenced; // (fusion level, degree)
  size_t Workers = Options.Workers > 0
                       ? static_cast<size_t>(Options.Workers)
                       : std::max(1u, std::thread::hardware_concurrency());
  TaskPool Pool(
      std::min(Workers, static_cast<size_t>(std::max(1, Options.TopK)) + 1));
  auto Reference = [&](const CandidateMapping &M) {
    if (Referenced.insert({M.FusionPairs, M.TemporalDegree}).second)
      Pool.submit([&Model, M] { Model.reference(M); });
  };
  auto Simulate = [&](const CandidateMapping &M) {
    Slot *S = &Slots.emplace_back();
    Pool.submit([&Model, &Base, S, M] {
      S->emplace(simulateCandidate(Model, Base, M));
    });
    return S;
  };
  // The default is simulated whenever it is feasible, so its reference
  // run and simulation overlap the search.
  Slot *DefaultSlot = nullptr;
  if (Options.Simulate && DefaultCost.Feasible) {
    Reference(Default);
    DefaultSlot = Simulate(Default);
  }

  SearchResult Search = searchDesignSpace(*Space, Model, Options.Search,
                                          Default, DefaultCost);

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
    Record.Cost = DefaultCost;
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

  // Simulation set: the analytic top-K plus the default baseline, whose
  // slot (when it is feasible) is already queued.
  std::vector<size_t> Jobs(
      Ranked.begin(),
      Ranked.begin() + std::min<size_t>(std::max(1, Options.TopK),
                                        Ranked.size()));
  if (Report.Candidates[Report.DefaultIndex].Cost.Feasible &&
      std::find(Jobs.begin(), Jobs.end(),
                static_cast<size_t>(Report.DefaultIndex)) == Jobs.end())
    Jobs.push_back(static_cast<size_t>(Report.DefaultIndex));
  // Reference runs queue ahead of the simulations: a reference run
  // usually takes longer than a simulation, so starting it first
  // shortens the drain.
  for (size_t Job : Jobs)
    Reference(Report.Candidates[Job].Mapping);
  std::vector<Slot *> JobSlots;
  for (size_t Job : Jobs) {
    const CandidateMapping &M = Report.Candidates[Job].Mapping;
    JobSlots.push_back(M == Default ? DefaultSlot : Simulate(M));
  }
  Pool.drain();

  for (size_t Job = 0; Job != Jobs.size(); ++Job) {
    CandidateRecord &R = Report.Candidates[Jobs[Job]];
    Expected<PipelineResult> &Run = **JobSlots[Job];
    if (Run) {
      std::shared_ptr<const ExecutionResult> Outputs =
          Model.reference(R.Mapping);
      if (Error Err = validateExecution(*Run, Base.Tolerance, Outputs.get(),
                                        *Run))
        Run = std::move(Err);
    }
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
  Outcome.BestRun = (*JobSlots[BestJob])->takeValue();
  Outcome.Report = std::move(Report);
  return Outcome;
}

Expected<TuneOptions>
stencilflow::tuner::tuneOptionsFromArgs(const CommandLine &Args) {
  TuneOptions Options;
  if (Error Err = Args.read("tune-budget", Options.Search.CandidateBudget))
    return Err;
  if (Error Err = Args.read("tune-beam", Options.Search.BeamWidth))
    return Err;
  if (Error Err = Args.read("tune-seed", Options.Search.Seed))
    return Err;
  if (Error Err = Args.read("tune-top-k", Options.TopK))
    return Err;
  if (Error Err = Args.read("tune-workers", Options.Workers))
    return Err;
  Options.Simulate = !Args.has("no-simulate");
  return Options;
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
  Expected<PipelineOptions> O = effectiveOptions();
  if (!O)
    return O.takeError();
  return tuner::tuneProgram(Program, *O, Options);
}
