//===- tuner/TuningReport.h - Machine-readable tuning results -----*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotuner's observable output: every candidate the search touched
/// (in exploration order, with its search round — the trajectory), its
/// analytic cost or prune reason, simulator validation results for the
/// top-K, the Pareto front over (predicted runtime, device count, peak
/// utilization), and the chosen plan. \c toJson() serializes the whole
/// report so model-vs-simulator error is observable from scripts and CI.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TUNER_TUNINGREPORT_H
#define STENCILFLOW_TUNER_TUNINGREPORT_H

#include "tuner/CostModel.h"
#include "tuner/DesignSpace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace stencilflow {
namespace tuner {

/// One explored candidate: mapping, analytic verdict, and — for the top-K
/// — the simulator's ground truth.
struct CandidateRecord {
  CandidateMapping Mapping;
  CandidateCost Cost;

  /// Search round that first reached this candidate (0 = initial beam or
  /// exhaustive sweep).
  int Round = 0;

  /// Whether the cycle-level simulator validated this candidate.
  bool Simulated = false;

  /// Simulator ground truth (valid when Simulated and SimulationError is
  /// empty). SimulatedSeconds uses the cost model's frequency so predicted
  /// and simulated times share one clock.
  bool ValidationPassed = false;
  int64_t SimulatedCycles = 0;
  double SimulatedSeconds = 0.0;

  /// 100 * |predicted - simulated| / simulated cycles.
  double ModelErrorPct = 0.0;

  /// The prediction with the run's fitted slowdown factors applied
  /// (\ref calibrateSlowdowns), and its error against the simulator.
  /// Zero until calibration runs.
  double CalibratedPredictedCycles = 0.0;
  double CalibratedErrorPct = 0.0;

  /// Non-empty when the simulation itself failed (deadlock, cycle limit).
  std::string SimulationError;
};

/// A least-squares refit of the cost model's first-order slowdown terms
/// against this run's simulated candidates. The model predicts
/// PredictedCycles = ModelCycles + Extra, where Extra is the
/// bandwidth/network correction; calibration finds the factor f minimizing
/// sum((ModelCycles + f*Extra - SimulatedCycles)^2), fitted separately for
/// memory-bound and network-bound candidates (their corrections have
/// independent physical causes). A factor near 1 means the analytic
/// correction already matches the simulator; the high-order workloads,
/// whose deep halos shift the memory/compute balance, are the intended
/// calibration diet (bench/highorder).
struct SlowdownCalibration {
  /// True once at least one class had a sample with a non-zero correction.
  bool Fitted = false;

  /// Fitted multipliers on the model's correction term (1 = keep as-is;
  /// a class with no samples keeps 1).
  double MemoryFactor = 1.0;
  double NetworkFactor = 1.0;
  int MemorySamples = 0;
  int NetworkSamples = 0;

  /// Mean ModelErrorPct over the calibration samples, before and after
  /// applying the fitted factors.
  double MeanErrorPctBefore = 0.0;
  double MeanErrorPctAfter = 0.0;
};

/// Indices of the non-dominated feasible records, minimizing the triple
/// (PredictedSeconds, Devices, PeakUtilization). Deterministic: ascending
/// index order; duplicates of an objective vector all survive.
std::vector<size_t> paretoFront(const std::vector<CandidateRecord> &Records);

/// Fits \c Report.Calibration against the report's simulated candidates
/// and fills every such candidate's CalibratedPredictedCycles /
/// CalibratedErrorPct. Safe on reports with no simulations (stays
/// unfitted). Runs automatically at the end of tuneProgram.
void calibrateSlowdowns(struct TuningReport &Report);

/// The complete, machine-readable outcome of one tuning run.
struct TuningReport {
  std::string ProgramName;

  /// "exhaustive" or "beam".
  std::string SearchKind;
  uint64_t Seed = 0;

  /// Size of the full design space vs what the search actually touched.
  size_t SpaceSize = 0;
  size_t Explored = 0;
  size_t Pruned = 0;
  size_t SimulatedCount = 0;

  /// Every explored candidate, in exploration order (the trajectory).
  std::vector<CandidateRecord> Candidates;

  /// Slowdown-factor refit over the simulated candidates (all-defaults
  /// until \ref calibrateSlowdowns runs).
  SlowdownCalibration Calibration;

  /// Indices into \c Candidates of the Pareto-optimal feasible mappings.
  std::vector<size_t> ParetoFront;

  /// Index of the chosen plan and of the default (W=1, unfused) baseline;
  /// -1 when absent.
  int BestIndex = -1;
  int DefaultIndex = -1;

  const CandidateRecord *best() const {
    return BestIndex >= 0 ? &Candidates[BestIndex] : nullptr;
  }
  const CandidateRecord *defaultCandidate() const {
    return DefaultIndex >= 0 ? &Candidates[DefaultIndex] : nullptr;
  }

  /// Serializes the full report (trajectory, prune reasons, predicted vs
  /// simulated cycles, Pareto front, chosen plan) as compact JSON text.
  /// A seed above 2^53 is "0x..." hex text (json::uint64ToJson).
  std::string toJson() const;

  /// Short human-readable summary for CLI output.
  std::string summary() const;
};

} // namespace tuner
} // namespace stencilflow

#endif // STENCILFLOW_TUNER_TUNINGREPORT_H
