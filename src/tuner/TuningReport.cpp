//===- tuner/TuningReport.cpp - Machine-readable tuning results ---------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuner/TuningReport.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace stencilflow;
using namespace stencilflow::tuner;

std::vector<size_t>
stencilflow::tuner::paretoFront(const std::vector<CandidateRecord> &Records) {
  auto Dominates = [](const CandidateCost &A, const CandidateCost &B) {
    bool NoWorse = A.PredictedSeconds <= B.PredictedSeconds &&
                   A.Devices <= B.Devices &&
                   A.PeakUtilization <= B.PeakUtilization;
    bool Better = A.PredictedSeconds < B.PredictedSeconds ||
                  A.Devices < B.Devices ||
                  A.PeakUtilization < B.PeakUtilization;
    return NoWorse && Better;
  };
  std::vector<size_t> Front;
  for (size_t I = 0; I != Records.size(); ++I) {
    if (!Records[I].Cost.Feasible)
      continue;
    bool Dominated = false;
    for (size_t J = 0; J != Records.size() && !Dominated; ++J)
      Dominated = J != I && Records[J].Cost.Feasible &&
                  Dominates(Records[J].Cost, Records[I].Cost);
    if (!Dominated)
      Front.push_back(I);
  }
  return Front;
}

void stencilflow::tuner::calibrateSlowdowns(TuningReport &Report) {
  // Calibration samples: simulated, feasible, non-failed candidates. A
  // sample is memory-class when the memory slowdown dominates (ties go to
  // memory — both at 1 means no correction and the sample is inert).
  struct Accumulator {
    double SumExtraSq = 0.0, SumExtraResidual = 0.0;
    int Samples = 0;
  } Memory, Network;
  auto IsSample = [](const CandidateRecord &R) {
    return R.Simulated && R.SimulationError.empty() &&
           R.SimulatedCycles > 0 && R.Cost.Feasible;
  };
  auto IsMemoryBound = [](const CandidateRecord &R) {
    return R.Cost.MemorySlowdown >= R.Cost.NetworkSlowdown;
  };
  for (const CandidateRecord &R : Report.Candidates) {
    if (!IsSample(R))
      continue;
    double Extra = static_cast<double>(R.Cost.PredictedCycles) -
                   static_cast<double>(R.Cost.ModelCycles);
    double Residual = static_cast<double>(R.SimulatedCycles) -
                      static_cast<double>(R.Cost.ModelCycles);
    Accumulator &Acc = IsMemoryBound(R) ? Memory : Network;
    ++Acc.Samples;
    if (Extra <= 0.0)
      continue; // No correction to scale; contributes nothing to the fit.
    Acc.SumExtraSq += Extra * Extra;
    Acc.SumExtraResidual += Extra * Residual;
  }

  SlowdownCalibration &C = Report.Calibration;
  C.MemorySamples = Memory.Samples;
  C.NetworkSamples = Network.Samples;
  // Closed-form least squares; a negative fit (simulator faster than the
  // uncorrected model) clamps to 0 rather than predicting a speedup from
  // congestion.
  if (Memory.SumExtraSq > 0.0) {
    C.MemoryFactor = std::max(0.0, Memory.SumExtraResidual / Memory.SumExtraSq);
    C.Fitted = true;
  }
  if (Network.SumExtraSq > 0.0) {
    C.NetworkFactor =
        std::max(0.0, Network.SumExtraResidual / Network.SumExtraSq);
    C.Fitted = true;
  }

  double ErrBefore = 0.0, ErrAfter = 0.0;
  int Samples = 0;
  for (CandidateRecord &R : Report.Candidates) {
    if (!IsSample(R))
      continue;
    double Factor = IsMemoryBound(R) ? C.MemoryFactor : C.NetworkFactor;
    double Extra = static_cast<double>(R.Cost.PredictedCycles) -
                   static_cast<double>(R.Cost.ModelCycles);
    R.CalibratedPredictedCycles =
        static_cast<double>(R.Cost.ModelCycles) + Factor * std::max(0.0, Extra);
    R.CalibratedErrorPct =
        100.0 * std::abs(R.CalibratedPredictedCycles -
                         static_cast<double>(R.SimulatedCycles)) /
        static_cast<double>(R.SimulatedCycles);
    ErrBefore += R.ModelErrorPct;
    ErrAfter += R.CalibratedErrorPct;
    ++Samples;
  }
  if (Samples > 0) {
    C.MeanErrorPctBefore = ErrBefore / Samples;
    C.MeanErrorPctAfter = ErrAfter / Samples;
  }
}

namespace {

json::Value candidateToJson(const CandidateRecord &R) {
  json::Object O;
  O.set("id", json::Value(R.Mapping.id()));
  O.set("vector_width", json::Value(R.Mapping.VectorWidth));
  O.set("fusion_pairs", json::Value(R.Mapping.FusionPairs));
  O.set("max_devices", json::Value(R.Mapping.MaxDevices));
  O.set("target_utilization", json::Value(R.Mapping.TargetUtilization));
  O.set("temporal_degree", json::Value(R.Mapping.TemporalDegree));
  O.set("kernel_engine",
        json::Value(compute::kernelEngineName(R.Mapping.KernelExec)));
  O.set("round", json::Value(R.Round));
  O.set("feasible", json::Value(R.Cost.Feasible));
  if (!R.Cost.Feasible) {
    O.set("prune_reason", json::Value(R.Cost.PruneReason));
  } else {
    O.set("model_cycles", json::Value(R.Cost.ModelCycles));
    O.set("predicted_cycles", json::Value(R.Cost.PredictedCycles));
    O.set("predicted_seconds", json::Value(R.Cost.PredictedSeconds));
    O.set("frequency_mhz", json::Value(R.Cost.FrequencyMHz));
    O.set("memory_slowdown", json::Value(R.Cost.MemorySlowdown));
    O.set("network_slowdown", json::Value(R.Cost.NetworkSlowdown));
    O.set("devices", json::Value(R.Cost.Devices));
    O.set("peak_utilization", json::Value(R.Cost.PeakUtilization));
  }
  O.set("simulated", json::Value(R.Simulated));
  if (R.Simulated) {
    if (!R.SimulationError.empty()) {
      O.set("simulation_error", json::Value(R.SimulationError));
    } else {
      O.set("validation_passed", json::Value(R.ValidationPassed));
      O.set("simulated_cycles", json::Value(R.SimulatedCycles));
      O.set("simulated_seconds", json::Value(R.SimulatedSeconds));
      O.set("model_error_pct", json::Value(R.ModelErrorPct));
      if (R.CalibratedPredictedCycles > 0.0) {
        O.set("calibrated_predicted_cycles",
              json::Value(R.CalibratedPredictedCycles));
        O.set("calibrated_error_pct", json::Value(R.CalibratedErrorPct));
      }
    }
  }
  return json::Value(std::move(O));
}

} // namespace

std::string TuningReport::toJson() const {
  json::Object O;
  O.set("program", json::Value(ProgramName));
  O.set("search", json::Value(SearchKind));
  O.set("seed", json::uint64ToJson(Seed));
  O.set("space_size", json::Value(SpaceSize));
  O.set("explored", json::Value(Explored));
  O.set("pruned", json::Value(Pruned));
  O.set("simulated", json::Value(SimulatedCount));
  std::vector<json::Value> CandidateArray;
  for (const CandidateRecord &R : Candidates)
    CandidateArray.push_back(candidateToJson(R));
  O.set("candidates", json::Value(std::move(CandidateArray)));
  std::vector<json::Value> Front(ParetoFront.begin(), ParetoFront.end());
  O.set("pareto_front", json::Value(std::move(Front)));
  json::Object C;
  C.set("fitted", json::Value(Calibration.Fitted));
  C.set("memory_factor", json::Value(Calibration.MemoryFactor));
  C.set("network_factor", json::Value(Calibration.NetworkFactor));
  C.set("memory_samples", json::Value(Calibration.MemorySamples));
  C.set("network_samples", json::Value(Calibration.NetworkSamples));
  C.set("mean_error_pct_before", json::Value(Calibration.MeanErrorPctBefore));
  C.set("mean_error_pct_after", json::Value(Calibration.MeanErrorPctAfter));
  O.set("calibration", json::Value(std::move(C)));
  O.set("best_index", json::Value(BestIndex));
  O.set("default_index", json::Value(DefaultIndex));
  if (const CandidateRecord *B = best())
    O.set("best", json::Value(B->Mapping.id()));
  if (const CandidateRecord *D = defaultCandidate())
    O.set("default", json::Value(D->Mapping.id()));
  return json::Value(std::move(O)).toString();
}

std::string TuningReport::summary() const {
  std::string Out = formatString(
      "tuned '%s': %s search over %zu-point space, %zu explored "
      "(%zu pruned), %zu simulated, %zu on the Pareto front\n",
      ProgramName.c_str(), SearchKind.c_str(), SpaceSize, Explored, Pruned,
      SimulatedCount, ParetoFront.size());
  const CandidateRecord *B = best();
  const CandidateRecord *D = defaultCandidate();
  if (B)
    Out += formatString(
        "best: %s — %lld simulated cycles at %.0f MHz on %d device(s), "
        "peak utilization %.0f%%, model error %.2f%%\n",
        B->Mapping.id().c_str(),
        static_cast<long long>(B->SimulatedCycles), B->Cost.FrequencyMHz,
        B->Cost.Devices, B->Cost.PeakUtilization * 100.0, B->ModelErrorPct);
  if (B && D && D->SimulatedCycles > 0 && B->SimulatedCycles > 0 && B != D)
    Out += formatString(
        "default %s: %lld simulated cycles — speedup %.2fx\n",
        D->Mapping.id().c_str(),
        static_cast<long long>(D->SimulatedCycles),
        static_cast<double>(D->SimulatedCycles) /
            static_cast<double>(B->SimulatedCycles));
  if (Calibration.Fitted)
    Out += formatString(
        "calibration: memory x%.3f (%d sample(s)), network x%.3f "
        "(%d sample(s)), mean model error %.2f%% -> %.2f%%\n",
        Calibration.MemoryFactor, Calibration.MemorySamples,
        Calibration.NetworkFactor, Calibration.NetworkSamples,
        Calibration.MeanErrorPctBefore, Calibration.MeanErrorPctAfter);
  return Out;
}
