//===- bench/tune_overhead.cpp - Autotuner overhead micro-benchmarks ----------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark timings of the mapping autotuner's stages
// (src/tuner/), so CI catches the search itself getting slow:
//
//   * enumerate — design-space construction (the fusion walk dominates:
//                 one aggressive pass, keeping the programs at the levels
//                 the space uses),
//   * cost      — one candidate through a fresh analytic cost model over
//                 that space (clone of the fused level, compile, view at
//                 the width, buffer analysis, Eq. 1, partitioner,
//                 frequency/bandwidth models),
//   * search    — a full beam search, analytic only (no simulation),
//   * tune      — the whole tuneProgram pipeline including top-K
//                 simulator validation on worker threads.
//
// The workload is a small diffusion2d chain: large enough that every
// stage does real work, small enough that `tune` stays in micro-bench
// territory. The checked-in baseline lives in
// bench/baselines/tune_overhead_baseline.json and is enforced by
// tools/check_perf.py in CI.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace stencilflow;
using namespace stencilflow::tuner;

namespace {

StencilProgram makeProgram() { return workloads::diffusion2dChain(3, 16, 32); }

PipelineOptions baseOptions() {
  PipelineOptions Base;
  Base.Simulator.UnconstrainedMemory = true;
  return Base;
}

void BM_Tuner_EnumerateSpace(benchmark::State &State) {
  StencilProgram Program = makeProgram();
  for (auto _ : State) {
    Expected<DesignSpace> Space =
        DesignSpace::enumerate(Program, DesignSpaceOptions(), 8);
    if (!Space) {
      State.SkipWithError(Space.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(Space->size());
  }
}
BENCHMARK(BM_Tuner_EnumerateSpace)->Unit(benchmark::kMicrosecond);

void BM_Tuner_CostOneCandidate(benchmark::State &State) {
  StencilProgram Program = makeProgram();
  PipelineOptions Base = baseOptions();
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(Program, DesignSpaceOptions(), 8);
  if (!Space) {
    State.SkipWithError(Space.message().c_str());
    return;
  }
  CandidateMapping Mapping;
  Mapping.VectorWidth = 8;
  Mapping.FusionPairs = 1;
  for (auto _ : State) {
    // A fresh model per iteration: a reused one would time its prefix
    // memo, not the compile half.
    CostModel Model(Program, Base, *Space);
    CandidateCost Cost = Model.cost(Mapping);
    if (!Cost.Feasible) {
      State.SkipWithError(Cost.PruneReason.c_str());
      return;
    }
    benchmark::DoNotOptimize(Cost.PredictedCycles);
  }
}
BENCHMARK(BM_Tuner_CostOneCandidate)->Unit(benchmark::kMicrosecond);

void BM_Tuner_AnalyticSearch(benchmark::State &State) {
  StencilProgram Program = makeProgram();
  PipelineOptions Base = baseOptions();
  TuneOptions Options;
  Options.Search.CandidateBudget = 24; // Below the space size: beam.
  Options.Simulate = false;
  for (auto _ : State) {
    Expected<TuningOutcome> Out = tuneProgram(Program, Base, Options);
    if (!Out) {
      State.SkipWithError(Out.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(Out->Report.Explored);
  }
}
BENCHMARK(BM_Tuner_AnalyticSearch)->Unit(benchmark::kMillisecond);

void BM_Tuner_FullTune(benchmark::State &State) {
  StencilProgram Program = makeProgram();
  PipelineOptions Base = baseOptions();
  TuneOptions Options;
  Options.Search.CandidateBudget = 24;
  Options.TopK = 2;
  for (auto _ : State) {
    Expected<TuningOutcome> Out = tuneProgram(Program, Base, Options);
    if (!Out || !Out->BestRun.ValidationPassed) {
      State.SkipWithError(Out ? "winning plan failed validation"
                              : Out.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(Out->Report.SimulatedCount);
  }
}
BENCHMARK(BM_Tuner_FullTune)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
