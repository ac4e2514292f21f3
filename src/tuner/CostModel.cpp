//===- tuner/CostModel.cpp - Analytic candidate ranking -----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuner/CostModel.h"

#include "runtime/InputData.h"
#include "sdfg/TemporalUnroll.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace stencilflow;
using namespace stencilflow::tuner;

namespace {

/// Marks \p Cost pruned at some pipeline stage.
CandidateCost pruned(CandidateCost Cost, std::string Reason) {
  Cost.Feasible = false;
  Cost.PruneReason = std::move(Reason);
  return Cost;
}

/// Steady-state off-chip demand of one device in bytes per cycle: every
/// full-rank replicated input is read and every output written W elements
/// per cycle, each stream paying the per-transaction bus overhead, plus
/// crossbar arbitration pressure per active endpoint (the same DRAM model
/// the simulator charges, sim/Config.h).
double deviceMemoryDemand(const StencilProgram &Program,
                          const DevicePlacement &Device, int VectorWidth,
                          const sim::SimConfig &Sim) {
  double Bytes = 0.0;
  int Endpoints = 0;
  for (const std::string &Input : Device.ReplicatedInputs) {
    const Field *F = Program.findInput(Input);
    if (!F || !F->isFullRank())
      continue; // Sub-dimensional inputs are preloaded ROMs, not streams.
    Bytes += static_cast<double>(VectorWidth) *
                 static_cast<double>(dataTypeSize(F->Type)) +
             Sim.TransactionOverheadBytes;
    ++Endpoints;
  }
  for (const std::string &Output : Device.OutputsWritten) {
    Bytes += static_cast<double>(VectorWidth) *
                 static_cast<double>(dataTypeSize(
                     Program.fieldType(Output))) +
             Sim.TransactionOverheadBytes;
    ++Endpoints;
  }
  return Bytes + Endpoints * Sim.ArbitrationPenaltyBytesPerEndpoint;
}

} // namespace

CostModel::CostModel(const StencilProgram &Program,
                     const PipelineOptions &Base, const DesignSpace &Space)
    : Program(Program), Base(Base), Levels(Space.fusionLevels()) {
  Walks[1].Levels = Space.fusionWalk();
}

const CostModel::Walk &CostModel::walk(int Degree) const {
  auto [It, Inserted] = Walks.try_emplace(Degree);
  Walk &W = It->second;
  if (!Inserted)
    return W;
  // Pipeline order: unroll first, as compilePipeline does — fusion levels
  // counted on the base program stay legal on the unrolled one.
  Expected<StencilProgram> Unrolled = sdfg::unrollTimeSteps(Program, Degree);
  if (!Unrolled) {
    W.PruneReason =
        "mapping: " +
        Unrolled.takeError()
            .addContext(formatString("unrolling %d timestep(s)", Degree))
            .message();
    return W;
  }
  // Walk at width 1, which every extent admits, like enumerate's walk.
  StencilProgram Walked = Unrolled.takeValue();
  Walked.VectorWidth = 1;
  W.Levels = std::make_shared<const FusionWalk>(
      std::move(Walked), Levels.back(), [this](int F) {
        return std::binary_search(Levels.begin(), Levels.end(), F);
      });
  return W;
}

CostModel::Prefix &CostModel::prefix(const CandidateMapping &Mapping) const {
  Prefix *P;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    P = &Prefixes[std::make_pair(Mapping.FusionPairs,
                                 Mapping.TemporalDegree)];
  }
  // Compiled outside the lock, so other prefixes stay reachable meanwhile.
  std::call_once(P->CompileOnce, [&] { buildPrefix(*P, Mapping); });
  return *P;
}

void CostModel::buildPrefix(Prefix &P, const CandidateMapping &Mapping) const {
  std::shared_ptr<const FusionWalk> Levels;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    const Walk &W = walk(Mapping.TemporalDegree);
    if (!W.Levels) {
      P.PruneReason = W.PruneReason;
      return;
    }
    Levels = W.Levels;
  }
  std::shared_ptr<const StencilProgram> Fused =
      Levels->level(Mapping.FusionPairs);
  if (!Fused) {
    P.PruneReason =
        "mapping: " +
        (Levels->failure()
             ? formatString("fusing %d pair(s): ", Mapping.FusionPairs) +
                   Levels->failure().message()
             : formatString("fusion level %d is not a level of the design "
                            "space",
                            Mapping.FusionPairs));
    return;
  }
  // The walk's program is at width 1; each candidate's own width is a
  // view of the compiled prefix (CompiledProgram::withVectorWidth).
  CandidateMapping Knobs;
  Knobs.FusionPairs = Mapping.FusionPairs;
  Knobs.TemporalDegree = Mapping.TemporalDegree;
  Expected<CompiledProgram> Compiled =
      compileProgram(std::move(Fused), mappingOptions(Base, Knobs));
  if (!Compiled) {
    P.PruneReason = Compiled.message();
    return;
  }
  P.Compiled = std::make_shared<const CompiledProgram>(Compiled.takeValue());
  P.CircuitLatencies = circuitLatencies(*P.Compiled, Base.Latencies);
}

const CostModel::WidthView &CostModel::widthView(Prefix &P,
                                                 int Width) const {
  WidthView *View;
  {
    std::lock_guard<std::mutex> Lock(P.WidthsMutex);
    View = &P.Widths[Width];
  }
  std::call_once(View->Once, [&] {
    Expected<CompiledProgram> Widened = P.Compiled->withVectorWidth(Width);
    if (!Widened) {
      View->WidthError = Widened.message();
      return;
    }
    // Size the buffers; failures here are the buffer-sizing /
    // deadlock-freedom prune (Sec. IV-B).
    Expected<DataflowAnalysis> Dataflow =
        analyzeDataflow(*Widened, P.CircuitLatencies);
    if (!Dataflow) {
      View->DataflowError = Dataflow.takeError();
      return;
    }
    View->Dataflow = Dataflow.takeValue();
    View->Runtime = computeRuntimeEstimate(*Widened, View->Dataflow);
    View->Ledger = estimateResourceLedger(*Widened, View->Dataflow,
                                          Base.Partitioning.ResourceConfig);
    View->Compiled = Widened.takeValue();
  });
  return *View;
}

Expected<CompiledPlan>
CostModel::plan(const CandidateMapping &Mapping) const {
  Prefix &P = prefix(Mapping);
  if (!P.Compiled)
    return makeError(P.PruneReason);
  const WidthView &View = widthView(P, Mapping.VectorWidth);
  if (!View.WidthError.empty())
    return makeError("mapping: mapping " + Mapping.id() + ": " +
                     View.WidthError);
  if (!View.Compiled)
    return Error(View.DataflowError).addContext("dataflow analysis");
  PipelineOptions O = mappingOptions(Base, Mapping);
  O.EmitCode = false;
  return planProgram(*View.Compiled, View.Dataflow, O);
}

std::shared_ptr<const ExecutionResult>
CostModel::reference(const CandidateMapping &Mapping) const {
  Prefix &P = prefix(Mapping);
  if (!P.Compiled)
    return nullptr;
  std::call_once(P.ReferenceOnce, [&P] {
    Expected<ExecutionResult> Outputs = runReference(
        *P.Compiled, materializeInputs(P.Compiled->program()));
    if (Outputs)
      P.Reference =
          std::make_shared<const ExecutionResult>(Outputs.takeValue());
  });
  return P.Reference;
}

CandidateCost CostModel::cost(const CandidateMapping &Mapping) const {
  CandidateCost Cost;
  Cost.FusedPairs = Mapping.FusionPairs;
  Cost.TemporalDegree = Mapping.TemporalDegree;

  // Stage 1: the width-independent prefix (unroll, fuse, simplify,
  // compile), shared across candidates.
  Prefix &P = prefix(Mapping);
  if (!P.Compiled)
    return pruned(std::move(Cost), P.PruneReason);

  // Stage 2: the prefix at this candidate's width, with its buffers sized
  // and its Eq. 1 estimate, shared across device budgets and utilizations.
  const WidthView &View = widthView(P, Mapping.VectorWidth);
  if (!View.WidthError.empty())
    return pruned(std::move(Cost), "mapping: mapping " + Mapping.id() +
                                       ": " + View.WidthError);
  if (!View.Compiled)
    return pruned(std::move(Cost),
                  "dataflow: " + View.DataflowError.message());
  const CompiledProgram *Compiled = &*View.Compiled;
  const RuntimeEstimate &Runtime = View.Runtime;
  Cost.ModelCycles = Runtime.TotalCycles;

  // Stage 3: partition under the mapping's device budget and target
  // utilization; the partitioner enforces the ResourceModel capacity
  // checks, so an over-capacity candidate is pruned here.
  PartitionOptions PartOptions = Base.Partitioning;
  PartOptions.MaxDevices = Mapping.MaxDevices;
  PartOptions.TargetUtilization = Mapping.TargetUtilization;
  Expected<Partition> Placement =
      partitionProgram(*Compiled, View.Ledger, PartOptions);
  if (!Placement)
    return pruned(std::move(Cost), "partitioning: " + Placement.message());
  Cost.Devices = static_cast<int>(Placement->numDevices());

  // Frequency and utilization come from the worst (most utilized) device:
  // all devices in the chain run off one design clock.
  const DevicePlacement *Worst = nullptr;
  for (const DevicePlacement &Device : Placement->Devices) {
    double Peak = Device.Resources.peakUtilization(PartOptions.Device);
    if (Peak > Cost.PeakUtilization || !Worst) {
      Cost.PeakUtilization = Peak;
      Worst = &Device;
    }
  }
  Cost.FrequencyMHz =
      estimateFrequencyMHz(Worst->Resources, PartOptions.Device,
                           PartOptions.ResourceConfig);

  // Bandwidth ceilings on the streaming phase.
  const sim::SimConfig &Sim = Base.Simulator;
  const StencilProgram &Prog = Compiled->program();
  if (!Sim.UnconstrainedMemory) {
    for (const DevicePlacement &Device : Placement->Devices) {
      double Demand =
          deviceMemoryDemand(Prog, Device, Compiled->vectorWidth(), Sim);
      Cost.MemorySlowdown = std::max(Cost.MemorySlowdown,
                                     Demand / Sim.PeakMemoryBytesPerCycle);
    }
  }
  for (int Hop = 0; Hop + 1 < Cost.Devices; ++Hop) {
    double HopBytes = 0.0;
    for (const RemoteStream &Stream : Placement->RemoteStreams)
      if (Stream.SourceDevice <= Hop && Hop < Stream.ConsumerDevice)
        HopBytes += static_cast<double>(Compiled->vectorWidth()) *
                    static_cast<double>(
                        dataTypeSize(Prog.fieldType(Stream.Source)));
    Cost.NetworkSlowdown =
        std::max(Cost.NetworkSlowdown,
                 HopBytes / (Sim.LinkBytesPerCycle * Sim.LinksPerHop));
  }

  // Network latency: remote streams add per-hop store-and-forward delay to
  // the pipeline fill; the longest source-to-consumer span dominates.
  int64_t NetworkLatency = 0;
  for (const RemoteStream &Stream : Placement->RemoteStreams)
    NetworkLatency =
        std::max(NetworkLatency,
                 static_cast<int64_t>(Stream.ConsumerDevice -
                                      Stream.SourceDevice) *
                     Sim.NetworkLatencyCyclesPerHop);

  double Slowdown = std::max(Cost.MemorySlowdown, Cost.NetworkSlowdown);
  Cost.PredictedCycles =
      Runtime.LatencyCycles + NetworkLatency +
      static_cast<int64_t>(std::ceil(
          static_cast<double>(Runtime.StreamedCycles) * Slowdown));
  // Rank on seconds per *timestep*: a degree-T circuit advances T
  // generations per pass, so its per-pass cycles are amortized over T.
  Cost.PredictedSeconds =
      static_cast<double>(Cost.PredictedCycles) /
      (Cost.FrequencyMHz * 1e6 * std::max(1, Mapping.TemporalDegree));
  Cost.Feasible = true;
  return Cost;
}
