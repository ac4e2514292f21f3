//===- tuner/CostModel.h - Analytic candidate ranking -------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analytic cost model of the mapping autotuner. For each candidate it
/// replays the static half of the pipeline — unroll and fuse once per
/// temporal degree, compile once per (fusion level, temporal degree), then
/// the width, dataflow analysis and partitioning per candidate — and
/// combines
///
///  - the expected-runtime model C = L + N (Sec. VIII-A, Eq. 1),
///  - the utilization-derived frequency model (core/ResourceModel), using
///    the worst (most utilized) device of the partition, and
///  - bandwidth ceilings: per-device off-chip memory demand against
///    SimConfig's DRAM model, and per-hop remote-stream demand against the
///    link capacity (Sec. VI-B),
///
/// into a predicted cycle count and wall-clock seconds. Candidates that
/// fail any stage — illegal width, fusion failure, deadlocked/unsizable
/// buffers, or a partition exceeding capacity — are *pruned* (returned
/// infeasible with the stage's diagnostic), never errors: an infeasible
/// point is a normal part of the space.
///
/// With unconstrained memory and one device the prediction equals the
/// simulator's cycle count exactly (the simulator asserts this invariant
/// in tests/pipeline_test.cpp); bandwidth-constrained and multi-device
/// predictions are approximate, with the error bound pinned down by
/// tests/tuner_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TUNER_COSTMODEL_H
#define STENCILFLOW_TUNER_COSTMODEL_H

#include "runtime/Pipeline.h"
#include "tuner/DesignSpace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace stencilflow {
namespace tuner {

/// The analytic verdict on one candidate mapping.
struct CandidateCost {
  /// False when the candidate was pruned; \c PruneReason says why.
  bool Feasible = false;
  std::string PruneReason;

  /// Eq. 1 cycles C = L + N, before bandwidth/network corrections.
  int64_t ModelCycles = 0;

  /// Predicted cycles including network latency and the dominant
  /// bandwidth slowdown of the streaming phase.
  int64_t PredictedCycles = 0;

  /// Clock frequency of the worst (most utilized) device.
  double FrequencyMHz = 0.0;

  /// PredictedCycles at FrequencyMHz, divided by the temporal degree —
  /// the ranking objective. A degree-T candidate's circuit advances T
  /// timesteps per pass, so candidates compete on seconds *per timestep*;
  /// PredictedCycles stays the raw per-pass count (it must match the
  /// simulator bit-for-bit in the single-device exactness invariant).
  double PredictedSeconds = 0.0;

  /// Timesteps unrolled on-chip by this candidate (the normalizer above).
  int TemporalDegree = 1;

  /// Streaming-phase slowdown factors (>= 1; 1 = not a bottleneck).
  double MemorySlowdown = 1.0;
  double NetworkSlowdown = 1.0;

  /// Devices the partitioner actually used (<= the mapping's budget).
  int Devices = 0;

  /// Highest utilization fraction across devices and resource classes.
  double PeakUtilization = 0.0;

  /// Fused pairs actually applied.
  int FusedPairs = 0;
};

/// Costs candidate mappings of one program's design space under one base
/// configuration.
///
/// Nothing a candidate's width, device budget, utilization or kernel tier
/// does not change is done per candidate:
///
///  - Fusion: one walk of the fusion trajectory per temporal degree
///    (sdfg::FusionWalk) keeps the program at every fusion level of the
///    space. Degree 1 reuses the walk \c DesignSpace::enumerate made to
///    count the levels; other degrees walk the unrolled program once.
///  - Compilation: each (fusion level, temporal degree) prefix is
///    simplified and compiled once at width 1, and each candidate views it
///    at its own width (\c CompiledProgram::withVectorWidth shares the
///    program and kernels). The kernels' census and circuit latencies are
///    counted once per prefix.
///  - Width-dependent analysis: buffer sizing, the dataflow analysis and
///    the Eq. 1 estimate run once per (fusion level, temporal degree,
///    width) and are shared by every device budget and target
///    utilization; only partitioning and the bandwidth and frequency
///    models run per candidate.
///  - Reference outputs: the reference executor runs once per prefix, on
///    first use (\c reference), since its outputs depend only on the
///    program and its input seeds.
///
/// \c cost, \c compile and \c reference may be called from multiple
/// threads: the tuner's search costs candidates on one thread while its
/// validation pool runs reference executions and simulations on others.
/// A mutex guards only the memo maps and the fusion walks; each prefix is
/// compiled, each of its width views analyzed, and its reference run,
/// under that prefix's own once-guards, outside the mutex. So a caller
/// waits for the prefix it asks about, or for a fusion walk of a new
/// temporal degree, but never behind another prefix's compile or
/// reference run. The memos live as long as the model, which is one
/// tuning run.
class CostModel {
public:
  /// Prices the mappings of \p Space, a space enumerated for \p Program.
  /// \p Program and \p Base must outlive the model.
  CostModel(const StencilProgram &Program, const PipelineOptions &Base,
            const DesignSpace &Space);

  /// Prices \p Mapping. Infeasible candidates come back with
  /// Feasible = false and a prune reason, not an error. The kernel-engine
  /// axis is cost-invariant by design: every engine tier is bit-exact and
  /// models the same hardware, so it changes how fast the testbed
  /// evaluates a candidate, never the predicted cycles.
  CandidateCost cost(const CandidateMapping &Mapping) const;

  /// \p Mapping's compiled program: the shared compile prefix of its
  /// fusion level and temporal degree, built on first use, at its width.
  /// Fails with the candidate's prune reason.
  Expected<CompiledProgram> compile(const CandidateMapping &Mapping) const;

  /// The reference executor's outputs for \p Mapping's prefix on its
  /// program's inputs (materializeInputs), computed on first use. Null
  /// when the prefix is pruned or the reference executor fails on it; a
  /// run given no reference computes (and reports) its own.
  std::shared_ptr<const ExecutionResult>
  reference(const CandidateMapping &Mapping) const;

private:
  /// The fusion walk of the program unrolled to one temporal degree, or
  /// null with the reason its candidates are pruned.
  struct Walk {
    std::shared_ptr<const FusionWalk> Levels;
    std::string PruneReason;
  };

  /// A prefix viewed at one width: what its candidates of every device
  /// budget and target utilization share — the widened program, its
  /// dataflow analysis and Eq. 1 estimate — or why they are pruned.
  struct WidthView {
    std::once_flag Once;
    std::optional<CompiledProgram> Compiled;
    DataflowAnalysis Dataflow;
    RuntimeEstimate Runtime;
    /// Why the width does not fit the program (each candidate's prune
    /// reason names its own mapping), or why the dataflow analysis failed.
    std::string WidthError, DataflowError;
  };

  /// The program of one (fusion level, temporal degree) at width 1, or
  /// null with the reason its candidates are pruned, its kernels' circuit
  /// latencies, its width views, and its reference outputs once computed.
  struct Prefix {
    std::once_flag CompileOnce;
    std::shared_ptr<const CompiledProgram> Compiled;
    std::string PruneReason;
    std::vector<int64_t> CircuitLatencies;
    std::mutex WidthsMutex;
    std::map<int, WidthView> Widths;
    std::once_flag ReferenceOnce;
    std::shared_ptr<const ExecutionResult> Reference;
  };

  /// \p Mapping's prefix, built on first use.
  Prefix &prefix(const CandidateMapping &Mapping) const;

  /// Compiles \p P, the prefix of \p Mapping, or records why it is pruned.
  void buildPrefix(Prefix &P, const CandidateMapping &Mapping) const;

  /// \p P, a compiled prefix, viewed at \p Width, built on first use.
  const WidthView &widthView(Prefix &P, int Width) const;

  /// The walk of temporal degree \p Degree, built on first use; requires
  /// \c Mutex to be held.
  const Walk &walk(int Degree) const;

  const StencilProgram &Program;
  const PipelineOptions &Base;
  /// The fusion levels of the space, ascending.
  std::vector<int> Levels;
  mutable std::mutex Mutex;
  mutable std::map<int, Walk> Walks;
  mutable std::map<std::pair<int, int>, Prefix> Prefixes;
};

} // namespace tuner
} // namespace stencilflow

#endif // STENCILFLOW_TUNER_COSTMODEL_H
