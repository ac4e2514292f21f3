//===- sim/Trace.h - Simulation observability -------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's observability layer. Three pieces:
///
///  1. **Stall attribution.** Every cycle a component fails to make
///     progress is attributed to exactly one \c StallCause, accumulated in
///     a \c StallBreakdown per unit/reader/writer, whose total() is the
///     component's stall cycles. The tests cross-check the counters
///     against the stall intervals of the Chrome trace.
///     Attribution is always on — it costs one branch and one increment on
///     cycles that were already stalled.
///
///  2. **Timelines.** When a \c Tracer is attached via
///     \c SimConfig::Trace, the simulator records state intervals
///     (init/active/stall:<cause>/drain/done) per component and sampled
///     occupancy counters per channel and per-device memory bandwidth.
///
///  3. **Export.** The tracer serializes to the Chrome trace-event JSON
///     format — open the file in chrome://tracing or https://ui.perfetto.dev
///     (1 simulated cycle = 1 microsecond of trace time) — and to a tidy
///     CSV (`section,name,metric,value`) for scripted analysis; see
///     \c formatMetricsCsv for the latter on plain \c SimStats.
///
/// This is the profiling substrate behind the paper's evaluation story
/// (Figs. 14-16): it shows *why* a pipeline falls short of the Eq. 1 bound
/// — initialization latency, FIFO backpressure, memory-bandwidth
/// saturation, or network throttling — instead of only reporting that it
/// does.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SIM_TRACE_H
#define STENCILFLOW_SIM_TRACE_H

#include "support/Error.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace stencilflow {
namespace sim {

struct SimStats;

//===----------------------------------------------------------------------===//
// Stall attribution
//===----------------------------------------------------------------------===//

/// Why a component failed to make progress on a stalled cycle. One cause
/// is charged per stalled cycle; when several apply simultaneously the
/// output side wins (a matured result that cannot leave blocks the
/// component regardless of its inputs).
enum class StallCause : uint8_t {
  /// A scheduled input channel had no readable vector (upstream has not
  /// produced it yet, or it is still in flight on the network).
  InputStarved,
  /// A matured result could not be pushed because a consumer-side FIFO
  /// was full (downstream backpressure).
  OutputBlocked,
  /// The memory controller denied the transaction this cycle (bandwidth
  /// saturation; readers and writers only).
  MemoryDenied,
  /// An inter-device link had insufficient bandwidth for the push
  /// (remote streams only).
  NetworkDenied,
  /// Nothing was blocked externally: the component is waiting for its own
  /// in-flight pipeline results to mature (circuit latency).
  PipelineLatency,
};

constexpr int NumStallCauses = 5;

/// Short kebab-case name, e.g. "input-starved".
const char *stallCauseName(StallCause Cause);

/// Per-cause stall-cycle counters for one component.
struct StallBreakdown {
  int64_t Counts[NumStallCauses] = {0, 0, 0, 0, 0};

  void add(StallCause Cause) {
    ++Counts[static_cast<size_t>(Cause)];
  }
  int64_t operator[](StallCause Cause) const {
    return Counts[static_cast<size_t>(Cause)];
  }
  int64_t total() const {
    int64_t Sum = 0;
    for (int64_t Count : Counts)
      Sum += Count;
    return Sum;
  }
  StallBreakdown &operator+=(const StallBreakdown &Other) {
    for (int Cause = 0; Cause != NumStallCauses; ++Cause)
      Counts[Cause] += Other.Counts[Cause];
    return *this;
  }
  /// The cause with the most cycles, or PipelineLatency when empty.
  StallCause dominant() const;
};

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

/// Records sampled timelines of one simulation run. Attach to
/// \c SimConfig::Trace before \c Machine::run; the machine registers its
/// components, feeds state transitions and counter samples, and closes the
/// trace when the run ends (including deadlock/cycle-limit aborts, so
/// stuck configurations can be inspected visually).
///
/// A tracer records one run at a time; a subsequent run on the same
/// machine resets it.
class Tracer {
public:
  /// \p SampleStride is the period, in cycles, of the occupancy and
  /// bandwidth counter samples. State intervals are exact (recorded at
  /// every transition) regardless of the stride.
  explicit Tracer(int64_t SampleStride = 16);

  int64_t sampleStride() const { return SampleStride; }

  //===--------------------------------------------------------------------===//
  // Recording interface (driven by Machine::run)
  //===--------------------------------------------------------------------===//

  /// Drops all recorded data and registered tracks (new run).
  void clear();

  /// Registers a timeline track (one unit/reader/writer). Returns its id.
  int addTrack(std::string Name, int Device);

  /// Registers an occupancy/bandwidth counter. Returns its id.
  int addCounter(std::string Name, int Device, std::string Series);

  /// Records that \p Track is in \p State as of \p Cycle. Consecutive
  /// identical states merge into one interval.
  void setState(int Track, int64_t Cycle, std::string_view State);

  /// Records a counter sample.
  void sample(int Counter, int64_t Cycle, double Value);

  /// Closes all open state intervals at \p FinalCycle.
  void finish(int64_t FinalCycle);

  //===--------------------------------------------------------------------===//
  // Export
  //===--------------------------------------------------------------------===//

  /// Serializes the recorded run in Chrome trace-event JSON.
  std::string chromeTraceJson() const;

  /// Writes \c chromeTraceJson() to \p Path.
  Error writeChromeTrace(const std::string &Path) const;

private:
  struct Track {
    std::string Name;
    int Device = 0;
    int State = -1;       ///< Interned current state, -1 = none yet.
    int64_t Since = 0;    ///< Cycle the current state began.
    bool Open = false;
  };
  struct Counter {
    std::string Name;
    std::string Series;
    int Device = 0;
  };
  struct Interval {
    int Track;
    int State;
    int64_t Start;
    int64_t End;
  };
  struct Sample {
    int Counter;
    int64_t Cycle;
    double Value;
  };

  int internState(std::string_view State);

  int64_t SampleStride;
  int64_t FinalCycle = 0;
  std::vector<Track> Tracks;
  std::vector<Counter> Counters;
  std::vector<Interval> Intervals;
  std::vector<Sample> Samples;
  std::vector<std::string> StateNames;
  std::map<std::string, int, std::less<>> StateIndex;
};

//===----------------------------------------------------------------------===//
// Metrics export
//===----------------------------------------------------------------------===//

/// Serializes \p Stats as a tidy CSV with the header
/// `section,name,metric,value` — one row per metric, suitable for direct
/// ingestion into pandas/R. Sections: `sim` (totals), `device`, `unit`,
/// `reader`, `writer`, `channel`.
std::string formatMetricsCsv(const SimStats &Stats);

/// Writes \p Text to \p Path crash-consistently, reporting I/O failures:
/// writes to a temporary file in the same directory, fsyncs, renames over
/// \p Path, and fsyncs the directory (best effort) so the rename is
/// durable too. A crash (or
/// a failure partway through) leaves either the complete old file or the
/// complete new file — never a truncated artifact. \p Text may hold any
/// bytes: every persisted file (Chrome traces, metrics CSVs, tuning
/// reports, fuzz findings, checkpoint snapshots) routes through this.
Error writeTextFileAtomic(const std::string &Path, std::string_view Text);

} // namespace sim
} // namespace stencilflow

#endif // STENCILFLOW_SIM_TRACE_H
