//===- sim/Machine.h - Spatial hardware simulator -----------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cycle-level simulator of the spatial architectures StencilFlow emits,
/// standing in for the paper's FPGA testbed (see DESIGN.md). It implements
/// the dataflow semantics that the analyses reason about:
///
///  - every stencil node becomes a fully pipelined stencil unit (II = 1)
///    with shift-register internal buffers, boundary predication, and
///    initialization/draining phases (Fig. 12);
///  - edges become bounded FIFO channels whose capacities carry the
///    delay-buffer depths of Sec. IV-B — undersized channels reproduce the
///    Fig. 4 deadlock, which the simulator detects and reports;
///  - off-chip inputs are read once per device by prefetching reader
///    endpoints and fanned out to all consumers; writers commit outputs,
///    both arbitrated by a banked memory controller with per-transaction
///    overhead (the Fig. 16 bandwidth substrate);
///  - multi-device partitions communicate via SMI-style remote streams
///    with per-hop latency and link-bandwidth arbitration (Sec. VI-B).
///
/// In the unconstrained-memory configuration the simulator completes in
/// exactly C = L + N cycles (Eq. 1), which the tests assert.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SIM_MACHINE_H
#define STENCILFLOW_SIM_MACHINE_H

#include "core/CompiledProgram.h"
#include "core/DataflowAnalysis.h"
#include "core/Partitioner.h"
#include "core/ValidRegion.h"
#include "sim/Channel.h"
#include "sim/Config.h"
#include "sim/Fault.h"
#include "sim/Trace.h"
#include "support/Error.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace stencilflow {
namespace sim {

struct MachineSnapshot;

/// Reliable-transport counters for one remote stream (all zero unless a
/// fault plan is attached; see SimConfig::Faults).
struct LinkStats {
  /// Wire transmissions, including retransmissions.
  int64_t Transmissions = 0;
  /// Go-Back-N retransmissions (Transmissions - Retransmissions ==
  /// Delivered on a completed run: every vector is delivered exactly
  /// once).
  int64_t Retransmissions = 0;
  /// Corrupted arrivals discarded by the receiver's checksum.
  int64_t CorruptedVectors = 0;
  /// NACKs the receiver sent (corrupted arrivals of the expected
  /// sequence number only; stale out-of-order arrivals are discarded
  /// silently, so Nacks <= CorruptedVectors).
  int64_t Nacks = 0;
  /// Vectors delivered in order to the consumer.
  int64_t Delivered = 0;
};

/// Occupancy statistics of one channel.
struct ChannelStats {
  /// Configured capacity (vectors).
  int64_t Capacity = 0;
  /// Highest observed *visible* occupancy; in-flight remote vectors are
  /// excluded. Together with the analysis' per-edge BufferDepth this
  /// empirically validates the delay-buffer sizing: the critical edges
  /// fill to (at least close to) their computed depth, and no channel
  /// ever needs more.
  int64_t HighWater = 0;
  /// Highest total occupancy including in-flight vectors — what the
  /// physical FIFO allocation must cover.
  int64_t PeakOccupancy = 0;
};

/// Execution statistics of one simulation.
struct SimStats {
  /// Total cycles until the last output vector was committed.
  int64_t Cycles = 0;

  /// Per-device bytes moved to/from off-chip memory.
  std::vector<double> MemoryBytesMoved;

  /// Per-device average achieved memory bandwidth in bytes/cycle.
  std::vector<double> AchievedMemoryBytesPerCycle;

  /// Total bytes moved across the network.
  double NetworkBytesMoved = 0.0;

  /// Per-cause attribution of each stencil unit's stall cycles (inputs
  /// missing, outputs blocked, bandwidth denied or pipeline latency; see
  /// sim/Trace.h). UnitStalls[name].total() is the unit's stall cycles.
  std::map<std::string, StallBreakdown> UnitStalls;

  /// Per-cause stall attribution of the memory reader endpoints, keyed
  /// "field@device". Readers stall when downstream FIFOs are full
  /// (output-blocked) or the memory controller denies bandwidth
  /// (memory-denied).
  std::map<std::string, StallBreakdown> ReaderStalls;

  /// Per-cause stall attribution of the memory writer endpoints, keyed by
  /// output field. Writers stall waiting for produced data
  /// (input-starved — this includes the pipeline's initialization phase)
  /// or on memory bandwidth (memory-denied).
  std::map<std::string, StallBreakdown> WriterStalls;

  /// Capacity and occupancy per channel, keyed by the channel name
  /// "source->consumer".
  std::map<std::string, ChannelStats> Channels;

  /// Reliable-transport counters per remote stream, keyed by channel
  /// name. Present (with zero counters) for every inter-device stream
  /// when a fault plan is attached; empty otherwise.
  std::map<std::string, LinkStats> Links;

  /// The *requested* kernel execution tier ("scalar" or "specialized")
  /// and how many stencil units actually ran a matched weighted-sum
  /// specialization. Requested and effective tiers can differ per unit:
  /// the Specialized tier falls back to the batched tape when no pattern
  /// matches.
  std::string KernelExec = "scalar";
  int64_t SpecializedUnits = 0;

  /// Effective tier per stencil unit (unit name -> tier name) — what
  /// KernelEvaluator::tier() actually reports after any fallback, so
  /// tuner decisions and bench numbers are attributable.
  std::map<std::string, std::string> UnitKernelTiers;

  /// Compact "tier xN" histogram of UnitKernelTiers, e.g.
  /// "specialized x3, batched x1" (empty when there are no units).
  std::string kernelTierSummary() const;

  /// Checkpoint/restart (sim/Checkpoint.h): snapshots persisted during
  /// this run, the cycle the run resumed from (-1 when it started fresh),
  /// and how many stencil units ended up on a different effective kernel
  /// tier than the snapshotting run recorded (tier assignment is
  /// re-derived on restore, so a snapshot recorded on a retired tier
  /// resumes on the tier the restoring config asks for).
  int64_t CheckpointsWritten = 0;
  int64_t ResumedFromCycle = -1;
  int64_t TierReassignedUnits = 0;
};

/// How a returned simulation terminated. Failed runs return a typed
/// \c SimFailure instead (carrying the structured \c FailureReport), so a
/// \c SimResult either completed cleanly or completed while the reliable
/// transport absorbed injected faults.
enum class TerminationReason : uint8_t {
  /// Ran to completion; no faults were absorbed.
  Completed,
  /// Ran to completion, but the reliable transport detected corrupted
  /// vectors and recovered via retransmission.
  CompletedDegraded,
};

/// Stable name, e.g. "completed-degraded".
const char *terminationReasonName(TerminationReason Reason);

/// Results of one simulation: statistics plus the program outputs.
struct SimResult {
  SimStats Stats;
  std::map<std::string, std::vector<double>> Outputs;
  TerminationReason Termination = TerminationReason::Completed;
};

/// A built simulator instance. Build once, run with concrete inputs.
class Machine {
public:
  /// Assembles the machine from the analyzed program. \p Placement is
  /// optional; without it everything runs on a single device.
  static Expected<Machine> build(const CompiledProgram &Compiled,
                                 const DataflowAnalysis &Dataflow,
                                 const Partition *Placement = nullptr,
                                 const SimConfig &Config = {});

  /// Runs the machine to completion (or deadlock / cycle-limit abort).
  /// \p Inputs maps every program input field to its data. On failure the
  /// returned \c SimFailure carries both the classified error and the
  /// structured \c FailureReport, so no separate accessor call is needed.
  ///
  /// When \p Resume is non-null the machine state is restored from the
  /// snapshot before stepping and the run continues from the snapshot
  /// cycle: bit- and cycle-exact with the uninterrupted run when the
  /// snapshot's exact signature matches, or rehydrated onto the current
  /// placement (device-loss recovery) when only the topology matches.
  /// Incompatible or undecodable snapshots fail with
  /// ErrorCode::SnapshotIncompatible / SnapshotInvalid.
  Expected<SimResult, SimFailure>
  run(const std::map<std::string, std::vector<double>> &Inputs,
      const MachineSnapshot *Resume = nullptr);

  /// The runtime model's expected cycle count C = L + N (Eq. 1), excluding
  /// network latency.
  int64_t expectedCycles() const { return ExpectedCycles; }

  /// Number of devices in the machine.
  int numDevices() const { return NumDevices; }

private:
  //===--------------------------------------------------------------------===//
  // Component state
  //===--------------------------------------------------------------------===//

  /// One streamed input of a stencil unit: channel + shift-register ring.
  struct FieldStream {
    std::string Field;
    size_t ChannelIndex = 0;
    /// Ring capacity in elements: (D_f + 1) * W + lookbehind.
    int64_t RingElements = 0;
    /// Steps to wait before the first pop: node init minus field init.
    int64_t DelaySteps = 0;
    /// Runtime state.
    std::vector<double> Ring;
    int64_t WrittenElements = 0;
  };

  /// A preloaded lower-dimensional input (on-chip ROM).
  struct Rom {
    std::string Field;
    std::vector<int64_t> Extents;
    std::vector<int64_t> Strides;
    std::vector<size_t> SpannedDims;
    std::vector<double> Data; // Filled at run().
  };

  /// How one kernel input slot is materialized each cycle.
  struct SlotRef {
    bool IsStream = true;
    int SourceIndex = 0; ///< Index into Streams or Roms.
    /// Stream slots: distance from the newest ring element for lane 0.
    int64_t OffsetFromNewest = 0;
    int64_t CenterFromNewest = 0;
    /// Per-program-dimension logical offsets (bounds predication). For ROM
    /// slots only the spanned dimensions are used, in field order.
    std::vector<int64_t> DimOffsets;
    BoundaryKind Boundary = BoundaryKind::Constant;
    double BoundaryValue = 0.0;
  };

  /// What every simulated component — reader, stencil unit, writer —
  /// records the same way: where it runs, how far it got, and what each
  /// stalled cycle was charged to. Each component moves StreamVectors
  /// vectors in total.
  struct Component {
    int Device = 0;
    /// Runtime state. Vectors pushed (reader), emitted (unit) or
    /// committed (writer).
    int64_t VectorsDone = 0;
    StallBreakdown Stalls;
    StallCause LastCause = StallCause::PipelineLatency; ///< Most recent stall.
    int64_t LastProgress = 0; ///< Last cycle the component made progress.
    int TraceTrack = -1;      ///< Timeline track when tracing.

    /// Clears the runtime state; \p Initial is the kind's LastCause before
    /// its first stall.
    void reset(StallCause Initial) {
      VectorsDone = 0;
      Stalls = StallBreakdown();
      LastCause = Initial;
      LastProgress = 0;
    }
  };

  /// One stencil unit.
  struct Unit : Component {
    std::string Name;
    size_t NodeIndex = 0;
    const compute::Kernel *Kernel = nullptr;
    std::vector<FieldStream> Streams;
    std::vector<Rom> Roms;
    std::vector<SlotRef> Slots;
    int64_t InitSteps = 0;       ///< D: node initialization in vectors.
    int64_t CircuitLatency = 0;  ///< Pipeline depth in cycles.
    std::vector<size_t> OutChannels;
    /// Runtime state.
    int64_t Step = 0;    ///< Consume steps completed (0 .. N_v + D).
    int64_t Issued = 0;  ///< Outputs entered into the pipe.
    std::deque<int64_t> PipeReady;  ///< Ready cycle per in-flight output.
    std::deque<double> PipeValues;  ///< W values per in-flight output.
    std::vector<int64_t> CenterIndex; ///< Multi-dim index of next output.
    std::vector<double> OutVector;  ///< Output staging.
    std::vector<double> PopStaging; ///< Channel pop staging.
    /// Lane-batched kernel evaluator (compute/Engine.h), compiled at
    /// build() for the configured tier and immutable afterwards.
    compute::KernelEvaluator Eval;
    std::vector<double> SlotSoA;     ///< Gathered inputs [slot*W + lane].
    std::vector<double> EvalScratch; ///< Evaluator scratch.
  };

  /// A memory reader endpoint: streams one input field on one device.
  struct Reader : Component {
    std::string Field;
    std::vector<size_t> OutChannels;
    /// Runtime state.
    const std::vector<double> *Data = nullptr;
    /// Per-channel delivery cursor for snapshot rehydration: OutChannels[i]
    /// already received the first ChannelBase[i] vectors (pushed by a
    /// reader of the pre-recovery placement), so pushes are skipped for
    /// that channel until VectorsDone catches up. All zero on fresh runs
    /// and exact resumes.
    std::vector<int64_t> ChannelBase;
  };

  /// A memory writer endpoint: commits one program output.
  struct Writer : Component {
    std::string Field;
    size_t ChannelIndex = 0;
    bool Shrink = false;
    ValidRegion Region;
    /// Runtime state.
    std::vector<double> Data;
    std::vector<int64_t> Index; ///< Multi-dim index of lane 0.
    std::vector<double> InVector;
  };

  /// Network bandwidth tracking for one remote channel.
  struct RemoteLink {
    size_t ChannelIndex = 0;
    int FirstHop = 0; ///< Crosses hops [FirstHop, LastHop).
    int LastHop = 0;
  };

  /// Go-Back-N reliable transport state for one remote channel, active
  /// only when a fault plan is attached. The Channel object becomes the
  /// receiver-side delivery FIFO (arrival latency zero); the wire — with
  /// the hop latency — is modeled here, so corrupted transmissions can be
  /// detected by the receiver's checksum and retransmitted from the
  /// sender's window. Control-plane feedback (cumulative ACKs and NACKs)
  /// is instantaneous, a fair simplification for a cycle simulator: the
  /// data plane still pays full per-hop latency and bandwidth. With no
  /// corruption events firing, the protocol is cycle- and bit-exact with
  /// the plain transport.
  struct ReliableStream {
    size_t ChannelIndex = 0;
    int64_t WireLatency = 0;

    /// Sender: payloads of the unacknowledged window [SendBase, NextSeq).
    std::deque<std::vector<double>> SendBuffer;
    int64_t NextSeq = 0;     ///< Next fresh sequence number.
    int64_t SendBase = 0;    ///< Lowest unacknowledged sequence number.
    int64_t ResendNext = -1; ///< Next seq to retransmit; -1 = normal mode.
    int64_t BackoffUntil = 0;
    int NackStreak = 0;       ///< Consecutive NACKs (exponential backoff).
    uint64_t TransmissionNonce = 0; ///< Keys the corruption PRNG.

    /// One transmission in flight on the wire (payload lives in
    /// SendBuffer; stale transmissions are discarded without it).
    struct InFlight {
      int64_t Seq;
      int64_t ArriveCycle;
      bool Corrupted; ///< Set in flight; detected by the receiver.
    };
    std::deque<InFlight> Wire;

    /// Receiver.
    int64_t ExpectedSeq = 0;
    int AttemptsOnExpected = 0; ///< Corrupted arrivals of ExpectedSeq.

    /// Highest outstanding occupancy (unacked + delivered-not-popped),
    /// the reliable-mode equivalent of Channel::peakOccupancy.
    int64_t PeakOutstanding = 0;

    LinkStats Stats;
  };

  /// What one stepped cycle concluded.
  enum class StepOutcome : uint8_t { Running, Finished, Failed };

  //===--------------------------------------------------------------------===//
  // Helpers
  //===--------------------------------------------------------------------===//

  /// One cycle of one component; true when it made progress.
  bool step(Reader &R, int64_t Cycle);
  bool step(Unit &U, int64_t Cycle);
  bool step(Writer &W, int64_t Cycle);

  /// Steps every component of \p Components whose device is alive and
  /// stamps progress; returns whether any of them made progress. With
  /// \p Rotate the order starts at Cycle modulo the count and wraps.
  template <typename T>
  bool stepEach(std::vector<T> &Components, int64_t Cycle, bool Rotate);

  /// True once \p C has moved all of its vectors.
  bool finished(const Component &C) const {
    return C.VectorsDone == StreamVectors;
  }

  /// True when a fault plan has taken \p Device down this cycle.
  bool deviceDead(int Device) const {
    return Config.Faults && DeadDevice[static_cast<size_t>(Device)] != 0;
  }

  /// Records \p State on \p C's timeline track when tracing.
  void traceState(const Component &C, int64_t Cycle, const char *State) {
    if (ActiveTrace)
      ActiveTrace->setState(C.TraceTrack, Cycle, State);
  }

  /// Charges one stalled cycle of \p C to \p Cause and records the stall
  /// on its timeline. Returns false (no progress) for the step's return.
  bool stalled(Component &C, StallCause Cause, int64_t Cycle);

  /// Refills one device's reader/writer memory pools for \p Cycle given
  /// the active endpoint counts.
  void refillDeviceBudgets(size_t Device, int64_t Cycle, int ActiveR,
                           int ActiveW);

  /// Refills one hop's link budget for \p Cycle.
  void refillHopBudget(size_t Hop, int64_t Cycle);

  /// Charges the crossbar arbitration penalty against one device's pools.
  void applyArbitrationPenalty(size_t Device, int ActiveR, int ActiveW);

  /// Requests a memory transaction of \p DataBytes on \p Device. Returns
  /// true (and charges the budget) if granted this cycle. The per-cycle
  /// budget is split between reader and writer pools proportionally to
  /// the active endpoint counts, so the writers (served after the
  /// readers) cannot be starved under oversubscription; reader leftovers
  /// spill into the writer pool.
  bool grantMemory(int Device, double DataBytes, bool IsWriter);

  /// Requests network bandwidth for pushing one vector into channel
  /// \p ChannelIndex, if it is remote. Returns true if granted (or local).
  bool grantNetwork(size_t ChannelIndex);

  /// Computes the value of slot \p Slot of \p U for lane \p Lane.
  double readSlot(const Unit &U, const SlotRef &Slot, int Lane) const;

  /// Gathers all lanes of one slot into \p Dst (Lanes doubles) for the
  /// kernel evaluator. Interior stream taps take a precomputed
  /// two-span ring copy (one modulo per vector instead of one per lane);
  /// boundary vectors and ROM slots fall back to readSlot per lane.
  void gatherSlot(const Unit &U, const SlotRef &Slot, double *Dst) const;

  /// Producer-side view of channel \p ChannelIndex: plain Channel::full,
  /// or the reliable stream's capacity/window/rewind backpressure.
  bool channelFull(size_t ChannelIndex) const;

  /// Producer-side push: plain Channel::push, or accept-and-transmit on
  /// the reliable stream (the emit phase has already paid hop bandwidth).
  void channelPush(size_t ChannelIndex, const double *Vector, int64_t Cycle);

  /// Start-of-cycle receiver step: matured wire transmissions are
  /// checksum-verified and delivered in order; corrupted or stale ones
  /// are discarded (NACKing the sender when the expected vector was hit).
  /// Returns a LinkFailure (retransmit budget exhausted) or DataCorruption
  /// (recovery disabled) failure, or nothing while every stream is
  /// healthy.
  std::optional<SimFailure> linkReceive(int64_t Cycle);

  /// End-of-cycle sender step: streams in rewind mode retransmit one
  /// vector per cycle from leftover hop bandwidth, after backoff.
  void linkSend(int64_t Cycle);

  /// The structured state of every stuck component and its adjacent
  /// channels.
  FailureReport buildFailureReport(ErrorCode Code, int64_t Cycle) const;

  /// Builds the failure report, finalizes the trace, and returns the
  /// typed failure carrying both the rendered Error and the structured
  /// report.
  SimFailure abortRun(ErrorCode Code, int64_t Cycle,
                      const std::string &FailedChannel = std::string());

  //===--------------------------------------------------------------------===//
  // Run loop (Machine.cpp)
  //===--------------------------------------------------------------------===//

  /// Binds inputs, resets all runtime state, and registers the trace.
  Error prepareRun(const std::map<std::string, std::vector<double>> &Inputs);

  /// Steps every component through one cycle in the global order.
  StepOutcome stepCycle(int64_t Cycle, SimFailure &Failure);

  /// Steps cycles until completion or failure, checkpointing on cadence.
  StepOutcome runLoop(int64_t &FinalCycles, SimFailure &Failure);

  /// Gathers stats and outputs after a completed run.
  SimResult collectResult(int64_t FinalCycles);

  //===--------------------------------------------------------------------===//
  // Checkpoint/restart (Checkpoint.cpp)
  //===--------------------------------------------------------------------===//

  /// Compatibility hash over the machine structure. With
  /// \p IncludePlacement: topology + device placement + every
  /// trajectory-relevant config knob + the fault plan (the *exact*
  /// signature — matching it makes a verbatim restore bit-exact). Without:
  /// the placement-independent topology only (the *rehydrate* signature
  /// used by device-loss recovery across re-partitionings).
  uint64_t machineSignature(bool IncludePlacement) const;

  /// Serializes the complete runtime state after completing cycles
  /// [0, \p Cycle). Only legal between cycles.
  MachineSnapshot captureSnapshot(int64_t Cycle);

  /// Overwrites the freshly prepared runtime state from \p Snap,
  /// dispatching to the exact or rehydrate path by signature; sets
  /// ResumeCycle on success. \p InputsHash guards against resuming with
  /// different input data.
  Error restoreSnapshot(const MachineSnapshot &Snap, uint64_t InputsHash);

  /// The snapshot state layout, written once: a saving archive reads every
  /// field of the machine, a loading one overwrites it. With \p Old set
  /// (the rehydrate restore), the placement-dependent sections load into
  /// \p Old instead of the machine. False when a load finds the payload
  /// malformed.
  class StateArchive;
  struct RehydrateState;
  bool transferState(StateArchive &Ar, RehydrateState *Old);

  /// Moves the old placement's reader cursors, reliable windows and
  /// per-device totals onto this machine's placement.
  void rehydrate(const RehydrateState &Old);

  /// Writes a snapshot when the cycle or wall-clock cadence says one is
  /// due after completing \p CompletedCycles cycles. The wall clock is
  /// only consulted when \p WallEligible (the run loop rate-limits the
  /// clock read).
  void maybeCheckpoint(int64_t CompletedCycles, bool WallEligible);
  void writeCheckpoint(int64_t CompletedCycles);

  int64_t ResumeCycle = 0; ///< First cycle the current run steps.
  /// hashInputFields of the bound inputs; 0 when the run neither writes
  /// nor resumes a snapshot.
  uint64_t InputsHashOfRun = 0;
  int64_t NextCheckpointCycle = 0;
  std::chrono::steady_clock::time_point LastCheckpointWall;
  int64_t CheckpointsWritten = 0;  ///< Snapshots persisted this run.
  int64_t CheckpointFailures = 0;  ///< Failed writes (the run continues).
  int64_t ResumedFromCycle = -1;   ///< Snapshot cycle, -1 when fresh.
  int64_t TierReassignedUnits = 0; ///< Units whose tier changed on restore.

  //===--------------------------------------------------------------------===//
  // Configuration (set at build)
  //===--------------------------------------------------------------------===//

  SimConfig Config;
  const CompiledProgram *Compiled = nullptr;
  int NumDevices = 1;
  int Lanes = 1;
  size_t ElementBytes = 4;
  int64_t ExpectedCycles = 0;
  int64_t StreamVectors = 0;
  std::vector<int64_t> SpaceExtents;

  std::vector<std::unique_ptr<Channel>> Channels;
  std::vector<RemoteLink> RemoteLinks; ///< Indexed like Channels (entry per
                                       ///< channel; LastHop==FirstHop means
                                       ///< local).
  std::vector<Reader> Readers;
  std::vector<Unit> Units; ///< Global topological order.
  std::vector<Writer> Writers;

  //===--------------------------------------------------------------------===//
  // Resilience (active only when Config.Faults is set)
  //===--------------------------------------------------------------------===//

  std::vector<ReliableStream> Reliable;
  std::vector<int> ReliableOf; ///< Per channel: index into Reliable or -1.
  int64_t EarliestDeviceFail = 0; ///< INT64_MAX when no failure scheduled.
  std::vector<char> DeadDevice;   ///< Per device, refreshed each cycle.
  std::vector<char> Brownout;     ///< Per device, refreshed each cycle.

  //===--------------------------------------------------------------------===//
  // Per-cycle state
  //===--------------------------------------------------------------------===//

  std::vector<double> MemoryBudget;      ///< Reader pool per device.
  std::vector<double> WriterBudget;      ///< Writer pool per device.
  std::vector<double> HopBudget;         ///< Per hop, bytes this cycle.
  std::vector<double> MemoryBytesMoved;  ///< Per device, total.
  double NetworkBytesMoved = 0.0;        ///< Across all hops, total.

  /// Set when a component was ready to move data but was denied bandwidth
  /// this cycle; such waiting is progress-pending, not deadlock (unused
  /// budget carries over, so the grant eventually succeeds).
  bool BandwidthWait = false;

  /// Per-cycle scratch, hoisted out of the run loop so the simulator
  /// performs no heap allocation per simulated cycle.
  std::vector<int> ActiveReaders;  ///< Per device, cleared each cycle.
  std::vector<int> ActiveWriters;  ///< Per device, cleared each cycle.
  /// Per hop: bytes one unit's emit needs (all-or-nothing feasibility).
  std::vector<double> HopNeeded;

  /// Hard cycle limit of the current run (set by prepareRun).
  int64_t MaxCycles = 0;

  //===--------------------------------------------------------------------===//
  // Tracing (active only while run() executes with Config.Trace set)
  //===--------------------------------------------------------------------===//

  /// Registers tracks/counters on \p T for all components.
  void registerTrace(Tracer &T);
  /// Emits the per-stride occupancy and bandwidth counter samples.
  void sampleTrace(Tracer &T, int64_t Cycle);

  Tracer *ActiveTrace = nullptr;       ///< Null when tracing is off.
  std::vector<int> ChannelCounters;    ///< Tracer counter id per channel.
  std::vector<int> MemoryCounters;     ///< Tracer counter id per device.
  std::vector<double> LastMemBytes;    ///< Previous sample's totals.
};

} // namespace sim
} // namespace stencilflow

#endif // STENCILFLOW_SIM_MACHINE_H
