//===- sim/Config.h - Simulator configuration ---------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the spatial-hardware simulator. Defaults model the
/// paper's testbed (Sec. VIII-B): a BittWare 520N with 4 DDR4 banks
/// (76.8 GB/s peak) and four 40 Gbit/s network ports, of which two links
/// connect each pair of consecutive devices, at a 300 MHz design clock.
///
/// All rates are expressed per clock cycle so the simulator is frequency
/// agnostic; callers convert to wall-clock time using the frequency from
/// the resource model.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SIM_CONFIG_H
#define STENCILFLOW_SIM_CONFIG_H

#include "compute/Engine.h"
#include "support/Error.h"

#include <cstdint>
#include <string>

namespace stencilflow {
namespace sim {

class Tracer;
struct FaultPlan;

/// Simulator knobs.
struct SimConfig {
  //===--------------------------------------------------------------------===//
  // Off-chip memory system (per device)
  //===--------------------------------------------------------------------===//

  /// If true, memory serves any request instantly (the paper's simulated
  /// "infinite" bandwidth experiment, Sec. IX-B: "replacing memory
  /// accesses with compile-time constants fed to the computational
  /// circuit").
  bool UnconstrainedMemory = false;

  /// Peak DRAM bytes per cycle: 76.8 GB/s at 300 MHz.
  double PeakMemoryBytesPerCycle = 256.0;

  /// Fixed bus overhead charged per endpoint transaction (address/command
  /// and partial-burst waste). Calibrated so scalar endpoints flatten at
  /// ~47% of peak and 4-wide endpoints at ~76% (Fig. 16).
  double TransactionOverheadBytes = 4.4;

  /// Additional crossbar pressure per active endpoint, modeling the
  /// routing cost of many parallel access points (the mild droop before
  /// the plateau in Fig. 16).
  double ArbitrationPenaltyBytesPerEndpoint = 0.3;

  //===--------------------------------------------------------------------===//
  // Network (SMI remote streams)
  //===--------------------------------------------------------------------===//

  /// Bytes per cycle per physical link: 40 Gbit/s = 5 GB/s at 300 MHz.
  double LinkBytesPerCycle = 16.67;

  /// Physical links between consecutive devices (the testbed exposes two
  /// 40 Gbit/s links per hop).
  int LinksPerHop = 2;

  /// Cycles a vector takes to traverse one hop.
  int64_t NetworkLatencyCyclesPerHop = 32;

  /// FIFO depth (vectors) added to remote streams for latency hiding.
  int64_t NetworkExtraChannelDepth = 256;

  //===--------------------------------------------------------------------===//
  // Channels
  //===--------------------------------------------------------------------===//

  /// Slack added on top of each analysis-computed delay-buffer depth so
  /// pipelining transients never stall producers.
  int64_t MinChannelDepth = 8;

  /// If true, ignore the delay-buffer analysis and size every channel at
  /// exactly MinChannelDepth. Used by the deadlock ablation (Fig. 4): DAGs
  /// with reconvergent paths then deadlock, which the detector reports.
  bool ClampChannelsToMinimum = false;

  //===--------------------------------------------------------------------===//
  // Observability
  //===--------------------------------------------------------------------===//

  /// Optional timeline tracer (see sim/Trace.h), not owned. When null —
  /// the default — the simulator records no timelines and the run loop
  /// pays nothing beyond the null check; stall-cause attribution counters
  /// are maintained either way. A previous recording on the tracer is
  /// discarded when the run starts, and the trace is finalized even when
  /// the run aborts (deadlock or cycle limit), so stuck configurations
  /// can be inspected in chrome://tracing.
  Tracer *Trace = nullptr;

  //===--------------------------------------------------------------------===//
  // Resilience (see sim/Fault.h)
  //===--------------------------------------------------------------------===//

  /// Optional fault-injection plan, not owned. When null — the default —
  /// no faults are scheduled and remote streams use the plain (fire and
  /// forget) transport, so fault-free runs pay nothing. Attaching a plan,
  /// even an empty one, switches every inter-device stream to the
  /// reliable transport: sequence numbers, per-vector checksums, and
  /// bounded retransmission.
  const FaultPlan *Faults = nullptr;

  /// When false, corruption is still detected by the receiver's checksum
  /// but never recovered: the first corrupted vector aborts the run with
  /// ErrorCode::DataCorruption. Models detection-only deployments and
  /// demonstrates what the retransmission protocol buys.
  bool ReliableStreams = true;

  /// Progress watchdog: if a component makes no progress for this many
  /// cycles while the rest of the system still advances, the run aborts
  /// with ErrorCode::Starvation (livelock / unfair arbitration), as
  /// opposed to the global no-progress check which reports a true
  /// Deadlock. 0 disables the watchdog.
  int64_t StallTimeoutCycles = 0;

  /// Reliable transport: how many times one vector may be retransmitted
  /// before the stream declares the link dead (ErrorCode::LinkFailure).
  int MaxRetransmitAttempts = 16;

  /// Reliable transport: base backoff, in cycles, the sender waits after
  /// a NACK before rewinding; doubles per consecutive NACK of the same
  /// vector (capped at 64x).
  int64_t RetransmitBackoffCycles = 8;

  /// Reliable transport: maximum unacknowledged vectors in flight per
  /// remote stream before the sender blocks (Go-Back-N send window).
  int64_t SendWindowVectors = 512;

  //===--------------------------------------------------------------------===//
  // Checkpoint/restart (see sim/Checkpoint.h)
  //===--------------------------------------------------------------------===//

  /// Directory snapshot files are written to (created on first write) and
  /// pruned in. Empty — the default — disables checkpointing entirely and
  /// the run loops pay nothing beyond one branch per cycle.
  std::string CheckpointDir;

  /// Write a snapshot every N completed cycles (0 disables the cycle
  /// cadence).
  int64_t CheckpointEveryCycles = 0;

  /// Write a snapshot once this much wall-clock time has passed since the
  /// previous one (0 disables the wall-clock cadence). Both cadences may
  /// be active at once; whichever fires first wins.
  double CheckpointEverySeconds = 0.0;

  /// Bounded retention: after each write, only the most recent K snapshot
  /// files are kept in CheckpointDir.
  int CheckpointKeep = 3;

  /// Test hook for the crash-consistency suite: raise SIGKILL immediately
  /// after the N-th snapshot of the run has been persisted (0 = never).
  int CheckpointCrashAfter = 0;

  //===--------------------------------------------------------------------===//
  // Safety
  //===--------------------------------------------------------------------===//

  /// Hard cycle limit multiplier: simulation aborts after
  /// MaxCycleFactor * (expected cycles) + MaxCycleSlack cycles.
  int64_t MaxCycleFactor = 64;
  int64_t MaxCycleSlack = 1000000;

  //===--------------------------------------------------------------------===//
  // Kernel execution
  //===--------------------------------------------------------------------===//

  /// Which kernel execution tier evaluates the stencil compute tapes (see
  /// compute/Engine.h). Both tiers are bit-exact with each other (asserted
  /// by the engine parity suite); Scalar is the reference implementation
  /// and Specialized the default. The effective per-unit tiers appear in
  /// \c SimStats::UnitKernelTiers.
  compute::KernelEngine KernelExec = compute::KernelEngine::Specialized;

  /// Checks the configuration for inconsistent settings, returning an
  /// InvalidInput error naming the first one. \c Machine::build and
  /// \c Session call it, so a hand-assembled config fails fast at
  /// construction instead of mid-run.
  Error validate() const;
};

} // namespace sim
} // namespace stencilflow

#endif // STENCILFLOW_SIM_CONFIG_H
