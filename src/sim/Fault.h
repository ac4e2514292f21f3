//===- sim/Fault.h - Deterministic fault injection ----------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's fault model. Deployments of distributed FPGA fabrics
/// (paper Sec. III-B, VI-B; cf. the FPGA-stack related work in PAPERS.md)
/// must survive flaky links, memory brownouts and node loss; this file
/// provides the deterministic, seeded \c FaultPlan that schedules such
/// events against a simulation, and the structured \c FailureReport the
/// simulator produces when a run cannot complete.
///
/// Everything is reproducible: payload corruption is decided by a counter-
/// based PRNG keyed on (plan seed, channel, sequence number, transmission
/// nonce), so the same plan against the same program produces the same
/// faults — and the same recovery — every run.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SIM_FAULT_H
#define STENCILFLOW_SIM_FAULT_H

#include "sim/Trace.h"
#include "support/Error.h"
#include "support/Json.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace stencilflow {
namespace sim {

//===----------------------------------------------------------------------===//
// Fault plan
//===----------------------------------------------------------------------===//

/// The kinds of scheduled fault events.
enum class FaultKind : uint8_t {
  /// Transient bandwidth loss on one inter-device hop: the per-cycle link
  /// budget is multiplied by \c Factor over the window.
  LinkDegrade,
  /// Complete link outage over the window (Factor is ignored; treated as
  /// zero bandwidth).
  LinkOutage,
  /// Memory brownout: the device's peak DRAM bytes/cycle are multiplied
  /// by \c Factor over the window. Overrides UnconstrainedMemory while
  /// active.
  MemoryBrownout,
  /// Each vector transmitted on a matching remote stream during the
  /// window is corrupted in flight with probability \c Probability.
  PayloadCorruption,
  /// Permanent device failure at \c StartCycle: every component on the
  /// device stops forever (EndCycle is ignored).
  DeviceFailure,
};

constexpr int NumFaultKinds = static_cast<int>(FaultKind::DeviceFailure) + 1;

/// Stable kebab-case name, e.g. "memory-brownout".
const char *faultKindName(FaultKind Kind);

/// Inverse of \c faultKindName.
std::optional<FaultKind> faultKindFromName(std::string_view Name);

/// One scheduled fault. Fields are interpreted per \c FaultKind; unused
/// fields keep their defaults.
struct FaultEvent {
  FaultKind Kind = FaultKind::LinkDegrade;

  /// Active over cycles [StartCycle, EndCycle). DeviceFailure is
  /// permanent from StartCycle on.
  int64_t StartCycle = 0;
  int64_t EndCycle = std::numeric_limits<int64_t>::max();

  /// Target device (MemoryBrownout, DeviceFailure).
  int Device = 0;

  /// Target hop for link faults; -1 matches every hop. PayloadCorruption
  /// matches any hop a remote stream crosses.
  int Hop = -1;

  /// Bandwidth multiplier in [0, 1] (LinkDegrade, MemoryBrownout).
  double Factor = 0.5;

  /// Per-transmission corruption probability (PayloadCorruption).
  double Probability = 0.0;

  bool activeAt(int64_t Cycle) const {
    return Cycle >= StartCycle &&
           (Kind == FaultKind::DeviceFailure || Cycle < EndCycle);
  }
};

/// A deterministic, seeded schedule of fault events, hung off
/// \c SimConfig::Faults. An attached plan — even an empty one — also
/// switches every inter-device stream to the reliable transport
/// (sequence numbers, checksums, bounded retransmit).
struct FaultPlan {
  /// Seeds the corruption PRNG; two plans with the same events but
  /// different seeds corrupt different vectors.
  uint64_t Seed = 0;

  std::vector<FaultEvent> Events;

  bool empty() const { return Events.empty(); }

  /// Basic consistency checks (windows ordered, factors in [0,1], ...).
  Error validate() const;

  //===--------------------------------------------------------------------===//
  // Per-cycle queries (used by the simulator's refill/step loops)
  //===--------------------------------------------------------------------===//

  /// Product of the active brownout factors for \p Device.
  double memoryFactor(int Device, int64_t Cycle) const;

  /// True if any brownout is active for \p Device at \p Cycle.
  bool memoryBrownoutAt(int Device, int64_t Cycle) const;

  /// Product of the active degrade/outage factors for \p Hop (0.0 during
  /// an outage).
  double linkFactor(int Hop, int64_t Cycle) const;

  /// Decides whether the transmission of vector \p Seq (attempt nonce
  /// \p Nonce) on channel \p Channel crossing hops [FirstHop, LastHop) is
  /// corrupted in flight at \p Cycle. Deterministic in all arguments.
  bool corruptsTransmission(int64_t Cycle, size_t Channel, int64_t Seq,
                            uint64_t Nonce, int FirstHop, int LastHop) const;

  /// True once \p Device has permanently failed at or before \p Cycle.
  bool deviceFailedAt(int Device, int64_t Cycle) const;

  /// Lowest-numbered device that has failed at or before \p Cycle, or -1.
  int firstFailedDevice(int64_t Cycle) const;

  /// Cycle of the earliest DeviceFailure event, or INT64_MAX when none.
  int64_t earliestDeviceFailure() const;

  //===--------------------------------------------------------------------===//
  // Serialization (the --fault-plan <json> format)
  //===--------------------------------------------------------------------===//

  /// {"seed": N, "events": [{"kind": "...", "start": N, "end": N,
  ///  "device": N, "hop": N, "factor": X, "probability": X}, ...]}
  /// Absent fields keep their defaults; "end" is exclusive. A seed above
  /// 2^53 is "0x..." hex text (json::uint64ToJson).
  json::Value toJson() const;
  static Expected<FaultPlan> fromJson(const json::Value &V);

  /// Parses a plan from JSON text (convenience for CLI drivers).
  static Expected<FaultPlan> fromJsonText(std::string_view Text);
};

//===----------------------------------------------------------------------===//
// Structured failure reports
//===----------------------------------------------------------------------===//

/// State of one stuck component at failure time.
struct FailureComponent {
  std::string Name;
  std::string Kind; ///< "unit", "reader" or "writer".
  int Device = 0;
  /// Dominant attributed stall cause (the PR-1 counters).
  StallCause Cause = StallCause::PipelineLatency;
  int64_t StallCycles = 0;
  /// Vectors completed vs. expected.
  int64_t Progress = 0;
  int64_t Total = 0;
};

/// State of one channel adjacent to a stuck component at failure time.
struct FailureChannel {
  std::string Name;
  /// Occupancy visible to the consumer (excludes in-flight vectors).
  int64_t Occupancy = 0;
  int64_t Capacity = 0;
  bool Full = false;
};

/// A machine-readable description of why a simulation failed: the error
/// class, the cycle, the most-stalled component with its attributed stall
/// cause, and the occupancy of every channel adjacent to a stuck
/// component. Produced by \c Machine::run on every failure path and
/// carried by the returned \c SimFailure (rendered into its message) for
/// recovery policies and JSON export.
struct FailureReport {
  ErrorCode Code = ErrorCode::Unknown;
  int64_t Cycle = 0;

  /// The most-stalled unfinished component and its dominant cause.
  std::string Component;
  StallCause DominantCause = StallCause::PipelineLatency;

  /// The permanently failed device (DeviceLost), else -1.
  int FailedDevice = -1;

  /// The remote channel that exhausted its retransmit budget
  /// (LinkFailure), else empty.
  std::string FailedChannel;

  std::vector<FailureComponent> Components;
  std::vector<FailureChannel> Channels;

  /// Human-readable rendering (what Error::message carries).
  std::string render() const;

  /// The object the serve protocol carries as "failure_report".
  json::Value toJson() const;
  static Expected<FailureReport> fromJson(const json::Value &V);
  static Expected<FailureReport> fromJsonText(std::string_view Text);
};

/// The failure value of \c Machine::run: a classified \c Error plus the
/// structured \c FailureReport behind it, carried together so callers
/// never pair the returned error with a second accessor call.
/// Converts implicitly from and to \c Error, so generic error
/// plumbing (\c makeError returns, \c Error::addContext, exit-code
/// mapping) keeps working unchanged:
/// \code
///   Expected<SimResult, SimFailure> Result = M->run(Inputs);
///   if (!Result) {
///     SimFailure Failure = Result.takeError();
///     recoverFrom(Failure.report());    // structured
///     return Error(Failure);            // plain, for propagation
///   }
/// \endcode
class SimFailure {
public:
  /// Success value (no failure). Exists so SimFailure composes with
  /// Expected's assertions; real instances always carry a failure.
  SimFailure() = default;

  /// Wraps a plain error with an empty report (e.g. invalid inputs caught
  /// before the run loop starts).
  SimFailure(Error Err) : Err(std::move(Err)) {}

  /// Wraps an abort from inside the run loop with its structured report.
  SimFailure(Error Err, FailureReport Report)
      : Err(std::move(Err)), Failure(std::move(Report)) {}

  /// True when this holds a failure.
  explicit operator bool() const { return static_cast<bool>(Err); }

  /// The plain error view, for propagation through Error-typed plumbing.
  operator Error() const { return Err; }

  const std::string &message() const { return Err.message(); }
  ErrorCode code() const { return Err.code(); }
  SimFailure &addContext(const std::string &Context) {
    Err.addContext(Context);
    return *this;
  }

  /// The structured report. Empty (default-constructed) when the failure
  /// occurred before the run loop produced one.
  const FailureReport &report() const { return Failure; }

private:
  Error Err;
  FailureReport Failure;
};

} // namespace sim
} // namespace stencilflow

#endif // STENCILFLOW_SIM_FAULT_H
