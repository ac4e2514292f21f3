//===- serve/Protocol.h - Serving wire protocol -------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sf_serve wire protocol: line-delimited JSON. One request per line,
/// one response line back, in order. The same codec serves the AF_UNIX
/// socket daemon, the `sf_serve --once` stdin/stdout mode used by tests
/// and CI, and the in-process Server::handle path the benchmarks drive.
///
/// Request (only "program" / "program_path" is required for op "run"):
/// \code
///   {"id": "r1", "op": "run", "program": {...} | "program_path": "x.json",
///    "options": {"fuse": false, "simplify": false, "vectorize": 0,
///                "temporal_degree": 1, "max_devices": 8,
///                "target_utilization": 0.85,
///                "kernel_engine": "specialized", "validate": true,
///                "tune": false, "tune_budget": 32}}
/// \endcode
/// Ops: "run" (default), "stats", "ping", "shutdown".
///
/// Response:
/// \code
///   {"id": "r1", "ok": true, "cache": "hit"|"miss", "cycles": N,
///    "devices": N, "frequency_mhz": X, "validation_passed": true,
///    "outputs_crc": "0123456789abcdef", "kernel_tiers": "...",
///    "queue_us": N, "compile_us": N, "execute_us": N}
///   {"id": "r2", "ok": false,
///    "error": {"code": "overloaded", "exit_code": 11, "message": "..."},
///    "failure_report": {...}}   // present when the simulator produced one
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SERVE_PROTOCOL_H
#define STENCILFLOW_SERVE_PROTOCOL_H

#include "compute/Engine.h"
#include "sim/Fault.h"
#include "support/Error.h"
#include "support/Json.h"

#include <optional>
#include <string>

namespace stencilflow {
namespace serve {

/// Protocol operations.
enum class RequestOp : uint8_t { Run, Stats, Ping, Shutdown };

/// Stable name ("run", "stats", "ping", "shutdown").
const char *requestOpName(RequestOp Op);

/// Per-request execution knobs, mirroring the Session fluent setters the
/// CLIs expose. Plan-affecting knobs (fuse/simplify/vectorize/
/// temporal_degree/max_devices/target_utilization/kernel_engine/tune*)
/// enter the plan cache key; the rest only shape execution.
struct RequestOptions {
  bool Fuse = false;
  bool Simplify = false;
  /// Vectorization width override; 0 keeps the program's own width.
  int Vectorize = 0;
  /// Timesteps unrolled on-chip (requires time_loop bindings when > 1).
  int TemporalDegree = 1;
  int MaxDevices = 8;
  double TargetUtilization = 0.85;
  compute::KernelEngine KernelExec = compute::KernelEngine::Specialized;
  bool Validate = true;
  /// Autotune the mapping on a cache miss (analytic ranking; the tuned
  /// plan is what gets cached).
  bool Tune = false;
  int TuneBudget = 32;
};

/// One decoded request line.
struct Request {
  /// Echoed verbatim in the response so clients can pipeline.
  std::string Id;
  RequestOp Op = RequestOp::Run;
  /// Inline program description (an object), or...
  json::Value Program;
  /// ...a server-side path to one. Exactly one must be set for "run".
  std::string ProgramPath;
  RequestOptions Options;

  /// Decodes one request; the program member moves out of \p V.
  static Expected<Request> fromJson(json::Value V);
  static Expected<Request> fromJsonText(std::string_view Line);
  /// Encodes one request line (no trailing newline). Used by clients:
  /// the bench driver, tests, and sf_serve's --client mode.
  std::string toJsonText() const;
};

/// One encoded response line.
struct Response {
  std::string Id;
  bool Ok = false;

  /// "run" success payload.
  std::optional<bool> CacheHit; ///< Unset for non-run ops.
  int64_t Cycles = 0;
  int Devices = 0;
  double FrequencyMHz = 0.0;
  bool ValidationPassed = false;
  /// \c outputsCrc (runtime/Validation.h) of the output fields —
  /// lets parity tests compare daemon results against direct Session runs
  /// without shipping whole fields over the wire.
  uint64_t OutputsCrc = 0;
  std::string KernelTiers;
  /// Microseconds queued, compiling (0 on a cache hit), and executing.
  int64_t QueueMicros = 0;
  int64_t CompileMicros = 0;
  int64_t ExecuteMicros = 0;

  /// Failure payload (Ok == false).
  ErrorCode Code = ErrorCode::Unknown;
  std::string ErrorMessage;
  /// The simulator's structured report, when the failure produced one.
  std::optional<sim::FailureReport> Failure;

  /// "stats" payload: the server's counter snapshot as a JSON object.
  std::optional<json::Value> Stats;

  /// Builds a failure response carrying \p Err's classification, message,
  /// and mapped process exit code.
  static Response failure(std::string Id, const Error &Err);

  std::string toJsonText() const;
  /// Decodes one response line (for clients).
  static Expected<Response> fromJsonText(std::string_view Line);
};

} // namespace serve
} // namespace stencilflow

#endif // STENCILFLOW_SERVE_PROTOCOL_H
