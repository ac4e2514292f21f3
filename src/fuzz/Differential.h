//===- fuzz/Differential.h - Differential pipeline fuzzing --------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential half of the fuzzer: run one generated program through
/// the full pipeline under a seeded matrix of configurations — every
/// kernel tier (scalar and specialized), temporal degrees {1, 2, 4},
/// transient fault plans on/off, and a
/// checkpoint-then-resume pass that restarts mid-run from a snapshot —
/// and assert that every single run is bit-exact (FNV-1a CRC over the
/// output fields) against the `ReferenceExecutor` / `iterateReference`
/// oracle, and free of deadlocks.
///
/// Any divergence is classified into a typed `FuzzFinding`:
///
///  - \b mismatch: the run completed but its output CRC differs from the
///    oracle's (or the pipeline's own validation failed);
///  - \b deadlock: the simulator aborted with Deadlock / Starvation /
///    CycleLimit — the buffer-sizing guarantee was violated;
///  - \b error-asymmetry: one configuration failed with a typed error
///    while the oracle (and hence the base configuration) succeeds;
///  - \b crash: an unclassified (ErrorCode::Unknown / DataCorruption)
///    failure escaped the typed taxonomy.
///
/// Each finding carries the full reproducer — program JSON, generator
/// seed, and the failing configuration — and is written atomically to a
/// findings directory, so one `sf_fuzz --replay <file>` reproduces it.
///
/// Determinism contract: `runDifferential(P, Seed)` samples the matrix
/// from `Seed` alone, so the same seed always exercises the same
/// configurations and yields the same findings.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_FUZZ_DIFFERENTIAL_H
#define STENCILFLOW_FUZZ_DIFFERENTIAL_H

#include "ir/StencilProgram.h"
#include "runtime/Validation.h"
#include "support/Error.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace stencilflow {
namespace fuzz {

/// Divergence taxonomy. Ordered by severity (for exit-code selection).
enum class FindingKind {
  Mismatch,       ///< Completed, but not bit-exact against the oracle.
  Deadlock,       ///< Deadlock / starvation / cycle-limit abort.
  Crash,          ///< Unclassified failure (Unknown / DataCorruption).
  ErrorAsymmetry, ///< Typed failure where the oracle succeeds.
};

/// Stable kebab-case name, e.g. "error-asymmetry".
const char *findingKindName(FindingKind Kind);

/// Inverse of \c findingKindName.
std::optional<FindingKind> findingKindFromName(std::string_view Name);

/// One point of the configuration matrix.
struct DiffConfig {
  std::string Kernel = "specialized"; ///< compute::parseKernelEngine name.
  int TemporalDegree = 1; ///< > 1 only for programs with a time loop.
  bool Faults = false;    ///< Transient fault plan + reliable transport.
  bool Resume = false;    ///< Checkpoint, then re-run resuming mid-stream.

  /// Compact identity, e.g. "scalar/t4/faults/resume".
  std::string id() const;

  json::Value toJson() const;
  static Expected<DiffConfig> fromJson(const json::Value &V);
};

/// Which matrix axes are enabled and how densely to sample them.
struct MatrixOptions {
  bool FaultAxis = true;
  bool ResumeAxis = true;
  std::vector<int> TemporalDegrees = {1, 2, 4};

  /// Configurations sampled per program on top of the always-run base
  /// configuration (specialized / T=1 / no faults / no resume).
  int ConfigsPerProgram = 5;
};

/// One confirmed divergence, with everything needed to reproduce it.
struct FuzzFinding {
  FindingKind Kind = FindingKind::Mismatch;
  uint64_t Seed = 0;  ///< Generator seed (0 for replayed corpus programs).
  DiffConfig Config;  ///< The failing configuration.
  std::string Detail; ///< Human-readable divergence description.
  uint64_t ExpectedCrc = 0;
  uint64_t ActualCrc = 0;
  StencilProgram Program; ///< The reproducer.

  /// Full reproducer document: kind, seed, config, detail, program JSON.
  json::Value toJson() const;
  static Expected<FuzzFinding> fromJson(const json::Value &V);
};

/// Cross-cutting differential-run options.
struct DiffOptions {
  MatrixOptions Matrix;

  /// When non-empty, every finding is written here atomically as
  /// `finding-<seed>-<n>-<kind>.json` (the directory is created).
  std::string FindingsDir;

  /// Scratch directory for the resume axis' checkpoint snapshots
  /// (created; cleaned between configurations). Defaults to a private
  /// temporary directory per process, created on first use and removed
  /// at exit, so concurrent campaigns and test processes never share one.
  std::string ScratchDir;

  std::string scratchDir() const;
};

/// The bit-exactness comparator of the whole fuzzer (runtime/Validation.h).
using stencilflow::outputsCrc;

/// The oracle: reference-executes \p Program (iterating the time loop
/// \p TemporalDegree steps when > 1) and returns the output CRC.
Expected<uint64_t> oracleCrc(const StencilProgram &Program,
                             int TemporalDegree);

/// Runs \p Program under \p Config and compares against the oracle.
/// Returns the finding on divergence, std::nullopt on agreement.
/// \p Seed only labels the finding.
std::optional<FuzzFinding> runConfig(const StencilProgram &Program,
                                     uint64_t Seed, const DiffConfig &Config,
                                     const DiffOptions &Options);

/// The outcome of one full differential iteration.
struct DiffResult {
  std::vector<DiffConfig> Configs; ///< Matrix points exercised, in order.
  std::vector<FuzzFinding> Findings;
  int Runs = 0; ///< Pipeline executions (resume runs twice per config).
};

/// Samples the configuration matrix deterministically from \p Seed and
/// runs \p Program under every sampled point. Degrees > 1 apply only to
/// programs with time-loop bindings.
DiffResult runDifferential(const StencilProgram &Program, uint64_t Seed,
                           const DiffOptions &Options);

/// Writes \p Finding atomically into \p Dir (created on demand); returns
/// the file path. \p Index disambiguates multiple findings per seed.
Expected<std::string> writeFinding(const FuzzFinding &Finding,
                                   const std::string &Dir, int Index);

/// Exit code for the most severe finding of a run (0 when \p Findings is
/// empty): mismatch maps to the ValidationMismatch exit code, deadlock to
/// Deadlock, everything else to 1.
int exitCodeForFindings(const std::vector<FuzzFinding> &Findings);

} // namespace fuzz
} // namespace stencilflow

#endif // STENCILFLOW_FUZZ_DIFFERENTIAL_H
