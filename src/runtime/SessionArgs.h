//===- runtime/SessionArgs.h - Flags -> Session configuration -----*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Appliers that turn the shared flag packs (support/Args.h) into fluent
/// \c Session configuration. One place maps a flag name to the Session
/// setter it drives, so every CLI exposing `--fuse`, `--kernel-engine`,
/// `--checkpoint-every` or `--tune-budget` behaves identically. Lives in
/// the runtime layer because support cannot depend on Session.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_RUNTIME_SESSIONARGS_H
#define STENCILFLOW_RUNTIME_SESSIONARGS_H

#include "compute/Engine.h"
#include "runtime/Session.h"
#include "support/Args.h"

namespace stencilflow {
namespace cli {

/// Applies the session flag pack (\c sessionFlagSpecs).
inline Error applySessionArgs(Session &S, const CommandLine &Args) {
  if (Args.has("vectorize"))
    S.vectorize(static_cast<int>(Args.getInt("vectorize", 1)));
  if (Args.has("temporal-degree"))
    S.temporalDegree(static_cast<int>(Args.getInt("temporal-degree", 1)));
  S.fuseStencils(Args.has("fuse"))
      .simplifyCode(Args.has("simplify"))
      .unconstrainedMemory(!Args.has("constrained-memory"))
      .stallTimeout(Args.getInt("stall-timeout", 0));
  if (Args.has("kernel-engine")) {
    Expected<compute::KernelEngine> Engine =
        compute::parseKernelEngine(Args.getString("kernel-engine"));
    if (!Engine)
      return Engine.takeError();
    S.kernelEngine(*Engine);
  }
  return Error::success();
}

/// Applies the checkpoint flag pack (\c checkpointFlagSpecs) through the
/// granular fluent setters.
inline Error applyCheckpointArgs(Session &S, const CommandLine &Args) {
  if (Args.has("checkpoint-dir")) {
    S.checkpointDir(Args.getString("checkpoint-dir"))
        .checkpointEveryCycles(Args.getInt("checkpoint-every", 0))
        .checkpointEverySeconds(static_cast<double>(
            Args.getInt("checkpoint-every-seconds", 0)))
        .checkpointKeep(static_cast<int>(Args.getInt("checkpoint-keep", 3)))
        .checkpointCrashAfter(
            static_cast<int>(Args.getInt("crash-after-checkpoints", 0)));
  }
  if (Args.has("resume"))
    S.resumeFrom(Args.getString("resume"));
  return Error::success();
}

/// Applies the autotuner flag pack (\c tuneFlagSpecs) through the fluent
/// tune* setters, seeding the no-argument \c Session::tune() overload.
/// (--tune-beam is a search-axis override outside the fluent surface;
/// tools that expose it fold it into an explicit TuneOptions instead.)
inline Error applyTuneArgs(Session &S, const CommandLine &Args) {
  S.tuneBudget(static_cast<int>(Args.getInt("tune-budget", 64)))
      .tuneTopK(static_cast<int>(Args.getInt("tune-top-k", 3)))
      .tuneWorkers(static_cast<int>(Args.getInt("tune-workers", 0)))
      .tuneSimulate(!Args.has("no-simulate"));
  if (Args.has("tune-seed"))
    S.tuneSeed(static_cast<uint64_t>(Args.getInt("tune-seed", 0)));
  return Error::success();
}

} // namespace cli
} // namespace stencilflow

#endif // STENCILFLOW_RUNTIME_SESSIONARGS_H
