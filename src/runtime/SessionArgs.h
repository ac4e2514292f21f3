//===- runtime/SessionArgs.h - Flags -> Session configuration -----*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Appliers that turn the shared flag packs (support/Args.h) into fluent
/// \c Session configuration. One place maps a flag name to the Session
/// setter it drives, so every CLI exposing `--fuse`, `--kernel-engine` or
/// `--checkpoint-every` behaves identically. Lives in the runtime layer
/// because support cannot depend on Session. (The autotuner pack fills a
/// tuner::TuneOptions instead: tuner/Tuner.h \c tuneOptionsFromArgs.)
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
  // Without --vectorize or --temporal-degree the session keeps its value.
  int Width = S.program().VectorWidth;
  int Degree = S.pipelineOptions().TemporalDegree;
  int64_t StallTimeout = 0;
  if (Error Err = Args.read("vectorize", Width))
    return Err;
  if (Error Err = Args.read("temporal-degree", Degree))
    return Err;
  if (Error Err = Args.read("stall-timeout", StallTimeout))
    return Err;
  S.vectorize(Width)
      .temporalDegree(Degree)
      .fuseStencils(Args.has("fuse"))
      .simplifyCode(Args.has("simplify"))
      .unconstrainedMemory(!Args.has("constrained-memory"))
      .stallTimeout(StallTimeout);
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
    int64_t Cycles = 0;
    double Seconds = 0.0;
    int Keep = 3, CrashAfter = 0;
    if (Error Err = Args.read("checkpoint-every", Cycles))
      return Err;
    if (Error Err = Args.read("checkpoint-every-seconds", Seconds))
      return Err;
    if (Error Err = Args.read("checkpoint-keep", Keep))
      return Err;
    if (Error Err = Args.read("crash-after-checkpoints", CrashAfter))
      return Err;
    S.checkpointDir(Args.getString("checkpoint-dir"))
        .checkpointEveryCycles(Cycles)
        .checkpointEverySeconds(Seconds)
        .checkpointKeep(Keep)
        .checkpointCrashAfter(CrashAfter);
  }
  if (Args.has("resume"))
    S.resumeFrom(Args.getString("resume"));
  return Error::success();
}

} // namespace cli
} // namespace stencilflow

#endif // STENCILFLOW_RUNTIME_SESSIONARGS_H
