//===- fuzz/Differential.cpp - Differential pipeline fuzzing ----------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"

#include "core/CompiledProgram.h"
#include "frontend/ProgramLoader.h"
#include "runtime/InputData.h"
#include "runtime/Iterate.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Session.h"
#include "sim/Checkpoint.h"
#include "sim/Fault.h"
#include "sim/Trace.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <set>

using namespace stencilflow;
using namespace stencilflow::fuzz;

//===----------------------------------------------------------------------===//
// Finding kinds
//===----------------------------------------------------------------------===//

const char *fuzz::findingKindName(FindingKind Kind) {
  switch (Kind) {
  case FindingKind::Mismatch:
    return "mismatch";
  case FindingKind::Deadlock:
    return "deadlock";
  case FindingKind::Crash:
    return "crash";
  case FindingKind::ErrorAsymmetry:
    return "error-asymmetry";
  }
  return "unknown";
}

std::optional<FindingKind> fuzz::findingKindFromName(std::string_view Name) {
  for (FindingKind Kind :
       {FindingKind::Mismatch, FindingKind::Deadlock, FindingKind::Crash,
        FindingKind::ErrorAsymmetry})
    if (Name == findingKindName(Kind))
      return Kind;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// DiffConfig
//===----------------------------------------------------------------------===//

std::string DiffConfig::id() const {
  std::string Id = Parallel ? "parallel" : "serial";
  Id += "/" + Kernel;
  Id += formatString("/t%d", TemporalDegree);
  if (Faults)
    Id += "/faults";
  if (Resume)
    Id += "/resume";
  return Id;
}

json::Value DiffConfig::toJson() const {
  json::Object O;
  O.set("parallel", json::Value(Parallel));
  O.set("kernel", json::Value(Kernel));
  O.set("temporal_degree", json::Value(TemporalDegree));
  O.set("faults", json::Value(Faults));
  O.set("resume", json::Value(Resume));
  return json::Value(std::move(O));
}

Expected<DiffConfig> DiffConfig::fromJson(const json::Value &V) {
  if (!V.isObject())
    return makeError(ErrorCode::InvalidInput,
                     "finding 'config' must be an object");
  const json::Object &O = V.getObject();
  DiffConfig Config;
  if (const json::Value *P = O.get("parallel"); P && P->isBoolean())
    Config.Parallel = P->getBoolean();
  if (const json::Value *K = O.get("kernel"); K && K->isString())
    Config.Kernel = K->getString();
  if (const json::Value *T = O.get("temporal_degree"); T && T->isNumber())
    Config.TemporalDegree = static_cast<int>(T->getInteger());
  if (const json::Value *F = O.get("faults"); F && F->isBoolean())
    Config.Faults = F->getBoolean();
  if (const json::Value *R = O.get("resume"); R && R->isBoolean())
    Config.Resume = R->getBoolean();
  if (Config.TemporalDegree < 1)
    return makeError(ErrorCode::InvalidInput,
                     "config 'temporal_degree' must be >= 1");
  Expected<compute::KernelEngine> Kernel =
      compute::parseKernelEngine(Config.Kernel);
  if (!Kernel)
    return Kernel.takeError();
  return Config;
}

//===----------------------------------------------------------------------===//
// FuzzFinding
//===----------------------------------------------------------------------===//

json::Value FuzzFinding::toJson() const {
  json::Object O;
  O.set("kind", json::Value(findingKindName(Kind)));
  // CRCs and the seed are 64-bit; JSON numbers are doubles, so render
  // them as hex strings to stay lossless.
  O.set("seed", json::Value(formatString("0x%" PRIx64, Seed)));
  O.set("config", Config.toJson());
  O.set("detail", json::Value(Detail));
  O.set("expected_crc", json::Value(formatString("0x%" PRIx64, ExpectedCrc)));
  O.set("actual_crc", json::Value(formatString("0x%" PRIx64, ActualCrc)));
  O.set("program", programToJson(Program));
  return json::Value(std::move(O));
}

static uint64_t parseHex64(const json::Value *V) {
  if (!V || !V->isString())
    return 0;
  return strtoull(V->getString().c_str(), nullptr, 0);
}

Expected<FuzzFinding> FuzzFinding::fromJson(const json::Value &V) {
  if (!V.isObject())
    return makeError(ErrorCode::InvalidInput, "finding must be an object");
  const json::Object &O = V.getObject();
  FuzzFinding Finding;
  if (const json::Value *K = O.get("kind"); K && K->isString()) {
    std::optional<FindingKind> Kind = findingKindFromName(K->getString());
    if (!Kind)
      return makeError(ErrorCode::InvalidInput,
                       "unknown finding kind '" + K->getString() + "'");
    Finding.Kind = *Kind;
  }
  Finding.Seed = parseHex64(O.get("seed"));
  if (const json::Value *C = O.get("config")) {
    Expected<DiffConfig> Config = DiffConfig::fromJson(*C);
    if (!Config)
      return Config.takeError();
    Finding.Config = std::move(*Config);
  }
  if (const json::Value *D = O.get("detail"); D && D->isString())
    Finding.Detail = D->getString();
  Finding.ExpectedCrc = parseHex64(O.get("expected_crc"));
  Finding.ActualCrc = parseHex64(O.get("actual_crc"));
  const json::Value *P = O.get("program");
  if (!P)
    return makeError(ErrorCode::InvalidInput,
                     "finding requires a 'program' object");
  Expected<StencilProgram> Program = programFromJson(*P);
  if (!Program)
    return Program.takeError();
  Finding.Program = std::move(*Program);
  return Finding;
}

//===----------------------------------------------------------------------===//
// CRCs and the oracle
//===----------------------------------------------------------------------===//

uint64_t
fuzz::outputsCrc(const std::vector<std::string> &Order,
                 const std::map<std::string, std::vector<double>> &Fields) {
  uint64_t Crc = sim::fnv1a(nullptr, 0);
  for (const std::string &Name : Order) {
    Crc = sim::fnv1a(Name.data(), Name.size(), Crc);
    auto It = Fields.find(Name);
    if (It == Fields.end())
      continue;
    Crc = sim::fnv1a(It->second.data(), It->second.size() * sizeof(double),
                     Crc);
  }
  return Crc;
}

Expected<uint64_t> fuzz::oracleCrc(const StencilProgram &Program,
                                   int TemporalDegree) {
  Expected<CompiledProgram> Compiled =
      CompiledProgram::compile(Program.clone());
  if (!Compiled)
    return Compiled.takeError();
  auto Inputs = materializeInputs(Compiled->program());
  Expected<ExecutionResult> Result =
      Program.TimeLoop.empty()
          ? runReference(*Compiled, Inputs)
          : iterateReference(*Compiled, std::move(Inputs), Program.TimeLoop,
                             TemporalDegree);
  if (!Result)
    return Result.takeError();
  return outputsCrc(Program.Outputs, Result->Fields);
}

//===----------------------------------------------------------------------===//
// Scratch-directory housekeeping (POSIX; no std::filesystem in the tree)
//===----------------------------------------------------------------------===//

/// Deletes every regular file directly inside \p Dir (checkpoint
/// directories are flat). Missing directory is fine.
static void clearDirectory(const std::string &Dir) {
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return;
  while (dirent *Entry = readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name == "." || Name == "..")
      continue;
    ::unlink((Dir + "/" + Name).c_str());
  }
  closedir(D);
}

/// True if \p Dir contains at least one regular entry.
static bool directoryHasFiles(const std::string &Dir) {
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return false;
  bool Any = false;
  while (dirent *Entry = readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name != "." && Name != "..") {
      Any = true;
      break;
    }
  }
  closedir(D);
  return Any;
}

/// The per-process default scratch directory: a fresh mkdtemp directory
/// under $TMPDIR (else /tmp), emptied and removed at exit.
static const std::string &processScratchDir() {
  static const std::string Dir = [] {
    const char *TmpEnv = std::getenv("TMPDIR");
    std::string Template = std::string(TmpEnv && *TmpEnv ? TmpEnv : "/tmp") +
                           "/sf-fuzz-XXXXXX";
    if (!::mkdtemp(Template.data()))
      return std::string("sf_fuzz_scratch");
    return Template;
  }();
  // Registered after Dir is constructed, so it runs before Dir dies.
  static const bool Cleanup = std::atexit([] {
    clearDirectory(Dir);
    ::rmdir(Dir.c_str());
  }) == 0;
  (void)Cleanup;
  return Dir;
}

std::string DiffOptions::scratchDir() const {
  return ScratchDir.empty() ? processScratchDir() : ScratchDir;
}

//===----------------------------------------------------------------------===//
// Running one configuration
//===----------------------------------------------------------------------===//

/// A mild transient fault plan, deterministic in \p Seed: a memory
/// brownout and a link degrade over early windows, plus low-probability
/// payload corruption (the attached plan switches remote streams to the
/// reliable transport, so corruption is retransmitted — results must stay
/// bit-exact). Factors stay >= 0.5 and windows short so the run cannot
/// blow past the cycle limit and masquerade as a deadlock.
static sim::FaultPlan mildFaultPlan(uint64_t Seed) {
  Random Rng(Seed ^ 0x9e3779b97f4a7c15ull);
  sim::FaultPlan Plan;
  Plan.Seed = Rng.nextUInt64();

  sim::FaultEvent Brownout;
  Brownout.Kind = sim::FaultKind::MemoryBrownout;
  Brownout.Device = 0;
  Brownout.StartCycle = static_cast<int64_t>(Rng.nextBounded(64));
  Brownout.EndCycle = Brownout.StartCycle + 64 +
                      static_cast<int64_t>(Rng.nextBounded(128));
  Brownout.Factor = 0.5 + 0.25 * Rng.nextDouble();
  Plan.Events.push_back(Brownout);

  sim::FaultEvent Degrade;
  Degrade.Kind = sim::FaultKind::LinkDegrade;
  Degrade.Hop = -1;
  Degrade.StartCycle = static_cast<int64_t>(Rng.nextBounded(96));
  Degrade.EndCycle = Degrade.StartCycle + 32 +
                     static_cast<int64_t>(Rng.nextBounded(96));
  Degrade.Factor = 0.5 + 0.25 * Rng.nextDouble();
  Plan.Events.push_back(Degrade);

  sim::FaultEvent Corruption;
  Corruption.Kind = sim::FaultKind::PayloadCorruption;
  Corruption.Hop = -1;
  Corruption.Probability = 0.02;
  Plan.Events.push_back(Corruption);
  return Plan;
}

namespace {
/// What one pipeline execution produced, pre-classification.
struct RunOutcome {
  bool Ok = false;
  ErrorCode Code = ErrorCode::Unknown;
  std::string Message;
  bool ValidationPassed = true;
  uint64_t Crc = 0;
};
} // namespace

/// Builds a session for \p Config and runs it once. \p ResumePath, when
/// non-empty, resumes from that checkpoint directory; \p CheckpointDir,
/// when non-empty, enables snapshotting into it.
static RunOutcome executeOnce(const StencilProgram &Program,
                              const DiffConfig &Config, uint64_t Seed,
                              const std::string &CheckpointDir,
                              const std::string &ResumePath) {
  Session S = Session::fromProgram(Program.clone());
  S.unconstrainedMemory(true);
  if (Config.Parallel)
    S.engine(sim::SimEngine::Parallel, 2);
  Expected<compute::KernelEngine> Kernel =
      compute::parseKernelEngine(Config.Kernel);
  if (Kernel)
    S.kernelEngine(*Kernel);
  if (Config.TemporalDegree > 1)
    S.temporalDegree(Config.TemporalDegree);
  if (Config.Faults)
    S.faults(mildFaultPlan(Seed));
  if (!CheckpointDir.empty())
    S.checkpointEvery(16, CheckpointDir, /*Keep=*/4);
  if (!ResumePath.empty())
    S.resumeFrom(ResumePath);

  RunOutcome Outcome;
  Expected<PipelineResult> Result = S.run();
  if (!Result) {
    Outcome.Code = Result.code();
    Outcome.Message = Result.message();
    return Outcome;
  }
  Outcome.Ok = true;
  Outcome.ValidationPassed = Result->ValidationPassed;
  Outcome.Crc = outputsCrc(Program.Outputs, Result->Simulation.Outputs);
  return Outcome;
}

/// Classifies a failed run. Returns std::nullopt for failures that are
/// legitimate behavior rather than bugs (resource infeasibility depends
/// on the configuration, so it is not an asymmetry).
static std::optional<FindingKind> classifyFailure(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Infeasible:
    return std::nullopt;
  case ErrorCode::Deadlock:
  case ErrorCode::Starvation:
  case ErrorCode::CycleLimit:
    return FindingKind::Deadlock;
  case ErrorCode::Unknown:
  case ErrorCode::DataCorruption:
    return FindingKind::Crash;
  default:
    return FindingKind::ErrorAsymmetry;
  }
}

std::optional<FuzzFinding> fuzz::runConfig(const StencilProgram &Program,
                                           uint64_t Seed,
                                           const DiffConfig &Config,
                                           const DiffOptions &Options) {
  FuzzFinding Finding;
  Finding.Seed = Seed;
  Finding.Config = Config;
  Finding.Program = Program.clone();

  Expected<uint64_t> Oracle = oracleCrc(Program, Config.TemporalDegree);
  if (!Oracle) {
    // The oracle itself refusing a generated program is a generator bug;
    // surface it as a crash finding rather than silently skipping.
    Finding.Kind = FindingKind::Crash;
    Finding.Detail = "reference oracle failed: " + Oracle.message();
    return Finding;
  }
  Finding.ExpectedCrc = *Oracle;

  std::string Scratch;
  if (Config.Resume) {
    Scratch = Options.scratchDir();
    ::mkdir(Scratch.c_str(), 0755);
    clearDirectory(Scratch);
  }

  // Fills the finding's classification fields. Returns true on
  // divergence; false when the outcome is acceptable (bit-exact success,
  // or a legitimately infeasible configuration).
  auto Diverged = [&](const RunOutcome &Outcome, const char *Phase) {
    if (!Outcome.Ok) {
      std::optional<FindingKind> Kind = classifyFailure(Outcome.Code);
      if (!Kind)
        return false; // Infeasible: legitimate, not a finding.
      Finding.Kind = *Kind;
      Finding.Detail = formatString("%s failed (%s): ", Phase,
                                    errorCodeName(Outcome.Code)) +
                       Outcome.Message;
      return true;
    }
    if (!Outcome.ValidationPassed) {
      Finding.Kind = FindingKind::Mismatch;
      Finding.Detail =
          formatString("%s failed the pipeline's own validation", Phase);
      Finding.ActualCrc = Outcome.Crc;
      return true;
    }
    if (Outcome.Crc != Finding.ExpectedCrc) {
      Finding.Kind = FindingKind::Mismatch;
      Finding.Detail =
          formatString("%s output CRC diverges from the oracle", Phase);
      Finding.ActualCrc = Outcome.Crc;
      return true;
    }
    return false;
  };

  // Phase 1: the configured run (checkpointing when the resume axis is
  // on — snapshotting must not perturb the simulation).
  RunOutcome First = executeOnce(Program, Config, Seed, Scratch,
                                 /*ResumePath=*/"");
  if (Diverged(First, Config.Resume ? "checkpointed run" : "run"))
    return std::optional<FuzzFinding>(std::move(Finding));
  if (!First.Ok) // Infeasible under this configuration; nothing to check.
    return std::nullopt;

  // Phase 2 (resume axis): restart from the latest snapshot on a fresh
  // session; the resumed run must be bit-exact with the oracle too. A
  // run short enough to finish before the first snapshot has nothing to
  // resume from — that is not a divergence.
  if (Config.Resume && directoryHasFiles(Scratch)) {
    RunOutcome Second = executeOnce(Program, Config, Seed,
                                    /*CheckpointDir=*/"", Scratch);
    if (Diverged(Second, "resumed run"))
      return std::optional<FuzzFinding>(std::move(Finding));
  }
  if (Config.Resume)
    clearDirectory(Scratch);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// The matrix
//===----------------------------------------------------------------------===//

/// Samples one matrix point from \p Rng under \p Matrix for a program
/// with (\p HasTimeLoop) time-loop bindings.
static DiffConfig sampleConfig(Random &Rng,
                               const MatrixOptions &Matrix, bool HasTimeLoop) {
  static const char *const BaseKernels[] = {"scalar", "batched",
                                            "specialized"};
  static const char *const JitKernels[] = {"scalar", "batched", "specialized",
                                           "jit", "auto"};
  DiffConfig Config;
  Config.Parallel = Matrix.ParallelEngine && Rng.nextBool(0.5);
  if (Matrix.JitTiers)
    Config.Kernel = JitKernels[Rng.nextBounded(5)];
  else
    Config.Kernel = BaseKernels[Rng.nextBounded(3)];
  if (HasTimeLoop && !Matrix.TemporalDegrees.empty())
    Config.TemporalDegree =
        Matrix.TemporalDegrees[Rng.nextBounded(
            static_cast<uint64_t>(Matrix.TemporalDegrees.size()))];
  Config.Faults = Matrix.FaultAxis && Rng.nextBool(0.35);
  Config.Resume = Matrix.ResumeAxis && Rng.nextBool(0.35);
  return Config;
}

DiffResult fuzz::runDifferential(const StencilProgram &Program, uint64_t Seed,
                                 const DiffOptions &Options) {
  DiffResult Result;

  // The base configuration always runs: it pins the pipeline's serial /
  // specialized / single-step behavior to the oracle, so any sampled
  // divergence is attributable to the varied axis.
  std::vector<DiffConfig> Configs;
  Configs.push_back(DiffConfig());

  Random Rng(Seed ^ 0xdf900294d8f554a5ull);
  std::set<std::string> SeenIds = {Configs.front().id()};
  bool HasTimeLoop = !Program.TimeLoop.empty();
  int Budget = std::max(0, Options.Matrix.ConfigsPerProgram);
  // Oversample: duplicates (dedup by id) do not count against the budget.
  for (int Attempt = 0; Attempt < Budget * 8 &&
                        static_cast<int>(Configs.size()) < 1 + Budget;
       ++Attempt) {
    DiffConfig Config = sampleConfig(Rng, Options.Matrix, HasTimeLoop);
    if (SeenIds.insert(Config.id()).second)
      Configs.push_back(std::move(Config));
  }

  int Index = 0;
  for (const DiffConfig &Config : Configs) {
    Result.Configs.push_back(Config);
    Result.Runs += Config.Resume ? 2 : 1;
    std::optional<FuzzFinding> Finding =
        runConfig(Program, Seed, Config, Options);
    if (!Finding)
      continue;
    if (!Options.FindingsDir.empty())
      (void)writeFinding(*Finding, Options.FindingsDir, Index++);
    Result.Findings.push_back(std::move(*Finding));
  }
  return Result;
}

Expected<std::string> fuzz::writeFinding(const FuzzFinding &Finding,
                                         const std::string &Dir, int Index) {
  ::mkdir(Dir.c_str(), 0755); // EEXIST is fine; the write below reports.
  std::string Path =
      Dir + formatString("/finding-%" PRIu64 "-%d-%s.json", Finding.Seed,
                         Index, findingKindName(Finding.Kind));
  if (Error Err = sim::writeTextFileAtomic(
          Path, Finding.toJson().toPrettyString() + "\n"))
    return Err;
  return Path;
}

int fuzz::exitCodeForFindings(const std::vector<FuzzFinding> &Findings) {
  if (Findings.empty())
    return 0;
  bool AnyMismatch = false, AnyDeadlock = false;
  for (const FuzzFinding &Finding : Findings) {
    AnyMismatch |= Finding.Kind == FindingKind::Mismatch;
    AnyDeadlock |= Finding.Kind == FindingKind::Deadlock;
  }
  if (AnyMismatch)
    return exitCodeFor(ErrorCode::ValidationMismatch);
  if (AnyDeadlock)
    return exitCodeFor(ErrorCode::Deadlock);
  return 1;
}
