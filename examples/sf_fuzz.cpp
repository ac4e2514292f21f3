//===- examples/sf_fuzz.cpp - Differential stencil-program fuzzer --------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fuzzing driver: generates seeded random stencil programs
// (fuzz/Generate.h) and runs each one through the full pipeline under a
// seeded matrix of configurations — every kernel tier, temporal degrees,
// fault plans, checkpoint/resume — asserting bit-exact agreement with the
// reference oracle (fuzz/Differential.h). Divergences are written as JSON
// reproducers; `--replay` re-runs one, and `--minimize` greedily shrinks
// it while it still reproduces (fuzz/Minimize.h).
//
// Usage:
//   sf_fuzz --seed 42 --iterations 200            # a fuzzing campaign
//   sf_fuzz --seed 42 --profile deep-rings        # bias the generator
//   sf_fuzz --replay finding-7-0-mismatch.json    # reproduce one finding
//   sf_fuzz --replay finding.json --minimize      # ... and shrink it
//
// Determinism: the same --seed always generates the same programs and
// samples the same configuration matrix, so a campaign is exactly
// repeatable. The exit code classifies the worst finding (0 none,
// 2 mismatch, 3 deadlock, 1 other) so CI can branch on it.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"
#include "fuzz/Generate.h"
#include "fuzz/Minimize.h"
#include "support/Args.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "sim/Trace.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace stencilflow;
using namespace stencilflow::fuzz;

/// Applies the generator-shape flags on top of a profile preset.
static GenConfig genConfigFromArgs(const CommandLine &Args,
                                   Error &Err) {
  GenConfig Config;
  std::string Profile = Args.getString("profile");
  if (Profile == "deep-rings")
    Config = GenConfig::deepRings();
  else if (Profile == "wide-dags")
    Config = GenConfig::wideDags();
  else if (Profile == "degenerate")
    Config = GenConfig::degenerate();
  else if (!Profile.empty() && Profile != "default")
    Err = makeError(ErrorCode::InvalidInput,
                    "unknown --profile '" + Profile +
                        "' (default, deep-rings, wide-dags, degenerate)");
  if (!Err)
    Err = Args.read("max-nodes", Config.MaxNodes);
  if (!Err)
    Err = Args.read("max-radius", Config.MaxRadius);
  if (!Err)
    Err = Args.read("max-extent", Config.MaxExtent);
  if (!Err)
    Err = Args.read("max-rank", Config.MaxRank);
  return Config;
}

/// Applies the matrix-axis flags.
static Error matrixFromArgs(const CommandLine &Args,
                            MatrixOptions &Matrix) {
  Matrix.FaultAxis = !Args.has("no-faults");
  Matrix.ResumeAxis = !Args.has("no-resume");
  if (Error Err = Args.read("configs", Matrix.ConfigsPerProgram))
    return Err;
  if (Args.has("temporal-degrees")) {
    Matrix.TemporalDegrees.clear();
    if (Error Err = Args.readList("temporal-degrees", Matrix.TemporalDegrees))
      return Err;
    for (int Degree : Matrix.TemporalDegrees)
      if (Degree < 1)
        return makeError(ErrorCode::InvalidInput,
                         formatString("--temporal-degrees wants positive "
                                      "integers, got '%d'",
                                      Degree));
  }
  return Error::success();
}

static void printFinding(const FuzzFinding &Finding) {
  std::printf("  FINDING %s seed=%llu config=%s\n    %s\n",
              findingKindName(Finding.Kind),
              static_cast<unsigned long long>(Finding.Seed),
              Finding.Config.id().c_str(), Finding.Detail.c_str());
}

/// Replays (and optionally minimizes) one reproducer file.
static int replayFinding(const std::string &Path, bool Minimize,
                         const DiffOptions &Options) {
  Expected<json::Value> Doc = json::parseFile(Path);
  if (!Doc) {
    std::fprintf(stderr, "error: %s\n", Doc.message().c_str());
    return 1;
  }
  Expected<FuzzFinding> Finding = FuzzFinding::fromJson(*Doc);
  if (!Finding) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                 Finding.message().c_str());
    return 1;
  }
  std::printf("replaying %s (%s under %s)\n", Path.c_str(),
              findingKindName(Finding->Kind), Finding->Config.id().c_str());
  std::optional<FuzzFinding> Replayed =
      runConfig(Finding->Program, Finding->Seed, Finding->Config, Options);
  if (!Replayed) {
    std::printf("did not reproduce: the pipeline agrees with the oracle\n");
    return 0;
  }
  printFinding(*Replayed);
  if (Minimize) {
    MinimizeResult Minimized = minimizeFinding(*Replayed, Options);
    std::printf("minimized: %d accepted / %d attempted mutations "
                "(%zu nodes, %lld cells)\n",
                Minimized.Steps, Minimized.Attempts,
                Minimized.Finding.Program.Nodes.size(),
                static_cast<long long>(
                    Minimized.Finding.Program.IterationSpace.numCells()));
    std::string MinPath = Path + ".min.json";
    if (Error Err = sim::writeTextFileAtomic(
            MinPath, Minimized.Finding.toJson().toPrettyString() + "\n"))
      std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    else
      std::printf("wrote %s\n", MinPath.c_str());
    Replayed = std::move(Minimized.Finding);
  }
  std::vector<FuzzFinding> Findings;
  Findings.push_back(std::move(*Replayed));
  return exitCodeForFindings(Findings);
}

int main(int argc, char **argv) {
  cli::ArgSet Spec(
      "sf_fuzz",
      "Differential fuzzer: random valid stencil programs through the "
      "full pipeline under a seeded configuration matrix, checked "
      "bit-exactly against the reference oracle.",
      "[flags]");
  Spec.group("campaign")
      .option("seed", "N", "base seed; iteration i fuzzes seed N+i "
                           "(default 1)")
      .option("iterations", "N", "programs to generate (default 50)")
      .option("seconds", "S", "wall-clock budget; stops early when "
                              "exceeded (default off)")
      .option("findings", "DIR",
              "write finding reproducers here (default fuzz_findings)")
      .option("scratch", "DIR", "checkpoint scratch directory")
      .group("generator")
      .option("profile", "NAME",
              "default | deep-rings | wide-dags | degenerate")
      .option("max-nodes", "N", "cap stencils per program")
      .option("max-radius", "N", "cap access radius (default 4)")
      .option("max-extent", "N", "cap per-dimension extent (default 16)")
      .option("max-rank", "N", "cap dimensionality (default 3)")
      .group("matrix")
      .option("configs", "N",
              "sampled configurations per program on top of the base "
              "config (default 5)")
      .option("temporal-degrees", "CSV",
              "temporal degrees to sample (default 1,2,4)")
      .flag("no-faults", "disable the fault-plan axis")
      .flag("no-resume", "disable the checkpoint/resume axis")
      .group("replay")
      .option("replay", "FILE", "re-run one finding reproducer and exit")
      .flag("minimize", "with --replay: greedily shrink the reproducer "
                        "while it still fails, writing FILE.min.json");
  auto Args = Spec.parse(argc, argv);
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  if (Spec.helpShown())
    return 0;

  DiffOptions Options;
  Options.FindingsDir = Args->has("findings") ? Args->getString("findings")
                                              : "fuzz_findings";
  if (Args->has("scratch"))
    Options.ScratchDir = Args->getString("scratch");
  if (Error Err = matrixFromArgs(*Args, Options.Matrix)) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }

  if (Args->has("replay"))
    return replayFinding(Args->getString("replay"), Args->has("minimize"),
                         Options);

  Error ProfileErr;
  GenConfig Config = genConfigFromArgs(*Args, ProfileErr);
  if (ProfileErr) {
    std::fprintf(stderr, "error: %s\n", ProfileErr.message().c_str());
    return 1;
  }

  uint64_t BaseSeed = 1;
  int Iterations = 50;
  double Seconds = 0.0;
  Error NumberErr = Args->read("seed", BaseSeed);
  if (!NumberErr)
    NumberErr = Args->read("iterations", Iterations);
  if (!NumberErr)
    NumberErr = Args->read("seconds", Seconds);
  if (NumberErr) {
    std::fprintf(stderr, "error: %s\n", NumberErr.message().c_str());
    return 1;
  }
  auto Start = std::chrono::steady_clock::now();

  std::vector<FuzzFinding> Findings;
  int Programs = 0, Runs = 0;
  for (int Iteration = 0; Iteration < Iterations; ++Iteration) {
    if (Seconds > 0) {
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
      if (Elapsed >= Seconds) {
        std::printf("wall budget reached after %d programs\n", Programs);
        break;
      }
    }
    uint64_t Seed = BaseSeed + static_cast<uint64_t>(Iteration);
    StencilProgram Program = generateProgram(Seed, Config);
    DiffResult Result = runDifferential(Program, Seed, Options);
    ++Programs;
    Runs += Result.Runs;
    for (FuzzFinding &Finding : Result.Findings) {
      printFinding(Finding);
      Findings.push_back(std::move(Finding));
    }
    if ((Iteration + 1) % 25 == 0)
      std::printf("  ... %d/%d programs, %d runs, %zu findings\n",
                  Iteration + 1, Iterations, Runs, Findings.size());
  }

  std::printf("%d programs, %d pipeline runs, %zu findings", Programs, Runs,
              Findings.size());
  if (!Findings.empty())
    std::printf(" (reproducers in %s/)", Options.FindingsDir.c_str());
  std::printf("\n");
  return exitCodeForFindings(Findings);
}
