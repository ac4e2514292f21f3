//===- tests/fuzz_test.cpp - Fuzz subsystem tests ------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests for src/fuzz: the seeded program generator's determinism and
// validity contracts, the differential runner's seeded matrix and oracle,
// the finding reproducer format, the greedy minimizer, and the checked-in
// regression corpus (tests/fuzz_corpus) of previously-found-and-fixed
// bugs, which must never reproduce again.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"
#include "fuzz/Generate.h"
#include "fuzz/Minimize.h"

#include "common/TestPrograms.h"
#include "frontend/ProgramLoader.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include "gtest/gtest.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace stencilflow;
using namespace stencilflow::fuzz;

namespace {

std::string programText(const StencilProgram &Program) {
  return programToJson(Program).toString();
}

int maxAccessRadius(const StencilProgram &Program) {
  int Max = 0;
  for (const StencilNode &Node : Program.Nodes)
    for (const FieldAccesses &FA : Node.Accesses)
      for (const Offset &Off : FA.Offsets)
        for (int C : Off)
          Max = std::max(Max, std::abs(C));
  return Max;
}

/// A small two-node program with no time-loop bindings. Running it at a
/// temporal degree > 1 is a deterministic typed failure (temporal
/// unrolling requires bindings) while the oracle succeeds, so runConfig
/// classifies it as an error-asymmetry finding — a synthetic reproducer
/// the minimizer tests can shrink without depending on a live bug.
StencilProgram chainWithoutTimeLoop() {
  StencilProgram Program;
  Program.Name = "fuzz_chain";
  Program.IterationSpace = Shape({8, 8});
  stencilflow::testing::addInput(Program, "a");
  stencilflow::testing::addStencil(Program, "n1",
                      "n1 = a[0,-1] + 2.0 * a[0,0] + a[0,1];");
  stencilflow::testing::addStencil(Program, "n2", "n2 = n1[-1,0] + n1[1,0] + 0.5;");
  Program.Outputs = {"n2"};
  return stencilflow::testing::buildProgram(std::move(Program));
}

std::optional<FuzzFinding> syntheticAsymmetryFinding() {
  DiffConfig Config;
  Config.TemporalDegree = 2;
  return runConfig(chainWithoutTimeLoop(), /*Seed=*/99, Config,
                   DiffOptions());
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(GenerateTest, SameSeedSameProgram) {
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    StencilProgram A = generateProgram(Seed);
    StencilProgram B = generateProgram(Seed);
    EXPECT_EQ(programText(A), programText(B)) << "seed " << Seed;
  }
}

TEST(GenerateTest, EveryProfileGeneratesValidAnalyzedPrograms) {
  struct Profile {
    const char *Name;
    GenConfig Config;
  };
  const Profile Profiles[] = {{"default", GenConfig()},
                              {"deep-rings", GenConfig::deepRings()},
                              {"wide-dags", GenConfig::wideDags()},
                              {"degenerate", GenConfig::degenerate()}};
  for (const Profile &P : Profiles) {
    for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
      StencilProgram Program = generateProgram(Seed, P.Config);
      ASSERT_FALSE(static_cast<bool>(Program.validate()))
          << P.Name << " seed " << Seed;
      EXPECT_FALSE(Program.Nodes.empty());
      EXPECT_FALSE(Program.Outputs.empty());
      // Generated programs arrive analyzed: every node knows its accesses.
      for (const StencilNode &Node : Program.Nodes)
        EXPECT_FALSE(Node.Accesses.empty())
            << P.Name << " seed " << Seed << " node " << Node.Name;
    }
  }
}

TEST(GenerateTest, SeedSweepCoversTheKeyRegimes) {
  bool SawTimeLoop = false, SawVectorized = false, SawRank3 = false;
  bool SawDeepRing = false, SawFloat64 = false, SawMultiNode = false;
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    StencilProgram Program = generateProgram(Seed);
    SawTimeLoop |= !Program.TimeLoop.empty();
    SawVectorized |= Program.VectorWidth > 1;
    SawRank3 |= Program.IterationSpace.rank() == 3;
    SawDeepRing |= maxAccessRadius(Program) >= 3;
    SawMultiNode |= Program.Nodes.size() > 1;
    for (const StencilNode &Node : Program.Nodes)
      SawFloat64 |= Node.Type == DataType::Float64;
  }
  EXPECT_TRUE(SawTimeLoop);
  EXPECT_TRUE(SawVectorized);
  EXPECT_TRUE(SawRank3);
  EXPECT_TRUE(SawDeepRing);
  EXPECT_TRUE(SawFloat64);
  EXPECT_TRUE(SawMultiNode);
}

TEST(GenerateTest, DistinctSeedsDiverge) {
  std::set<std::string> Texts;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed)
    Texts.insert(programText(generateProgram(Seed)));
  // Tiny collisions are conceivable in principle; wholesale collapse is
  // a generator bug.
  EXPECT_GE(Texts.size(), 8u);
}

TEST(GenerateTest, ProgramsRoundTripThroughJson) {
  // Covers the whole reproducer path, including the 53-bit data-seed
  // mask: programToJson stores numbers as doubles, so any generated seed
  // must survive serialize -> parse -> serialize unchanged.
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    StencilProgram Program = generateProgram(Seed);
    std::string Text = programToJson(Program).toString();
    Expected<json::Value> Doc = json::parse(Text);
    ASSERT_TRUE(static_cast<bool>(Doc)) << "seed " << Seed;
    Expected<StencilProgram> Loaded = programFromJson(*Doc);
    ASSERT_TRUE(static_cast<bool>(Loaded))
        << "seed " << Seed << ": " << Loaded.message();
    EXPECT_EQ(programToJson(*Loaded).toString(), Text) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Differential runner
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, MatrixSamplingIsSeededAndDeterministic) {
  StencilProgram Program = workloads::wave2dChain(1, 1, 8, 8);
  DiffOptions Options;
  Options.Matrix.ConfigsPerProgram = 4;
  DiffResult A = runDifferential(Program, 5, Options);
  DiffResult B = runDifferential(Program, 5, Options);
  ASSERT_EQ(A.Configs.size(), B.Configs.size());
  for (size_t I = 0; I != A.Configs.size(); ++I)
    EXPECT_EQ(A.Configs[I].id(), B.Configs[I].id());
  EXPECT_EQ(A.Runs, B.Runs);
  // The base configuration always anchors the matrix.
  ASSERT_FALSE(A.Configs.empty());
  EXPECT_EQ(A.Configs.front().id(), "serial/specialized/t1");
}

TEST(DifferentialTest, KnownGoodHighOrderWorkloadsAreClean) {
  DiffOptions Options;
  Options.Matrix.ConfigsPerProgram = 4;
  std::vector<StencilProgram> Programs;
  Programs.push_back(workloads::wave2dChain(2, 1, 16, 16));
  Programs.push_back(workloads::hotspot2dChain(1, 12, 12));
  for (const StencilProgram &Program : Programs) {
    DiffResult Result = runDifferential(Program, 11, Options);
    EXPECT_GE(Result.Runs, static_cast<int>(Result.Configs.size()));
    for (const FuzzFinding &Finding : Result.Findings)
      ADD_FAILURE() << Program.Name << ": " << findingKindName(Finding.Kind)
                    << " under " << Finding.Config.id() << ": "
                    << Finding.Detail;
  }
}

TEST(DifferentialTest, GeneratedProgramsAgreeAcrossTheMatrix) {
  // A miniature campaign: a handful of generated programs, each under a
  // reduced seeded matrix. Any finding here is a real pipeline bug.
  GenConfig Small;
  Small.MaxExtent = 8;
  Small.MaxNodes = 3;
  DiffOptions Options;
  Options.Matrix.ConfigsPerProgram = 3;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    StencilProgram Program = generateProgram(Seed, Small);
    DiffResult Result = runDifferential(Program, Seed, Options);
    for (const FuzzFinding &Finding : Result.Findings)
      ADD_FAILURE() << "seed " << Seed << ": "
                    << findingKindName(Finding.Kind) << " under "
                    << Finding.Config.id() << ": " << Finding.Detail;
  }
}

TEST(DifferentialTest, DegenerateProfileAgreesAcrossTheMatrix) {
  GenConfig Config = GenConfig::degenerate();
  Config.MaxExtent = 8;
  DiffOptions Options;
  Options.Matrix.ConfigsPerProgram = 3;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    StencilProgram Program = generateProgram(Seed, Config);
    DiffResult Result = runDifferential(Program, Seed, Options);
    for (const FuzzFinding &Finding : Result.Findings)
      ADD_FAILURE() << "seed " << Seed << ": "
                    << findingKindName(Finding.Kind) << " under "
                    << Finding.Config.id() << ": " << Finding.Detail;
  }
}

TEST(DifferentialTest, OracleCrcIsDeterministic) {
  StencilProgram Program = workloads::wave2dChain(2, 1, 12, 12);
  Expected<uint64_t> A = oracleCrc(Program, 2);
  Expected<uint64_t> B = oracleCrc(Program, 2);
  ASSERT_TRUE(static_cast<bool>(A)) << A.message();
  ASSERT_TRUE(static_cast<bool>(B)) << B.message();
  EXPECT_EQ(*A, *B);
  // A different temporal depth is a different trajectory.
  Expected<uint64_t> Deeper = oracleCrc(Program, 4);
  ASSERT_TRUE(static_cast<bool>(Deeper)) << Deeper.message();
  EXPECT_NE(*A, *Deeper);
}

TEST(DifferentialTest, OutputsCrcSeesSingleBitFlips) {
  std::map<std::string, std::vector<double>> Fields;
  Fields["out"] = {1.0, 2.0, 3.0};
  uint64_t Base = outputsCrc({"out"}, Fields);
  // Flip the lowest mantissa bit of one element.
  uint64_t Bits;
  std::memcpy(&Bits, &Fields["out"][1], sizeof(Bits));
  Bits ^= 1;
  std::memcpy(&Fields["out"][1], &Bits, sizeof(Bits));
  EXPECT_NE(outputsCrc({"out"}, Fields), Base);
  // Field order is part of the identity.
  Fields["aux"] = {0.0};
  EXPECT_NE(outputsCrc({"aux", "out"}, Fields),
            outputsCrc({"out", "aux"}, Fields));
}

TEST(DifferentialTest, TemporalDegreeWithoutTimeLoopIsAnErrorAsymmetry) {
  std::optional<FuzzFinding> Finding = syntheticAsymmetryFinding();
  ASSERT_TRUE(Finding.has_value());
  EXPECT_EQ(Finding->Kind, FindingKind::ErrorAsymmetry);
  EXPECT_EQ(Finding->Config.id(), "serial/specialized/t2");
  EXPECT_NE(Finding->ExpectedCrc, 0u); // The oracle side succeeded.
  EXPECT_NE(Finding->Detail.find("temporal"), std::string::npos)
      << Finding->Detail;
}

//===----------------------------------------------------------------------===//
// Findings
//===----------------------------------------------------------------------===//

TEST(FindingTest, ReproducerJsonRoundTrips) {
  std::optional<FuzzFinding> Finding = syntheticAsymmetryFinding();
  ASSERT_TRUE(Finding.has_value());
  // Seeds and CRCs are rendered as hex strings, so even full 64-bit
  // values survive the JSON double format.
  Finding->Seed = 0xdeadbeefcafebabeull;
  Finding->ActualCrc = 0xffffffffffffffffull;
  Expected<FuzzFinding> Loaded = FuzzFinding::fromJson(Finding->toJson());
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.message();
  EXPECT_EQ(Loaded->Kind, Finding->Kind);
  EXPECT_EQ(Loaded->Seed, Finding->Seed);
  EXPECT_EQ(Loaded->Config.id(), Finding->Config.id());
  EXPECT_EQ(Loaded->Detail, Finding->Detail);
  EXPECT_EQ(Loaded->ExpectedCrc, Finding->ExpectedCrc);
  EXPECT_EQ(Loaded->ActualCrc, Finding->ActualCrc);
  EXPECT_EQ(programText(Loaded->Program), programText(Finding->Program));
}

TEST(FindingTest, ExitCodesRankFindingsBySeverity) {
  EXPECT_EQ(exitCodeForFindings({}), 0);
  auto Of = [](FindingKind Kind) {
    FuzzFinding Finding;
    Finding.Kind = Kind;
    return Finding;
  };
  std::vector<FuzzFinding> Findings;
  Findings.push_back(Of(FindingKind::ErrorAsymmetry));
  EXPECT_EQ(exitCodeForFindings(Findings), 1);
  Findings.push_back(Of(FindingKind::Deadlock));
  EXPECT_EQ(exitCodeForFindings(Findings),
            exitCodeFor(ErrorCode::Deadlock));
  Findings.push_back(Of(FindingKind::Mismatch));
  EXPECT_EQ(exitCodeForFindings(Findings),
            exitCodeFor(ErrorCode::ValidationMismatch));
}

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

TEST(MinimizeTest, ShrinksTheReproducerWhilePreservingTheKind) {
  std::optional<FuzzFinding> Finding = syntheticAsymmetryFinding();
  ASSERT_TRUE(Finding.has_value());
  int64_t OriginalCells = Finding->Program.IterationSpace.numCells();

  MinimizeResult Result =
      minimizeFinding(*Finding, DiffOptions(), /*MaxAttempts=*/80);
  EXPECT_EQ(Result.Finding.Kind, FindingKind::ErrorAsymmetry);
  EXPECT_GE(Result.Attempts, Result.Steps);
  // The failure is independent of the program shape, so the greedy loop
  // must land at least the drop-sink-node and shrink-extent mutations.
  EXPECT_GE(Result.Steps, 1);
  EXPECT_LE(Result.Finding.Program.Nodes.size(), 2u);
  EXPECT_LE(Result.Finding.Program.IterationSpace.numCells(), OriginalCells);

  // The minimized program is itself a well-formed reproducer.
  ASSERT_FALSE(static_cast<bool>(Result.Finding.Program.validate()));
  std::optional<FuzzFinding> Replayed =
      runConfig(Result.Finding.Program, Result.Finding.Seed,
                Result.Finding.Config, DiffOptions());
  ASSERT_TRUE(Replayed.has_value());
  EXPECT_EQ(Replayed->Kind, FindingKind::ErrorAsymmetry);
}

TEST(MinimizeTest, MinimizedFindingSerializes) {
  // Regression: the minimizer used to steal the replayed finding's
  // program before stealing the finding itself, leaving a moved-from
  // rank-0 program whose serialization asserted. The minimized result
  // must always carry a live program that round-trips.
  std::optional<FuzzFinding> Finding = syntheticAsymmetryFinding();
  ASSERT_TRUE(Finding.has_value());
  MinimizeResult Result =
      minimizeFinding(*Finding, DiffOptions(), /*MaxAttempts=*/40);
  ASSERT_GE(Result.Finding.Program.IterationSpace.rank(), 1);
  json::Value Doc = Result.Finding.toJson();
  EXPECT_FALSE(Doc.toPrettyString().empty());
  Expected<FuzzFinding> Loaded = FuzzFinding::fromJson(Doc);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.message();
  EXPECT_EQ(Loaded->Kind, Result.Finding.Kind);
}

//===----------------------------------------------------------------------===//
// Regression corpus
//===----------------------------------------------------------------------===//

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Paths;
  DIR *D = opendir(SF_FUZZ_CORPUS_DIR);
  if (!D)
    return Paths;
  while (dirent *Entry = readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name.size() > 5 && Name.substr(Name.size() - 5) == ".json")
      Paths.push_back(std::string(SF_FUZZ_CORPUS_DIR) + "/" + Name);
  }
  closedir(D);
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

TEST(CorpusTest, RegressionReproducersStayFixed) {
  // Every corpus entry is the reproducer of a bug that has since been
  // fixed; replaying it must not find anything. A reproduction here
  // means a fixed bug came back.
  std::vector<std::string> Paths = corpusFiles();
  ASSERT_GE(Paths.size(), 3u) << "corpus missing at " << SF_FUZZ_CORPUS_DIR;
  for (const std::string &Path : Paths) {
    Expected<json::Value> Doc = json::parseFile(Path);
    ASSERT_TRUE(static_cast<bool>(Doc)) << Path << ": " << Doc.message();
    Expected<FuzzFinding> Finding = FuzzFinding::fromJson(*Doc);
    ASSERT_TRUE(static_cast<bool>(Finding))
        << Path << ": " << Finding.message();
    std::optional<FuzzFinding> Replayed =
        runConfig(Finding->Program, Finding->Seed, Finding->Config,
                  DiffOptions());
    EXPECT_FALSE(Replayed.has_value())
        << Path << " reproduced: "
        << (Replayed ? Replayed->Detail : std::string());
  }
}

} // namespace
