//===- tests/checkpoint_test.cpp - Checkpoint/restart tests --------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the checkpoint/restart subsystem end to end:
//
//  - the encoding primitives (CRC-32 known vectors, FNV-1a, the
//    bounds-checked ByteReader);
//  - the snapshot file layer: round trips, crash-consistent naming,
//    latest-snapshot resolution, bounded retention;
//  - rejection of damaged files — corrupted, truncated, bad magic,
//    version skew — with ErrorCode::SnapshotInvalid, and of mismatched
//    programs/inputs with ErrorCode::SnapshotIncompatible;
//  - the kill/resume parity harness: a run resumed from any snapshot must
//    be cycle- and bit-exact with the uninterrupted run, across kernel
//    tiers x {no plan, fault plan}, on single- and multi-device
//    placements;
//  - kernel-tier reassignment on restore (the exact signature excludes
//    the execution tier by design);
//  - the pipeline's device-loss recovery resuming from the last snapshot
//    instead of cycle zero (CyclesSavedByCheckpoint).
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "core/Partitioner.h"
#include "runtime/InputData.h"
#include "runtime/Pipeline.h"
#include "sim/Checkpoint.h"
#include "sim/Fault.h"
#include "sim/Machine.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace stencilflow;
using namespace stencilflow::sim;
using namespace stencilflow::testing;

namespace {

/// A per-test scratch directory under the gtest temp root, cleared of any
/// leftover snapshot files from a previous in-process run.
std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "/sf_ckpt_" + Name;
  ::mkdir(Dir.c_str(), 0755);
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *Entry = ::readdir(D)) {
      std::string File = Entry->d_name;
      if (File != "." && File != "..")
        ::unlink((Dir + "/" + File).c_str());
    }
    ::closedir(D);
  }
  return Dir;
}

/// All snapshot files in \p Dir, sorted ascending by cycle (the zero-padded
/// names make lexical order numeric order).
std::vector<std::string> listSnapshotFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Files;
  while (dirent *Entry = ::readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name.size() > 10 && Name.compare(0, 5, "ckpt-") == 0 &&
        Name.compare(Name.size() - 5, 5, ".sfck") == 0)
      Files.push_back(Dir + "/" + Name);
  }
  ::closedir(D);
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::vector<uint8_t> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  EXPECT_TRUE(Out.good()) << Path;
}

/// Asserts that two completed runs agree on everything the bit-exactness
/// guarantee covers: outputs (bitwise), cycle count, termination, stall
/// attribution, channel peaks, byte counters, and link statistics.
void expectSameRun(const SimResult &A, const SimResult &B,
                   const std::string &Tag) {
  EXPECT_EQ(A.Stats.Cycles, B.Stats.Cycles) << Tag;
  EXPECT_EQ(A.Termination, B.Termination) << Tag;
  ASSERT_EQ(A.Outputs.size(), B.Outputs.size()) << Tag;
  for (const auto &[Name, Values] : A.Outputs) {
    const auto &Other = B.Outputs.at(Name);
    ASSERT_EQ(Other.size(), Values.size()) << Tag << " " << Name;
    for (size_t I = 0; I != Values.size(); ++I)
      ASSERT_EQ(Other[I], Values[I])
          << Tag << " " << Name << "[" << I << "]";
  }
  EXPECT_EQ(A.Stats.NetworkBytesMoved, B.Stats.NetworkBytesMoved) << Tag;
  ASSERT_EQ(A.Stats.MemoryBytesMoved.size(),
            B.Stats.MemoryBytesMoved.size())
      << Tag;
  for (size_t I = 0; I != A.Stats.MemoryBytesMoved.size(); ++I)
    EXPECT_EQ(A.Stats.MemoryBytesMoved[I], B.Stats.MemoryBytesMoved[I])
        << Tag << " device " << I;
  for (const auto &[Name, Stalls] : A.Stats.UnitStalls)
    for (int Cause = 0; Cause != NumStallCauses; ++Cause)
      EXPECT_EQ(B.Stats.UnitStalls.at(Name).Counts[Cause],
                Stalls.Counts[Cause])
          << Tag << " unit " << Name << " cause " << Cause;
  for (const auto &[Name, Stalls] : A.Stats.ReaderStalls)
    for (int Cause = 0; Cause != NumStallCauses; ++Cause)
      EXPECT_EQ(B.Stats.ReaderStalls.at(Name).Counts[Cause],
                Stalls.Counts[Cause])
          << Tag << " reader " << Name;
  for (const auto &[Name, Stalls] : A.Stats.WriterStalls)
    for (int Cause = 0; Cause != NumStallCauses; ++Cause)
      EXPECT_EQ(B.Stats.WriterStalls.at(Name).Counts[Cause],
                Stalls.Counts[Cause])
          << Tag << " writer " << Name;
  for (const auto &[Name, Peak] : A.Stats.ChannelPeakOccupancy)
    EXPECT_EQ(B.Stats.ChannelPeakOccupancy.at(Name), Peak)
        << Tag << " channel " << Name;
  for (const auto &[Name, High] : A.Stats.ChannelHighWater)
    EXPECT_EQ(B.Stats.ChannelHighWater.at(Name), High)
        << Tag << " channel " << Name;
  ASSERT_EQ(A.Stats.Links.size(), B.Stats.Links.size()) << Tag;
  for (const auto &[Name, Link] : A.Stats.Links) {
    const LinkStats &Other = B.Stats.Links.at(Name);
    EXPECT_EQ(Other.Transmissions, Link.Transmissions) << Tag << Name;
    EXPECT_EQ(Other.Retransmissions, Link.Retransmissions) << Tag << Name;
    EXPECT_EQ(Other.CorruptedVectors, Link.CorruptedVectors) << Tag << Name;
  }
}

/// Builds a multi-device partition by budgeting \p SplitAt nodes per
/// device (7 DSPs per scalar node), as in tests/fault_test.cpp.
Partition makeSplitPartition(const CompiledProgram &Compiled,
                             const DataflowAnalysis &Dataflow, int SplitAt) {
  PartitionOptions Options;
  Options.TargetUtilization = 1.0;
  Options.Device.DSPs = 7 * Compiled.vectorWidth() * SplitAt;
  Options.MaxDevices = 64;
  auto Result = partitionProgram(Compiled, Dataflow, Options);
  EXPECT_TRUE(Result) << Result.message();
  return Result.takeValue();
}

/// The kill/resume parity harness. Runs \p Program three ways under
/// \p Base: uninterrupted, checkpointing (which must not perturb the
/// simulation at all), and resumed from the first/middle/last snapshot on
/// a fresh machine — every resumed run must be bit- and cycle-exact with
/// the uninterrupted one. Resuming from snapshot K is exactly what a
/// process killed right after snapshot K does on restart, so this covers
/// the kill at every sampled point of the run.
void expectKillResumeParity(StencilProgram Program, SimConfig Base,
                            bool MultiDevice, const std::string &Tag) {
  auto Compiled = CompiledProgram::compile(std::move(Program));
  ASSERT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow) << Dataflow.message();
  Partition Placement;
  if (MultiDevice) {
    Placement = makeSplitPartition(*Compiled, *Dataflow, 3);
    ASSERT_GE(Placement.numDevices(), 2u) << Tag;
  }
  const Partition *Where = MultiDevice ? &Placement : nullptr;
  auto Inputs = materializeInputs(Compiled->program());

  auto M0 = Machine::build(*Compiled, *Dataflow, Where, Base);
  ASSERT_TRUE(M0) << M0.message();
  auto Uninterrupted = M0->run(Inputs);
  ASSERT_TRUE(Uninterrupted) << Tag << ": " << Uninterrupted.message();
  EXPECT_EQ(Uninterrupted->Stats.ResumedFromCycle, -1) << Tag;

  SimConfig Ck = Base;
  Ck.CheckpointDir = freshDir(Tag);
  Ck.CheckpointEveryCycles =
      std::max<int64_t>(1, Uninterrupted->Stats.Cycles / 5);
  Ck.CheckpointKeep = 1000; // Keep every snapshot for the sweep below.
  auto M1 = Machine::build(*Compiled, *Dataflow, Where, Ck);
  ASSERT_TRUE(M1) << M1.message();
  auto Checkpointed = M1->run(Inputs);
  ASSERT_TRUE(Checkpointed) << Tag << ": " << Checkpointed.message();
  EXPECT_GE(Checkpointed->Stats.CheckpointsWritten, 2) << Tag;
  expectSameRun(*Uninterrupted, *Checkpointed, Tag + " (checkpointing)");

  std::vector<std::string> Files = listSnapshotFiles(Ck.CheckpointDir);
  ASSERT_GE(Files.size(), 2u) << Tag;
  for (const std::string &File :
       {Files.front(), Files[Files.size() / 2], Files.back()}) {
    auto Snap = readSnapshotFile(File);
    ASSERT_TRUE(Snap) << Tag << ": " << Snap.message();
    auto M2 = Machine::build(*Compiled, *Dataflow, Where, Base);
    ASSERT_TRUE(M2) << M2.message();
    auto Resumed = M2->run(Inputs, &*Snap);
    ASSERT_TRUE(Resumed) << Tag << " resume@" << Snap->Cycle << ": "
                         << Resumed.message();
    EXPECT_EQ(Resumed->Stats.ResumedFromCycle, Snap->Cycle) << Tag;
    expectSameRun(*Uninterrupted, *Resumed,
                  Tag + formatString(" (resume@%lld)",
                                     static_cast<long long>(Snap->Cycle)));
  }
}

/// A two-event corruption plan exercising the Go-Back-N transport.
FaultPlan corruptionPlan() {
  FaultPlan Plan;
  Plan.Seed = 20260808;
  FaultEvent Corrupt;
  Corrupt.Kind = FaultKind::PayloadCorruption;
  Corrupt.StartCycle = 0;
  Corrupt.EndCycle = 50000;
  Corrupt.Probability = 0.05;
  Plan.Events.push_back(Corrupt);
  return Plan;
}

} // namespace

//===----------------------------------------------------------------------===//
// Encoding primitives
//===----------------------------------------------------------------------===//

TEST(CheckpointCodecTest, Crc32KnownVectors) {
  // The IEEE 802.3 / zlib check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Sensitivity: one flipped bit changes the sum.
  EXPECT_NE(crc32("123456789", 9), crc32("123456788", 9));
}

TEST(CheckpointCodecTest, Fnv1aIsSeededAndDeterministic) {
  EXPECT_EQ(fnv1a("abc", 3), fnv1a("abc", 3));
  EXPECT_NE(fnv1a("abc", 3), fnv1a("abd", 3));
  EXPECT_NE(fnv1a("abc", 3), fnv1a("abc", 3, /*Seed=*/99));
  EXPECT_EQ(fnv1a("", 0), 1469598103934665603ull);
}

TEST(CheckpointCodecTest, ByteRoundTrip) {
  ByteWriter W;
  W.u8(7);
  W.u32(0xDEADBEEFu);
  W.u64(1ull << 60);
  W.i64(-42);
  W.f64(3.25);
  double Span[3] = {1.0, -0.0, 2e300};
  W.f64span(Span, 3);
  W.str("channel a->b");
  W.blob({1, 2, 3});

  ByteReader R(W.bytes());
  EXPECT_EQ(R.u8(), 7);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 1ull << 60);
  EXPECT_EQ(R.i64(), -42);
  EXPECT_EQ(R.f64(), 3.25);
  std::vector<double> Back = R.f64span();
  ASSERT_EQ(Back.size(), 3u);
  EXPECT_EQ(Back[0], 1.0);
  EXPECT_TRUE(std::signbit(Back[1]));
  EXPECT_EQ(Back[2], 2e300);
  EXPECT_EQ(R.str(), "channel a->b");
  EXPECT_EQ(R.blob(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(R.exhausted());
  EXPECT_FALSE(R.failed());
}

TEST(CheckpointCodecTest, ReaderRejectsOverruns) {
  ByteWriter W;
  W.u64(1ull << 50); // A count claiming far more doubles than exist.
  ByteReader R(W.bytes());
  EXPECT_TRUE(R.f64span().empty());
  EXPECT_TRUE(R.failed());

  ByteReader Short(nullptr, 0);
  EXPECT_EQ(Short.u64(), 0u);
  EXPECT_TRUE(Short.failed());
}

TEST(CheckpointCodecTest, InputsHashCoversNamesAndData) {
  std::map<std::string, std::vector<double>> A = {{"a", {1.0, 2.0}}};
  std::map<std::string, std::vector<double>> B = {{"a", {1.0, 2.5}}};
  std::map<std::string, std::vector<double>> C = {{"b", {1.0, 2.0}}};
  EXPECT_EQ(hashInputFields(A), hashInputFields(A));
  EXPECT_NE(hashInputFields(A), hashInputFields(B));
  EXPECT_NE(hashInputFields(A), hashInputFields(C));
}

//===----------------------------------------------------------------------===//
// Snapshot file layer
//===----------------------------------------------------------------------===//

namespace {

MachineSnapshot sampleSnapshot() {
  MachineSnapshot Snap;
  Snap.Cycle = 12345;
  Snap.ExactSignature = 0x1111222233334444ull;
  Snap.TopologySignature = 0x5555666677778888ull;
  Snap.InputsHash = 0x9999aaaabbbbccccull;
  Snap.State = {0, 1, 2, 3, 4, 255, 254, 253};
  return Snap;
}

} // namespace

TEST(SnapshotFileTest, RoundTrip) {
  std::string Dir = freshDir("roundtrip");
  MachineSnapshot Snap = sampleSnapshot();
  std::string Path = Dir + "/" + snapshotFileName(Snap.Cycle);
  ASSERT_FALSE(writeSnapshotFile(Path, Snap));
  auto Back = readSnapshotFile(Path);
  ASSERT_TRUE(Back) << Back.message();
  EXPECT_EQ(Back->Cycle, Snap.Cycle);
  EXPECT_EQ(Back->ExactSignature, Snap.ExactSignature);
  EXPECT_EQ(Back->TopologySignature, Snap.TopologySignature);
  EXPECT_EQ(Back->InputsHash, Snap.InputsHash);
  EXPECT_EQ(Back->State, Snap.State);
  // No staging temp files survive a successful write.
  for (const std::string &File : listSnapshotFiles(Dir))
    EXPECT_EQ(File.find(".tmp."), std::string::npos);
}

TEST(SnapshotFileTest, NamesSortNumerically) {
  EXPECT_LT(snapshotFileName(999), snapshotFileName(1000));
  EXPECT_LT(snapshotFileName(0), snapshotFileName(1));
  EXPECT_EQ(snapshotFileName(5).find("ckpt-"), 0u);
}

TEST(SnapshotFileTest, FindLatestAndPrune) {
  std::string Dir = freshDir("retention");
  for (int64_t Cycle : {100, 200, 300, 400}) {
    MachineSnapshot Snap = sampleSnapshot();
    Snap.Cycle = Cycle;
    ASSERT_FALSE(
        writeSnapshotFile(Dir + "/" + snapshotFileName(Cycle), Snap));
  }
  auto Latest = findLatestSnapshot(Dir);
  ASSERT_TRUE(Latest) << Latest.message();
  EXPECT_NE(Latest->find(snapshotFileName(400)), std::string::npos);
  // A direct file path resolves to itself.
  auto Direct = findLatestSnapshot(*Latest);
  ASSERT_TRUE(Direct);
  EXPECT_EQ(*Direct, *Latest);
  // Retention keeps only the most recent K.
  pruneSnapshots(Dir, 2);
  std::vector<std::string> Files = listSnapshotFiles(Dir);
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_NE(Files[0].find(snapshotFileName(300)), std::string::npos);
  EXPECT_NE(Files[1].find(snapshotFileName(400)), std::string::npos);
  // An empty directory is a typed error, not a crash.
  std::string Empty = freshDir("retention_empty");
  auto None = findLatestSnapshot(Empty);
  ASSERT_FALSE(None);
  EXPECT_EQ(None.code(), ErrorCode::SnapshotInvalid);
}

TEST(SnapshotFileTest, RejectsDamagedFiles) {
  // Each damage mode must produce ErrorCode::SnapshotInvalid (exit 9) —
  // never a misparse, never a crash.
  EXPECT_EQ(exitCodeFor(ErrorCode::SnapshotInvalid), 9);
  EXPECT_EQ(exitCodeFor(ErrorCode::SnapshotIncompatible), 10);

  std::string Dir = freshDir("damage");
  std::string Path = Dir + "/" + snapshotFileName(777);
  ASSERT_FALSE(writeSnapshotFile(Path, sampleSnapshot()));
  std::vector<uint8_t> Good = slurp(Path);
  ASSERT_GT(Good.size(), 24u); // magic + version + crc + size

  // Corrupted body byte: the CRC catches it.
  std::vector<uint8_t> Corrupt = Good;
  Corrupt[Corrupt.size() - 1] ^= 0x40;
  spit(Path, Corrupt);
  auto R1 = readSnapshotFile(Path);
  ASSERT_FALSE(R1);
  EXPECT_EQ(R1.code(), ErrorCode::SnapshotInvalid);

  // Truncated file.
  std::vector<uint8_t> Truncated(Good.begin(),
                                 Good.begin() + Good.size() / 2);
  spit(Path, Truncated);
  auto R2 = readSnapshotFile(Path);
  ASSERT_FALSE(R2);
  EXPECT_EQ(R2.code(), ErrorCode::SnapshotInvalid);

  // Bad magic.
  std::vector<uint8_t> BadMagic = Good;
  BadMagic[0] = 'X';
  spit(Path, BadMagic);
  auto R3 = readSnapshotFile(Path);
  ASSERT_FALSE(R3);
  EXPECT_EQ(R3.code(), ErrorCode::SnapshotInvalid);

  // Version skew: the version word sits outside the CRC so a future
  // format bump is reported as such, not as corruption.
  std::vector<uint8_t> Skewed = Good;
  Skewed[8] = static_cast<uint8_t>(SnapshotFormatVersion + 1);
  spit(Path, Skewed);
  auto R4 = readSnapshotFile(Path);
  ASSERT_FALSE(R4);
  EXPECT_EQ(R4.code(), ErrorCode::SnapshotInvalid);
  EXPECT_NE(R4.message().find("version"), std::string::npos)
      << R4.message();

  // A version-1 file (which still carried the retired engine counters) is
  // skew as well.
  std::vector<uint8_t> Stale = Good;
  Stale[8] = 1;
  spit(Path, Stale);
  auto R6 = readSnapshotFile(Path);
  ASSERT_FALSE(R6);
  EXPECT_EQ(R6.code(), ErrorCode::SnapshotInvalid);
  EXPECT_NE(R6.message().find("format version skew (file v1, reader v2)"),
            std::string::npos)
      << R6.message();

  // A missing file.
  auto R5 = readSnapshotFile(Dir + "/no-such-file.sfck");
  ASSERT_FALSE(R5);
  EXPECT_EQ(R5.code(), ErrorCode::SnapshotInvalid);
}

//===----------------------------------------------------------------------===//
// Kill/resume parity
//===----------------------------------------------------------------------===//

TEST(CheckpointParityTest, SerialSingleDevice) {
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  expectKillResumeParity(laplace2d(16, 16), Config, /*MultiDevice=*/false,
                         "serial_laplace");
}

TEST(CheckpointParityTest, SerialConstrainedMemory) {
  // Carry-over memory/writer budgets are state; a resume that zeroed
  // them would shift every subsequent grant by a cycle.
  SimConfig Config;
  expectKillResumeParity(laplace2d(16, 16), Config, /*MultiDevice=*/false,
                         "serial_constrained");
}

TEST(CheckpointParityTest, SerialMultiDevice) {
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  expectKillResumeParity(jacobi3dChain(6, 4, 6, 6), Config,
                         /*MultiDevice=*/true, "serial_chain");
}

TEST(CheckpointParityTest, SerialMultiDeviceWithFaults) {
  // The hardest state: Go-Back-N windows, in-flight wire vectors,
  // retransmit backoff, and the corruption-PRNG nonces all must survive
  // the snapshot for the resumed run to replay the same fault history.
  FaultPlan Plan = corruptionPlan();
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.Faults = &Plan;
  expectKillResumeParity(jacobi3dChain(6, 4, 6, 6), Config,
                         /*MultiDevice=*/true, "serial_faults");
}

TEST(CheckpointParityTest, ScalarKernelTier) {
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.KernelExec = compute::KernelEngine::Scalar;
  expectKillResumeParity(laplace2d(12, 16, 4), Config,
                         /*MultiDevice=*/false, "scalar_tier");
}

TEST(CheckpointParityTest, AutoKernelTier) {
  // The default tier picks chain or tape per unit; carry a machine that
  // runs both across the snapshot boundary.
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  expectKillResumeParity(mixedTierProgram(12, 16, 4), Config,
                         /*MultiDevice=*/false, "mixed_tiers");
}

TEST(CheckpointParityTest, WallClockCadenceSnapshots) {
  // The wall-clock cadence alone (no cycle cadence) must also produce
  // resumable snapshots; with a zero-ish period every eligible boundary
  // snapshots.
  auto Compiled = CompiledProgram::compile(laplace2d(16, 16));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  ASSERT_TRUE(Dataflow);
  auto Inputs = materializeInputs(Compiled->program());

  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M0 = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M0);
  auto Baseline = M0->run(Inputs);
  ASSERT_TRUE(Baseline) << Baseline.message();

  SimConfig Ck = Config;
  Ck.CheckpointDir = freshDir("wallclock");
  Ck.CheckpointEverySeconds = 1e-9;
  auto M1 = Machine::build(*Compiled, *Dataflow, nullptr, Ck);
  ASSERT_TRUE(M1);
  auto Run = M1->run(Inputs);
  ASSERT_TRUE(Run) << Run.message();
  EXPECT_GE(Run->Stats.CheckpointsWritten, 1);
  // Default retention bounds the directory.
  EXPECT_LE(listSnapshotFiles(Ck.CheckpointDir).size(),
            static_cast<size_t>(Ck.CheckpointKeep));

  auto Latest = findLatestSnapshot(Ck.CheckpointDir);
  ASSERT_TRUE(Latest) << Latest.message();
  auto Snap = readSnapshotFile(*Latest);
  ASSERT_TRUE(Snap) << Snap.message();
  auto M2 = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M2);
  auto Resumed = M2->run(Inputs, &*Snap);
  ASSERT_TRUE(Resumed) << Resumed.message();
  expectSameRun(*Baseline, *Resumed, "wallclock resume");
}

//===----------------------------------------------------------------------===//
// Restore-time compatibility checks
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Program once with checkpointing and returns the last snapshot.
MachineSnapshot snapshotOf(StencilProgram Program, const std::string &Tag,
                           SimConfig Config = SimConfig{}) {
  auto Compiled = CompiledProgram::compile(std::move(Program));
  EXPECT_TRUE(Compiled) << Compiled.message();
  auto Dataflow = analyzeDataflow(*Compiled);
  EXPECT_TRUE(Dataflow) << Dataflow.message();
  Config.UnconstrainedMemory = true;
  Config.CheckpointDir = freshDir(Tag);
  Config.CheckpointEveryCycles = 64;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  EXPECT_TRUE(M) << M.message();
  auto Result = M->run(materializeInputs(Compiled->program()));
  EXPECT_TRUE(Result) << Result.message();
  EXPECT_GE(Result->Stats.CheckpointsWritten, 1);
  auto Latest = findLatestSnapshot(Config.CheckpointDir);
  EXPECT_TRUE(Latest) << Latest.message();
  auto Snap = readSnapshotFile(*Latest);
  EXPECT_TRUE(Snap) << Snap.message();
  return Snap.takeValue();
}

} // namespace

TEST(CheckpointRestoreTest, RejectsWrongProgram) {
  MachineSnapshot Snap = snapshotOf(laplace2d(16, 16), "wrong_program");
  StencilProgram Other = diamondProgram(10, 10);
  auto Compiled = CompiledProgram::compile(std::move(Other));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Result = M->run(materializeInputs(Compiled->program()), &Snap);
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::SnapshotIncompatible);
}

TEST(CheckpointRestoreTest, RejectsWrongInputs) {
  MachineSnapshot Snap = snapshotOf(laplace2d(16, 16), "wrong_inputs");
  auto Compiled = CompiledProgram::compile(laplace2d(16, 16));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Inputs = materializeInputs(Compiled->program());
  Inputs.begin()->second[0] += 1.0; // Not the inputs that were snapshotted.
  auto Result = M->run(Inputs, &Snap);
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::SnapshotIncompatible);
}

TEST(CheckpointRestoreTest, ConfigChangeFallsBackToRehydrate) {
  // Channel sizing changes the simulated trajectory, so the exact
  // signature includes it; a machine with different sizing cannot take
  // the verbatim restore. The topology still matches, so the restore
  // degrades to the rehydrate path: the run resumes, and the output
  // *values* — which are data-flow deterministic regardless of timing —
  // still come out right.
  MachineSnapshot Snap = snapshotOf(laplace2d(16, 16), "wrong_config");
  auto Compiled = CompiledProgram::compile(laplace2d(16, 16));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  SimConfig Config;
  Config.UnconstrainedMemory = true;
  Config.MinChannelDepth = 16; // Default is 8.
  auto M = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(M);
  auto Inputs = materializeInputs(Compiled->program());
  auto Resumed = M->run(Inputs, &Snap);
  ASSERT_TRUE(Resumed) << Resumed.message();
  EXPECT_EQ(Resumed->Stats.ResumedFromCycle, Snap.Cycle);

  auto MRef = Machine::build(*Compiled, *Dataflow, nullptr, Config);
  ASSERT_TRUE(MRef);
  auto Fresh = MRef->run(Inputs);
  ASSERT_TRUE(Fresh) << Fresh.message();
  for (const auto &[Name, Values] : Fresh->Outputs) {
    const auto &Other = Resumed->Outputs.at(Name);
    ASSERT_EQ(Other.size(), Values.size());
    for (size_t I = 0; I != Values.size(); ++I)
      ASSERT_EQ(Other[I], Values[I]) << Name << "[" << I << "]";
  }
}

TEST(CheckpointRestoreTest, EngineAndTierAreResumeInvariant) {
  // The exact signature deliberately EXCLUDES the kernel tier: a
  // snapshot from a Specialized run resumes on
  // a machine with a different tier, reports the reassignment, and still
  // reproduces the uninterrupted outputs bit-exactly.
  auto Compiled = CompiledProgram::compile(laplace2d(16, 16));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  auto Inputs = materializeInputs(Compiled->program());

  SimConfig Spec;
  Spec.UnconstrainedMemory = true;
  Spec.KernelExec = compute::KernelEngine::Specialized;
  auto M0 = Machine::build(*Compiled, *Dataflow, nullptr, Spec);
  ASSERT_TRUE(M0);
  auto Baseline = M0->run(Inputs);
  ASSERT_TRUE(Baseline) << Baseline.message();

  SimConfig Ck = Spec;
  Ck.CheckpointDir = freshDir("tier_reassign");
  Ck.CheckpointEveryCycles =
      std::max<int64_t>(1, Baseline->Stats.Cycles / 3);
  Ck.CheckpointKeep = 1000;
  auto M1 = Machine::build(*Compiled, *Dataflow, nullptr, Ck);
  ASSERT_TRUE(M1);
  auto Run = M1->run(Inputs);
  ASSERT_TRUE(Run) << Run.message();

  std::vector<std::string> Files = listSnapshotFiles(Ck.CheckpointDir);
  ASSERT_FALSE(Files.empty());
  auto Snap = readSnapshotFile(Files[Files.size() / 2]);
  ASSERT_TRUE(Snap) << Snap.message();

  SimConfig Scalar = Spec;
  Scalar.KernelExec = compute::KernelEngine::Scalar;
  auto M2 = Machine::build(*Compiled, *Dataflow, nullptr, Scalar);
  ASSERT_TRUE(M2);
  auto Resumed = M2->run(Inputs, &*Snap);
  ASSERT_TRUE(Resumed) << Resumed.message();
  EXPECT_GT(Resumed->Stats.TierReassignedUnits, 0);
  expectSameRun(*Baseline, *Resumed, "tier reassignment");
}

//===----------------------------------------------------------------------===//
// Device-loss recovery through the pipeline
//===----------------------------------------------------------------------===//

TEST(CheckpointRecoveryTest, DeviceLossResumesFromSnapshot) {
  // The incremental-recovery path: a two-device deployment checkpoints,
  // loses device 1 mid-run, re-partitions across the survivors, and
  // rehydrates the last snapshot onto the new placement instead of
  // restarting from cycle zero. The final outputs still validate against
  // the reference executor.
  FaultPlan Plan;
  FaultEvent Death;
  Death.Kind = FaultKind::DeviceFailure;
  Death.Device = 1;
  Death.StartCycle = 150;
  Plan.Events.push_back(Death);

  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  Options.Simulator.Faults = &Plan;
  Options.Simulator.CheckpointDir = freshDir("device_loss");
  Options.Simulator.CheckpointEveryCycles = 25;
  Options.Simulator.CheckpointKeep = 2;
  Options.Partitioning.TargetUtilization = 1.0;
  Options.Partitioning.Device.DSPs = 7 * 3;
  Options.Partitioning.MaxDevices = 64;

  auto Result = runPipeline(jacobi3dChain(6, 4, 6, 6), Options);
  ASSERT_TRUE(Result) << Result.message();
  EXPECT_EQ(Result->Recovery.Attempts, 2);
  EXPECT_EQ(Result->Recovery.DevicesLost, 1);
  EXPECT_GT(Result->Recovery.CyclesSavedByCheckpoint, 0);
  EXPECT_TRUE(Result->ValidationPassed);
  bool SawRehydrate = false;
  for (const std::string &Line : Result->Recovery.Log)
    SawRehydrate |= Line.find("rehydrating") != std::string::npos;
  EXPECT_TRUE(SawRehydrate);
  // Bounded retention held even across the crash/retry sequence.
  EXPECT_LE(
      listSnapshotFiles(Options.Simulator.CheckpointDir).size(),
      static_cast<size_t>(Options.Simulator.CheckpointKeep));
}

TEST(CheckpointRecoveryTest, ExplicitResumeErrorsAreHard) {
  // --resume pointing at nothing usable must fail the pipeline with the
  // typed snapshot error, not silently start from zero.
  PipelineOptions Options;
  Options.Simulator.UnconstrainedMemory = true;
  Options.ResumeFrom = freshDir("resume_empty");
  auto Result = runPipeline(laplace2d(12, 12), Options);
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.code(), ErrorCode::SnapshotInvalid);
}
