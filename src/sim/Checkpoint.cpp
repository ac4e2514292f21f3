//===- sim/Checkpoint.cpp - Crash-safe machine snapshots ----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Three layers live here:
//
//  1. Primitives: CRC-32, FNV-1a, the input-data hash.
//  2. The file format: magic | version | crc | body-size | body, written
//     crash-consistently (temp file + fsync + atomic rename) with bounded
//     retention, read back with typed SnapshotInvalid errors.
//  3. The Machine side: signatures, captureSnapshot, the exact and
//     rehydrate restore paths, and the checkpoint cadence the run loops
//     call into.
//
//===----------------------------------------------------------------------===//

#include "sim/Checkpoint.h"

#include "sim/Machine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <limits>
#include <csignal>
#include <cstdio>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace stencilflow;
using namespace stencilflow::sim;

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

uint32_t sim::crc32(const void *Data, size_t Size) {
  static uint32_t Table[256];
  static bool TableReady = [] {
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      Table[I] = C;
    }
    return true;
  }();
  (void)TableReady;
  uint32_t Crc = 0xFFFFFFFFu;
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I)
    Crc = Table[(Crc ^ Bytes[I]) & 0xFFu] ^ (Crc >> 8);
  return Crc ^ 0xFFFFFFFFu;
}

uint64_t sim::fnv1a(const void *Data, size_t Size, uint64_t Seed) {
  uint64_t Hash = Seed;
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

uint64_t sim::hashInputFields(
    const std::map<std::string, std::vector<double>> &Inputs) {
  uint64_t Hash = 1469598103934665603ull;
  for (const auto &[Name, Data] : Inputs) {
    Hash = fnv1a(Name.data(), Name.size(), Hash);
    uint64_t Count = Data.size();
    Hash = fnv1a(&Count, sizeof(Count), Hash);
    Hash = fnv1a(Data.data(), Data.size() * sizeof(double), Hash);
  }
  return Hash;
}

//===----------------------------------------------------------------------===//
// File format
//===----------------------------------------------------------------------===//

namespace {

/// 8-byte magic at offset 0. The trailing byte is a format generation
/// marker independent of SnapshotFormatVersion, so a future incompatible
/// *container* change (not just a payload layout change) is also caught.
constexpr char SnapshotMagic[8] = {'S', 'F', 'C', 'K', 'P', 'T', '0', '\n'};
constexpr size_t HeaderBytes = 8 + 4 + 4 + 8; // magic, version, crc, size.

Error invalidSnapshot(const std::string &Path, const std::string &What) {
  return makeError(ErrorCode::SnapshotInvalid,
                   "snapshot '" + Path + "': " + What);
}

} // namespace

std::string sim::snapshotFileName(int64_t Cycle) {
  return formatString("ckpt-%020lld.sfck", static_cast<long long>(Cycle));
}

Error sim::writeSnapshotFile(const std::string &Path,
                             const MachineSnapshot &Snapshot) {
  ByteWriter Body;
  Body.i64(Snapshot.Cycle);
  Body.u64(Snapshot.ExactSignature);
  Body.u64(Snapshot.TopologySignature);
  Body.u64(Snapshot.InputsHash);
  Body.blob(Snapshot.State);

  ByteWriter File;
  for (char C : SnapshotMagic)
    File.u8(static_cast<uint8_t>(C));
  File.u32(SnapshotFormatVersion);
  File.u32(crc32(Body.bytes().data(), Body.bytes().size()));
  File.u64(Body.bytes().size());
  const std::vector<uint8_t> &Bytes = Body.bytes();

  // Crash consistency: write the full image to a temp file in the same
  // directory, fsync it, then atomically rename over the final path. A
  // crash at any instant leaves either no file, the previous snapshot, or
  // the complete new one — never a torn image. The directory fsync makes
  // the rename itself durable; failures there are ignored (the data is
  // already safe, only the name could be lost).
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  std::string Temp =
      Path + formatString(".tmp.%ld", static_cast<long>(::getpid()));
  int Fd = ::open(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return makeError("cannot create snapshot temp file '" + Temp +
                     "': " + std::strerror(errno));
  auto WriteAll = [&](const uint8_t *Data, size_t Size) {
    size_t Done = 0;
    while (Done != Size) {
      ssize_t N = ::write(Fd, Data + Done, Size - Done);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Done += static_cast<size_t>(N);
    }
    return true;
  };
  bool Ok = WriteAll(File.bytes().data(), File.bytes().size()) &&
            WriteAll(Bytes.data(), Bytes.size());
  if (Ok && ::fsync(Fd) != 0)
    Ok = false;
  int SavedErrno = errno;
  ::close(Fd);
  if (!Ok) {
    ::unlink(Temp.c_str());
    return makeError("cannot write snapshot '" + Path +
                     "': " + std::strerror(SavedErrno));
  }
  if (::rename(Temp.c_str(), Path.c_str()) != 0) {
    SavedErrno = errno;
    ::unlink(Temp.c_str());
    return makeError("cannot publish snapshot '" + Path +
                     "': " + std::strerror(SavedErrno));
  }
  if (int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY); DirFd >= 0) {
    ::fsync(DirFd); // Best-effort durability of the rename.
    ::close(DirFd);
  }
  return Error::success();
}

Expected<MachineSnapshot> sim::readSnapshotFile(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return invalidSnapshot(Path, std::strerror(errno));
  std::vector<uint8_t> Bytes;
  uint8_t Buffer[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Buffer, sizeof(Buffer));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      int SavedErrno = errno;
      ::close(Fd);
      return invalidSnapshot(Path, std::strerror(SavedErrno));
    }
    if (N == 0)
      break;
    Bytes.insert(Bytes.end(), Buffer, Buffer + N);
  }
  ::close(Fd);

  if (Bytes.size() < HeaderBytes)
    return invalidSnapshot(Path, "truncated header");
  if (std::memcmp(Bytes.data(), SnapshotMagic, sizeof(SnapshotMagic)) != 0)
    return invalidSnapshot(Path, "bad magic (not a snapshot file)");
  ByteReader Header(Bytes.data() + sizeof(SnapshotMagic),
                    HeaderBytes - sizeof(SnapshotMagic));
  uint32_t Version = Header.u32();
  uint32_t Crc = Header.u32();
  uint64_t BodySize = Header.u64();
  if (Version != SnapshotFormatVersion)
    return invalidSnapshot(
        Path, formatString("format version skew (file v%u, reader v%u)",
                           Version, SnapshotFormatVersion));
  if (Bytes.size() - HeaderBytes != BodySize)
    return invalidSnapshot(
        Path, formatString("truncated body (%zu bytes, header says %llu)",
                           Bytes.size() - HeaderBytes,
                           static_cast<unsigned long long>(BodySize)));
  if (crc32(Bytes.data() + HeaderBytes, static_cast<size_t>(BodySize)) != Crc)
    return invalidSnapshot(Path, "CRC mismatch (corrupted snapshot)");

  ByteReader Body(Bytes.data() + HeaderBytes, static_cast<size_t>(BodySize));
  MachineSnapshot Snap;
  Snap.Cycle = Body.i64();
  Snap.ExactSignature = Body.u64();
  Snap.TopologySignature = Body.u64();
  Snap.InputsHash = Body.u64();
  Snap.State = Body.blob();
  if (Body.failed() || !Body.exhausted())
    return invalidSnapshot(Path, "malformed snapshot body");
  if (Snap.Cycle < 0)
    return invalidSnapshot(Path, "negative snapshot cycle");
  return Snap;
}

namespace {

/// Snapshot file names in \p Dir, lexically sorted — zero-padded cycles
/// make lexical and numeric order agree.
std::vector<std::string> listSnapshots(const std::string &Dir) {
  std::vector<std::string> Names;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Names;
  while (struct dirent *Entry = ::readdir(D)) {
    std::string_view Name = Entry->d_name;
    if (Name.size() > 10 && Name.substr(0, 5) == "ckpt-" &&
        Name.substr(Name.size() - 5) == ".sfck")
      Names.emplace_back(Name);
  }
  ::closedir(D);
  std::sort(Names.begin(), Names.end());
  return Names;
}

} // namespace

Expected<std::string> sim::findLatestSnapshot(const std::string &PathOrDir) {
  struct stat St;
  if (::stat(PathOrDir.c_str(), &St) != 0)
    return makeError(ErrorCode::SnapshotInvalid,
                     "no snapshot at '" + PathOrDir +
                         "': " + std::strerror(errno));
  if (S_ISREG(St.st_mode))
    return PathOrDir;
  std::vector<std::string> Names = listSnapshots(PathOrDir);
  if (Names.empty())
    return makeError(ErrorCode::SnapshotInvalid,
                     "no snapshot files (ckpt-*.sfck) in '" + PathOrDir +
                         "'");
  return PathOrDir + "/" + Names.back();
}

void sim::pruneSnapshots(const std::string &Dir, int Keep) {
  std::vector<std::string> Names = listSnapshots(Dir);
  if (Keep < 1)
    Keep = 1;
  for (size_t I = 0; I + static_cast<size_t>(Keep) < Names.size(); ++I)
    ::unlink((Dir + "/" + Names[I]).c_str());
}

//===----------------------------------------------------------------------===//
// Signatures
//===----------------------------------------------------------------------===//

uint64_t Machine::machineSignature(bool IncludePlacement) const {
  // Serialize every structural fact into one byte stream and hash it;
  // ByteWriter keeps the encoding canonical (no struct padding).
  ByteWriter W;
  W.u32(SnapshotFormatVersion);
  W.u8(IncludePlacement ? 1 : 0);
  W.i64(Lanes);
  W.u64(ElementBytes);
  W.i64(StreamVectors);
  W.i64(ExpectedCycles);
  W.u64(SpaceExtents.size());
  for (int64_t Extent : SpaceExtents)
    W.i64(Extent);

  W.u64(Channels.size());
  for (size_t Index = 0; Index != Channels.size(); ++Index) {
    W.str(Channels[Index]->name());
    if (IncludePlacement) {
      W.i64(Channels[Index]->capacity());
      W.i64(Channels[Index]->arrivalLatency());
      W.i64(RemoteLinks[Index].FirstHop);
      W.i64(RemoteLinks[Index].LastHop);
      W.i64(ReliableOf[Index]);
    }
  }

  W.u64(Units.size());
  for (const Unit &U : Units) {
    W.str(U.Name);
    W.i64(U.InitSteps);
    W.i64(U.CircuitLatency);
    W.u64(U.Kernel->instructions().size());
    if (IncludePlacement)
      W.i64(U.Device);
    W.u64(U.Streams.size());
    for (const FieldStream &Stream : U.Streams) {
      W.str(Stream.Field);
      W.u64(Stream.ChannelIndex);
      W.i64(Stream.RingElements);
      W.i64(Stream.DelaySteps);
    }
    W.u64(U.OutChannels.size());
    for (size_t ChannelIndex : U.OutChannels)
      W.u64(ChannelIndex);
  }

  W.u64(Writers.size());
  for (const Writer &Wr : Writers) {
    W.str(Wr.Field);
    W.u64(Wr.ChannelIndex);
    W.i64(Wr.TotalVectors);
    W.u8(Wr.Shrink ? 1 : 0);
    if (IncludePlacement)
      W.i64(Wr.Device);
  }

  if (IncludePlacement) {
    W.i64(NumDevices);
    W.u64(Readers.size());
    for (const Reader &R : Readers) {
      W.str(R.Field);
      W.i64(R.Device);
      W.i64(R.TotalVectors);
      W.u64(R.OutChannels.size());
      for (size_t ChannelIndex : R.OutChannels)
        W.u64(ChannelIndex);
    }

    // Every config knob the state trajectory depends on. The kernel tier
    // is deliberately absent — all tiers are bit-exact with each other,
    // so a snapshot resumes exactly under any tier. The cycle limits are
    // absent so a run aborted by a tight limit can resume under a normal
    // one (the kill/resume tests rely on this).
    W.u8(Config.UnconstrainedMemory ? 1 : 0);
    W.f64(Config.PeakMemoryBytesPerCycle);
    W.f64(Config.TransactionOverheadBytes);
    W.f64(Config.ArbitrationPenaltyBytesPerEndpoint);
    W.f64(Config.LinkBytesPerCycle);
    W.i64(Config.LinksPerHop);
    W.i64(Config.NetworkLatencyCyclesPerHop);
    W.i64(Config.NetworkExtraChannelDepth);
    W.i64(Config.MinChannelDepth);
    W.u8(Config.ClampChannelsToMinimum ? 1 : 0);
    W.u8(Config.ReliableStreams ? 1 : 0);
    W.i64(Config.StallTimeoutCycles);
    W.i64(Config.MaxRetransmitAttempts);
    W.i64(Config.RetransmitBackoffCycles);
    W.i64(Config.SendWindowVectors);

    // The fault plan: the corruption PRNG and the event schedule shape
    // the trajectory, so a snapshot only restores exactly under the same
    // plan (device-loss recovery runs under a *stripped* plan and takes
    // the rehydrate path by design).
    W.u8(Config.Faults ? 1 : 0);
    if (Config.Faults) {
      W.u64(Config.Faults->Seed);
      W.u64(Config.Faults->Events.size());
      for (const FaultEvent &Ev : Config.Faults->Events) {
        W.u8(static_cast<uint8_t>(Ev.Kind));
        W.i64(Ev.StartCycle);
        W.i64(Ev.EndCycle);
        W.i64(Ev.Device);
        W.i64(Ev.Hop);
        W.f64(Ev.Factor);
        W.f64(Ev.Probability);
      }
    }
  }

  return fnv1a(W.bytes().data(), W.bytes().size());
}

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

MachineSnapshot Machine::captureSnapshot(int64_t Cycle) const {
  ByteWriter W;

  // Component counts up front so a restore can verify shape before
  // touching any state.
  W.u64(Readers.size());
  W.u64(Units.size());
  W.u64(Writers.size());
  W.u64(Channels.size());
  W.u64(Reliable.size());
  W.i64(NumDevices);
  W.i64(Lanes);

  // Producer cursors per channel: how many vectors its single producer
  // has pushed (transport-accepted for reliable streams). Only the
  // rehydrate path consumes these — they become the reader-side delivery
  // cursors after a re-partitioning regroups the reader endpoints.
  std::vector<int64_t> Produced(Channels.size(), 0);
  for (const Reader &R : Readers)
    for (size_t ChannelIndex : R.OutChannels)
      Produced[ChannelIndex] = R.VectorsPushed;
  for (const Unit &U : Units)
    for (size_t ChannelIndex : U.OutChannels)
      Produced[ChannelIndex] = U.Emitted;

  for (const Reader &R : Readers) {
    W.str(R.Field);
    W.i64(R.Device);
    W.i64(R.VectorsPushed);
    for (int64_t Count : R.Stalls.Counts)
      W.i64(Count);
    W.u8(static_cast<uint8_t>(R.LastCause));
    W.i64(R.LastProgress);
  }

  for (const Unit &U : Units) {
    W.str(U.Name);
    W.u64(U.Streams.size());
    for (const FieldStream &Stream : U.Streams) {
      W.f64span(Stream.Ring.data(), Stream.Ring.size());
      W.i64(Stream.WrittenElements);
    }
    W.i64(U.Step);
    W.i64(U.Issued);
    W.i64(U.Emitted);
    W.u64(U.PipeReady.size());
    for (int64_t Ready : U.PipeReady)
      W.i64(Ready);
    W.u64(U.PipeValues.size());
    for (double Value : U.PipeValues)
      W.f64(Value);
    W.u64(U.CenterIndex.size());
    for (int64_t Component : U.CenterIndex)
      W.i64(Component);
    W.i64(U.StallCycles);
    for (int64_t Count : U.Stalls.Counts)
      W.i64(Count);
    W.u8(static_cast<uint8_t>(U.LastCause));
    W.i64(U.LastProgress);
    // The effective kernel tier, so the restore can report how many units
    // were reassigned (e.g. scalar -> specialized when the restoring
    // config asks for another tier). Informational: all tiers are
    // bit-exact.
    W.str(compute::kernelEngineName(U.Eval.tier()));
  }

  for (const Writer &Wr : Writers) {
    W.str(Wr.Field);
    W.f64span(Wr.Data.data(), Wr.Data.size());
    W.u64(Wr.Index.size());
    for (int64_t Component : Wr.Index)
      W.i64(Component);
    W.i64(Wr.VectorsWritten);
    for (int64_t Count : Wr.Stalls.Counts)
      W.i64(Count);
    W.u8(static_cast<uint8_t>(Wr.LastCause));
    W.i64(Wr.LastProgress);
  }

  for (size_t Index = 0; Index != Channels.size(); ++Index) {
    const Channel &C = *Channels[Index];
    W.str(C.name());
    W.i64(Produced[Index]);
    W.i64(C.size());
    for (int64_t I = 0; I != C.size(); ++I) {
      W.i64(C.readyCycleAt(I));
      const double *Vector = C.vectorAt(I);
      for (int Lane = 0; Lane != Lanes; ++Lane)
        W.f64(Vector[Lane]);
    }
    W.i64(C.peakOccupancy());
    W.i64(C.highWaterMark());
  }

  for (const ReliableStream &RS : Reliable) {
    W.u64(RS.ChannelIndex);
    W.u64(RS.SendBuffer.size());
    for (const std::vector<double> &Payload : RS.SendBuffer)
      for (double Value : Payload)
        W.f64(Value);
    W.i64(RS.NextSeq);
    W.i64(RS.SendBase);
    W.i64(RS.ResendNext);
    W.i64(RS.BackoffUntil);
    W.i64(RS.NackStreak);
    W.u64(RS.TransmissionNonce);
    W.u64(RS.Wire.size());
    for (const ReliableStream::InFlight &F : RS.Wire) {
      W.i64(F.Seq);
      W.i64(F.ArriveCycle);
      W.u8(F.Corrupted ? 1 : 0);
    }
    W.i64(RS.ExpectedSeq);
    W.i64(RS.AttemptsOnExpected);
    W.i64(RS.PeakOutstanding);
    W.i64(RS.Stats.Transmissions);
    W.i64(RS.Stats.Retransmissions);
    W.i64(RS.Stats.CorruptedVectors);
    W.i64(RS.Stats.Nacks);
    W.i64(RS.Stats.Delivered);
  }

  // Globals: carry-over bandwidth budgets (unused budget persists across
  // cycles, so they are state, not scratch) and the accumulated transfer
  // totals.
  W.f64(NetworkBytesMoved);
  for (int Device = 0; Device != NumDevices; ++Device) {
    W.f64(MemoryBytesMoved[static_cast<size_t>(Device)]);
    W.f64(MemoryBudget[static_cast<size_t>(Device)]);
    W.f64(WriterBudget[static_cast<size_t>(Device)]);
  }
  W.u64(HopBudget.size());
  for (double Budget : HopBudget)
    W.f64(Budget);

  MachineSnapshot Snap;
  Snap.Cycle = Cycle;
  Snap.ExactSignature = machineSignature(/*IncludePlacement=*/true);
  Snap.TopologySignature = machineSignature(/*IncludePlacement=*/false);
  Snap.InputsHash = InputsHashOfRun;
  Snap.State = W.take();
  return Snap;
}

//===----------------------------------------------------------------------===//
// Restore
//===----------------------------------------------------------------------===//

namespace {

Error incompatible(const std::string &What) {
  return makeError(ErrorCode::SnapshotIncompatible, "snapshot: " + What);
}

Error malformed() {
  return makeError(ErrorCode::SnapshotInvalid,
                   "snapshot: state payload is malformed (decoder ran past "
                   "the end or left trailing bytes)");
}

/// Decoded per-component state shared by both restore paths.
struct ReaderState {
  std::string Field;
  int64_t Device = 0;
  int64_t VectorsPushed = 0;
  StallBreakdown Stalls;
  uint8_t LastCause = 0;
  int64_t LastProgress = 0;
};

struct StreamState {
  std::vector<double> Ring;
  int64_t WrittenElements = 0;
};

struct UnitState {
  std::string Name;
  std::vector<StreamState> Streams;
  int64_t Step = 0, Issued = 0, Emitted = 0;
  std::vector<int64_t> PipeReady;
  std::vector<double> PipeValues;
  std::vector<int64_t> CenterIndex;
  int64_t StallCycles = 0;
  StallBreakdown Stalls;
  uint8_t LastCause = 0;
  int64_t LastProgress = 0;
  std::string Tier;
};

struct WriterState {
  std::string Field;
  std::vector<double> Data;
  std::vector<int64_t> Index;
  int64_t VectorsWritten = 0;
  StallBreakdown Stalls;
  uint8_t LastCause = 0;
  int64_t LastProgress = 0;
};

struct ChannelState {
  std::string Name;
  int64_t Produced = 0;
  std::vector<int64_t> ReadyCycles;
  std::vector<double> Vectors; ///< Lanes doubles per entry.
  int64_t PeakOccupancy = 0;
  int64_t HighWater = 0;
};

struct ReliableState {
  uint64_t ChannelIndex = 0;
  std::vector<std::vector<double>> SendBuffer;
  int64_t NextSeq = 0, SendBase = 0, ResendNext = -1, BackoffUntil = 0;
  int64_t NackStreak = 0;
  uint64_t TransmissionNonce = 0;
  struct WireEntry {
    int64_t Seq, ArriveCycle;
    uint8_t Corrupted;
  };
  std::vector<WireEntry> Wire;
  int64_t ExpectedSeq = 0, AttemptsOnExpected = 0, PeakOutstanding = 0;
  LinkStats Stats;
};

struct DecodedState {
  uint64_t NumReaders = 0, NumUnits = 0, NumWriters = 0, NumChannels = 0,
           NumReliable = 0;
  int64_t NumDevices = 0, Lanes = 0;
  std::vector<ReaderState> Readers;
  std::vector<UnitState> Units;
  std::vector<WriterState> Writers;
  std::vector<ChannelState> Channels;
  std::vector<ReliableState> Reliable;
  double NetworkBytesMoved = 0.0;
  std::vector<double> MemoryBytesMoved, MemoryBudget, WriterBudget,
      HopBudget;
};

/// Decodes the full state payload. Count fields are sanity-bounded before
/// any allocation so a corrupted-but-CRC-colliding payload cannot OOM the
/// process; the CRC makes this path unreachable in practice.
bool decodeState(const std::vector<uint8_t> &State, DecodedState &D) {
  ByteReader R(State);
  constexpr uint64_t SaneCount = 1ull << 32;

  D.NumReaders = R.u64();
  D.NumUnits = R.u64();
  D.NumWriters = R.u64();
  D.NumChannels = R.u64();
  D.NumReliable = R.u64();
  D.NumDevices = R.i64();
  D.Lanes = R.i64();
  if (R.failed() || D.NumReaders > SaneCount || D.NumUnits > SaneCount ||
      D.NumWriters > SaneCount || D.NumChannels > SaneCount ||
      D.NumReliable > SaneCount || D.NumDevices < 1 || D.Lanes < 1)
    return false;

  auto ReadCounts = [&](StallBreakdown &Stalls) {
    for (int Cause = 0; Cause != NumStallCauses; ++Cause)
      Stalls.Counts[Cause] = R.i64();
  };

  D.Readers.resize(static_cast<size_t>(D.NumReaders));
  for (ReaderState &RS : D.Readers) {
    RS.Field = R.str();
    RS.Device = R.i64();
    RS.VectorsPushed = R.i64();
    ReadCounts(RS.Stalls);
    RS.LastCause = R.u8();
    RS.LastProgress = R.i64();
  }

  D.Units.resize(static_cast<size_t>(D.NumUnits));
  for (UnitState &U : D.Units) {
    U.Name = R.str();
    uint64_t NumStreams = R.u64();
    if (R.failed() || NumStreams > SaneCount)
      return false;
    U.Streams.resize(static_cast<size_t>(NumStreams));
    for (StreamState &Stream : U.Streams) {
      Stream.Ring = R.f64span();
      Stream.WrittenElements = R.i64();
    }
    U.Step = R.i64();
    U.Issued = R.i64();
    U.Emitted = R.i64();
    uint64_t PipeLen = R.u64();
    if (R.failed() || PipeLen > SaneCount)
      return false;
    U.PipeReady.resize(static_cast<size_t>(PipeLen));
    for (int64_t &Ready : U.PipeReady)
      Ready = R.i64();
    uint64_t ValueLen = R.u64();
    if (R.failed() || ValueLen > SaneCount)
      return false;
    U.PipeValues.resize(static_cast<size_t>(ValueLen));
    for (double &Value : U.PipeValues)
      Value = R.f64();
    uint64_t Dims = R.u64();
    if (R.failed() || Dims > SaneCount)
      return false;
    U.CenterIndex.resize(static_cast<size_t>(Dims));
    for (int64_t &Component : U.CenterIndex)
      Component = R.i64();
    U.StallCycles = R.i64();
    ReadCounts(U.Stalls);
    U.LastCause = R.u8();
    U.LastProgress = R.i64();
    U.Tier = R.str();
  }

  D.Writers.resize(static_cast<size_t>(D.NumWriters));
  for (WriterState &Wr : D.Writers) {
    Wr.Field = R.str();
    Wr.Data = R.f64span();
    uint64_t Dims = R.u64();
    if (R.failed() || Dims > SaneCount)
      return false;
    Wr.Index.resize(static_cast<size_t>(Dims));
    for (int64_t &Component : Wr.Index)
      Component = R.i64();
    Wr.VectorsWritten = R.i64();
    ReadCounts(Wr.Stalls);
    Wr.LastCause = R.u8();
    Wr.LastProgress = R.i64();
  }

  D.Channels.resize(static_cast<size_t>(D.NumChannels));
  for (ChannelState &C : D.Channels) {
    C.Name = R.str();
    C.Produced = R.i64();
    int64_t Count = R.i64();
    if (R.failed() || Count < 0 ||
        static_cast<uint64_t>(Count) > SaneCount)
      return false;
    C.ReadyCycles.resize(static_cast<size_t>(Count));
    C.Vectors.resize(static_cast<size_t>(Count) *
                     static_cast<size_t>(D.Lanes));
    for (int64_t I = 0; I != Count; ++I) {
      C.ReadyCycles[static_cast<size_t>(I)] = R.i64();
      for (int64_t Lane = 0; Lane != D.Lanes; ++Lane)
        C.Vectors[static_cast<size_t>(I * D.Lanes + Lane)] = R.f64();
    }
    C.PeakOccupancy = R.i64();
    C.HighWater = R.i64();
  }

  D.Reliable.resize(static_cast<size_t>(D.NumReliable));
  for (ReliableState &RS : D.Reliable) {
    RS.ChannelIndex = R.u64();
    uint64_t BufLen = R.u64();
    if (R.failed() || BufLen > SaneCount)
      return false;
    RS.SendBuffer.resize(static_cast<size_t>(BufLen));
    for (std::vector<double> &Payload : RS.SendBuffer) {
      Payload.resize(static_cast<size_t>(D.Lanes));
      for (double &Value : Payload)
        Value = R.f64();
    }
    RS.NextSeq = R.i64();
    RS.SendBase = R.i64();
    RS.ResendNext = R.i64();
    RS.BackoffUntil = R.i64();
    RS.NackStreak = R.i64();
    RS.TransmissionNonce = R.u64();
    uint64_t WireLen = R.u64();
    if (R.failed() || WireLen > SaneCount)
      return false;
    RS.Wire.resize(static_cast<size_t>(WireLen));
    for (ReliableState::WireEntry &F : RS.Wire) {
      F.Seq = R.i64();
      F.ArriveCycle = R.i64();
      F.Corrupted = R.u8();
    }
    RS.ExpectedSeq = R.i64();
    RS.AttemptsOnExpected = R.i64();
    RS.PeakOutstanding = R.i64();
    RS.Stats.Transmissions = R.i64();
    RS.Stats.Retransmissions = R.i64();
    RS.Stats.CorruptedVectors = R.i64();
    RS.Stats.Nacks = R.i64();
    RS.Stats.Delivered = R.i64();
  }

  D.NetworkBytesMoved = R.f64();
  D.MemoryBytesMoved.resize(static_cast<size_t>(D.NumDevices));
  D.MemoryBudget.resize(static_cast<size_t>(D.NumDevices));
  D.WriterBudget.resize(static_cast<size_t>(D.NumDevices));
  for (int64_t Device = 0; Device != D.NumDevices; ++Device) {
    D.MemoryBytesMoved[static_cast<size_t>(Device)] = R.f64();
    D.MemoryBudget[static_cast<size_t>(Device)] = R.f64();
    D.WriterBudget[static_cast<size_t>(Device)] = R.f64();
  }
  uint64_t Hops = R.u64();
  if (R.failed() || Hops > SaneCount)
    return false;
  D.HopBudget.resize(static_cast<size_t>(Hops));
  for (double &Budget : D.HopBudget)
    Budget = R.f64();

  return !R.failed() && R.exhausted();
}

} // namespace

Error Machine::restoreSnapshot(const MachineSnapshot &Snap,
                               uint64_t InputsHash) {
  if (Snap.InputsHash != InputsHash)
    return incompatible("taken against different input data (resuming "
                        "requires the original inputs)");
  Error Err;
  if (Snap.ExactSignature == machineSignature(/*IncludePlacement=*/true))
    Err = restoreExact(Snap);
  else if (Snap.TopologySignature ==
           machineSignature(/*IncludePlacement=*/false))
    Err = restoreRehydrate(Snap);
  else
    return incompatible(
        "belongs to a different program or machine (neither the exact nor "
        "the topology signature matches)");
  if (Err)
    return Err;
  ResumeCycle = Snap.Cycle;
  ResumedFromCycle = Snap.Cycle;
  return Error::success();
}

Error Machine::restoreExact(const MachineSnapshot &Snap) {
  DecodedState D;
  if (!decodeState(Snap.State, D))
    return malformed();
  // The exact signature already matched, so shape mismatches here mean an
  // undetected payload defect, not a legitimate different machine.
  if (D.Readers.size() != Readers.size() || D.Units.size() != Units.size() ||
      D.Writers.size() != Writers.size() ||
      D.Channels.size() != Channels.size() ||
      D.Reliable.size() != Reliable.size() || D.NumDevices != NumDevices ||
      D.Lanes != Lanes || D.HopBudget.size() != HopBudget.size())
    return malformed();

  for (size_t Index = 0; Index != Readers.size(); ++Index) {
    Reader &R = Readers[Index];
    const ReaderState &RS = D.Readers[Index];
    if (RS.Field != R.Field || RS.Device != R.Device)
      return malformed();
    R.VectorsPushed = RS.VectorsPushed;
    R.Stalls = RS.Stalls;
    R.LastCause = static_cast<StallCause>(RS.LastCause);
    R.LastProgress = RS.LastProgress;
  }

  for (size_t Index = 0; Index != Units.size(); ++Index) {
    Unit &U = Units[Index];
    UnitState &US = D.Units[Index];
    if (US.Name != U.Name || US.Streams.size() != U.Streams.size() ||
        US.CenterIndex.size() != U.CenterIndex.size())
      return malformed();
    for (size_t S = 0; S != U.Streams.size(); ++S) {
      if (US.Streams[S].Ring.size() != U.Streams[S].Ring.size())
        return malformed();
      U.Streams[S].Ring = std::move(US.Streams[S].Ring);
      U.Streams[S].WrittenElements = US.Streams[S].WrittenElements;
    }
    U.Step = US.Step;
    U.Issued = US.Issued;
    U.Emitted = US.Emitted;
    U.PipeReady.assign(US.PipeReady.begin(), US.PipeReady.end());
    U.PipeValues.assign(US.PipeValues.begin(), US.PipeValues.end());
    U.CenterIndex = std::move(US.CenterIndex);
    U.StallCycles = US.StallCycles;
    U.Stalls = US.Stalls;
    U.LastCause = static_cast<StallCause>(US.LastCause);
    U.LastProgress = US.LastProgress;
    if (US.Tier != compute::kernelEngineName(U.Eval.tier()))
      ++TierReassignedUnits;
  }

  for (size_t Index = 0; Index != Writers.size(); ++Index) {
    Writer &Wr = Writers[Index];
    WriterState &WS = D.Writers[Index];
    if (WS.Field != Wr.Field || WS.Data.size() != Wr.Data.size() ||
        WS.Index.size() != Wr.Index.size())
      return malformed();
    Wr.Data = std::move(WS.Data);
    Wr.Index = std::move(WS.Index);
    Wr.VectorsWritten = WS.VectorsWritten;
    Wr.Stalls = WS.Stalls;
    Wr.LastCause = static_cast<StallCause>(WS.LastCause);
    Wr.LastProgress = WS.LastProgress;
  }

  for (size_t Index = 0; Index != Channels.size(); ++Index) {
    Channel &C = *Channels[Index];
    const ChannelState &CS = D.Channels[Index];
    int64_t Count = static_cast<int64_t>(CS.ReadyCycles.size());
    if (CS.Name != C.name() || Count > C.capacity())
      return malformed();
    C.clearForRestore();
    for (int64_t I = 0; I != Count; ++I)
      C.restorePush(&CS.Vectors[static_cast<size_t>(I * Lanes)],
                    CS.ReadyCycles[static_cast<size_t>(I)]);
    C.restoreStats(CS.PeakOccupancy, CS.HighWater);
  }

  for (size_t Index = 0; Index != Reliable.size(); ++Index) {
    ReliableStream &RS = Reliable[Index];
    ReliableState &DS = D.Reliable[Index];
    if (DS.ChannelIndex != RS.ChannelIndex)
      return malformed();
    RS.SendBuffer.assign(DS.SendBuffer.begin(), DS.SendBuffer.end());
    RS.NextSeq = DS.NextSeq;
    RS.SendBase = DS.SendBase;
    RS.ResendNext = DS.ResendNext;
    RS.BackoffUntil = DS.BackoffUntil;
    RS.NackStreak = static_cast<int>(DS.NackStreak);
    RS.TransmissionNonce = DS.TransmissionNonce;
    RS.Wire.clear();
    for (const ReliableState::WireEntry &F : DS.Wire)
      RS.Wire.push_back({F.Seq, F.ArriveCycle, F.Corrupted != 0});
    RS.ExpectedSeq = DS.ExpectedSeq;
    RS.AttemptsOnExpected = static_cast<int>(DS.AttemptsOnExpected);
    RS.PeakOutstanding = DS.PeakOutstanding;
    RS.Stats = DS.Stats;
  }

  NetworkBytesMoved = D.NetworkBytesMoved;
  MemoryBytesMoved = D.MemoryBytesMoved;
  MemoryBudget = D.MemoryBudget;
  WriterBudget = D.WriterBudget;
  HopBudget = D.HopBudget;
  return Error::success();
}

Error Machine::restoreRehydrate(const MachineSnapshot &Snap) {
  DecodedState D;
  if (!decodeState(Snap.State, D))
    return malformed();
  // Topology-derived shape must match; the placement-derived shape
  // (readers, devices, reliable streams) legitimately differs.
  if (D.Units.size() != Units.size() ||
      D.Writers.size() != Writers.size() ||
      D.Channels.size() != Channels.size() || D.Lanes != Lanes)
    return malformed();

  // Units and writers transplant by index: Machine::build creates both in
  // a placement-independent order (topological for units, program output
  // order for writers), which the topology signature pins down.
  for (size_t Index = 0; Index != Units.size(); ++Index) {
    Unit &U = Units[Index];
    UnitState &US = D.Units[Index];
    if (US.Name != U.Name || US.Streams.size() != U.Streams.size() ||
        US.CenterIndex.size() != U.CenterIndex.size())
      return malformed();
    for (size_t S = 0; S != U.Streams.size(); ++S) {
      if (US.Streams[S].Ring.size() != U.Streams[S].Ring.size())
        return malformed();
      U.Streams[S].Ring = std::move(US.Streams[S].Ring);
      U.Streams[S].WrittenElements = US.Streams[S].WrittenElements;
    }
    U.Step = US.Step;
    U.Issued = US.Issued;
    U.Emitted = US.Emitted;
    U.PipeReady.assign(US.PipeReady.begin(), US.PipeReady.end());
    U.PipeValues.assign(US.PipeValues.begin(), US.PipeValues.end());
    U.CenterIndex = std::move(US.CenterIndex);
    U.StallCycles = US.StallCycles;
    U.Stalls = US.Stalls;
    U.LastCause = static_cast<StallCause>(US.LastCause);
    // Avoid spurious watchdog trips right after the placement change.
    U.LastProgress = Snap.Cycle;
    if (US.Tier != compute::kernelEngineName(U.Eval.tier()))
      ++TierReassignedUnits;
  }

  for (size_t Index = 0; Index != Writers.size(); ++Index) {
    Writer &Wr = Writers[Index];
    WriterState &WS = D.Writers[Index];
    if (WS.Field != Wr.Field || WS.Data.size() != Wr.Data.size() ||
        WS.Index.size() != Wr.Index.size())
      return malformed();
    Wr.Data = std::move(WS.Data);
    Wr.Index = std::move(WS.Index);
    Wr.VectorsWritten = WS.VectorsWritten;
    Wr.Stalls = WS.Stalls;
    Wr.LastCause = static_cast<StallCause>(WS.LastCause);
    Wr.LastProgress = Snap.Cycle;
  }

  // Channels transplant by index too (channel creation order is
  // placement-independent), but their physical parameters changed with
  // the placement: capacities may have shrunk (a formerly-remote channel
  // lost its extra network depth) and in-flight arrival stamps belong to
  // links that no longer exist. Grow undersized channels and clamp every
  // ready cycle to the resume cycle — the data already traversed the old
  // wire; replaying the tail must not pay its latency twice.
  for (size_t Index = 0; Index != Channels.size(); ++Index) {
    Channel &C = *Channels[Index];
    const ChannelState &CS = D.Channels[Index];
    if (CS.Name != C.name())
      return malformed();
    int64_t Count = static_cast<int64_t>(CS.ReadyCycles.size());
    C.clearForRestore();
    C.ensureCapacity(Count);
    for (int64_t I = 0; I != Count; ++I)
      C.restorePush(&CS.Vectors[static_cast<size_t>(I * Lanes)],
                    std::min(CS.ReadyCycles[static_cast<size_t>(I)],
                             Snap.Cycle));
    C.restoreStats(CS.PeakOccupancy, CS.HighWater);
  }

  // Old reliable streams are flattened into their delivery channels: the
  // channel already holds the delivered-not-popped window, and the send
  // buffer holds [SendBase, NextSeq) — everything accepted from the
  // producer but not yet delivered (including vectors in flight on the
  // old wire). Appending it gives the consumer the contiguous prefix the
  // producer already accounted for (Emitted == NextSeq). If the channel
  // is still remote in the new placement its fresh stream starts at
  // sequence zero on both ends, so the protocol stays consistent; the old
  // link statistics carry over for reporting continuity.
  for (ReliableState &DS : D.Reliable) {
    if (DS.ChannelIndex >= Channels.size())
      return malformed();
    Channel &C = *Channels[DS.ChannelIndex];
    C.ensureCapacity(C.size() +
                     static_cast<int64_t>(DS.SendBuffer.size()));
    for (const std::vector<double> &Payload : DS.SendBuffer)
      C.restorePush(Payload.data(), Snap.Cycle);
    int Rel = ReliableOf[DS.ChannelIndex];
    if (Rel >= 0) {
      Reliable[static_cast<size_t>(Rel)].Stats = DS.Stats;
      Reliable[static_cast<size_t>(Rel)].PeakOutstanding =
          DS.PeakOutstanding;
    }
  }

  // Reader endpoints were regrouped by the re-partitioning: one reader
  // per (new device, field), serving whatever consumer channels now live
  // there. Each channel remembers how many vectors its old producer
  // pushed; the new reader starts at the minimum over its channels and
  // skips per-channel until the cursors even out, so no vector is
  // duplicated or lost. Stall attribution aggregates per field onto the
  // field's first new reader.
  std::map<std::string, StallBreakdown> FieldStalls;
  std::map<std::string, uint8_t> FieldCause;
  for (const ReaderState &RS : D.Readers) {
    FieldStalls[RS.Field] += RS.Stalls;
    FieldCause.emplace(RS.Field, RS.LastCause);
  }
  std::map<std::string, bool> FieldClaimed;
  for (Reader &R : Readers) {
    int64_t Minimum = std::numeric_limits<int64_t>::max();
    R.ChannelBase.assign(R.OutChannels.size(), 0);
    for (size_t I = 0; I != R.OutChannels.size(); ++I) {
      R.ChannelBase[I] = D.Channels[R.OutChannels[I]].Produced;
      Minimum = std::min(Minimum, R.ChannelBase[I]);
    }
    R.VectorsPushed = R.OutChannels.empty() ? 0 : Minimum;
    if (!FieldClaimed[R.Field]) {
      FieldClaimed[R.Field] = true;
      R.Stalls = FieldStalls[R.Field];
      auto It = FieldCause.find(R.Field);
      if (It != FieldCause.end())
        R.LastCause = static_cast<StallCause>(It->second);
    }
    R.LastProgress = Snap.Cycle;
  }

  // Globals: transfer totals carry over; per-device accounting folds
  // lost devices onto device 0; carry-over budgets stay zeroed
  // (sub-transaction amounts — rehydration is not exactness-bound).
  NetworkBytesMoved = D.NetworkBytesMoved;
  for (int64_t Device = 0; Device != D.NumDevices; ++Device) {
    size_t Dest = Device < NumDevices ? static_cast<size_t>(Device) : 0;
    if (Device < NumDevices)
      MemoryBytesMoved[Dest] =
          D.MemoryBytesMoved[static_cast<size_t>(Device)];
    else
      MemoryBytesMoved[Dest] +=
          D.MemoryBytesMoved[static_cast<size_t>(Device)];
  }
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Checkpoint cadence
//===----------------------------------------------------------------------===//

void Machine::maybeCheckpoint(int64_t CompletedCycles, bool WallEligible) {
  if (Config.CheckpointDir.empty())
    return;
  if (CompletedCycles <= ResumeCycle)
    return; // Nothing beyond the restored state yet.
  bool Due = Config.CheckpointEveryCycles > 0 &&
             CompletedCycles >= NextCheckpointCycle;
  if (!Due && WallEligible && Config.CheckpointEverySeconds > 0.0) {
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - LastCheckpointWall;
    Due = Elapsed.count() >= Config.CheckpointEverySeconds;
  }
  if (Due)
    writeCheckpoint(CompletedCycles);
}

void Machine::writeCheckpoint(int64_t CompletedCycles) {
  ::mkdir(Config.CheckpointDir.c_str(), 0755); // First write; EEXIST is fine.
  MachineSnapshot Snap = captureSnapshot(CompletedCycles);
  std::string Path =
      Config.CheckpointDir + "/" + snapshotFileName(CompletedCycles);
  if (Error Err = writeSnapshotFile(Path, Snap)) {
    // A failing checkpoint sink (disk full, permissions) must not take
    // down an otherwise healthy simulation; the failure is counted and
    // the run continues with the previous snapshot as its restart point.
    ++CheckpointFailures;
  } else {
    ++CheckpointsWritten;
    pruneSnapshots(Config.CheckpointDir, Config.CheckpointKeep);
    if (Config.CheckpointCrashAfter > 0 &&
        CheckpointsWritten >= Config.CheckpointCrashAfter)
      ::raise(SIGKILL); // Crash-consistency test hook: die *after* publish.
  }
  // Both cadences restart from this attempt, successful or not (a dead
  // sink must not retry every cycle).
  if (Config.CheckpointEveryCycles > 0)
    NextCheckpointCycle = (CompletedCycles / Config.CheckpointEveryCycles + 1) *
                          Config.CheckpointEveryCycles;
  LastCheckpointWall = std::chrono::steady_clock::now();
}
