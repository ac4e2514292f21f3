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
//     crash-consistently (writeTextFileAtomic) with bounded
//     retention, read back with typed SnapshotInvalid errors.
//  3. The Machine side: signatures; the state codec, the one description
//     of the payload layout that capture and both restore paths walk;
//     the rehydrate regrouping; and the checkpoint cadence the run loops
//     call into.
//
//===----------------------------------------------------------------------===//

#include "sim/Checkpoint.h"

#include "sim/Machine.h"
#include "sim/Trace.h"
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
  // The image is built in one buffer: the header's crc and body-size
  // fields are patched in once the body behind them is complete.
  ByteWriter Image;
  for (char C : SnapshotMagic)
    Image.u8(static_cast<uint8_t>(C));
  Image.u32(SnapshotFormatVersion);
  Image.u32(0); // crc
  Image.u64(0); // body size
  Image.i64(Snapshot.Cycle);
  Image.u64(Snapshot.ExactSignature);
  Image.u64(Snapshot.TopologySignature);
  Image.u64(Snapshot.InputsHash);
  Image.blob(Snapshot.State);
  std::vector<uint8_t> Bytes = Image.take();
  uint64_t BodySize = Bytes.size() - HeaderBytes;
  uint32_t Crc = crc32(Bytes.data() + HeaderBytes, BodySize);
  std::memcpy(Bytes.data() + sizeof(SnapshotMagic) + 4, &Crc, sizeof(Crc));
  std::memcpy(Bytes.data() + sizeof(SnapshotMagic) + 8, &BodySize,
              sizeof(BodySize));
  // Crash consistency: a crash at any instant leaves either no file, the
  // previous snapshot, or the complete new one — never a torn image.
  return writeTextFileAtomic(
      Path, std::string_view(reinterpret_cast<const char *>(Bytes.data()),
                             Bytes.size()));
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
    W.i64(StreamVectors);
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
      W.i64(StreamVectors);
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
// State codec
//===----------------------------------------------------------------------===//

/// One pass over the state payload in either direction: saving appends
/// each visited field to a ByteWriter, loading overwrites it from the
/// payload. Loading never trusts the bytes. A count is bounded before
/// anything is sized from it, a field of the machine's fixed shape or
/// identity must equal the live value, and any defect fails the pass, after
/// which no container is sized from the payload.
class Machine::StateArchive {
public:
  /// Loaded counts beyond this are malformed, whatever the payload size.
  static constexpr uint64_t SaneCount = 1ull << 32;

  explicit StateArchive(ByteWriter &Out) : Out(&Out), In(nullptr, 0) {}
  explicit StateArchive(const std::vector<uint8_t> &State) : In(State) {}

  bool loading() const { return Out == nullptr; }
  bool ok() const { return !Bad && !In.failed(); }
  /// True once a load consumed the whole payload without a defect.
  bool complete() const { return ok() && (Out || In.exhausted()); }
  void fail() { Bad = true; }

  void io(uint8_t &V) { Out ? Out->u8(V) : void(V = In.u8()); }
  void io(uint64_t &V) { Out ? Out->u64(V) : void(V = In.u64()); }
  void io(int64_t &V) { Out ? Out->i64(V) : void(V = In.i64()); }
  void io(double &V) { Out ? Out->f64(V) : void(V = In.f64()); }
  void io(std::string &V) { Out ? Out->str(V) : void(V = In.str()); }
  /// The int fields (devices, NACK streaks, attempt counters) are all
  /// non-negative and narrower than their encoding.
  void io(int &V) {
    int64_t Wide = V;
    io(Wide);
    if (Wide < 0 || Wide > std::numeric_limits<int>::max())
      Bad = true;
    else
      V = static_cast<int>(Wide);
  }
  void io(bool &V) {
    uint8_t Byte = V ? 1 : 0;
    io(Byte);
    V = Byte != 0;
  }
  void io(StallCause &V) {
    uint8_t Byte = static_cast<uint8_t>(V);
    io(Byte);
    if (Byte >= NumStallCauses)
      Bad = true;
    else
      V = static_cast<StallCause>(Byte);
  }
  void io(StallBreakdown &V) {
    for (int64_t &Count : V.Counts)
      io(Count);
  }
  /// A breakdown preceded by its total. A load rejects negative counts and
  /// counts that do not add up to the total (checked without overflow).
  void totalled(StallBreakdown &V) {
    int64_t Left = V.total();
    io(Left);
    io(V);
    for (int64_t Count : V.Counts) {
      if (Count < 0 || Count > Left) {
        Bad = true;
        return;
      }
      Left -= Count;
    }
    Bad |= Left != 0;
  }

  /// A count that sizes what follows. \p Fixed: the machine's own shape,
  /// which a load must reproduce. Otherwise a load takes the count, bounded
  /// by SaneCount and by the bytes left (every element takes at least one).
  void count(size_t &N, bool Fixed) {
    uint64_t Value = N;
    io(Value);
    if (!loading())
      return;
    if (Fixed) {
      Bad |= Value != N;
      return;
    }
    if (Value > SaneCount || Value > In.remaining())
      Bad = true;
    N = ok() ? static_cast<size_t>(Value) : 0;
  }

  /// An identity field (a name, device, or channel index). \p Fixed: a
  /// load checks it against the live value instead of overwriting it.
  template <typename T> void ident(T &V, bool Fixed) {
    T Loaded = V;
    io(Loaded);
    if (Fixed && Loaded != V)
      Bad = true;
    else
      V = Loaded;
  }

  /// A counted sequence; \p Fixed as for count().
  template <typename Seq> void seq(Seq &V, bool Fixed) {
    size_t N = V.size();
    count(N, Fixed);
    if (!ok())
      return;
    V.resize(N);
    for (auto &Element : V)
      io(Element);
  }
  void seq(std::vector<double> &V, bool Fixed) {
    if (Out)
      return Out->f64span(V.data(), V.size());
    std::vector<double> Loaded = In.f64span();
    if (Fixed && Loaded.size() != V.size())
      Bad = true;
    else
      V = std::move(Loaded);
  }

private:
  ByteWriter *Out = nullptr;
  ByteReader In;
  bool Bad = false;
};

/// What the rehydrate restore loads aside instead of into the machine:
/// the old placement's reader endpoints, reliable windows, per-device and
/// per-hop totals, and each channel's producer cursor.
struct Machine::RehydrateState {
  int64_t Cycle = 0; ///< Snapshot cycle; in-flight stamps clamp to it.
  std::vector<Reader> Readers;
  std::vector<ReliableStream> Reliable;
  std::vector<double> MemoryBytesMoved, MemoryBudget, WriterBudget,
      HopBudget;
  std::vector<int64_t> Produced;
};

bool Machine::transferState(StateArchive &Ar, RehydrateState *Old) {
  // Capture and the exact restore bind every section to the live machine.
  // The rehydrate restore binds the placement-dependent ones to Old.
  bool Live = Old == nullptr;
  std::vector<Reader> &ReaderSet = Live ? Readers : Old->Readers;
  std::vector<ReliableStream> &Streams = Live ? Reliable : Old->Reliable;
  std::vector<double> &Moved = Live ? MemoryBytesMoved : Old->MemoryBytesMoved;
  std::vector<double> &Budget = Live ? MemoryBudget : Old->MemoryBudget;
  std::vector<double> &WBudget = Live ? WriterBudget : Old->WriterBudget;
  std::vector<double> &Hops = Live ? HopBudget : Old->HopBudget;

  // Component counts up front so a restore verifies shape before touching
  // any state.
  size_t NumReaders = ReaderSet.size(), NumUnits = Units.size(),
         NumWriters = Writers.size(), NumChannels = Channels.size(),
         NumReliable = Streams.size(),
         NumDevs = static_cast<size_t>(NumDevices),
         NumLanes = static_cast<size_t>(Lanes);
  Ar.count(NumReaders, Live);
  Ar.count(NumUnits, true);
  Ar.count(NumWriters, true);
  Ar.count(NumChannels, true);
  Ar.count(NumReliable, Live);
  Ar.count(NumDevs, Live);
  Ar.count(NumLanes, true);
  if (!Ar.ok() || NumDevs == 0)
    return false;
  ReaderSet.resize(NumReaders);
  Streams.resize(NumReliable);
  for (std::vector<double> *PerDevice : {&Moved, &Budget, &WBudget})
    PerDevice->resize(NumDevs);

  for (Reader &R : ReaderSet) {
    Ar.ident(R.Field, Live);
    Ar.ident(R.Device, Live);
    Ar.io(R.VectorsDone);
    Ar.io(R.Stalls);
    Ar.io(R.LastCause);
    Ar.io(R.LastProgress);
  }

  // Units and writers transplant by index on both restore paths:
  // Machine::build creates them in a placement-independent order
  // (topological for units, program output order for writers), which the
  // topology signature pins down.
  for (Unit &U : Units) {
    Ar.ident(U.Name, true);
    size_t NumStreams = U.Streams.size();
    Ar.count(NumStreams, true);
    for (FieldStream &Stream : U.Streams) {
      Ar.seq(Stream.Ring, true);
      Ar.io(Stream.WrittenElements);
    }
    Ar.io(U.Step);
    Ar.io(U.Issued);
    Ar.io(U.VectorsDone);
    Ar.seq(U.PipeReady, false);
    Ar.seq(U.PipeValues, false);
    Ar.seq(U.CenterIndex, true);
    Ar.totalled(U.Stalls);
    Ar.io(U.LastCause);
    Ar.io(U.LastProgress);
    // The effective kernel tier, so the restore can report how many units
    // were reassigned (e.g. scalar -> specialized when the restoring
    // config asks for another tier). Informational: all tiers are
    // bit-exact.
    std::string Tier = compute::kernelEngineName(U.Eval.tier());
    std::string Recorded = Tier;
    Ar.io(Recorded);
    if (Recorded != Tier)
      ++TierReassignedUnits;
  }

  for (Writer &Wr : Writers) {
    Ar.ident(Wr.Field, true);
    Ar.seq(Wr.Data, true);
    Ar.seq(Wr.Index, true);
    Ar.io(Wr.VectorsDone);
    Ar.io(Wr.Stalls);
    Ar.io(Wr.LastCause);
    Ar.io(Wr.LastProgress);
  }

  // Producer cursors per channel: how many vectors its single producer
  // has pushed (transport-accepted for reliable streams). Only the
  // rehydrate path consumes these — they become the reader-side delivery
  // cursors after a re-partitioning regroups the reader endpoints.
  std::vector<int64_t> Produced(Channels.size(), 0);
  if (!Ar.loading()) {
    for (const Reader &R : Readers)
      for (size_t ChannelIndex : R.OutChannels)
        Produced[ChannelIndex] = R.VectorsDone;
    for (const Unit &U : Units)
      for (size_t ChannelIndex : U.OutChannels)
        Produced[ChannelIndex] = U.VectorsDone;
  }

  // Channels transplant by index too (channel creation order is
  // placement-independent). On rehydrate their physical parameters changed
  // with the placement: capacities may have shrunk (a formerly-remote
  // channel lost its extra network depth) and in-flight arrival stamps
  // belong to links that no longer exist. Undersized channels grow, and
  // every ready cycle clamps to the resume cycle — the data already
  // traversed the old wire; replaying the tail must not pay its latency
  // twice. The exact restore requires the contents to fit.
  std::vector<double> Vector(static_cast<size_t>(Lanes));
  for (size_t Index = 0; Index != Channels.size(); ++Index) {
    Channel &C = *Channels[Index];
    std::string Name = C.name();
    Ar.ident(Name, true);
    Ar.io(Produced[Index]);
    size_t Count = static_cast<size_t>(C.size());
    Ar.count(Count, false);
    if (Live && Ar.loading() && static_cast<int64_t>(Count) > C.capacity())
      Ar.fail();
    if (!Ar.ok())
      return false;
    if (Ar.loading()) {
      C.clear();
      C.ensureCapacity(static_cast<int64_t>(Count));
    }
    for (int64_t I = 0; I != static_cast<int64_t>(Count); ++I) {
      int64_t Ready = 0;
      if (!Ar.loading()) {
        Ready = C.readyCycleAt(I);
        std::copy_n(C.vectorAt(I), Lanes, Vector.begin());
      }
      Ar.io(Ready);
      for (double &Value : Vector)
        Ar.io(Value);
      if (Ar.loading())
        C.restorePush(Vector.data(),
                      Live ? Ready : std::min(Ready, Old->Cycle));
    }
    int64_t Peak = C.peakOccupancy(), HighWater = C.highWaterMark();
    Ar.io(Peak);
    Ar.io(HighWater);
    if (Ar.loading())
      C.restoreStats(Peak, HighWater);
  }

  for (ReliableStream &RS : Streams) {
    Ar.ident(RS.ChannelIndex, Live);
    if (RS.ChannelIndex >= Channels.size())
      Ar.fail();
    size_t Window = RS.SendBuffer.size();
    Ar.count(Window, false);
    if (!Ar.ok())
      return false;
    RS.SendBuffer.resize(Window);
    for (std::vector<double> &Payload : RS.SendBuffer) {
      Payload.resize(static_cast<size_t>(Lanes));
      for (double &Value : Payload)
        Ar.io(Value);
    }
    Ar.io(RS.NextSeq);
    Ar.io(RS.SendBase);
    Ar.io(RS.ResendNext);
    Ar.io(RS.BackoffUntil);
    Ar.io(RS.NackStreak);
    Ar.io(RS.TransmissionNonce);
    size_t InFlight = RS.Wire.size();
    Ar.count(InFlight, false);
    if (!Ar.ok())
      return false;
    RS.Wire.resize(InFlight);
    for (ReliableStream::InFlight &F : RS.Wire) {
      Ar.io(F.Seq);
      Ar.io(F.ArriveCycle);
      Ar.io(F.Corrupted);
    }
    Ar.io(RS.ExpectedSeq);
    Ar.io(RS.AttemptsOnExpected);
    Ar.io(RS.PeakOutstanding);
    Ar.io(RS.Stats.Transmissions);
    Ar.io(RS.Stats.Retransmissions);
    Ar.io(RS.Stats.CorruptedVectors);
    Ar.io(RS.Stats.Nacks);
    Ar.io(RS.Stats.Delivered);
  }

  // Globals: carry-over bandwidth budgets (unused budget persists across
  // cycles, so they are state, not scratch) and the accumulated transfer
  // totals.
  Ar.io(NetworkBytesMoved);
  for (size_t Device = 0; Device != NumDevs; ++Device) {
    Ar.io(Moved[Device]);
    Ar.io(Budget[Device]);
    Ar.io(WBudget[Device]);
  }
  Ar.seq(Hops, Live);

  if (Old)
    Old->Produced = std::move(Produced);
  return Ar.complete();
}

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

MachineSnapshot Machine::captureSnapshot(int64_t Cycle) {
  ByteWriter W;
  StateArchive Ar(W);
  transferState(Ar, /*Old=*/nullptr);

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

} // namespace

Error Machine::restoreSnapshot(const MachineSnapshot &Snap,
                               uint64_t InputsHash) {
  if (Snap.InputsHash != InputsHash)
    return incompatible("taken against different input data (resuming "
                        "requires the original inputs)");
  bool Exact =
      Snap.ExactSignature == machineSignature(/*IncludePlacement=*/true);
  if (!Exact &&
      Snap.TopologySignature != machineSignature(/*IncludePlacement=*/false))
    return incompatible(
        "belongs to a different program or machine (neither the exact nor "
        "the topology signature matches)");

  // Exact: every section loads verbatim. The signature already matched,
  // so a shape or identity mismatch means an undetected payload defect,
  // not a legitimate different machine. Rehydrate: the topology-derived
  // sections load the same way, and the placement-derived ones (readers,
  // devices, reliable streams) load aside and are regrouped below.
  RehydrateState Old;
  Old.Cycle = Snap.Cycle;
  StateArchive Ar(Snap.State);
  if (!transferState(Ar, Exact ? nullptr : &Old))
    return makeError(ErrorCode::SnapshotInvalid,
                     "snapshot: state payload is malformed (decoder ran past "
                     "the end or left trailing bytes)");
  if (!Exact)
    rehydrate(Old);
  ResumeCycle = Snap.Cycle;
  ResumedFromCycle = Snap.Cycle;
  return Error::success();
}

void Machine::rehydrate(const RehydrateState &Old) {
  // Avoid spurious watchdog trips right after the placement change.
  for (Unit &U : Units)
    U.LastProgress = Old.Cycle;
  for (Writer &Wr : Writers)
    Wr.LastProgress = Old.Cycle;

  // Old reliable streams are flattened into their delivery channels: the
  // channel already holds the delivered-not-popped window, and the send
  // buffer holds [SendBase, NextSeq) — everything accepted from the
  // producer but not yet delivered (including vectors in flight on the
  // old wire). Appending it gives the consumer the contiguous prefix the
  // producer already accounted for (VectorsDone == NextSeq). If the channel
  // is still remote in the new placement its fresh stream starts at
  // sequence zero on both ends, so the protocol stays consistent; the old
  // link statistics carry over for reporting continuity.
  for (const ReliableStream &DS : Old.Reliable) {
    Channel &C = *Channels[DS.ChannelIndex];
    C.ensureCapacity(C.size() +
                     static_cast<int64_t>(DS.SendBuffer.size()));
    for (const std::vector<double> &Payload : DS.SendBuffer)
      C.restorePush(Payload.data(), Old.Cycle);
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
  std::map<std::string, StallCause> FieldCause;
  for (const Reader &R : Old.Readers) {
    FieldStalls[R.Field] += R.Stalls;
    FieldCause.emplace(R.Field, R.LastCause);
  }
  std::map<std::string, bool> FieldClaimed;
  for (Reader &R : Readers) {
    int64_t Minimum = std::numeric_limits<int64_t>::max();
    R.ChannelBase.assign(R.OutChannels.size(), 0);
    for (size_t I = 0; I != R.OutChannels.size(); ++I) {
      R.ChannelBase[I] = Old.Produced[R.OutChannels[I]];
      Minimum = std::min(Minimum, R.ChannelBase[I]);
    }
    R.VectorsDone = R.OutChannels.empty() ? 0 : Minimum;
    if (!FieldClaimed[R.Field]) {
      FieldClaimed[R.Field] = true;
      R.Stalls = FieldStalls[R.Field];
      auto It = FieldCause.find(R.Field);
      if (It != FieldCause.end())
        R.LastCause = It->second;
    }
    R.LastProgress = Old.Cycle;
  }

  // Globals: per-device transfer totals fold lost devices onto device 0;
  // carry-over budgets stay zeroed (sub-transaction amounts — rehydration
  // is not exactness-bound).
  for (size_t Device = 0; Device != Old.MemoryBytesMoved.size(); ++Device) {
    if (Device < static_cast<size_t>(NumDevices))
      MemoryBytesMoved[Device] = Old.MemoryBytesMoved[Device];
    else
      MemoryBytesMoved[0] += Old.MemoryBytesMoved[Device];
  }
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
