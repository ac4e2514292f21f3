//===- sim/Checkpoint.h - Crash-safe machine snapshots ------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint/restart subsystem: versioned, CRC-guarded binary
/// snapshots of the complete simulator state, written crash-consistently
/// (write-to-temp + fsync + atomic rename) at cycle boundaries so a run
/// killed at cycle 10M does not restart at cycle 0.
///
/// A snapshot captures everything the step functions read or write:
/// channel/ring-buffer contents, in-flight remote vectors and the
/// Go-Back-N reliable-stream windows (sequence numbers, retransmit
/// timers, backoff state, the corruption-PRNG nonce), per-unit pipeline
/// registers and stall counters, per-writer committed output, carry-over
/// bandwidth budgets, and the transfer totals — everything needed for the
/// resumed run to be *cycle- and bit-exact* with the uninterrupted one.
///
/// Two restore modes share one format (Machine::run picks automatically
/// by comparing signatures):
///
///  - **Exact**: the snapshot's placement signature matches the machine.
///    State is restored verbatim and the run continues from the snapshot
///    cycle with identical outputs, SimStats, and trace tail.
///  - **Rehydrate**: only the placement-independent topology matches
///    (same program, different device mapping — the device-loss recovery
///    path). Unit/channel/writer state transplants by index, reliable
///    windows are flattened into their delivery FIFOs, and the new
///    reader endpoints take per-channel delivery cursors so no vector is
///    duplicated or lost; the run replays only the tail.
///
/// The file layer is deliberately independent of Machine so tools and
/// tests can inspect/corrupt snapshots without building a simulator.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SIM_CHECKPOINT_H
#define STENCILFLOW_SIM_CHECKPOINT_H

#include "support/Error.h"

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace stencilflow {
namespace sim {

//===----------------------------------------------------------------------===//
// Binary encoding
//===----------------------------------------------------------------------===//

/// Little-endian append-only byte sink for snapshot payloads.
class ByteWriter {
public:
  void u8(uint8_t Value) { Bytes.push_back(Value); }
  void u32(uint32_t Value) { raw(&Value, sizeof(Value)); }
  void u64(uint64_t Value) { raw(&Value, sizeof(Value)); }
  void i64(int64_t Value) { raw(&Value, sizeof(Value)); }
  void f64(double Value) { raw(&Value, sizeof(Value)); }
  void f64span(const double *Data, size_t Count) {
    u64(Count);
    raw(Data, Count * sizeof(double));
  }
  void str(std::string_view Text) {
    u64(Text.size());
    raw(Text.data(), Text.size());
  }
  void blob(const std::vector<uint8_t> &Data) {
    u64(Data.size());
    raw(Data.data(), Data.size());
  }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  void raw(const void *Data, size_t Size) {
    const uint8_t *Src = static_cast<const uint8_t *>(Data);
    Bytes.insert(Bytes.end(), Src, Src + Size);
  }
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked reader over an encoded payload. All accessors return a
/// zero value once a read runs past the end; callers check \c failed()
/// after a decode section instead of after every field.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  uint8_t u8() {
    uint8_t Value = 0;
    raw(&Value, sizeof(Value));
    return Value;
  }
  uint32_t u32() {
    uint32_t Value = 0;
    raw(&Value, sizeof(Value));
    return Value;
  }
  uint64_t u64() {
    uint64_t Value = 0;
    raw(&Value, sizeof(Value));
    return Value;
  }
  int64_t i64() {
    int64_t Value = 0;
    raw(&Value, sizeof(Value));
    return Value;
  }
  double f64() {
    double Value = 0.0;
    raw(&Value, sizeof(Value));
    return Value;
  }
  std::vector<double> f64span() {
    uint64_t Count = u64();
    if (Count > remaining() / sizeof(double)) {
      Fail = true;
      return {};
    }
    std::vector<double> Values(static_cast<size_t>(Count));
    raw(Values.data(), Values.size() * sizeof(double));
    return Values;
  }
  std::string str() {
    uint64_t Count = u64();
    if (Count > remaining()) {
      Fail = true;
      return {};
    }
    std::string Text(reinterpret_cast<const char *>(Data + Pos),
                     static_cast<size_t>(Count));
    Pos += static_cast<size_t>(Count);
    return Text;
  }
  std::vector<uint8_t> blob() {
    uint64_t Count = u64();
    if (Count > remaining()) {
      Fail = true;
      return {};
    }
    std::vector<uint8_t> Data(this->Data + Pos,
                              this->Data + Pos + static_cast<size_t>(Count));
    Pos += static_cast<size_t>(Count);
    return Data;
  }

  bool failed() const { return Fail; }
  size_t remaining() const { return Size - Pos; }
  bool exhausted() const { return Pos == Size; }

private:
  void raw(void *Dest, size_t Count) {
    if (Count == 0)
      return; // An empty span may have no storage; memcpy needs some.
    if (Count > remaining()) {
      Fail = true;
      std::memset(Dest, 0, Count);
      return;
    }
    std::memcpy(Dest, Data + Pos, Count);
    Pos += Count;
  }
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Fail = false;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) over a byte span.
uint32_t crc32(const void *Data, size_t Size);

/// FNV-1a hash of a byte span (the signature/identity hash).
uint64_t fnv1a(const void *Data, size_t Size,
               uint64_t Seed = 1469598103934665603ull);

/// Placement-independent hash of the program's input field data (names,
/// sizes, raw bytes). A snapshot records it so a resumed run fails with
/// SnapshotIncompatible instead of silently diverging when fed different
/// inputs — reader endpoints re-read the original arrays from the resume
/// cursor onward.
uint64_t
hashInputFields(const std::map<std::string, std::vector<double>> &Inputs);

//===----------------------------------------------------------------------===//
// Snapshot container and file format
//===----------------------------------------------------------------------===//

/// Bumped whenever the encoded state layout changes; readers reject skewed
/// files with ErrorCode::SnapshotInvalid rather than misparse them.
/// Version 2 dropped the epoch, serial-fallback and skipped-cycle counters.
constexpr uint32_t SnapshotFormatVersion = 2;

/// One decoded snapshot: the resume point, the compatibility signatures,
/// and the opaque machine-state payload (encoded/decoded by
/// Machine via Checkpoint.cpp).
struct MachineSnapshot {
  /// Cycles [0, Cycle) completed; the resumed run steps cycle Cycle first.
  int64_t Cycle = 0;
  /// Hash of topology + placement + trajectory-relevant config + fault
  /// plan. Matching it enables the bit-exact verbatim restore.
  uint64_t ExactSignature = 0;
  /// Placement-independent topology hash (units, channels, lanes, stream
  /// length). Matching it (when ExactSignature does not) enables the
  /// rehydrate restore used by device-loss recovery.
  uint64_t TopologySignature = 0;
  /// Hash of the input field data; resuming requires the original inputs
  /// (reader endpoints re-read them from the resume cursor onward).
  uint64_t InputsHash = 0;
  /// The encoded component state.
  std::vector<uint8_t> State;
};

/// Writes \p Snapshot to \p Path crash-consistently: the bytes go to a
/// temporary file in the same directory, are fsync'd, and atomically
/// renamed over \p Path, so a crash at any instant leaves either the old
/// file or the new one — never a torn snapshot.
Error writeSnapshotFile(const std::string &Path,
                        const MachineSnapshot &Snapshot);

/// Reads and validates a snapshot file. Magic/version/length/CRC failures
/// return ErrorCode::SnapshotInvalid with a message naming the defect.
Expected<MachineSnapshot> readSnapshotFile(const std::string &Path);

/// The canonical file name for a snapshot at \p Cycle ("ckpt-<cycle>.sfck",
/// zero-padded so lexical and numeric order agree).
std::string snapshotFileName(int64_t Cycle);

/// Scans \p Dir for snapshot files and returns the path of the one with
/// the highest cycle, or an error when none exists. Accepts a direct file
/// path too (returned unchanged), so CLI --resume takes either form.
Expected<std::string> findLatestSnapshot(const std::string &PathOrDir);

/// Deletes the oldest snapshots in \p Dir beyond the \p Keep most recent.
/// Best-effort: unlink failures are ignored (retention is a hygiene
/// bound, not a correctness property).
void pruneSnapshots(const std::string &Dir, int Keep);

} // namespace sim
} // namespace stencilflow

#endif // STENCILFLOW_SIM_CHECKPOINT_H
