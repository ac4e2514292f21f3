//===- sim/Channel.h - Bounded FIFO channels ----------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded FIFO channels with full/empty stall semantics — the simulator's
/// model of Intel OpenCL channels (on-chip) and SMI remote streams
/// (cross-device, with per-hop latency and bandwidth arbitration). Channel
/// capacities carry the delay-buffer depths computed by the analysis;
/// undersized channels are exactly what produces the Fig. 4 deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SIM_CHANNEL_H
#define STENCILFLOW_SIM_CHANNEL_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace stencilflow {
namespace sim {

/// A bounded FIFO of vectors (W lanes each). Remote channels additionally
/// stamp each vector with the cycle at which it becomes visible to the
/// consumer (per-hop network latency).
class Channel {
public:
  Channel(std::string Name, int64_t CapacityVectors, int Lanes,
          int64_t ArrivalLatency = 0)
      : Name(std::move(Name)), Capacity(CapacityVectors), Lanes(Lanes),
        ArrivalLatency(ArrivalLatency) {
    assert(CapacityVectors > 0 && "channels need positive capacity");
    Storage.resize(static_cast<size_t>(Capacity) *
                   static_cast<size_t>(Lanes));
    ReadyCycles.resize(static_cast<size_t>(Capacity));
  }

  const std::string &name() const { return Name; }
  int64_t capacity() const { return Capacity; }
  int lanes() const { return Lanes; }
  int64_t arrivalLatency() const { return ArrivalLatency; }

  bool full() const { return Count == Capacity; }
  bool empty() const { return Count == 0; }
  int64_t size() const { return Count; }

  /// True if a vector is available to the consumer at \p Cycle (non-empty
  /// and past the network latency).
  bool readable(int64_t Cycle) const {
    return Count > 0 && ReadyCycles[static_cast<size_t>(Head)] <= Cycle;
  }

  /// Highest *visible* occupancy ever observed (vectors): enqueued minus
  /// still in flight on the network. Comparing this against the
  /// analysis-computed delay-buffer depth empirically validates the
  /// buffer sizing of Sec. IV-B — in-flight remote vectors must not count
  /// because they occupy the wire, not the FIFO. For local channels
  /// (zero arrival latency) this equals \c peakOccupancy().
  int64_t highWaterMark() const { return VisibleHighWater; }

  /// Highest total occupancy ever observed (vectors), including vectors
  /// still in flight. This is what bounds the physical FIFO allocation.
  int64_t peakOccupancy() const { return PeakOccupancy; }

  /// Enqueues one vector (\p Lanes values); the channel must not be full.
  void push(const double *Vector, int64_t Cycle) {
    assert(!full() && "push into a full channel");
    int64_t Slot = (Head + Count) % Capacity;
    double *Dest = &Storage[static_cast<size_t>(Slot * Lanes)];
    for (int L = 0; L != Lanes; ++L)
      Dest[L] = Vector[L];
    ReadyCycles[static_cast<size_t>(Slot)] = Cycle + ArrivalLatency;
    ++Count;
    PeakOccupancy = std::max(PeakOccupancy, Count);
    recordVisible(Cycle);
  }

  /// Dequeues one vector into \p Vector; must be readable.
  void pop(double *Vector, int64_t Cycle) {
    assert(readable(Cycle) && "pop from an unreadable channel");
    // In-flight vectors may have matured since the last push; fold the
    // maturation into the visible high-water mark before draining.
    recordVisible(Cycle);
    const double *Src = &Storage[static_cast<size_t>(Head * Lanes)];
    for (int L = 0; L != Lanes; ++L)
      Vector[L] = Src[L];
    Head = (Head + 1) % Capacity;
    --Count;
  }

  /// True when any enqueued vector is still in flight (will mature later).
  bool hasPendingArrival(int64_t Cycle) const {
    return Count > 0 && ReadyCycles[static_cast<size_t>(Head)] > Cycle;
  }

  /// Occupancy visible to the consumer at \p Cycle: enqueued vectors that
  /// have matured past the arrival latency. Ready cycles are
  /// non-decreasing in FIFO order (constant latency, monotone push
  /// cycles), so scanning newest-to-oldest stops at the first matured
  /// vector; the cost is O(in-flight), which is bounded by the arrival
  /// latency, and zero for local channels.
  int64_t visibleSize(int64_t Cycle) const {
    if (ArrivalLatency == 0)
      return Count;
    int64_t InFlight = 0;
    while (InFlight < Count) {
      int64_t Slot = (Head + Count - 1 - InFlight) % Capacity;
      if (ReadyCycles[static_cast<size_t>(Slot)] <= Cycle)
        break;
      ++InFlight;
    }
    return Count - InFlight;
  }

  //===--------------------------------------------------------------------===//
  // Checkpoint support (sim/Checkpoint.h)
  //===--------------------------------------------------------------------===//

  /// The I-th enqueued vector counting from the oldest (0 <= I < size()).
  const double *vectorAt(int64_t I) const {
    assert(I >= 0 && I < Count && "vectorAt out of range");
    int64_t Slot = (Head + I) % Capacity;
    return &Storage[static_cast<size_t>(Slot * Lanes)];
  }
  /// The ready cycle of the I-th enqueued vector (oldest first).
  int64_t readyCycleAt(int64_t I) const {
    assert(I >= 0 && I < Count && "readyCycleAt out of range");
    return ReadyCycles[static_cast<size_t>((Head + I) % Capacity)];
  }

  /// Empties the channel and resets its occupancy statistics: every run
  /// starts from here, and a snapshot restore refills it from here.
  void clear() {
    Head = Count = 0;
    PeakOccupancy = VisibleHighWater = 0;
  }
  /// Raw re-enqueue of a snapshotted vector: exact ready cycle, no
  /// statistics sampling (the peaks are restored separately).
  void restorePush(const double *Vector, int64_t ReadyCycle) {
    assert(!full() && "restorePush into a full channel");
    int64_t Slot = (Head + Count) % Capacity;
    double *Dest = &Storage[static_cast<size_t>(Slot * Lanes)];
    for (int L = 0; L != Lanes; ++L)
      Dest[L] = Vector[L];
    ReadyCycles[static_cast<size_t>(Slot)] = ReadyCycle;
    ++Count;
  }
  /// Restores the snapshotted occupancy statistics verbatim.
  void restoreStats(int64_t Peak, int64_t HighWater) {
    PeakOccupancy = Peak;
    VisibleHighWater = HighWater;
  }
  /// Grows the capacity to at least \p MinCapacity (rehydrating onto a
  /// re-partitioned machine: a formerly-remote channel carries a deeper
  /// occupancy than the now-local capacity). Preserves contents; no-op
  /// when already large enough.
  void ensureCapacity(int64_t MinCapacity) {
    if (MinCapacity <= Capacity)
      return;
    std::vector<double> NewStorage(static_cast<size_t>(MinCapacity) *
                                   static_cast<size_t>(Lanes));
    std::vector<int64_t> NewReady(static_cast<size_t>(MinCapacity));
    for (int64_t I = 0; I != Count; ++I) {
      const double *Src = vectorAt(I);
      double *Dest = &NewStorage[static_cast<size_t>(I * Lanes)];
      for (int L = 0; L != Lanes; ++L)
        Dest[L] = Src[L];
      NewReady[static_cast<size_t>(I)] = readyCycleAt(I);
    }
    Storage = std::move(NewStorage);
    ReadyCycles = std::move(NewReady);
    Capacity = MinCapacity;
    Head = 0;
  }

private:
  /// Folds the current visible occupancy into the visible high-water mark.
  void recordVisible(int64_t Cycle) {
    VisibleHighWater = std::max(VisibleHighWater, visibleSize(Cycle));
  }

  std::string Name;
  int64_t Capacity;
  int Lanes;
  int64_t ArrivalLatency;
  std::vector<double> Storage;
  std::vector<int64_t> ReadyCycles;
  int64_t Head = 0;
  int64_t Count = 0;
  int64_t PeakOccupancy = 0;
  int64_t VisibleHighWater = 0;
};

} // namespace sim
} // namespace stencilflow

#endif // STENCILFLOW_SIM_CHANNEL_H
