//===- sim/Machine.cpp - Spatial hardware simulator ---------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "sim/Checkpoint.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace stencilflow;
using namespace stencilflow::sim;

namespace {

/// Timeline state label for a stalled component ("stall:<cause>").
const char *stallStateName(StallCause Cause) {
  switch (Cause) {
  case StallCause::InputStarved:
    return "stall:input-starved";
  case StallCause::OutputBlocked:
    return "stall:output-blocked";
  case StallCause::MemoryDenied:
    return "stall:memory-denied";
  case StallCause::NetworkDenied:
    return "stall:network-denied";
  case StallCause::PipelineLatency:
    return "stall:pipeline-latency";
  }
  return "stall";
}

} // namespace

const char *sim::terminationReasonName(TerminationReason Reason) {
  switch (Reason) {
  case TerminationReason::Completed:
    return "completed";
  case TerminationReason::CompletedDegraded:
    return "completed-degraded";
  }
  return "completed";
}

std::string SimStats::kernelTierSummary() const {
  // Count tiers in a fixed display order so the summary is stable.
  std::map<std::string, int64_t> Counts;
  for (const auto &[Name, Tier] : UnitKernelTiers)
    ++Counts[Tier];
  std::string Out;
  for (const char *Tier : {"specialized", "batched", "scalar"}) {
    auto It = Counts.find(Tier);
    if (It == Counts.end())
      continue;
    if (!Out.empty())
      Out += ", ";
    Out += formatString("%s x%lld", Tier,
                        static_cast<long long>(It->second));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Build
//===----------------------------------------------------------------------===//

Expected<Machine> Machine::build(const CompiledProgram &Compiled,
                                 const DataflowAnalysis &Dataflow,
                                 const Partition *Placement,
                                 const SimConfig &Config) {
  const StencilProgram &Program = Compiled.program();
  if (Error Err = Config.validate())
    return Err;
  if (Config.Faults)
    if (Error Err = Config.Faults->validate())
      return Err.addContext("fault plan");
  Machine M;
  M.Config = Config;
  M.Compiled = &Compiled;
  M.Lanes = Compiled.vectorWidth();
  M.SpaceExtents = Program.IterationSpace.extents();
  M.StreamVectors = Program.IterationSpace.numCells() / M.Lanes;
  M.ExpectedCycles = Dataflow.PipelineLatency + M.StreamVectors;
  M.ElementBytes = dataTypeSize(Program.Nodes.empty()
                                    ? DataType::Float32
                                    : Program.Nodes.front().Type);

  auto deviceOf = [&](const std::string &Node) {
    return Placement ? Placement->deviceOf(Node) : 0;
  };
  M.NumDevices = 1;
  for (const StencilNode &Node : Program.Nodes)
    M.NumDevices = std::max(M.NumDevices, deviceOf(Node.Name) + 1);

  // Unit shells in topological order (the per-cycle step order; within one
  // cycle data propagates along the topological direction, modeling
  // same-cycle channel handoff in hardware).
  std::map<std::string, size_t> UnitIndex;
  for (size_t NodeIndex : Compiled.topologicalOrder()) {
    const StencilNode &Node = Program.Nodes[NodeIndex];
    Unit U;
    U.Name = Node.Name;
    U.NodeIndex = NodeIndex;
    U.Device = deviceOf(Node.Name);
    U.Kernel = &Compiled.kernel(NodeIndex);
    U.InitSteps = Dataflow.Buffers[NodeIndex].InitCycles;
    U.CircuitLatency = Dataflow.Nodes[NodeIndex].CircuitLatency;
    U.StreamVectors = M.StreamVectors;
    UnitIndex[Node.Name] = M.Units.size();
    M.Units.push_back(std::move(U));
  }

  // Channels for streamed edges. The producer side is wired below; here we
  // attach the consumer-side ring buffers and slot plans.
  auto makeChannel = [&](const std::string &Source, const Unit &Consumer,
                         int64_t BufferDepth, int SourceDevice) {
    int64_t Capacity = Config.ClampChannelsToMinimum
                           ? Config.MinChannelDepth
                           : BufferDepth + Config.MinChannelDepth;
    int64_t Latency = 0;
    RemoteLink Link;
    Link.ChannelIndex = M.Channels.size();
    Link.FirstHop = SourceDevice;
    Link.LastHop = Consumer.Device;
    int ReliableIndex = -1;
    if (SourceDevice != Consumer.Device) {
      int Hops = Consumer.Device - SourceDevice;
      Latency = Config.NetworkLatencyCyclesPerHop * Hops;
      Capacity += Config.NetworkExtraChannelDepth;
      // With a fault plan attached, the reliable transport owns the wire
      // latency; the Channel becomes the zero-latency delivery FIFO.
      if (Config.Faults) {
        ReliableStream RS;
        RS.ChannelIndex = Link.ChannelIndex;
        RS.WireLatency = Latency;
        Latency = 0;
        ReliableIndex = static_cast<int>(M.Reliable.size());
        M.Reliable.push_back(std::move(RS));
      }
    }
    M.Channels.push_back(std::make_unique<Channel>(
        Source + "->" + Consumer.Name, Capacity, M.Lanes, Latency));
    M.RemoteLinks.push_back(Link);
    M.ReliableOf.push_back(ReliableIndex);
    return M.Channels.size() - 1;
  };

  for (Unit &U : M.Units) {
    const StencilNode &Node = Program.Nodes[U.NodeIndex];
    const NodeBuffers &Buffers = Dataflow.Buffers[U.NodeIndex];

    // Streams and ROMs per accessed field.
    std::map<std::string, int> StreamIndexOf;
    std::map<std::string, int> RomIndexOf;
    for (const FieldAccesses &FA : Node.Accesses) {
      std::vector<bool> Mask = Program.fieldDimensionMask(FA.Field);
      bool FullRank = std::all_of(Mask.begin(), Mask.end(),
                                  [](bool Spanned) { return Spanned; });
      if (FullRank) {
        const InternalBuffer *Buffer = nullptr;
        for (const InternalBuffer &Candidate : Buffers.Buffers)
          if (Candidate.Field == FA.Field)
            Buffer = &Candidate;
        assert(Buffer && "streamed field missing from buffer analysis");

        const DataflowEdge *Edge = Dataflow.findEdge(FA.Field, Node.Name);
        assert(Edge && "streamed field missing from dataflow edges");
        int SourceDevice = Program.findInput(FA.Field)
                               ? U.Device // Reader lives on our device.
                               : deviceOf(FA.Field);

        FieldStream Stream;
        Stream.Field = FA.Field;
        Stream.ChannelIndex =
            makeChannel(FA.Field, U, Edge->BufferDepth, SourceDevice);
        Stream.DelaySteps = U.InitSteps - Buffer->InitCycles;
        Stream.RingElements = (Buffer->InitCycles + 1) * M.Lanes +
                              std::max<int64_t>(0, -Buffer->MinLinear);
        StreamIndexOf[FA.Field] = static_cast<int>(U.Streams.size());
        U.Streams.push_back(std::move(Stream));
      } else {
        Rom R;
        R.Field = FA.Field;
        Shape FieldShape = Program.fieldShape(FA.Field);
        R.Extents = FieldShape.extents();
        R.Strides.assign(R.Extents.size(), 1);
        for (size_t Dim = R.Extents.size(); Dim-- > 1;)
          R.Strides[Dim - 1] = R.Strides[Dim] * R.Extents[Dim];
        for (size_t Dim = 0; Dim != Mask.size(); ++Dim)
          if (Mask[Dim])
            R.SpannedDims.push_back(Dim);
        RomIndexOf[FA.Field] = static_cast<int>(U.Roms.size());
        U.Roms.push_back(std::move(R));
      }
    }

    // Kernel input slots.
    for (const compute::KernelInput &Input : U.Kernel->inputs()) {
      SlotRef Slot;
      BoundaryCondition Boundary = Node.boundaryFor(Input.Field);
      Slot.Boundary = Boundary.Kind;
      Slot.BoundaryValue = Boundary.Value;

      auto StreamIt = StreamIndexOf.find(Input.Field);
      if (StreamIt != StreamIndexOf.end()) {
        Slot.IsStream = true;
        Slot.SourceIndex = StreamIt->second;
        const InternalBuffer *Buffer = nullptr;
        for (const InternalBuffer &Candidate : Buffers.Buffers)
          if (Candidate.Field == Input.Field)
            Buffer = &Candidate;
        int64_t Linear = Program.IterationSpace.linearize(Input.Off);
        Slot.OffsetFromNewest =
            (Buffer->InitCycles + 1) * M.Lanes - 1 - Linear;
        Slot.CenterFromNewest = (Buffer->InitCycles + 1) * M.Lanes - 1;
        Slot.DimOffsets.assign(Input.Off.begin(), Input.Off.end());
      } else {
        Slot.IsStream = false;
        Slot.SourceIndex = RomIndexOf.at(Input.Field);
        Slot.DimOffsets.assign(Input.Off.begin(), Input.Off.end());
      }
      U.Slots.push_back(std::move(Slot));
    }

    // Compile the kernel for the configured execution tier (the whole
    // tape-pass pipeline runs once here, not per cycle).
    U.Eval = compute::KernelEvaluator::compile(*U.Kernel, Config.KernelExec,
                                               M.Lanes);
  }

  // Producer wiring: for every channel, find who pushes into it.
  // Off-chip inputs get one reader per (device, field); node outputs push
  // from the producing unit.
  std::map<std::pair<int, std::string>, size_t> ReaderOf;
  for (Unit &U : M.Units) {
    for (FieldStream &Stream : U.Streams) {
      if (const Field *Input = Program.findInput(Stream.Field)) {
        auto Key = std::make_pair(U.Device, Stream.Field);
        auto It = ReaderOf.find(Key);
        if (It == ReaderOf.end()) {
          Reader R;
          R.Field = Input->Name;
          R.Device = U.Device;
          R.TotalVectors = M.StreamVectors;
          It = ReaderOf.emplace(Key, M.Readers.size()).first;
          M.Readers.push_back(std::move(R));
        }
        M.Readers[It->second].OutChannels.push_back(Stream.ChannelIndex);
      } else {
        M.Units[UnitIndex.at(Stream.Field)].OutChannels.push_back(
            Stream.ChannelIndex);
      }
    }
  }

  // Writers for program outputs.
  for (const std::string &Output : Program.Outputs) {
    Unit &Producer = M.Units[UnitIndex.at(Output)];
    const StencilNode &Node = *Program.findNode(Output);
    Writer W;
    W.Field = Output;
    W.Device = Producer.Device;
    W.TotalVectors = M.StreamVectors;
    W.Shrink = Node.ShrinkOutput;
    W.Region = computeValidRegion(Program, Node);
    // Writer channels only need transient capacity.
    M.Channels.push_back(std::make_unique<Channel>(
        Output + "->memory", Config.MinChannelDepth + 64, M.Lanes));
    RemoteLink Link;
    Link.ChannelIndex = M.Channels.size() - 1;
    Link.FirstHop = Link.LastHop = Producer.Device;
    M.RemoteLinks.push_back(Link);
    M.ReliableOf.push_back(-1);
    W.ChannelIndex = M.Channels.size() - 1;
    Producer.OutChannels.push_back(W.ChannelIndex);
    M.Writers.push_back(std::move(W));
  }

  // Per-cycle bookkeeping.
  M.MemoryBudget.assign(static_cast<size_t>(M.NumDevices), 0.0);
  M.WriterBudget.assign(static_cast<size_t>(M.NumDevices), 0.0);
  M.MemoryBytesMoved.assign(static_cast<size_t>(M.NumDevices), 0.0);
  M.HopBudget.assign(static_cast<size_t>(std::max(0, M.NumDevices - 1)),
                     0.0);
  M.EarliestDeviceFail = Config.Faults
                             ? Config.Faults->earliestDeviceFailure()
                             : std::numeric_limits<int64_t>::max();
  return M;
}

//===----------------------------------------------------------------------===//
// Per-cycle component steps
//===----------------------------------------------------------------------===//

bool Machine::grantMemory(int Device, double DataBytes, bool IsWriter) {
  // A memory brownout overrides unconstrained memory: the device falls
  // back to the budgeted path, whose refill is scaled by the brownout
  // factor.
  bool BrownedOut =
      Config.Faults && Brownout[static_cast<size_t>(Device)];
  if (Config.UnconstrainedMemory && !BrownedOut) {
    MemoryBytesMoved[static_cast<size_t>(Device)] += DataBytes;
    return true;
  }
  double Cost = DataBytes + Config.TransactionOverheadBytes;
  // Writers draw from their reserved pool plus whatever the readers (who
  // ran earlier this cycle) left unspent.
  double &Pool = IsWriter ? WriterBudget[static_cast<size_t>(Device)]
                          : MemoryBudget[static_cast<size_t>(Device)];
  double Available =
      IsWriter ? Pool + MemoryBudget[static_cast<size_t>(Device)] : Pool;
  if (Available < Cost) {
    BandwidthWait = true;
    return false;
  }
  if (IsWriter && Pool < Cost) {
    MemoryBudget[static_cast<size_t>(Device)] -= Cost - Pool;
    Pool = 0.0;
  } else {
    Pool -= Cost;
  }
  MemoryBytesMoved[static_cast<size_t>(Device)] += DataBytes;
  return true;
}

bool Machine::grantNetwork(size_t ChannelIndex) {
  const RemoteLink &Link = RemoteLinks[ChannelIndex];
  if (Link.FirstHop == Link.LastHop)
    return true;
  double Bytes = static_cast<double>(Lanes) *
                 static_cast<double>(ElementBytes);
  for (int Hop = Link.FirstHop; Hop != Link.LastHop; ++Hop)
    if (HopBudget[static_cast<size_t>(Hop)] < Bytes) {
      BandwidthWait = true;
      return false;
    }
  for (int Hop = Link.FirstHop; Hop != Link.LastHop; ++Hop)
    HopBudget[static_cast<size_t>(Hop)] -= Bytes;
  NetworkBytesMoved +=
      Bytes * static_cast<double>(Link.LastHop - Link.FirstHop);
  return true;
}

//===----------------------------------------------------------------------===//
// Reliable remote streams (Go-Back-N; active only with a fault plan)
//===----------------------------------------------------------------------===//

bool Machine::channelFull(size_t ChannelIndex) const {
  int Rel = ReliableOf[ChannelIndex];
  if (Rel < 0)
    return Channels[ChannelIndex]->full();
  const ReliableStream &RS = Reliable[static_cast<size_t>(Rel)];
  // Backpressure mirrors the plain transport exactly in the fault-free
  // case: outstanding (unacked, i.e. in flight) plus delivered-not-popped
  // equals the plain channel's total occupancy. The send window and the
  // rewind block only engage under faults.
  int64_t Outstanding = RS.NextSeq - RS.SendBase;
  if (Outstanding + Channels[ChannelIndex]->size() >=
      Channels[ChannelIndex]->capacity())
    return true;
  if (Outstanding >= Config.SendWindowVectors)
    return true;
  return RS.ResendNext >= 0; // Rewinding: no fresh vectors until caught up.
}

void Machine::channelPush(size_t ChannelIndex, const double *Vector,
                          int64_t Cycle) {
  int Rel = ReliableOf[ChannelIndex];
  if (Rel < 0) {
    Channels[ChannelIndex]->push(Vector, Cycle);
    return;
  }
  ReliableStream &RS = Reliable[static_cast<size_t>(Rel)];
  const RemoteLink &Link = RemoteLinks[ChannelIndex];
  RS.SendBuffer.emplace_back(Vector, Vector + Lanes);
  bool Corrupted = Config.Faults->corruptsTransmission(
      Cycle, ChannelIndex, RS.NextSeq, RS.TransmissionNonce++,
      Link.FirstHop, Link.LastHop);
  RS.Wire.push_back({RS.NextSeq, Cycle + RS.WireLatency, Corrupted});
  ++RS.Stats.Transmissions;
  ++RS.NextSeq;
  RS.PeakOutstanding =
      std::max(RS.PeakOutstanding, RS.NextSeq - RS.SendBase +
                                       Channels[ChannelIndex]->size());
}

Error Machine::linkReceive(int64_t Cycle) {
  for (ReliableStream &RS : Reliable) {
    Channel &Delivery = *Channels[RS.ChannelIndex];
    while (!RS.Wire.empty() && RS.Wire.front().ArriveCycle <= Cycle) {
      ReliableStream::InFlight Arrival = RS.Wire.front();
      RS.Wire.pop_front();
      if (Arrival.Corrupted) {
        ++RS.Stats.CorruptedVectors;
        if (!Config.ReliableStreams)
          return abortRun(ErrorCode::DataCorruption, Cycle,
                          Delivery.name());
        if (Arrival.Seq != RS.ExpectedSeq)
          continue; // Stale pre-rewind transmission: discard silently.
        if (++RS.AttemptsOnExpected > Config.MaxRetransmitAttempts)
          return abortRun(ErrorCode::LinkFailure, Cycle, Delivery.name());
        // NACK: the sender rewinds to the expected vector after an
        // exponential backoff.
        ++RS.Stats.Nacks;
        ++RS.NackStreak;
        RS.BackoffUntil =
            Cycle + (Config.RetransmitBackoffCycles
                     << std::min(RS.NackStreak - 1, 6));
        RS.ResendNext = RS.ExpectedSeq;
        continue;
      }
      if (Arrival.Seq != RS.ExpectedSeq)
        continue; // Duplicate or stale: discard silently.
      // In-order delivery; the instantaneous cumulative ACK releases the
      // sender's window slot.
      Delivery.push(RS.SendBuffer.front().data(), Cycle);
      RS.SendBuffer.pop_front();
      ++RS.ExpectedSeq;
      ++RS.SendBase;
      ++RS.Stats.Delivered;
      RS.AttemptsOnExpected = 0;
      RS.NackStreak = 0;
    }
  }
  return Error::success();
}

void Machine::linkSend(int64_t Cycle) {
  for (ReliableStream &RS : Reliable) {
    if (RS.ResendNext < 0 || Cycle < RS.BackoffUntil)
      continue;
    if (RS.ResendNext >= RS.NextSeq) { // Caught up; resume fresh sends.
      RS.ResendNext = -1;
      continue;
    }
    // Retransmissions pay hop bandwidth like any transmission, from
    // whatever this cycle's emit phase left unspent.
    if (!grantNetwork(RS.ChannelIndex))
      continue;
    const RemoteLink &Link = RemoteLinks[RS.ChannelIndex];
    bool Corrupted = Config.Faults->corruptsTransmission(
        Cycle, RS.ChannelIndex, RS.ResendNext, RS.TransmissionNonce++,
        Link.FirstHop, Link.LastHop);
    RS.Wire.push_back({RS.ResendNext, Cycle + RS.WireLatency, Corrupted});
    ++RS.Stats.Transmissions;
    ++RS.Stats.Retransmissions;
    if (++RS.ResendNext == RS.NextSeq)
      RS.ResendNext = -1;
  }
}

bool Machine::stepReader(Reader &R, int64_t Cycle) {
  auto Stalled = [&](StallCause Cause) {
    R.Stalls.add(Cause);
    R.LastCause = Cause;
    if (ActiveTrace)
      ActiveTrace->setState(R.TraceTrack, Cycle, stallStateName(Cause));
    return false;
  };
  if (R.VectorsPushed == R.TotalVectors) {
    if (ActiveTrace)
      ActiveTrace->setState(R.TraceTrack, Cycle, "done");
    return false;
  }
  // After a rehydrating resume, channels that already received vector
  // number VectorsPushed from the pre-recovery placement are skipped
  // (ChannelBase is their delivery cursor) until the cursors even out;
  // on fresh runs and exact resumes every ChannelBase is zero.
  for (size_t I = 0; I != R.OutChannels.size(); ++I)
    if (R.VectorsPushed >= R.ChannelBase[I] &&
        channelFull(R.OutChannels[I]))
      return Stalled(StallCause::OutputBlocked);
  // Charge the arbitration penalty once per requesting endpoint per cycle.
  double DataBytes = static_cast<double>(Lanes) *
                     static_cast<double>(ElementBytes);
  if (!grantMemory(R.Device, DataBytes, /*IsWriter=*/false))
    return Stalled(StallCause::MemoryDenied);
  const double *Vector =
      R.Data->data() + static_cast<size_t>(R.VectorsPushed) *
                           static_cast<size_t>(Lanes);
  for (size_t I = 0; I != R.OutChannels.size(); ++I)
    if (R.VectorsPushed >= R.ChannelBase[I])
      channelPush(R.OutChannels[I], Vector, Cycle);
  ++R.VectorsPushed;
  if (ActiveTrace)
    ActiveTrace->setState(R.TraceTrack, Cycle, "active");
  return true;
}

double Machine::readSlot(const Unit &U, const SlotRef &Slot,
                         int Lane) const {
  // Bounds predication against the logical index.
  if (Slot.IsStream) {
    const FieldStream &Stream =
        U.Streams[static_cast<size_t>(Slot.SourceIndex)];
    bool InBounds = true;
    for (size_t Dim = 0, E = SpaceExtents.size(); Dim != E; ++Dim) {
      int64_t Component = U.CenterIndex[Dim] + Slot.DimOffsets[Dim] +
                          (Dim + 1 == E ? Lane : 0);
      if (Component < 0 || Component >= SpaceExtents[Dim]) {
        InBounds = false;
        break;
      }
    }
    int64_t Position;
    if (InBounds)
      Position = Stream.WrittenElements - 1 - (Slot.OffsetFromNewest - Lane);
    else if (Slot.Boundary == BoundaryKind::Constant)
      return Slot.BoundaryValue;
    else // Copy: the center value of this lane.
      Position = Stream.WrittenElements - 1 - (Slot.CenterFromNewest - Lane);
    assert(Position >= 0 && Position < Stream.WrittenElements &&
           "tap ahead of the stream");
    return Stream.Ring[static_cast<size_t>(Position % Stream.RingElements)];
  }

  const Rom &R = U.Roms[static_cast<size_t>(Slot.SourceIndex)];
  int64_t Linear = 0;
  bool InBounds = true;
  for (size_t Dim = 0, E = R.SpannedDims.size(); Dim != E; ++Dim) {
    size_t SpaceDim = R.SpannedDims[Dim];
    int64_t Component = U.CenterIndex[SpaceDim] + Slot.DimOffsets[Dim] +
                        (SpaceDim + 1 == SpaceExtents.size() ? Lane : 0);
    if (Component < 0 || Component >= R.Extents[Dim]) {
      InBounds = false;
      break;
    }
    Linear += Component * R.Strides[Dim];
  }
  if (!InBounds) {
    if (Slot.Boundary == BoundaryKind::Constant)
      return Slot.BoundaryValue;
    Linear = 0;
    for (size_t Dim = 0, E = R.SpannedDims.size(); Dim != E; ++Dim) {
      size_t SpaceDim = R.SpannedDims[Dim];
      int64_t Component = U.CenterIndex[SpaceDim] +
                          (SpaceDim + 1 == SpaceExtents.size() ? Lane : 0);
      Linear += Component * R.Strides[Dim];
    }
  }
  return R.Data[static_cast<size_t>(Linear)];
}

void Machine::gatherSlot(const Unit &U, const SlotRef &Slot,
                         double *Dst) const {
  if (Slot.IsStream) {
    // Interior fast path: when every lane of this tap is in bounds, the
    // per-lane ring positions are consecutive (Pos0 + Lane), so the
    // vector is one modulo plus at most one wrap (RingElements >= W).
    size_t E = SpaceExtents.size();
    bool Interior = true;
    for (size_t Dim = 0; Dim + 1 < E; ++Dim) {
      int64_t Component = U.CenterIndex[Dim] + Slot.DimOffsets[Dim];
      if (Component < 0 || Component >= SpaceExtents[Dim]) {
        Interior = false;
        break;
      }
    }
    if (Interior) {
      // The innermost dimension sweeps Lane = 0 .. Lanes-1; clip that
      // range against the innermost extent. Fully interior vectors copy
      // every lane in two ring spans; boundary columns keep the span copy
      // for their in-bounds lanes [LaneLo, LaneHi) — whose ring positions
      // are still consecutive (Pos0 + Lane) — and take the predicated
      // per-lane read only where the tap actually leaves the domain.
      int64_t Innermost = U.CenterIndex[E - 1] + Slot.DimOffsets[E - 1];
      int64_t LaneLo = std::max<int64_t>(0, -Innermost);
      int64_t LaneHi =
          std::min<int64_t>(Lanes, SpaceExtents[E - 1] - Innermost);
      if (LaneLo < LaneHi) {
        const FieldStream &Stream =
            U.Streams[static_cast<size_t>(Slot.SourceIndex)];
        int64_t Pos0 = Stream.WrittenElements - 1 - Slot.OffsetFromNewest;
        assert(Pos0 + LaneLo >= 0 &&
               Pos0 + LaneHi <= Stream.WrittenElements &&
               "tap ahead of the stream");
        for (int64_t Lane = 0; Lane != LaneLo; ++Lane)
          Dst[Lane] = readSlot(U, Slot, static_cast<int>(Lane));
        int64_t Count = LaneHi - LaneLo;
        int64_t Base = (Pos0 + LaneLo) % Stream.RingElements;
        int64_t Span = std::min<int64_t>(Count, Stream.RingElements - Base);
        const double *Ring = Stream.Ring.data();
        std::copy(Ring + Base, Ring + Base + Span, Dst + LaneLo);
        std::copy(Ring, Ring + (Count - Span), Dst + LaneLo + Span);
        for (int64_t Lane = LaneHi; Lane != Lanes; ++Lane)
          Dst[Lane] = readSlot(U, Slot, static_cast<int>(Lane));
        return;
      }
    }
  }
  // Boundary vectors and ROM slots: the per-lane reference read.
  for (int Lane = 0; Lane != Lanes; ++Lane)
    Dst[Lane] = readSlot(U, Slot, Lane);
}

bool Machine::stepUnit(Unit &U, int64_t Cycle) {
  bool MadeProgress = false;
  int64_t TotalSteps = U.StreamVectors + U.InitSteps;
  // First blocking condition observed this cycle; the emit phase below
  // overrides it — a matured result that cannot leave blocks the unit
  // regardless of its inputs. If nothing external blocked, a stalled
  // cycle is attributed to the unit's own circuit latency.
  StallCause Cause = StallCause::PipelineLatency;

  // Consume phase: pop scheduled streams, advance rings, issue an output
  // into the pipeline once past the initialization phase. Requires pipe
  // room (structural hazard: the pipeline holds at most CircuitLatency+1
  // in-flight results).
  if (U.Step < TotalSteps &&
      static_cast<int64_t>(U.PipeReady.size()) <= U.CircuitLatency) {
    bool InputsReady = true;
    for (FieldStream &Stream : U.Streams) {
      bool Pops = U.Step >= Stream.DelaySteps &&
                  U.Step < Stream.DelaySteps + U.StreamVectors;
      if (Pops && !Channels[Stream.ChannelIndex]->readable(Cycle)) {
        InputsReady = false;
        break;
      }
    }
    if (!InputsReady)
      Cause = StallCause::InputStarved;
    if (InputsReady) {
      for (FieldStream &Stream : U.Streams) {
        bool Pops = U.Step >= Stream.DelaySteps &&
                    U.Step < Stream.DelaySteps + U.StreamVectors;
        bool Pads = U.Step >= Stream.DelaySteps + U.StreamVectors;
        if (!Pops && !Pads)
          continue; // Not yet scheduled.
        // Write W elements into the ring (popped data or drain padding).
        // The ring size is not necessarily a multiple of W, so the vector
        // may wrap — but at most once (RingElements >= W), so one modulo
        // and two straight-line spans cover every case.
        int64_t Base = Stream.WrittenElements % Stream.RingElements;
        int64_t First = std::min<int64_t>(Lanes, Stream.RingElements - Base);
        double *Ring = Stream.Ring.data();
        if (Pops) {
          Channels[Stream.ChannelIndex]->pop(U.PopStaging.data(), Cycle);
          const double *Src = U.PopStaging.data();
          std::copy(Src, Src + First, Ring + Base);
          std::copy(Src + First, Src + Lanes, Ring);
        } else {
          std::fill(Ring + Base, Ring + Base + First, 0.0);
          std::fill(Ring, Ring + (Lanes - First), 0.0);
        }
        Stream.WrittenElements += Lanes;
      }
      // Issue an output once the initialization phase has passed.
      if (U.Step >= U.InitSteps) {
        if (U.Eval.tier() == compute::KernelEngine::Scalar) {
          // Reference path: per-lane gather and scalar interpretation.
          for (int Lane = 0; Lane != Lanes; ++Lane) {
            for (size_t Slot = 0, E = U.Slots.size(); Slot != E; ++Slot)
              U.SlotValues[Slot] = readSlot(U, U.Slots[Slot], Lane);
            U.OutVector[static_cast<size_t>(Lane)] =
                U.Kernel->evaluate(U.SlotValues.data(), U.Scratch.data());
          }
        } else {
          // Batched path: gather each slot's whole vector, then run the
          // compiled tape once for all lanes.
          for (size_t Slot = 0, E = U.Slots.size(); Slot != E; ++Slot)
            gatherSlot(U, U.Slots[Slot],
                       U.SlotSoA.data() + Slot * static_cast<size_t>(Lanes));
          U.Eval.evaluate(U.SlotSoA.data(), U.OutVector.data(),
                          U.EvalScratch.data());
        }
        for (int Lane = 0; Lane != Lanes; ++Lane)
          U.PipeValues.push_back(U.OutVector[static_cast<size_t>(Lane)]);
        U.PipeReady.push_back(Cycle + U.CircuitLatency);
        ++U.Issued;
        // Advance the output center index by one vector.
        for (size_t Dim = SpaceExtents.size(); Dim-- > 0;) {
          U.CenterIndex[Dim] += Dim + 1 == SpaceExtents.size() ? Lanes : 1;
          if (U.CenterIndex[Dim] < SpaceExtents[Dim] || Dim == 0)
            break;
          U.CenterIndex[Dim] = 0;
        }
      }
      ++U.Step;
      MadeProgress = true;
    }
  }

  // Emit phase: push the oldest pipeline result to every consumer once it
  // has traversed the circuit and all output channels can accept it.
  if (!U.PipeReady.empty() && U.PipeReady.front() <= Cycle) {
    bool CanPush = true;
    for (size_t ChannelIndex : U.OutChannels)
      if (channelFull(ChannelIndex))
        CanPush = false;
    if (!CanPush)
      Cause = StallCause::OutputBlocked;
    // Network feasibility for all remote pushes together. HopNeeded is
    // hoisted scratch: no per-cycle allocation.
    if (CanPush) {
      double Bytes = static_cast<double>(Lanes) *
                     static_cast<double>(ElementBytes);
      std::fill(HopNeeded.begin(), HopNeeded.end(), 0.0);
      for (size_t ChannelIndex : U.OutChannels) {
        const RemoteLink &Link = RemoteLinks[ChannelIndex];
        for (int Hop = Link.FirstHop; Hop != Link.LastHop; ++Hop)
          HopNeeded[static_cast<size_t>(Hop)] += Bytes;
      }
      for (size_t Hop = 0; Hop != HopNeeded.size(); ++Hop)
        if (HopNeeded[Hop] > 0 && HopBudget[Hop] < HopNeeded[Hop]) {
          CanPush = false;
          BandwidthWait = true;
          Cause = StallCause::NetworkDenied;
        }
      if (CanPush)
        for (size_t Hop = 0; Hop != HopNeeded.size(); ++Hop) {
          HopBudget[Hop] -= HopNeeded[Hop];
          NetworkBytesMoved += HopNeeded[Hop];
        }
    }
    if (CanPush) {
      for (int Lane = 0; Lane != Lanes; ++Lane) {
        U.OutVector[static_cast<size_t>(Lane)] = U.PipeValues.front();
        U.PipeValues.pop_front();
      }
      U.PipeReady.pop_front();
      for (size_t ChannelIndex : U.OutChannels)
        channelPush(ChannelIndex, U.OutVector.data(), Cycle);
      ++U.Emitted;
      MadeProgress = true;
    }
  }

  bool Finished = U.Emitted == U.StreamVectors;
  if (!MadeProgress && !Finished) {
    ++U.StallCycles;
    U.Stalls.add(Cause);
    U.LastCause = Cause;
  }
  if (ActiveTrace) {
    const char *State;
    if (Finished)
      State = "done";
    else if (!MadeProgress)
      State = stallStateName(Cause);
    else if (U.Step <= U.InitSteps)
      State = "init";
    else if (U.Issued == U.StreamVectors)
      State = "drain";
    else
      State = "active";
    ActiveTrace->setState(U.TraceTrack, Cycle, State);
  }
  return MadeProgress;
}

bool Machine::stepWriter(Writer &W, int64_t Cycle) {
  auto Stalled = [&](StallCause Cause) {
    W.Stalls.add(Cause);
    W.LastCause = Cause;
    if (ActiveTrace)
      ActiveTrace->setState(W.TraceTrack, Cycle, stallStateName(Cause));
    return false;
  };
  if (W.VectorsWritten == W.TotalVectors) {
    if (ActiveTrace)
      ActiveTrace->setState(W.TraceTrack, Cycle, "done");
    return false;
  }
  Channel &In = *Channels[W.ChannelIndex];
  if (!In.readable(Cycle))
    return Stalled(StallCause::InputStarved);
  double DataBytes = static_cast<double>(Lanes) *
                     static_cast<double>(ElementBytes);
  if (!grantMemory(W.Device, DataBytes, /*IsWriter=*/true))
    return Stalled(StallCause::MemoryDenied);
  In.pop(W.InVector.data(), Cycle);
  int64_t BaseCell = W.VectorsWritten * Lanes;
  for (int Lane = 0; Lane != Lanes; ++Lane) {
    bool Valid = true;
    if (W.Shrink) {
      // The lane's multi-dim index: W.Index tracks lane 0.
      std::vector<int64_t> LaneIndex = W.Index;
      LaneIndex.back() += Lane;
      Valid = W.Region.contains(LaneIndex);
    }
    if (Valid)
      W.Data[static_cast<size_t>(BaseCell + Lane)] =
          W.InVector[static_cast<size_t>(Lane)];
  }
  ++W.VectorsWritten;
  for (size_t Dim = SpaceExtents.size(); Dim-- > 0;) {
    W.Index[Dim] += Dim + 1 == SpaceExtents.size() ? Lanes : 1;
    if (W.Index[Dim] < SpaceExtents[Dim] || Dim == 0)
      break;
    W.Index[Dim] = 0;
  }
  if (ActiveTrace)
    ActiveTrace->setState(W.TraceTrack, Cycle, "active");
  return true;
}

//===----------------------------------------------------------------------===//
// Run
//===----------------------------------------------------------------------===//

void Machine::buildFailureReport(ErrorCode Code, int64_t Cycle) {
  LastFailure = FailureReport();
  LastFailure.Code = Code;
  LastFailure.Cycle = Cycle;
  if (Config.Faults)
    LastFailure.FailedDevice = Config.Faults->firstFailedDevice(Cycle);

  // Channels adjacent to any stuck component, each reported once.
  std::vector<char> ChannelSeen(Channels.size(), 0);
  auto AddChannel = [&](size_t ChannelIndex) {
    if (ChannelSeen[ChannelIndex])
      return;
    ChannelSeen[ChannelIndex] = 1;
    const Channel &C = *Channels[ChannelIndex];
    FailureChannel FC;
    FC.Name = C.name();
    FC.Occupancy = C.visibleSize(Cycle);
    FC.Capacity = C.capacity();
    FC.Full = channelFull(ChannelIndex);
    LastFailure.Channels.push_back(std::move(FC));
  };

  for (const Reader &R : Readers) {
    if (R.VectorsPushed == R.TotalVectors)
      continue;
    FailureComponent FC;
    FC.Name = R.Field;
    FC.Kind = "reader";
    FC.Device = R.Device;
    FC.Cause = R.Stalls.dominant();
    FC.StallCycles = R.Stalls.total();
    FC.Progress = R.VectorsPushed;
    FC.Total = R.TotalVectors;
    LastFailure.Components.push_back(std::move(FC));
    for (size_t ChannelIndex : R.OutChannels)
      AddChannel(ChannelIndex);
  }
  for (const Unit &U : Units) {
    if (U.Emitted == U.StreamVectors)
      continue;
    FailureComponent FC;
    FC.Name = U.Name;
    FC.Kind = "unit";
    FC.Device = U.Device;
    FC.Cause = U.Stalls.dominant();
    FC.StallCycles = U.StallCycles;
    FC.Progress = U.Emitted;
    FC.Total = U.StreamVectors;
    LastFailure.Components.push_back(std::move(FC));
    for (const FieldStream &Stream : U.Streams)
      AddChannel(Stream.ChannelIndex);
    for (size_t ChannelIndex : U.OutChannels)
      AddChannel(ChannelIndex);
  }
  for (const Writer &W : Writers) {
    if (W.VectorsWritten == W.TotalVectors)
      continue;
    FailureComponent FC;
    FC.Name = W.Field;
    FC.Kind = "writer";
    FC.Device = W.Device;
    FC.Cause = W.Stalls.dominant();
    FC.StallCycles = W.Stalls.total();
    FC.Progress = W.VectorsWritten;
    FC.Total = W.TotalVectors;
    LastFailure.Components.push_back(std::move(FC));
    AddChannel(W.ChannelIndex);
  }

  // The headline component: the most-stalled stuck one.
  const FailureComponent *Worst = nullptr;
  for (const FailureComponent &FC : LastFailure.Components)
    if (!Worst || FC.StallCycles > Worst->StallCycles)
      Worst = &FC;
  if (Worst) {
    LastFailure.Component = Worst->Name;
    LastFailure.DominantCause = Worst->Cause;
  }
}

SimFailure Machine::abortRun(ErrorCode Code, int64_t Cycle,
                             const std::string &FailedChannel) {
  buildFailureReport(Code, Cycle);
  LastFailure.FailedChannel = FailedChannel;
  if (ActiveTrace)
    ActiveTrace->finish(Cycle);
  return SimFailure(makeError(Code, LastFailure.render()), LastFailure);
}

Error Machine::prepareRun(
    const std::map<std::string, std::vector<double>> &Inputs) {
  const StencilProgram &Program = Compiled->program();

  // Bind inputs and reset runtime state.
  for (Reader &R : Readers) {
    auto It = Inputs.find(R.Field);
    if (It == Inputs.end())
      return makeError("missing data for input field '" + R.Field + "'");
    if (static_cast<int64_t>(It->second.size()) !=
        Program.IterationSpace.numCells())
      return makeError("input field '" + R.Field +
                       "' has the wrong number of cells");
    R.Data = &It->second;
    R.VectorsPushed = 0;
    R.ChannelBase.assign(R.OutChannels.size(), 0);
    R.Stalls = StallBreakdown();
    R.LastCause = StallCause::OutputBlocked;
    R.LastProgress = 0;
  }
  for (Unit &U : Units) {
    for (FieldStream &Stream : U.Streams) {
      Stream.Ring.assign(static_cast<size_t>(Stream.RingElements), 0.0);
      Stream.WrittenElements = 0;
    }
    for (Rom &R : U.Roms) {
      auto It = Inputs.find(R.Field);
      if (It == Inputs.end())
        return makeError("missing data for input field '" + R.Field + "'");
      Shape FieldShape = Program.fieldShape(R.Field);
      if (static_cast<int64_t>(It->second.size()) != FieldShape.numCells())
        return makeError("input field '" + R.Field +
                         "' has the wrong number of cells");
      R.Data = It->second;
    }
    U.Step = 0;
    U.Issued = 0;
    U.Emitted = 0;
    U.PipeReady.clear();
    U.PipeValues.clear();
    U.CenterIndex.assign(SpaceExtents.size(), 0);
    U.StallCycles = 0;
    U.Stalls = StallBreakdown();
    U.LastCause = StallCause::PipelineLatency;
    U.LastProgress = 0;
    U.Scratch.assign(U.Kernel->instructions().size(), 0.0);
    U.SlotValues.assign(U.Slots.size(), 0.0);
    U.OutVector.assign(static_cast<size_t>(Lanes), 0.0);
    U.PopStaging.assign(static_cast<size_t>(Lanes), 0.0);
    U.SlotSoA.assign(U.Slots.size() * static_cast<size_t>(Lanes), 0.0);
    U.EvalScratch.assign(U.Eval.scratchDoubles(), 0.0);
  }
  for (Writer &W : Writers) {
    W.Data.assign(static_cast<size_t>(Program.IterationSpace.numCells()),
                  0.0);
    W.Index.assign(SpaceExtents.size(), 0);
    W.VectorsWritten = 0;
    W.InVector.assign(static_cast<size_t>(Lanes), 0.0);
    W.Stalls = StallBreakdown();
    W.LastCause = StallCause::InputStarved;
    W.LastProgress = 0;
  }
  std::fill(MemoryBytesMoved.begin(), MemoryBytesMoved.end(), 0.0);
  std::fill(MemoryBudget.begin(), MemoryBudget.end(), 0.0);
  std::fill(WriterBudget.begin(), WriterBudget.end(), 0.0);
  std::fill(HopBudget.begin(), HopBudget.end(), 0.0);

  // Resilience state.
  for (ReliableStream &RS : Reliable) {
    RS.SendBuffer.clear();
    RS.Wire.clear();
    RS.NextSeq = RS.SendBase = RS.ExpectedSeq = 0;
    RS.ResendNext = -1;
    RS.BackoffUntil = 0;
    RS.NackStreak = 0;
    RS.AttemptsOnExpected = 0;
    RS.TransmissionNonce = 0;
    RS.PeakOutstanding = 0;
    RS.Stats = LinkStats();
  }
  DeadDevice.assign(static_cast<size_t>(NumDevices), 0);
  Brownout.assign(static_cast<size_t>(NumDevices), 0);
  LastFailure = FailureReport();

  // Per-cycle scratch (hoisted: the run loop must not allocate).
  ActiveReaders.assign(MemoryBudget.size(), 0);
  ActiveWriters.assign(MemoryBudget.size(), 0);
  HopNeeded.assign(HopBudget.size(), 0.0);
  NetworkBytesMoved = 0.0;
  BandwidthWait = false;

  // Checkpoint bookkeeping: a fresh run starts at cycle zero; a resume
  // overrides these after restoreSnapshot succeeds.
  ResumeCycle = 0;
  NextCheckpointCycle = Config.CheckpointEveryCycles;
  LastCheckpointWall = std::chrono::steady_clock::now();
  CheckpointsWritten = 0;
  CheckpointFailures = 0;
  ResumedFromCycle = -1;
  TierReassignedUnits = 0;

  // Observability: attach the tracer, discarding any previous recording.
  ActiveTrace = Config.Trace;
  if (ActiveTrace) {
    ActiveTrace->clear();
    registerTrace(*ActiveTrace);
  }

  MaxCycles = Config.MaxCycleFactor *
                  (ExpectedCycles +
                   Config.NetworkLatencyCyclesPerHop * NumDevices) +
              Config.MaxCycleSlack;
  return Error::success();
}

void Machine::refillDeviceBudgets(size_t Device, int64_t Cycle, int ActiveR,
                                  int ActiveW) {
  const FaultPlan *Plan = Config.Faults;
  double TransactionBytes = static_cast<double>(Lanes) *
                                static_cast<double>(ElementBytes) +
                            Config.TransactionOverheadBytes;
  double MemoryClamp = Config.PeakMemoryBytesPerCycle + TransactionBytes;
  int Total = ActiveR + ActiveW;
  double WriterShare =
      Total == 0 ? 0.0
                 : static_cast<double>(ActiveW) / static_cast<double>(Total);
  double Refill = Config.PeakMemoryBytesPerCycle;
  // A brownout throttles the refill rate, not the accumulated budget.
  if (Plan && Brownout[Device])
    Refill *= Plan->memoryFactor(static_cast<int>(Device), Cycle);
  WriterBudget[Device] =
      std::min(WriterBudget[Device] + Refill * WriterShare,
               MemoryClamp * WriterShare + TransactionBytes);
  MemoryBudget[Device] =
      std::min(MemoryBudget[Device] + Refill * (1.0 - WriterShare),
               MemoryClamp);
}

void Machine::refillHopBudget(size_t Hop, int64_t Cycle) {
  const FaultPlan *Plan = Config.Faults;
  double HopRate = Config.LinkBytesPerCycle * Config.LinksPerHop;
  double HopClamp = HopRate + static_cast<double>(Lanes) *
                                  static_cast<double>(ElementBytes) *
                                  static_cast<double>(
                                      std::max(1, NumDevices - 1));
  double Rate = HopRate;
  if (Plan)
    Rate *= Plan->linkFactor(static_cast<int>(Hop), Cycle);
  HopBudget[Hop] = std::min(HopBudget[Hop] + Rate, HopClamp);
}

void Machine::applyArbitrationPenalty(size_t Device, int ActiveR,
                                      int ActiveW) {
  MemoryBudget[Device] =
      std::max(0.0, MemoryBudget[Device] -
                        Config.ArbitrationPenaltyBytesPerEndpoint * ActiveR);
  WriterBudget[Device] =
      std::max(0.0, WriterBudget[Device] -
                        Config.ArbitrationPenaltyBytesPerEndpoint * ActiveW);
}

Machine::StepOutcome Machine::stepCycle(int64_t Cycle, SimFailure &Failure) {
  const FaultPlan *Plan = Config.Faults;
  if (Cycle >= MaxCycles) {
    Failure = abortRun(ErrorCode::CycleLimit, Cycle);
    return StepOutcome::Failed;
  }

  // Refresh the per-device fault state for this cycle.
  if (Plan && !Plan->empty())
    for (int Device = 0; Device != NumDevices; ++Device) {
      Brownout[static_cast<size_t>(Device)] =
          Plan->memoryBrownoutAt(Device, Cycle);
      if (Cycle >= EarliestDeviceFail)
        DeadDevice[static_cast<size_t>(Device)] =
            Plan->deviceFailedAt(Device, Cycle);
    }
  auto IsDead = [&](int Device) {
    return Plan && DeadDevice[static_cast<size_t>(Device)] != 0;
  };

  // Refill per-cycle budgets. Unused budget carries over (bounded by one
  // transaction beyond the per-cycle rate), so rates smaller than a
  // single transaction still make progress every few cycles.
  // Split the refill between reader and writer pools proportionally to
  // the number of active endpoints on each device.
  std::fill(ActiveReaders.begin(), ActiveReaders.end(), 0);
  std::fill(ActiveWriters.begin(), ActiveWriters.end(), 0);
  for (const Reader &R : Readers)
    if (R.VectorsPushed != R.TotalVectors && !IsDead(R.Device))
      ++ActiveReaders[static_cast<size_t>(R.Device)];
  for (const Writer &W : Writers)
    if (W.VectorsWritten != W.TotalVectors && !IsDead(W.Device))
      ++ActiveWriters[static_cast<size_t>(W.Device)];
  for (size_t Device = 0; Device != MemoryBudget.size(); ++Device)
    refillDeviceBudgets(Device, Cycle, ActiveReaders[Device],
                        ActiveWriters[Device]);
  for (size_t Hop = 0; Hop != HopBudget.size(); ++Hop)
    refillHopBudget(Hop, Cycle);
  BandwidthWait = false;

  // Reliable streams: matured wire transmissions are verified and
  // delivered before any component steps, so the consumer-visible
  // timing is identical to the plain transport's arrival latency.
  if (!Reliable.empty())
    if (Error Err = linkReceive(Cycle)) {
      Failure = SimFailure(std::move(Err), LastFailure);
      return StepOutcome::Failed;
    }

  // Crossbar arbitration pressure: each active endpoint costs a small
  // amount of routing bandwidth (the mild pre-plateau droop of Fig. 16).
  // Pools never go negative: the penalty can only consume this cycle's
  // refill.
  if (!Config.UnconstrainedMemory &&
      Config.ArbitrationPenaltyBytesPerEndpoint > 0.0)
    for (size_t Device = 0; Device != MemoryBudget.size(); ++Device)
      applyArbitrationPenalty(Device, ActiveReaders[Device],
                              ActiveWriters[Device]);

  // Readers and writers are served in a rotating order so bandwidth
  // arbitration is fair when the controller is oversubscribed (a fixed
  // priority would starve the tail endpoints and halve throughput).
  bool Progress = false;
  if (!Readers.empty()) {
    size_t Offset = static_cast<size_t>(Cycle) % Readers.size();
    for (size_t Index = 0; Index != Readers.size(); ++Index) {
      Reader &R = Readers[(Index + Offset) % Readers.size()];
      if (IsDead(R.Device)) {
        if (ActiveTrace)
          ActiveTrace->setState(R.TraceTrack, Cycle, "dead");
        continue;
      }
      if (stepReader(R, Cycle)) {
        R.LastProgress = Cycle;
        Progress = true;
      }
    }
  }
  for (Unit &U : Units) {
    if (IsDead(U.Device)) {
      if (ActiveTrace)
        ActiveTrace->setState(U.TraceTrack, Cycle, "dead");
      continue;
    }
    if (stepUnit(U, Cycle)) {
      U.LastProgress = Cycle;
      Progress = true;
    }
  }
  if (!Writers.empty()) {
    size_t Offset = static_cast<size_t>(Cycle) % Writers.size();
    for (size_t Index = 0; Index != Writers.size(); ++Index) {
      Writer &W = Writers[(Index + Offset) % Writers.size()];
      if (IsDead(W.Device)) {
        if (ActiveTrace)
          ActiveTrace->setState(W.TraceTrack, Cycle, "dead");
        continue;
      }
      if (stepWriter(W, Cycle)) {
        W.LastProgress = Cycle;
        Progress = true;
      }
    }
  }

  // Reliable streams: rewound senders retransmit from leftover hop
  // bandwidth (fresh emissions had priority this cycle).
  if (!Reliable.empty())
    linkSend(Cycle);

  if (ActiveTrace && Cycle % ActiveTrace->sampleStride() == 0)
    sampleTrace(*ActiveTrace, Cycle);

  bool Done = true;
  for (const Writer &W : Writers)
    Done &= W.VectorsWritten == W.TotalVectors;
  if (Done)
    return StepOutcome::Finished;

  if (!Progress) {
    // Time-dependent state (in-flight network vectors, retransmissions,
    // pipeline stages) may still mature; otherwise no component can
    // ever step again — a true deadlock, unless the quiescence was
    // caused by a permanently failed device.
    bool Pending = BandwidthWait;
    for (const auto &C : Channels)
      Pending |= C->hasPendingArrival(Cycle);
    for (const Unit &U : Units)
      Pending |= !U.PipeReady.empty() && U.PipeReady.front() > Cycle;
    for (const ReliableStream &RS : Reliable)
      Pending |= !RS.Wire.empty() || RS.ResendNext >= 0;
    if (!Pending) {
      ErrorCode Code = Plan && Plan->firstFailedDevice(Cycle) >= 0
                           ? ErrorCode::DeviceLost
                           : ErrorCode::Deadlock;
      Failure = abortRun(Code, Cycle);
      return StepOutcome::Failed;
    }
  }

  // Progress watchdog: a component stuck past the timeout while the
  // system as a whole still moves is livelock/starvation, not deadlock
  // (the global no-progress check above catches true deadlocks the
  // cycle they happen). A permanently failed device is reported as the
  // root cause instead of the starvation it induces downstream.
  if (Config.StallTimeoutCycles > 0 && Cycle != 0 && Cycle % 256 == 0) {
    bool Starved = false;
    for (const Reader &R : Readers)
      Starved |= R.VectorsPushed != R.TotalVectors &&
                 Cycle - R.LastProgress > Config.StallTimeoutCycles;
    for (const Unit &U : Units)
      Starved |= U.Emitted != U.StreamVectors &&
                 Cycle - U.LastProgress > Config.StallTimeoutCycles;
    for (const Writer &W : Writers)
      Starved |= W.VectorsWritten != W.TotalVectors &&
                 Cycle - W.LastProgress > Config.StallTimeoutCycles;
    if (Starved) {
      ErrorCode Code = Plan && Plan->firstFailedDevice(Cycle) >= 0
                           ? ErrorCode::DeviceLost
                           : ErrorCode::Starvation;
      Failure = abortRun(Code, Cycle);
      return StepOutcome::Failed;
    }
  }
  return StepOutcome::Running;
}

Machine::StepOutcome Machine::runLoop(int64_t &FinalCycles,
                                      SimFailure &Failure) {
  for (int64_t Cycle = ResumeCycle;; ++Cycle) {
    StepOutcome Outcome = stepCycle(Cycle, Failure);
    if (Outcome == StepOutcome::Running) {
      // Every cycle boundary is globally consistent; the wall
      // clock is only consulted every 1024 cycles to keep the fault-free
      // fast path free of syscalls.
      maybeCheckpoint(Cycle + 1, (Cycle & 1023) == 0);
      continue;
    }
    if (Outcome == StepOutcome::Finished)
      FinalCycles = Cycle + 1;
    return Outcome;
  }
}

SimResult Machine::collectResult(int64_t FinalCycles) {
  if (ActiveTrace)
    ActiveTrace->finish(FinalCycles);

  SimResult Result;
  Result.Stats.Cycles = FinalCycles;
  Result.Stats.MemoryBytesMoved = MemoryBytesMoved;
  Result.Stats.AchievedMemoryBytesPerCycle.resize(MemoryBytesMoved.size());
  for (size_t Device = 0; Device != MemoryBytesMoved.size(); ++Device)
    Result.Stats.AchievedMemoryBytesPerCycle[Device] =
        MemoryBytesMoved[Device] / static_cast<double>(FinalCycles);
  Result.Stats.NetworkBytesMoved = NetworkBytesMoved;
  Result.Stats.CheckpointsWritten = CheckpointsWritten;
  Result.Stats.ResumedFromCycle = ResumedFromCycle;
  Result.Stats.TierReassignedUnits = TierReassignedUnits;
  Result.Stats.KernelExec = compute::kernelEngineName(Config.KernelExec);
  for (const Unit &U : Units) {
    // Record what actually runs, not what was requested: Specialized
    // degrades to Batched when the chain does not match.
    compute::KernelEngine Effective = U.Eval.tier();
    if (Effective == compute::KernelEngine::Specialized)
      ++Result.Stats.SpecializedUnits;
    Result.Stats.UnitKernelTiers[U.Name] =
        compute::kernelEngineName(Effective);
  }
  for (const Unit &U : Units) {
    Result.Stats.UnitStallCycles[U.Name] = U.StallCycles;
    Result.Stats.UnitStalls[U.Name] = U.Stalls;
  }
  for (const Reader &R : Readers)
    Result.Stats.ReaderStalls[formatString("%s@%d", R.Field.c_str(),
                                           R.Device)] = R.Stalls;
  for (const Writer &W : Writers)
    Result.Stats.WriterStalls[W.Field] = W.Stalls;
  for (size_t Index = 0; Index != Channels.size(); ++Index) {
    const Channel &C = *Channels[Index];
    Result.Stats.ChannelHighWater[C.name()] = C.highWaterMark();
    // Reliable streams model the wire outside the Channel; their peak
    // counts in-flight vectors the same way the plain transport does.
    Result.Stats.ChannelPeakOccupancy[C.name()] =
        ReliableOf[Index] >= 0
            ? Reliable[static_cast<size_t>(ReliableOf[Index])]
                  .PeakOutstanding
            : C.peakOccupancy();
    Result.Stats.ChannelCapacity[C.name()] = C.capacity();
  }
  for (const ReliableStream &RS : Reliable) {
    Result.Stats.Links[Channels[RS.ChannelIndex]->name()] = RS.Stats;
    if (RS.Stats.Retransmissions > 0 || RS.Stats.CorruptedVectors > 0)
      Result.Termination = TerminationReason::CompletedDegraded;
  }
  for (Writer &W : Writers)
    Result.Outputs[W.Field] = std::move(W.Data);
  return Result;
}

Expected<SimResult, SimFailure>
Machine::run(const std::map<std::string, std::vector<double>> &Inputs,
             const MachineSnapshot *Resume) {
  if (Error Err = prepareRun(Inputs))
    return Err;
  InputsHashOfRun = hashInputFields(Inputs);
  if (Resume) {
    if (Error Err = restoreSnapshot(*Resume, InputsHashOfRun))
      return SimFailure(std::move(Err));
    // Both cadences restart relative to the resume point, so the first
    // snapshot of the resumed run lands on the same boundary the killed
    // run would have used next.
    if (Config.CheckpointEveryCycles > 0)
      NextCheckpointCycle =
          (ResumeCycle / Config.CheckpointEveryCycles + 1) *
          Config.CheckpointEveryCycles;
    LastCheckpointWall = std::chrono::steady_clock::now();
  }
  SimFailure Failure;
  int64_t FinalCycles = 0;
  if (runLoop(FinalCycles, Failure) == StepOutcome::Failed)
    return Failure;
  return collectResult(FinalCycles);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

void Machine::registerTrace(Tracer &T) {
  for (Reader &R : Readers)
    R.TraceTrack = T.addTrack("read " + R.Field, R.Device);
  for (Unit &U : Units)
    U.TraceTrack = T.addTrack("unit " + U.Name, U.Device);
  for (Writer &W : Writers)
    W.TraceTrack = T.addTrack("write " + W.Field, W.Device);
  ChannelCounters.clear();
  for (size_t Index = 0; Index != Channels.size(); ++Index)
    ChannelCounters.push_back(
        T.addCounter("fifo " + Channels[Index]->name(),
                     RemoteLinks[Index].LastHop, "vectors"));
  MemoryCounters.clear();
  LastMemBytes.assign(MemoryBytesMoved.size(), 0.0);
  for (size_t Device = 0; Device != MemoryBytesMoved.size(); ++Device)
    MemoryCounters.push_back(
        T.addCounter(formatString("memory device %zu", Device),
                     static_cast<int>(Device), "bytes/cycle"));
}

void Machine::sampleTrace(Tracer &T, int64_t Cycle) {
  for (size_t Index = 0; Index != Channels.size(); ++Index)
    T.sample(ChannelCounters[Index], Cycle,
             static_cast<double>(Channels[Index]->size()));
  double Window = static_cast<double>(T.sampleStride());
  for (size_t Device = 0; Device != MemoryBytesMoved.size(); ++Device) {
    T.sample(MemoryCounters[Device], Cycle,
             (MemoryBytesMoved[Device] - LastMemBytes[Device]) / Window);
    LastMemBytes[Device] = MemoryBytesMoved[Device];
  }
}
