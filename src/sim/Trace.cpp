//===- sim/Trace.cpp - Simulation observability --------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Trace.h"

#include "sim/Machine.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include <fcntl.h>
#include <unistd.h>

using namespace stencilflow;
using namespace stencilflow::sim;

//===----------------------------------------------------------------------===//
// Stall causes
//===----------------------------------------------------------------------===//

const char *sim::stallCauseName(StallCause Cause) {
  switch (Cause) {
  case StallCause::InputStarved:
    return "input-starved";
  case StallCause::OutputBlocked:
    return "output-blocked";
  case StallCause::MemoryDenied:
    return "memory-denied";
  case StallCause::NetworkDenied:
    return "network-denied";
  case StallCause::PipelineLatency:
    return "pipeline-latency";
  }
  return "unknown";
}

StallCause StallBreakdown::dominant() const {
  int Best = NumStallCauses - 1;
  for (int Cause = 0; Cause != NumStallCauses; ++Cause)
    if (Counts[Cause] > Counts[Best])
      Best = Cause;
  return static_cast<StallCause>(Best);
}

//===----------------------------------------------------------------------===//
// Tracer recording
//===----------------------------------------------------------------------===//

Tracer::Tracer(int64_t SampleStride)
    : SampleStride(std::max<int64_t>(1, SampleStride)) {}

void Tracer::clear() {
  Tracks.clear();
  Counters.clear();
  Intervals.clear();
  Samples.clear();
  StateNames.clear();
  StateIndex.clear();
  FinalCycle = 0;
}

int Tracer::addTrack(std::string Name, int Device) {
  Track T;
  T.Name = std::move(Name);
  T.Device = Device;
  Tracks.push_back(std::move(T));
  return static_cast<int>(Tracks.size()) - 1;
}

int Tracer::addCounter(std::string Name, int Device, std::string Series) {
  Counter C;
  C.Name = std::move(Name);
  C.Device = Device;
  C.Series = std::move(Series);
  Counters.push_back(std::move(C));
  return static_cast<int>(Counters.size()) - 1;
}

int Tracer::internState(std::string_view State) {
  auto It = StateIndex.find(State);
  if (It != StateIndex.end())
    return It->second;
  int Index = static_cast<int>(StateNames.size());
  StateNames.emplace_back(State);
  StateIndex.emplace(StateNames.back(), Index);
  return Index;
}

void Tracer::setState(int TrackId, int64_t Cycle, std::string_view State) {
  assert(TrackId >= 0 &&
         TrackId < static_cast<int>(Tracks.size()) && "unknown track");
  Track &T = Tracks[static_cast<size_t>(TrackId)];
  int StateId = internState(State);
  if (T.Open && T.State == StateId)
    return;
  if (T.Open && Cycle > T.Since)
    Intervals.push_back({TrackId, T.State, T.Since, Cycle});
  T.State = StateId;
  T.Since = Cycle;
  T.Open = true;
}

void Tracer::sample(int CounterId, int64_t Cycle, double Value) {
  assert(CounterId >= 0 &&
         CounterId < static_cast<int>(Counters.size()) && "unknown counter");
  Samples.push_back({CounterId, Cycle, Value});
}

void Tracer::finish(int64_t Cycle) {
  FinalCycle = Cycle;
  for (size_t TrackId = 0; TrackId != Tracks.size(); ++TrackId) {
    Track &T = Tracks[TrackId];
    if (T.Open && Cycle > T.Since)
      Intervals.push_back(
          {static_cast<int>(TrackId), T.State, T.Since, Cycle});
    T.Open = false;
  }
}

//===----------------------------------------------------------------------===//
// Chrome trace-event export
//===----------------------------------------------------------------------===//

std::string Tracer::chromeTraceJson() const {
  // Events stream out one at a time through json's own scalar printers: a
  // trace can hold hundreds of thousands of events, so it never becomes
  // one json::Value tree.
  std::string Out;
  Out.reserve(128 + 96 * (Intervals.size() + Samples.size()));
  auto Str = [&](std::string_view S) { json::appendString(Out, S); };
  // Appends ,"Key":D. Keys are literals that need no escaping.
  auto Num = [&](const char *Key, double D) {
    Out += ",\"";
    Out += Key;
    Out += "\":";
    json::appendNumber(Out, D);
  };
  bool First = true;
  auto Begin = [&](const char *Phase, std::string_view Name) {
    Out += First ? "{\"ph\":\"" : ",{\"ph\":\"";
    First = false;
    Out += Phase;
    Out += "\",\"name\":";
    Str(Name);
  };
  Out += "{\"traceEvents\":[";

  // Process metadata: one "process" per simulated device.
  std::set<int> Devices;
  for (const Track &T : Tracks)
    Devices.insert(T.Device);
  for (const Counter &C : Counters)
    Devices.insert(C.Device);
  for (int Device : Devices) {
    Begin("M", "process_name");
    Num("pid", Device);
    Num("tid", 0);
    Out += ",\"args\":{\"name\":";
    Str(formatString("device %d", Device));
    Out += "}}";
  }

  // Thread metadata: one "thread" per timeline track. tid 0 is reserved
  // for the process row, so tracks start at 1.
  for (size_t TrackId = 0; TrackId != Tracks.size(); ++TrackId) {
    const Track &T = Tracks[TrackId];
    Begin("M", "thread_name");
    Num("pid", T.Device);
    Num("tid", TrackId + 1);
    Out += ",\"args\":{\"name\":";
    Str(T.Name);
    Out += "}}";
    Begin("M", "thread_sort_index");
    Num("pid", T.Device);
    Num("tid", TrackId + 1);
    Out += ",\"args\":{\"sort_index\":";
    json::appendNumber(Out, TrackId);
    Out += "}}";
  }

  // State intervals as complete ("X") events; 1 cycle = 1 microsecond.
  for (const Interval &I : Intervals) {
    Begin("X", StateNames[static_cast<size_t>(I.State)]);
    Out += ",\"cat\":\"sim\"";
    Num("ts", I.Start);
    Num("dur", I.End - I.Start);
    Num("pid", Tracks[static_cast<size_t>(I.Track)].Device);
    Num("tid", I.Track + 1);
    Out += '}';
  }

  // Counter ("C") samples.
  for (const Sample &S : Samples) {
    const Counter &C = Counters[static_cast<size_t>(S.Counter)];
    Begin("C", C.Name);
    Num("ts", S.Cycle);
    Num("pid", C.Device);
    Out += ",\"args\":{";
    Str(C.Series);
    Out += ':';
    json::appendNumber(Out, S.Value);
    Out += "}}";
  }

  Out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
         "\"generator\":\"stencilflow-sim\"";
  Num("cycles", FinalCycle);
  Num("sampleStride", SampleStride);
  Out += ",\"timeUnit\":\"1 cycle = 1 us\"}}";
  return Out;
}

Error Tracer::writeChromeTrace(const std::string &Path) const {
  return writeTextFileAtomic(Path, chromeTraceJson());
}

//===----------------------------------------------------------------------===//
// Metrics CSV
//===----------------------------------------------------------------------===//

namespace {

void csvNumber(std::string &Out, double Value) {
  if (std::isfinite(Value) && Value == std::floor(Value) &&
      std::fabs(Value) < 1e15)
    Out += formatString("%lld", static_cast<long long>(Value));
  else
    Out += formatString("%.6g", Value);
}

void csvRow(std::string &Out, const char *Section, const std::string &Name,
            const std::string &Metric, double Value) {
  Out += Section;
  Out += ',';
  Out += Name;
  Out += ',';
  Out += Metric;
  Out += ',';
  csvNumber(Out, Value);
  Out += '\n';
}

void csvBreakdown(std::string &Out, const char *Section,
                  const std::string &Name, const StallBreakdown &Stalls) {
  csvRow(Out, Section, Name, "stall_cycles",
         static_cast<double>(Stalls.total()));
  for (int Cause = 0; Cause != NumStallCauses; ++Cause)
    csvRow(Out, Section, Name,
           formatString("stall.%s", stallCauseName(
                                        static_cast<StallCause>(Cause))),
           static_cast<double>(Stalls.Counts[Cause]));
}

} // namespace

std::string sim::formatMetricsCsv(const SimStats &Stats) {
  std::string Out = "section,name,metric,value\n";
  csvRow(Out, "sim", "total", "cycles",
         static_cast<double>(Stats.Cycles));
  csvRow(Out, "sim", "total", "network_bytes", Stats.NetworkBytesMoved);
  for (size_t Device = 0; Device != Stats.MemoryBytesMoved.size();
       ++Device) {
    std::string Name = formatString("%zu", Device);
    csvRow(Out, "device", Name, "memory_bytes",
           Stats.MemoryBytesMoved[Device]);
    csvRow(Out, "device", Name, "memory_bytes_per_cycle",
           Stats.AchievedMemoryBytesPerCycle[Device]);
  }
  for (const auto &[Name, Stalls] : Stats.UnitStalls)
    csvBreakdown(Out, "unit", Name, Stalls);
  for (const auto &[Name, Stalls] : Stats.ReaderStalls)
    csvBreakdown(Out, "reader", Name, Stalls);
  for (const auto &[Name, Stalls] : Stats.WriterStalls)
    csvBreakdown(Out, "writer", Name, Stalls);
  for (const auto &[Name, Channel] : Stats.Channels) {
    csvRow(Out, "channel", Name, "high_water",
           static_cast<double>(Channel.HighWater));
    csvRow(Out, "channel", Name, "peak_occupancy",
           static_cast<double>(Channel.PeakOccupancy));
    csvRow(Out, "channel", Name, "capacity",
           static_cast<double>(Channel.Capacity));
  }
  return Out;
}

Error sim::writeTextFileAtomic(const std::string &Path,
                               std::string_view Text) {
  // The temp file lives in the target's directory so the final rename
  // stays within one filesystem (rename across mounts is a copy, not an
  // atomic replace). The pid suffix keeps concurrent writers from
  // clobbering each other's staging files.
  std::string Temp =
      Path + formatString(".tmp.%ld", static_cast<long>(::getpid()));
  int Fd = ::open(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return makeError("cannot open '" + Temp + "' for writing: " +
                     std::strerror(errno));
  const char *Data = Text.data();
  size_t Left = Text.size();
  bool WriteOk = true;
  int WriteErrno = 0;
  while (Left > 0) {
    ssize_t N = ::write(Fd, Data, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      WriteOk = false;
      WriteErrno = errno;
      break;
    }
    Data += N;
    Left -= static_cast<size_t>(N);
  }
  // fsync before rename: the rename must never become visible while the
  // data behind it is still only in the page cache.
  if (WriteOk && ::fsync(Fd) != 0) {
    WriteOk = false;
    WriteErrno = errno;
  }
  bool CloseOk = ::close(Fd) == 0;
  if (!WriteOk || !CloseOk) {
    int Cause = WriteOk ? errno : WriteErrno;
    ::unlink(Temp.c_str());
    return makeError("failed to write '" + Temp + "'" +
                     (Cause ? std::string(": ") + std::strerror(Cause)
                            : std::string()));
  }
  if (::rename(Temp.c_str(), Path.c_str()) != 0) {
    int Cause = errno;
    ::unlink(Temp.c_str());
    return makeError("failed to rename '" + Temp + "' to '" + Path +
                     "': " + std::strerror(Cause));
  }
  // The directory fsync makes the rename itself durable. It is best
  // effort: the data is already safe, only the new name could be lost.
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY); DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  return Error::success();
}
