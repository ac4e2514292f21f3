//===- sim/Fault.cpp - Deterministic fault injection ---------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Fault.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace stencilflow;
using namespace stencilflow::sim;

//===----------------------------------------------------------------------===//
// Fault kinds
//===----------------------------------------------------------------------===//

const char *sim::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::LinkDegrade:
    return "link-degrade";
  case FaultKind::LinkOutage:
    return "link-outage";
  case FaultKind::MemoryBrownout:
    return "memory-brownout";
  case FaultKind::PayloadCorruption:
    return "payload-corruption";
  case FaultKind::DeviceFailure:
    return "device-failure";
  }
  return "link-degrade";
}

std::optional<FaultKind> sim::faultKindFromName(std::string_view Name) {
  for (int Kind = 0; Kind != NumFaultKinds; ++Kind)
    if (Name == faultKindName(static_cast<FaultKind>(Kind)))
      return static_cast<FaultKind>(Kind);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Plan queries
//===----------------------------------------------------------------------===//

Error FaultPlan::validate() const {
  for (size_t Index = 0; Index != Events.size(); ++Index) {
    const FaultEvent &E = Events[Index];
    auto Context = [&](const char *What) {
      return makeError(ErrorCode::InvalidInput,
                       formatString("fault event %zu (%s): %s", Index,
                                    faultKindName(E.Kind), What));
    };
    if (E.StartCycle < 0)
      return Context("negative start cycle");
    if (E.Kind != FaultKind::DeviceFailure && E.EndCycle <= E.StartCycle)
      return Context("window is empty (end <= start)");
    if ((E.Kind == FaultKind::LinkDegrade ||
         E.Kind == FaultKind::MemoryBrownout) &&
        (E.Factor < 0.0 || E.Factor > 1.0))
      return Context("factor must be in [0, 1]");
    if (E.Kind == FaultKind::PayloadCorruption &&
        (E.Probability < 0.0 || E.Probability > 1.0))
      return Context("probability must be in [0, 1]");
    if ((E.Kind == FaultKind::MemoryBrownout ||
         E.Kind == FaultKind::DeviceFailure) &&
        E.Device < 0)
      return Context("device must be non-negative");
  }
  return Error::success();
}

double FaultPlan::memoryFactor(int Device, int64_t Cycle) const {
  double Factor = 1.0;
  for (const FaultEvent &E : Events)
    if (E.Kind == FaultKind::MemoryBrownout && E.Device == Device &&
        E.activeAt(Cycle))
      Factor *= E.Factor;
  return Factor;
}

bool FaultPlan::memoryBrownoutAt(int Device, int64_t Cycle) const {
  for (const FaultEvent &E : Events)
    if (E.Kind == FaultKind::MemoryBrownout && E.Device == Device &&
        E.activeAt(Cycle))
      return true;
  return false;
}

double FaultPlan::linkFactor(int Hop, int64_t Cycle) const {
  double Factor = 1.0;
  for (const FaultEvent &E : Events) {
    if (!E.activeAt(Cycle) || (E.Hop != -1 && E.Hop != Hop))
      continue;
    if (E.Kind == FaultKind::LinkOutage)
      return 0.0;
    if (E.Kind == FaultKind::LinkDegrade)
      Factor *= E.Factor;
  }
  return Factor;
}

namespace {

/// splitmix64 finalizer: decorrelates the packed key bits.
uint64_t mix64(uint64_t Z) {
  Z += 0x9E3779B97F4A7C15ULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Counter-based uniform double in [0, 1) from a composite key.
double hashToUnit(uint64_t A, uint64_t B, uint64_t C, uint64_t D) {
  uint64_t H = mix64(A);
  H = mix64(H ^ B);
  H = mix64(H ^ C);
  H = mix64(H ^ D);
  return static_cast<double>(H >> 11) * 0x1.0p-53;
}

} // namespace

bool FaultPlan::corruptsTransmission(int64_t Cycle, size_t Channel,
                                     int64_t Seq, uint64_t Nonce,
                                     int FirstHop, int LastHop) const {
  for (size_t Index = 0; Index != Events.size(); ++Index) {
    const FaultEvent &E = Events[Index];
    if (E.Kind != FaultKind::PayloadCorruption || !E.activeAt(Cycle) ||
        E.Probability <= 0.0)
      continue;
    if (E.Hop != -1 && (E.Hop < FirstHop || E.Hop >= LastHop))
      continue;
    double Roll = hashToUnit(Seed ^ (Index * 0x9E3779B97F4A7C15ULL),
                             static_cast<uint64_t>(Channel),
                             static_cast<uint64_t>(Seq), Nonce);
    if (Roll < E.Probability)
      return true;
  }
  return false;
}

bool FaultPlan::deviceFailedAt(int Device, int64_t Cycle) const {
  for (const FaultEvent &E : Events)
    if (E.Kind == FaultKind::DeviceFailure && E.Device == Device &&
        Cycle >= E.StartCycle)
      return true;
  return false;
}

int FaultPlan::firstFailedDevice(int64_t Cycle) const {
  int First = -1;
  for (const FaultEvent &E : Events)
    if (E.Kind == FaultKind::DeviceFailure && Cycle >= E.StartCycle &&
        (First == -1 || E.Device < First))
      First = E.Device;
  return First;
}

int64_t FaultPlan::earliestDeviceFailure() const {
  int64_t Earliest = std::numeric_limits<int64_t>::max();
  for (const FaultEvent &E : Events)
    if (E.Kind == FaultKind::DeviceFailure)
      Earliest = std::min(Earliest, E.StartCycle);
  return Earliest;
}

//===----------------------------------------------------------------------===//
// Plan serialization
//===----------------------------------------------------------------------===//

json::Value FaultPlan::toJson() const {
  json::Object Root;
  Root.set("seed", json::uint64ToJson(Seed));
  std::vector<json::Value> Array;
  for (const FaultEvent &E : Events) {
    json::Object Obj;
    Obj.set("kind", json::Value(faultKindName(E.Kind)));
    Obj.set("start", json::int64ToJson(E.StartCycle));
    if (E.Kind != FaultKind::DeviceFailure &&
        E.EndCycle != std::numeric_limits<int64_t>::max())
      Obj.set("end", json::int64ToJson(E.EndCycle));
    switch (E.Kind) {
    case FaultKind::MemoryBrownout:
      Obj.set("device", json::Value(E.Device));
      Obj.set("factor", json::Value(E.Factor));
      break;
    case FaultKind::DeviceFailure:
      Obj.set("device", json::Value(E.Device));
      break;
    case FaultKind::LinkDegrade:
      Obj.set("hop", json::Value(E.Hop));
      Obj.set("factor", json::Value(E.Factor));
      break;
    case FaultKind::LinkOutage:
      Obj.set("hop", json::Value(E.Hop));
      break;
    case FaultKind::PayloadCorruption:
      if (E.Hop != -1)
        Obj.set("hop", json::Value(E.Hop));
      Obj.set("probability", json::Value(E.Probability));
      break;
    }
    Array.push_back(json::Value(std::move(Obj)));
  }
  Root.set("events", json::Value(std::move(Array)));
  return json::Value(std::move(Root));
}

Expected<FaultPlan> FaultPlan::fromJson(const json::Value &V) {
  if (!V.isObject())
    return makeError(ErrorCode::InvalidInput,
                     "fault plan must be a JSON object");
  const json::Object &Root = V.getObject();
  FaultPlan Plan;
  if (Error Err = json::readUInt64Member(Root, "seed", Plan.Seed))
    return Err.addContext("fault plan");
  const json::Value *Events = Root.get("events");
  if (Events) {
    if (!Events->isArray())
      return makeError(ErrorCode::InvalidInput,
                       "fault plan 'events' must be an array");
    for (const json::Value &Entry : Events->getArray()) {
      if (!Entry.isObject())
        return makeError(ErrorCode::InvalidInput,
                         "fault event must be an object");
      const json::Object &Obj = Entry.getObject();
      FaultEvent E;
      const json::Value *Kind = Obj.get("kind");
      if (!Kind || !Kind->isString())
        return makeError(ErrorCode::InvalidInput,
                         "fault event needs a string 'kind'");
      std::optional<FaultKind> Parsed = faultKindFromName(Kind->getString());
      if (!Parsed)
        return makeError(ErrorCode::InvalidInput,
                         "unknown fault kind '" + Kind->getString() + "'");
      E.Kind = *Parsed;
      if (Error Err = json::readInt64Member(Obj, "start", E.StartCycle))
        return Err.addContext("fault event");
      if (Error Err = json::readInt64Member(Obj, "end", E.EndCycle))
        return Err.addContext("fault event");
      if (Error Err = json::readMembers(
              Obj, {{"device", &E.Device},
                    {"hop", &E.Hop},
                    {"factor", &E.Factor},
                    {"probability", &E.Probability}}))
        return Err.addContext("fault event");
      Plan.Events.push_back(E);
    }
  }
  if (Error Err = Plan.validate())
    return Err;
  return Plan;
}

Expected<FaultPlan> FaultPlan::fromJsonText(std::string_view Text) {
  Expected<json::Value> Parsed = json::parse(Text);
  if (!Parsed)
    return Parsed.takeError().addContext("fault plan");
  return fromJson(*Parsed);
}

//===----------------------------------------------------------------------===//
// Failure reports
//===----------------------------------------------------------------------===//

namespace {

std::optional<StallCause> stallCauseFromName(std::string_view Name) {
  for (int Cause = 0; Cause != NumStallCauses; ++Cause)
    if (Name == stallCauseName(static_cast<StallCause>(Cause)))
      return static_cast<StallCause>(Cause);
  return std::nullopt;
}

} // namespace

std::string FailureReport::render() const {
  std::string Out;
  switch (Code) {
  case ErrorCode::Deadlock:
    Out = formatString("deadlock detected at cycle %lld",
                       static_cast<long long>(Cycle));
    break;
  case ErrorCode::Starvation:
    Out = formatString("progress watchdog timeout (livelock/starvation) "
                       "at cycle %lld",
                       static_cast<long long>(Cycle));
    break;
  case ErrorCode::CycleLimit:
    Out = formatString("simulation exceeded the cycle limit (%lld cycles)",
                       static_cast<long long>(Cycle));
    break;
  case ErrorCode::DeviceLost:
    Out = formatString("device %d lost at cycle %lld", FailedDevice,
                       static_cast<long long>(Cycle));
    break;
  case ErrorCode::LinkFailure:
    Out = formatString("remote stream '%s' exhausted its retransmit "
                       "budget at cycle %lld",
                       FailedChannel.c_str(),
                       static_cast<long long>(Cycle));
    break;
  case ErrorCode::DataCorruption:
    Out = formatString("payload corruption detected on '%s' at cycle "
                       "%lld (reliable transport disabled)",
                       FailedChannel.c_str(),
                       static_cast<long long>(Cycle));
    break;
  default:
    Out = formatString("simulation failed (%s) at cycle %lld",
                       errorCodeName(Code), static_cast<long long>(Cycle));
    break;
  }
  if (!Component.empty())
    Out += formatString("; blocked on %s (%s)", Component.c_str(),
                        stallCauseName(DominantCause));
  if (!Components.empty())
    Out += "; stuck components:";
  Out += "\n";
  for (const FailureComponent &C : Components)
    Out += formatString(
        "  %-6s %-20s device %d, %lld/%lld vectors, stalled %lld cycles "
        "(%s)\n",
        C.Kind.c_str(), C.Name.c_str(), C.Device,
        static_cast<long long>(C.Progress),
        static_cast<long long>(C.Total),
        static_cast<long long>(C.StallCycles), stallCauseName(C.Cause));
  for (const FailureChannel &C : Channels)
    Out += formatString("    channel %-28s %lld/%lld vectors queued%s\n",
                        C.Name.c_str(),
                        static_cast<long long>(C.Occupancy),
                        static_cast<long long>(C.Capacity),
                        C.Full ? "  [FULL]" : "");
  return Out;
}

json::Value FailureReport::toJson() const {
  json::Object Root;
  Root.set("code", json::Value(errorCodeName(Code)));
  Root.set("cycle", json::int64ToJson(Cycle));
  Root.set("component", json::Value(Component));
  Root.set("dominant_cause", json::Value(stallCauseName(DominantCause)));
  Root.set("failed_device", json::Value(FailedDevice));
  Root.set("failed_channel", json::Value(FailedChannel));
  std::vector<json::Value> ComponentArray;
  for (const FailureComponent &C : Components) {
    json::Object Obj;
    Obj.set("name", json::Value(C.Name));
    Obj.set("kind", json::Value(C.Kind));
    Obj.set("device", json::Value(C.Device));
    Obj.set("cause", json::Value(stallCauseName(C.Cause)));
    Obj.set("stall_cycles", json::int64ToJson(C.StallCycles));
    Obj.set("progress", json::int64ToJson(C.Progress));
    Obj.set("total", json::int64ToJson(C.Total));
    ComponentArray.push_back(json::Value(std::move(Obj)));
  }
  Root.set("components", json::Value(std::move(ComponentArray)));
  std::vector<json::Value> ChannelArray;
  for (const FailureChannel &C : Channels) {
    json::Object Obj;
    Obj.set("name", json::Value(C.Name));
    Obj.set("occupancy", json::Value(C.Occupancy));
    Obj.set("capacity", json::Value(C.Capacity));
    Obj.set("full", json::Value(C.Full));
    ChannelArray.push_back(json::Value(std::move(Obj)));
  }
  Root.set("channels", json::Value(std::move(ChannelArray)));
  return json::Value(std::move(Root));
}

Expected<FailureReport> FailureReport::fromJson(const json::Value &V) {
  if (!V.isObject())
    return makeError(ErrorCode::InvalidInput,
                     "failure report must be a JSON object");
  const json::Object &Root = V.getObject();
  FailureReport Report;

  std::string CodeName, CauseName;
  if (Error Err = json::readMembers(
          Root, {{"code", &CodeName},
                 {"component", &Report.Component},
                 {"dominant_cause", &CauseName},
                 {"failed_device", &Report.FailedDevice},
                 {"failed_channel", &Report.FailedChannel}}))
    return Err.addContext("failure report");
  if (Error Err = json::readInt64Member(Root, "cycle", Report.Cycle))
    return Err.addContext("failure report");
  if (std::optional<ErrorCode> Code = errorCodeFromName(CodeName))
    Report.Code = *Code;
  else
    return makeError(ErrorCode::InvalidInput,
                     "unknown error code '" + CodeName + "'");
  if (std::optional<StallCause> Cause = stallCauseFromName(CauseName))
    Report.DominantCause = *Cause;

  if (const json::Value *Components = Root.get("components")) {
    if (!Components->isArray())
      return makeError(ErrorCode::InvalidInput,
                       "failure report 'components' must be an array");
    for (const json::Value &Entry : Components->getArray()) {
      if (!Entry.isObject())
        return makeError(ErrorCode::InvalidInput,
                         "failure component must be an object");
      const json::Object &Obj = Entry.getObject();
      FailureComponent C;
      std::string Name;
      if (Error Err = json::readMembers(Obj, {{"name", &C.Name},
                                              {"kind", &C.Kind},
                                              {"device", &C.Device},
                                              {"cause", &Name}}))
        return Err.addContext("failure report");
      for (auto [Key, Out] : {std::pair{"stall_cycles", &C.StallCycles},
                              std::pair{"progress", &C.Progress},
                              std::pair{"total", &C.Total}})
        if (Error Err = json::readInt64Member(Obj, Key, *Out))
          return Err.addContext("failure report");
      if (std::optional<StallCause> Cause = stallCauseFromName(Name))
        C.Cause = *Cause;
      Report.Components.push_back(std::move(C));
    }
  }
  if (const json::Value *Channels = Root.get("channels")) {
    if (!Channels->isArray())
      return makeError(ErrorCode::InvalidInput,
                       "failure report 'channels' must be an array");
    for (const json::Value &Entry : Channels->getArray()) {
      if (!Entry.isObject())
        return makeError(ErrorCode::InvalidInput,
                         "failure channel must be an object");
      const json::Object &Obj = Entry.getObject();
      FailureChannel C;
      if (Error Err = json::readMembers(Obj, {{"name", &C.Name},
                                              {"occupancy", &C.Occupancy},
                                              {"capacity", &C.Capacity},
                                              {"full", &C.Full}}))
        return Err.addContext("failure report");
      Report.Channels.push_back(std::move(C));
    }
  }
  return Report;
}

Expected<FailureReport> FailureReport::fromJsonText(std::string_view Text) {
  Expected<json::Value> Parsed = json::parse(Text);
  if (!Parsed)
    return Parsed.takeError().addContext("failure report");
  return fromJson(*Parsed);
}
