//===- serve/Protocol.cpp - Serving wire protocol ------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/StringUtils.h"

using namespace stencilflow;
using namespace stencilflow::serve;

const char *serve::requestOpName(RequestOp Op) {
  switch (Op) {
  case RequestOp::Run:
    return "run";
  case RequestOp::Stats:
    return "stats";
  case RequestOp::Ping:
    return "ping";
  case RequestOp::Shutdown:
    return "shutdown";
  }
  return "run";
}

Expected<Request> Request::fromJson(json::Value V) {
  if (!V.isObject())
    return makeError(ErrorCode::InvalidInput, "request must be an object");
  json::Object &O = V.getObject();

  Request R;
  std::string OpName = "run";
  if (Error Err = json::readMembers(O, {{"id", &R.Id},
                                       {"op", &OpName},
                                       {"program_path", &R.ProgramPath}}))
    return Err;
  if (OpName == "run")
    R.Op = RequestOp::Run;
  else if (OpName == "stats")
    R.Op = RequestOp::Stats;
  else if (OpName == "ping")
    R.Op = RequestOp::Ping;
  else if (OpName == "shutdown")
    R.Op = RequestOp::Shutdown;
  else
    return makeError(ErrorCode::InvalidInput,
                     formatString("unknown op '%s'", OpName.c_str()));

  if (json::Value *P = O.get("program")) {
    if (!P->isObject())
      return makeError(ErrorCode::InvalidInput,
                       "'program' must be an object");
    R.Program = std::move(*P);
  }
  if (R.Op == RequestOp::Run && R.Program.isNull() && R.ProgramPath.empty())
    return makeError(ErrorCode::InvalidInput,
                     "run request needs 'program' or 'program_path'");
  if (!R.Program.isNull() && !R.ProgramPath.empty())
    return makeError(ErrorCode::InvalidInput,
                     "'program' and 'program_path' are mutually exclusive");

  if (const json::Value *Opt = O.get("options")) {
    if (!Opt->isObject())
      return makeError(ErrorCode::InvalidInput,
                       "'options' must be an object");
    const json::Object &OO = Opt->getObject();
    RequestOptions &RO = R.Options;
    std::string Engine;
    if (Error Err = json::readMembers(
            OO, {{"fuse", &RO.Fuse},
                 {"simplify", &RO.Simplify},
                 {"vectorize", &RO.Vectorize},
                 {"temporal_degree", &RO.TemporalDegree},
                 {"max_devices", &RO.MaxDevices},
                 {"target_utilization", &RO.TargetUtilization},
                 {"kernel_engine", &Engine},
                 {"validate", &RO.Validate},
                 {"tune", &RO.Tune},
                 {"tune_budget", &RO.TuneBudget}}))
      return Err;
    if (!Engine.empty()) {
      Expected<compute::KernelEngine> Parsed =
          compute::parseKernelEngine(Engine);
      if (!Parsed)
        return Parsed.takeError();
      RO.KernelExec = *Parsed;
    }
  }
  return R;
}

Expected<Request> Request::fromJsonText(std::string_view Line) {
  Expected<json::Value> V = json::parse(Line);
  if (!V)
    return makeError(ErrorCode::InvalidInput,
                     "request line: " + V.message());
  return fromJson(V.takeValue());
}

std::string Request::toJsonText() const {
  json::Object O;
  if (!Id.empty())
    O.set("id", json::Value(Id));
  O.set("op", json::Value(requestOpName(Op)));
  if (!Program.isNull())
    O.set("program", Program);
  if (!ProgramPath.empty())
    O.set("program_path", json::Value(ProgramPath));

  json::Object OO;
  OO.set("fuse", json::Value(Options.Fuse));
  OO.set("simplify", json::Value(Options.Simplify));
  OO.set("vectorize", json::Value(Options.Vectorize));
  OO.set("temporal_degree", json::Value(Options.TemporalDegree));
  OO.set("max_devices", json::Value(Options.MaxDevices));
  OO.set("target_utilization", json::Value(Options.TargetUtilization));
  OO.set("kernel_engine",
         json::Value(compute::kernelEngineName(Options.KernelExec)));
  OO.set("validate", json::Value(Options.Validate));
  OO.set("tune", json::Value(Options.Tune));
  OO.set("tune_budget", json::Value(Options.TuneBudget));
  O.set("options", json::Value(std::move(OO)));
  return json::Value(std::move(O)).toString();
}

Response Response::failure(std::string Id, const Error &Err) {
  Response R;
  R.Id = std::move(Id);
  R.Ok = false;
  R.Code = Err.code();
  R.ErrorMessage = Err.message();
  return R;
}

std::string Response::toJsonText() const {
  json::Object O;
  if (!Id.empty())
    O.set("id", json::Value(Id));
  O.set("ok", json::Value(Ok));
  if (CacheHit)
    O.set("cache", json::Value(*CacheHit ? "hit" : "miss"));
  if (!Ok) {
    json::Object E;
    E.set("code", json::Value(errorCodeName(Code)));
    E.set("exit_code", json::Value(exitCodeFor(Code)));
    E.set("message", json::Value(ErrorMessage));
    O.set("error", json::Value(std::move(E)));
    if (Failure)
      O.set("failure_report", Failure->toJson());
  } else if (Stats) {
    O.set("stats", *Stats);
  } else if (CacheHit) {
    // Run results carry the execution block; ping/shutdown acks are bare.
    // CacheHit doubles as the "this was a run" marker — Server::process
    // always sets it on the run path.
    O.set("cycles", json::int64ToJson(Cycles));
    O.set("devices", json::Value(Devices));
    O.set("frequency_mhz", json::Value(FrequencyMHz));
    O.set("validation_passed", json::Value(ValidationPassed));
    // 64-bit CRCs do not survive JSON's double numbers; ship hex text.
    O.set("outputs_crc",
          json::Value(formatString(
              "%016llx", static_cast<unsigned long long>(OutputsCrc))));
    if (!KernelTiers.empty())
      O.set("kernel_tiers", json::Value(KernelTiers));
    O.set("queue_us", json::Value(QueueMicros));
    O.set("compile_us", json::Value(CompileMicros));
    O.set("execute_us", json::Value(ExecuteMicros));
  }
  return json::Value(std::move(O)).toString();
}

Expected<Response> Response::fromJsonText(std::string_view Line) {
  Expected<json::Value> V = json::parse(Line);
  if (!V)
    return makeError(ErrorCode::InvalidInput,
                     "response line: " + V.message());
  if (!V->isObject())
    return makeError(ErrorCode::InvalidInput, "response must be an object");
  const json::Object &O = V->getObject();

  Response R;
  std::string Cache;
  if (Error Err = json::readMembers(
          O, {{"id", &R.Id}, {"ok", &R.Ok}, {"cache", &Cache}}))
    return Err;
  if (!Cache.empty())
    R.CacheHit = Cache == "hit";

  if (const json::Value *S = O.get("stats")) {
    R.Stats = *S;
    return R;
  }

  if (R.Ok) {
    if (Error Err = json::readMembers(
            O, {{"devices", &R.Devices},
                {"frequency_mhz", &R.FrequencyMHz},
                {"validation_passed", &R.ValidationPassed},
                {"kernel_tiers", &R.KernelTiers},
                {"queue_us", &R.QueueMicros},
                {"compile_us", &R.CompileMicros},
                {"execute_us", &R.ExecuteMicros}}))
      return Err;
    if (Error Err = json::readInt64Member(O, "cycles", R.Cycles))
      return Err;
    if (Error Err = json::readHexMember(O, "outputs_crc", R.OutputsCrc))
      return Err;
    return R;
  }

  if (const json::Value *E = O.get("error")) {
    if (!E->isObject())
      return makeError(ErrorCode::InvalidInput,
                       "'error' must be an object");
    std::string Code;
    if (Error Err = json::readMembers(
            E->getObject(), {{"code", &Code}, {"message", &R.ErrorMessage}}))
      return Err;
    if (std::optional<ErrorCode> Parsed = errorCodeFromName(Code))
      R.Code = *Parsed;
  }
  if (const json::Value *F = O.get("failure_report")) {
    Expected<sim::FailureReport> Report = sim::FailureReport::fromJson(*F);
    if (Report)
      R.Failure = Report.takeValue();
  }
  return R;
}
