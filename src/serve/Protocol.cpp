//===- serve/Protocol.cpp - Serving wire protocol ------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/StringUtils.h"

#include <climits>
#include <cmath>
#include <cstdlib>

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

namespace {

/// Reads an optional scalar member, type-checked. Returns an error only
/// on a present-but-mistyped member; absence keeps the default.
Error readBool(const json::Object &O, const char *Key, bool &Out) {
  const json::Value *V = O.get(Key);
  if (!V)
    return Error::success();
  if (!V->isBoolean())
    return makeError(ErrorCode::InvalidInput,
                     formatString("'%s' must be a boolean", Key));
  Out = V->getBoolean();
  return Error::success();
}

/// JSON numbers are doubles; an int member must hold an integral value in
/// the int range, so a fraction or an overflow is an error, not a silent
/// truncation.
Error readInt(const json::Object &O, const char *Key, int &Out) {
  const json::Value *V = O.get(Key);
  if (!V)
    return Error::success();
  if (!V->isNumber())
    return makeError(ErrorCode::InvalidInput,
                     formatString("'%s' must be a number", Key));
  double D = V->getNumber();
  if (std::trunc(D) != D || D < INT_MIN || D > INT_MAX)
    return makeError(ErrorCode::InvalidInput,
                     formatString("'%s' must be an integer in [%d, %d]", Key,
                                  INT_MIN, INT_MAX));
  Out = static_cast<int>(D);
  return Error::success();
}

Error readDouble(const json::Object &O, const char *Key, double &Out) {
  const json::Value *V = O.get(Key);
  if (!V)
    return Error::success();
  if (!V->isNumber())
    return makeError(ErrorCode::InvalidInput,
                     formatString("'%s' must be a number", Key));
  Out = V->getNumber();
  return Error::success();
}

Error readString(const json::Object &O, const char *Key, std::string &Out) {
  const json::Value *V = O.get(Key);
  if (!V)
    return Error::success();
  if (!V->isString())
    return makeError(ErrorCode::InvalidInput,
                     formatString("'%s' must be a string", Key));
  Out = V->getString();
  return Error::success();
}

} // namespace

Expected<Request> Request::fromJson(const json::Value &V) {
  if (!V.isObject())
    return makeError(ErrorCode::InvalidInput, "request must be an object");
  const json::Object &O = V.getObject();

  Request R;
  if (Error Err = readString(O, "id", R.Id))
    return Err;

  std::string OpName = "run";
  if (Error Err = readString(O, "op", OpName))
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

  if (const json::Value *P = O.get("program")) {
    if (!P->isObject())
      return makeError(ErrorCode::InvalidInput,
                       "'program' must be an object");
    R.Program = *P;
  }
  if (Error Err = readString(O, "program_path", R.ProgramPath))
    return Err;
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
    if (Error Err = readBool(OO, "fuse", RO.Fuse))
      return Err;
    if (Error Err = readBool(OO, "simplify", RO.Simplify))
      return Err;
    if (Error Err = readInt(OO, "vectorize", RO.Vectorize))
      return Err;
    if (Error Err = readInt(OO, "temporal_degree", RO.TemporalDegree))
      return Err;
    if (Error Err = readInt(OO, "max_devices", RO.MaxDevices))
      return Err;
    if (Error Err = readDouble(OO, "target_utilization",
                               RO.TargetUtilization))
      return Err;
    std::string Engine;
    if (Error Err = readString(OO, "kernel_engine", Engine))
      return Err;
    if (!Engine.empty()) {
      Expected<compute::KernelEngine> Parsed =
          compute::parseKernelEngine(Engine);
      if (!Parsed)
        return Parsed.takeError();
      RO.KernelExec = *Parsed;
    }
    if (Error Err = readBool(OO, "validate", RO.Validate))
      return Err;
    if (Error Err = readBool(OO, "tune", RO.Tune))
      return Err;
    if (Error Err = readInt(OO, "tune_budget", RO.TuneBudget))
      return Err;
  }
  return R;
}

Expected<Request> Request::fromJsonText(std::string_view Line) {
  Expected<json::Value> V = json::parse(Line);
  if (!V)
    return makeError(ErrorCode::InvalidInput,
                     "request line: " + V.message());
  return fromJson(*V);
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
  if (Ok && Stats) {
    O.set("stats", *Stats);
    return json::Value(std::move(O)).toString();
  }
  // Run results carry the execution block; ping/shutdown acks are bare.
  // CacheHit doubles as the "this was a run" marker — Server::process
  // always sets it on the run path.
  if (Ok && CacheHit) {
    O.set("cycles", json::Value(Cycles));
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
  } else {
    json::Object E;
    E.set("code", json::Value(errorCodeName(Code)));
    E.set("exit_code", json::Value(exitCodeFor(Code)));
    E.set("message", json::Value(ErrorMessage));
    O.set("error", json::Value(std::move(E)));
    if (Failure) {
      // FailureReport serializes itself to text; splice it in as a value.
      Expected<json::Value> Report = json::parse(Failure->toJson());
      if (Report)
        O.set("failure_report", Report.takeValue());
    }
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
  if (Error Err = readString(O, "id", R.Id))
    return Err;
  if (Error Err = readBool(O, "ok", R.Ok))
    return Err;
  std::string Cache;
  if (Error Err = readString(O, "cache", Cache))
    return Err;
  if (!Cache.empty())
    R.CacheHit = Cache == "hit";

  if (const json::Value *S = O.get("stats")) {
    R.Stats = *S;
    return R;
  }

  if (R.Ok) {
    int Devices = 0;
    double Cycles = 0, Queue = 0, Compile = 0, Execute = 0;
    if (Error Err = readDouble(O, "cycles", Cycles))
      return Err;
    if (Error Err = readInt(O, "devices", Devices))
      return Err;
    if (Error Err = readDouble(O, "frequency_mhz", R.FrequencyMHz))
      return Err;
    if (Error Err = readBool(O, "validation_passed", R.ValidationPassed))
      return Err;
    std::string Crc;
    if (Error Err = readString(O, "outputs_crc", Crc))
      return Err;
    if (!Crc.empty())
      R.OutputsCrc = strtoull(Crc.c_str(), nullptr, 16);
    if (Error Err = readString(O, "kernel_tiers", R.KernelTiers))
      return Err;
    if (Error Err = readDouble(O, "queue_us", Queue))
      return Err;
    if (Error Err = readDouble(O, "compile_us", Compile))
      return Err;
    if (Error Err = readDouble(O, "execute_us", Execute))
      return Err;
    R.Cycles = static_cast<int64_t>(Cycles);
    R.Devices = Devices;
    R.QueueMicros = static_cast<int64_t>(Queue);
    R.CompileMicros = static_cast<int64_t>(Compile);
    R.ExecuteMicros = static_cast<int64_t>(Execute);
    return R;
  }

  if (const json::Value *E = O.get("error")) {
    if (!E->isObject())
      return makeError(ErrorCode::InvalidInput,
                       "'error' must be an object");
    std::string Code;
    if (Error Err = readString(E->getObject(), "code", Code))
      return Err;
    if (std::optional<ErrorCode> Parsed = errorCodeFromName(Code))
      R.Code = *Parsed;
    if (Error Err =
            readString(E->getObject(), "message", R.ErrorMessage))
      return Err;
  }
  if (const json::Value *F = O.get("failure_report")) {
    Expected<sim::FailureReport> Report = sim::FailureReport::fromJson(*F);
    if (Report)
      R.Failure = Report.takeValue();
  }
  return R;
}
