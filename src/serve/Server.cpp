//===- serve/Server.cpp - Multi-tenant serving core ----------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "frontend/ProgramLoader.h"
#include "support/StringUtils.h"
#include "tuner/Tuner.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>

using namespace stencilflow;
using namespace stencilflow::serve;

namespace {

int64_t microsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

Error allocationFailure(const std::exception &E) {
  return makeError(ErrorCode::Infeasible,
                   formatString("request needs more host memory than the "
                                "server can allocate (%s)",
                                E.what()));
}

/// Runs \p Body and returns its result. An allocation failure inside it
/// (a domain the host cannot hold) becomes a typed error of that result
/// type, so the request fails alone instead of the exception ending the
/// worker and, uncaught, the process.
template <typename Fn>
auto catchAllocationFailure(Fn &&Body) -> decltype(Body()) {
  try {
    return Body();
  } catch (const std::bad_alloc &E) {
    return allocationFailure(E);
  } catch (const std::length_error &E) {
    return allocationFailure(E);
  }
}

} // namespace

json::Value ServeStats::toJson() const {
  json::Object O;
  O.set("received", json::Value(Received));
  O.set("completed", json::Value(Completed));
  O.set("failed", json::Value(Failed));
  O.set("shed", json::Value(Shed));
  O.set("rejected", json::Value(Rejected));
  O.set("cache_hits", json::Value(CacheHits));
  O.set("cache_misses", json::Value(CacheMisses));
  O.set("cache_evictions", json::Value(CacheEvictions));
  O.set("cache_size", json::Value(CacheSize));
  O.set("queue_depth", json::Value(QueueDepth));
  O.set("queue_high_water", json::Value(QueueHighWater));
  O.set("devices_busy", json::Value(DevicesBusy));
  O.set("devices_busy_high_water", json::Value(DevicesBusyHighWater));
  return json::Value(std::move(O));
}

Server::Server(ServerOptions Options)
    : Opts(std::move(Options)), Cache(Opts.CacheCapacity) {}

Server::~Server() { stop(); }

void Server::start() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Started)
    return;
  Started = true;
  Stopping = false;
  int Count = std::max(1, Opts.Workers);
  for (int I = 0; I != Count; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

void Server::stop() {
  std::deque<std::unique_ptr<Job>> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Started || Stopping) {
      if (!Started)
        return;
    }
    Stopping = true;
    Orphans.swap(Queue);
    Counters.Shed += static_cast<int64_t>(Orphans.size());
  }
  WorkAvailable.notify_all();
  DevicesFreed.notify_all();
  // Queued-but-unstarted jobs are shed, not silently dropped: every
  // submitted future resolves.
  for (std::unique_ptr<Job> &J : Orphans)
    J->Done.set_value(Response::failure(
        J->Req.Id, makeError(ErrorCode::Overloaded,
                             "server is draining for shutdown")));
  std::vector<std::thread> Pool;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Pool.swap(Workers);
  }
  for (std::thread &T : Pool)
    T.join();
  std::lock_guard<std::mutex> Lock(Mutex);
  Started = false;
}

std::future<Response> Server::submit(Request R) {
  std::promise<Response> Done;
  std::future<Response> Result = Done.get_future();

  if (R.Op == RequestOp::Ping || R.Op == RequestOp::Shutdown) {
    Response Pong;
    Pong.Id = R.Id;
    Pong.Ok = true;
    Done.set_value(std::move(Pong));
    return Result;
  }
  if (R.Op == RequestOp::Stats) {
    Response S;
    S.Id = R.Id;
    S.Ok = true;
    S.Stats = stats().toJson();
    Done.set_value(std::move(S));
    return Result;
  }

  auto J = std::make_unique<Job>();
  J->Req = std::move(R);
  J->Done = std::move(Done);
  J->Enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Received;
    // Admission gate 1: the bounded queue. Excess load and post-shutdown
    // traffic shed immediately with a typed, retryable failure.
    // A non-positive depth admits nothing (useful for drain tests).
    if (Stopping || !Started ||
        Queue.size() >= static_cast<size_t>(std::max(0, Opts.QueueDepth))) {
      ++Counters.Shed;
      const char *Why = Stopping || !Started
                            ? "server is not accepting requests"
                            : "admission queue is full";
      J->Done.set_value(Response::failure(
          J->Req.Id,
          makeError(ErrorCode::Overloaded,
                    formatString("%s (queue depth %d)", Why,
                                 std::max(0, Opts.QueueDepth)))));
      return Result;
    }
    Queue.push_back(std::move(J));
    Counters.QueueHighWater = std::max(
        Counters.QueueHighWater, static_cast<int64_t>(Queue.size()));
  }
  WorkAvailable.notify_one();
  return Result;
}

Response Server::handle(Request R) { return submit(std::move(R)).get(); }

Response Server::handleLine(std::string_view Line, bool &Shutdown) {
  Expected<Request> Req = Request::fromJsonText(Line);
  if (!Req) {
    // Decode again only to recover the id, so a well-formed line with a
    // bad option still correlates with its request.
    std::string Id;
    Expected<json::Value> V = json::parse(Line);
    const json::Value *IdValue =
        V && V->isObject() ? V->getObject().get("id") : nullptr;
    if (IdValue && IdValue->isString())
      Id = IdValue->getString();
    return Response::failure(std::move(Id), Req.takeError());
  }
  if (Req->Op == RequestOp::Shutdown) {
    Response Ack;
    Ack.Id = Req->Id;
    Ack.Ok = true;
    Shutdown = true;
    return Ack;
  }
  return handle(std::move(*Req));
}

ServeStats Server::stats() const {
  ServeStats S;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    S = Counters;
    S.QueueDepth = static_cast<int64_t>(Queue.size());
    S.DevicesBusy = DevicesBusy;
  }
  S.CacheEvictions = Cache.evictions();
  S.CacheSize = static_cast<int64_t>(Cache.size());
  return S;
}

void Server::workerLoop() {
  for (;;) {
    std::unique_ptr<Job> J;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return Stopping || !Queue.empty(); });
      if (Stopping && Queue.empty())
        return;
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    Response R = process(J->Req, microsSince(J->Enqueued));
    J->Done.set_value(std::move(R));
  }
}

Server::CompileOutcome
Server::compileForRequest(const Request &R, const json::Value &Description) {
  auto Start = std::chrono::steady_clock::now();
  CompileOutcome Out;
  auto Fail = [&](Error Err) {
    Out.Err = std::move(Err);
    Out.Micros = microsSince(Start);
    return Out;
  };

  Expected<StencilProgram> Program = programFromJson(Description);
  if (!Program) {
    Error Err = Program.takeError();
    if (!R.ProgramPath.empty())
      Err.addContext(R.ProgramPath);
    return Fail(Err.addContext("loading program"));
  }
  StencilProgram P = Program.takeValue();
  if (R.Options.Vectorize > 0)
    P.VectorWidth = R.Options.Vectorize;

  PipelineOptions PO = Opts.Base;
  PO.FuseStencils = R.Options.Fuse;
  PO.SimplifyCode = R.Options.Simplify;
  PO.TemporalDegree = std::max(1, R.Options.TemporalDegree);
  PO.Partitioning.MaxDevices = R.Options.MaxDevices;
  PO.Partitioning.TargetUtilization = R.Options.TargetUtilization;
  PO.Simulator.KernelExec = R.Options.KernelExec;
  PO.EmitCode = false;

  if (R.Options.Tune) {
    // Miss-path autotuning: analytic ranking only (TuneOptions::Simulate
    // off), deterministic seed, so the tuned mapping — not N simulated
    // candidates — is what the cache amortizes.
    tuner::TuneOptions TO;
    TO.Simulate = false;
    TO.Search.CandidateBudget = std::max(1, R.Options.TuneBudget);
    Expected<tuner::TuningOutcome> Tuned = tuner::tuneProgram(P, PO, TO);
    if (!Tuned)
      return Fail(Tuned.takeError().addContext("autotuning"));
    Expected<StencilProgram> Applied =
        tuner::applyMapping(P, Tuned->Best);
    if (!Applied)
      return Fail(Applied.takeError().addContext("applying tuned mapping"));
    P = Applied.takeValue();
    PO = tuner::mappingOptions(PO, Tuned->Best);
  }

  Expected<CompiledPlan> Plan = compilePipeline(std::move(P), PO);
  if (!Plan)
    return Fail(Plan.takeError());
  Out.Plan = std::make_shared<const CompiledPlan>(Plan.takeValue());
  Out.Micros = microsSince(Start);
  return Out;
}

Expected<std::shared_ptr<const CompiledPlan>>
Server::resolvePlan(const Request &R, bool &Hit, int64_t &CompileMicros) {
  Hit = false;
  CompileMicros = 0;

  // The program fingerprint: hash the inline description directly; a
  // path-based request hashes the file's parsed content, so an edited
  // file is a different program, not a stale hit. The file is read once:
  // a miss compiles the very description its key was hashed from.
  const json::Value *Description = &R.Program;
  json::Value FromFile;
  if (!R.ProgramPath.empty()) {
    Expected<json::Value> Parsed = json::parseFile(R.ProgramPath);
    if (!Parsed)
      return Parsed.takeError().addContext("loading program");
    FromFile = Parsed.takeValue();
    Description = &FromFile;
  }

  PlanKey Key;
  Key.ProgramHash = fingerprintProgramJson(*Description);
  Key.Fuse = R.Options.Fuse;
  Key.Simplify = R.Options.Simplify;
  Key.VectorWidth = R.Options.Vectorize;
  Key.TemporalDegree = std::max(1, R.Options.TemporalDegree);
  Key.MaxDevices = R.Options.MaxDevices;
  Key.TargetUtilization = R.Options.TargetUtilization;
  Key.KernelExec = R.Options.KernelExec;
  Key.Tuned = R.Options.Tune;
  Key.TuneBudget = R.Options.TuneBudget;
  std::string KeyId = Key.id();

  if (std::shared_ptr<const CompiledPlan> Plan = Cache.find(KeyId)) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.CacheHits;
    Hit = true;
    return Plan;
  }

  // Single-flight: concurrent misses on one key compile once. The leader
  // registers its flight in the same critical section that elects it, and
  // publishes to the cache before retiring the flight, so a request that
  // finds no flight under the lock finds the plan in the cache instead.
  // Joiners wait on the shared outcome and count as hits (they were
  // served without compiling).
  std::shared_future<CompileOutcome> Flight;
  std::promise<CompileOutcome> Publish;
  bool Leader = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = InFlight.find(KeyId);
    std::shared_ptr<const CompiledPlan> Plan;
    if (It != InFlight.end()) {
      Flight = It->second;
      ++Counters.CacheHits;
      Hit = true;
    } else if ((Plan = Cache.find(KeyId))) {
      ++Counters.CacheHits;
      Hit = true;
      return Plan;
    } else {
      Leader = true;
      ++Counters.CacheMisses;
      InFlight[KeyId] = Publish.get_future().share();
    }
  }

  if (!Leader) {
    CompileOutcome Out = Flight.get();
    if (Out.Err)
      return Error(Out.Err);
    return Out.Plan;
  }

  CompileOutcome Out;
  if (Error Err = catchAllocationFailure([&] {
        Out = compileForRequest(R, *Description);
        return Error::success();
      }))
    Out.Err = std::move(Err);
  if (Out.Plan)
    Cache.insert(KeyId, Out.Plan);
  Publish.set_value(Out);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    InFlight.erase(KeyId);
  }
  CompileMicros = Out.Micros;
  if (Out.Err)
    return Error(Out.Err);
  return Out.Plan;
}

Response Server::process(Request &R, int64_t QueueMicros) {
  bool Hit = false;
  int64_t CompileMicros = 0;
  Expected<std::shared_ptr<const CompiledPlan>> Plan =
      resolvePlan(R, Hit, CompileMicros);
  if (!Plan) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Failed;
    Response Fail = Response::failure(R.Id, Plan.error());
    Fail.CacheHit = Hit;
    return Fail;
  }

  // Admission gate 2: the shared device pool. A plan that cannot ever fit
  // is rejected outright; a feasible one waits for devices to free up.
  int Devices = static_cast<int>((*Plan)->Placement.numDevices());
  if (Devices > Opts.DevicePool) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Rejected;
    Response Fail = Response::failure(
        R.Id, makeError(ErrorCode::Overloaded,
                        formatString(
                            "plan needs %d device(s) but the shared pool "
                            "has %d; resubmit with a smaller max_devices",
                            Devices, Opts.DevicePool)));
    Fail.CacheHit = Hit;
    return Fail;
  }
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    DevicesFreed.wait(Lock, [&] {
      return Stopping || DevicesBusy + Devices <= Opts.DevicePool;
    });
    if (Stopping) {
      ++Counters.Shed;
      Response Fail = Response::failure(
          R.Id, makeError(ErrorCode::Overloaded,
                          "server is draining for shutdown"));
      Fail.CacheHit = Hit;
      return Fail;
    }
    DevicesBusy += Devices;
    Counters.DevicesBusyHighWater =
        std::max(Counters.DevicesBusyHighWater,
                 static_cast<int64_t>(DevicesBusy));
  }

  PipelineOptions EO = Opts.Base;
  EO.Simulate = true;
  EO.Validate = R.Options.Validate;
  EO.Simulator.KernelExec = R.Options.KernelExec;

  auto ExecStart = std::chrono::steady_clock::now();
  Expected<PlanExecution, sim::SimFailure> Exec =
      catchAllocationFailure([&] { return executePlan(**Plan, EO); });
  int64_t ExecuteMicros = microsSince(ExecStart);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    DevicesBusy -= Devices;
  }
  DevicesFreed.notify_all();

  Response Out;
  Out.Id = R.Id;
  Out.CacheHit = Hit;
  Out.QueueMicros = QueueMicros;
  Out.CompileMicros = CompileMicros;
  Out.ExecuteMicros = ExecuteMicros;
  if (!Exec) {
    sim::SimFailure Fail = Exec.takeError();
    Out.Ok = false;
    Out.Code = Fail.code();
    Out.ErrorMessage = Fail.message();
    // The structured report rides along when the run loop produced one.
    if (Fail.report().Code != ErrorCode::Unknown)
      Out.Failure = Fail.report();
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Failed;
    return Out;
  }

  Out.Ok = true;
  Out.Cycles = Exec->Simulation.Stats.Cycles;
  Out.Devices = static_cast<int>(Exec->Placement.numDevices());
  Out.FrequencyMHz = (*Plan)->FrequencyMHz;
  Out.ValidationPassed = Exec->ValidationPassed;
  Out.KernelTiers = Exec->Simulation.Stats.kernelTierSummary();
  Out.OutputsCrc = outputsCrc((*Plan)->Compiled.program().Outputs,
                              Exec->Simulation.Outputs);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Completed;
  }
  return Out;
}
