//===- serve/Server.h - Multi-tenant serving core -----------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving daemon's core: a worker pool that turns protocol requests
/// into compile+simulate runs, fronted by a compiled-plan cache and
/// admission control. Transport-independent — the AF_UNIX socket daemon
/// (serve/SocketServer.h), the `--once` stdin mode, tests, and the bench
/// driver all submit through the same \c Server.
///
/// Admission control has two gates, both returning typed
/// \c ErrorCode::Overloaded rejections instead of blocking indefinitely
/// or crashing:
///
///  1. A bounded queue: at most \c ServerOptions::QueueDepth requests may
///     be waiting; excess load is shed immediately ("graceful
///     degradation" — the caller gets a retryable failure response, the
///     jobs already admitted are unaffected).
///  2. A shared device pool: a compiled plan that needs more simulated
///     devices than \c ServerOptions::DevicePool exist is rejected
///     outright; feasible jobs wait (bounded by queue admission, not
///     time) until enough devices free up, so concurrent tenants cannot
///     oversubscribe the fabric the resource model sized.
///
/// Cache accounting: a request is a *hit* when it was served without
/// compiling — found in the cache, or joined an identical in-flight
/// compilation (single-flight); it is a *miss* when it triggered the
/// compile half itself.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SERVE_SERVER_H
#define STENCILFLOW_SERVE_SERVER_H

#include "runtime/Pipeline.h"
#include "serve/PlanCache.h"
#include "serve/Protocol.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace stencilflow {
namespace serve {

/// Serving configuration.
struct ServerOptions {
  /// Worker threads executing admitted jobs.
  int Workers = 2;

  /// Bounded admission queue: jobs waiting for a worker beyond this are
  /// shed with ErrorCode::Overloaded.
  int QueueDepth = 16;

  /// Compiled-plan cache capacity (plans, not bytes).
  size_t CacheCapacity = 64;

  /// Simulated devices shared by all in-flight jobs. A plan needing more
  /// than this is rejected; feasible jobs serialize on availability.
  int DevicePool = 8;

  /// Base pipeline configuration each request starts from; request
  /// options overlay it.
  PipelineOptions Base;
};

/// Counter snapshot exported by op "stats" and asserted by tests/CI.
struct ServeStats {
  int64_t Received = 0;  ///< Run requests submitted.
  int64_t Completed = 0; ///< Successful responses.
  int64_t Failed = 0;    ///< Typed failure responses (compile/sim errors).
  int64_t Shed = 0;      ///< Rejected at admission: queue full / draining.
  int64_t Rejected = 0;  ///< Rejected: plan oversubscribes the device pool.

  int64_t CacheHits = 0;      ///< Served without compiling.
  int64_t CacheMisses = 0;    ///< Compiled (single-flight leaders).
  int64_t CacheEvictions = 0; ///< LRU evictions.
  int64_t CacheSize = 0;      ///< Plans resident right now.

  int64_t QueueDepth = 0;          ///< Jobs waiting right now.
  int64_t QueueHighWater = 0;      ///< Max jobs ever waiting.
  int64_t DevicesBusy = 0;         ///< Devices reserved right now.
  int64_t DevicesBusyHighWater = 0;///< Max devices ever reserved.

  json::Value toJson() const;
};

/// The transport-independent serving core. Thread-safe; one instance
/// serves every connection.
class Server {
public:
  explicit Server(ServerOptions Options);
  ~Server();

  /// Spawns the worker pool. Idempotent.
  void start();

  /// Graceful shutdown: stops admitting, sheds the still-queued jobs with
  /// Overloaded responses, drains the jobs workers already picked up, and
  /// joins the pool. Idempotent.
  void stop();

  /// Submits a run request. Admission happens here, synchronously: a shed
  /// request's future is already resolved with the typed failure. Ops
  /// other than "run" are answered inline (they touch only counters).
  std::future<Response> submit(Request R);

  /// Submit-and-wait convenience for in-process callers (tests, --once).
  Response handle(Request R);

  /// Answers one protocol line — the step every line transport shares.
  /// A line that fails to decode gets a typed failure response, echoing
  /// the line's "id" when it is a JSON object with a string one. A
  /// "shutdown" op is acknowledged here and sets \p Shutdown; the caller
  /// owns the teardown. Every other op goes through \c handle.
  Response handleLine(std::string_view Line, bool &Shutdown);

  ServeStats stats() const;
  const ServerOptions &options() const { return Opts; }

private:
  struct Job {
    Request Req;
    std::promise<Response> Done;
    std::chrono::steady_clock::time_point Enqueued;
  };

  /// The per-key single-flight rendezvous: the compile outcome, shareable
  /// across every request that raced on the same key.
  struct CompileOutcome {
    std::shared_ptr<const CompiledPlan> Plan;
    Error Err; ///< Set when compilation failed.
    int64_t Micros = 0;
  };

  void workerLoop();
  Response process(Request &R, int64_t QueueMicros);
  /// Resolves the plan for \p R: cache, single-flight join, or compile.
  /// Sets \p Hit and \p CompileMicros.
  Expected<std::shared_ptr<const CompiledPlan>>
  resolvePlan(const Request &R, bool &Hit, int64_t &CompileMicros);
  /// Compiles the plan for \p R from \p Description, the program
  /// description its cache key was fingerprinted from (the cache-miss
  /// path).
  CompileOutcome compileForRequest(const Request &R,
                                   const json::Value &Description);

  ServerOptions Opts;
  PlanCache Cache;

  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable DevicesFreed;
  std::deque<std::unique_ptr<Job>> Queue;
  std::vector<std::thread> Workers;
  bool Started = false;
  bool Stopping = false;
  int DevicesBusy = 0;
  ServeStats Counters;

  /// In-flight compilations by cache key (single-flight).
  std::map<std::string, std::shared_future<CompileOutcome>> InFlight;
};

} // namespace serve
} // namespace stencilflow

#endif // STENCILFLOW_SERVE_SERVER_H
