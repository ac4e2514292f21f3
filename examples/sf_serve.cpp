//===- examples/sf_serve.cpp - Multi-tenant serving daemon ---------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving daemon: accepts compile+simulate requests as line-delimited
// JSON (serve/Protocol.h), backed by a worker pool with a compiled-plan
// cache and admission control (serve/Server.h). Repeat traffic for the
// same (program, mapping, kernel engine) skips the pipeline's compile
// half entirely; overload is shed with typed, retryable error responses
// instead of queue blowup.
//
// Usage:  ./sf_serve --socket PATH [serving flags]     daemon mode
//         ./sf_serve --once [serving flags]            stdin -> stdout,
//                                                      then exit
//         ./sf_serve --client --socket PATH            forward stdin lines
//                                                      to a running daemon
//         (--help lists all flags)
//
// Daemon mode prints "listening on <path>" once ready and shuts down
// gracefully on SIGTERM/SIGINT or a "shutdown" request: the listener
// closes, admitted jobs drain, queued jobs are shed, the socket file is
// unlinked. --once serves the same protocol over stdin/stdout with no
// sockets or signals — what the tests and CI smoke drive.
//
//===----------------------------------------------------------------------===//

#include "serve/SocketServer.h"
#include "support/Args.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace stencilflow;

namespace {

serve::SocketServer *ActiveDaemon = nullptr;

void onSignal(int) {
  if (ActiveDaemon)
    ActiveDaemon->requestShutdown();
}

/// --once: the full protocol over stdin/stdout, no sockets. "shutdown"
/// ends the loop early; EOF is the normal exit.
int serveOnce(serve::Server &Core) {
  Core.start();
  std::string Line;
  int C;
  bool Done = false;
  while (!Done && (C = std::fgetc(stdin)) != EOF) {
    if (C != '\n') {
      Line.push_back(static_cast<char>(C));
      continue;
    }
    if (Line.empty())
      continue;
    serve::Response Out = Core.handleLine(Line, Done);
    Line.clear();
    std::printf("%s\n", Out.toJsonText().c_str());
    std::fflush(stdout);
  }
  Core.stop();
  return 0;
}

/// --client: forward stdin lines to a running daemon, print its
/// responses. Keeps the CI smoke pure shell.
int runClient(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (Fd < 0 || ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr)) < 0) {
    std::fprintf(stderr, "error: cannot connect to '%s': %s\n",
                 Path.c_str(), std::strerror(errno));
    if (Fd >= 0)
      ::close(Fd);
    return 1;
  }

  std::string Line;
  int C;
  auto DrainOne = [&]() -> bool {
    // Read exactly one newline-terminated response.
    std::string Response;
    char Ch;
    ssize_t N;
    while ((N = ::read(Fd, &Ch, 1)) == 1) {
      if (Ch == '\n') {
        std::printf("%s\n", Response.c_str());
        std::fflush(stdout);
        return true;
      }
      Response.push_back(Ch);
    }
    return false;
  };
  while ((C = std::fgetc(stdin)) != EOF) {
    if (C != '\n') {
      Line.push_back(static_cast<char>(C));
      continue;
    }
    if (Line.empty())
      continue;
    Line.push_back('\n');
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t W = ::write(Fd, Line.data() + Off, Line.size() - Off);
      if (W <= 0) {
        std::fprintf(stderr, "error: daemon closed the connection\n");
        ::close(Fd);
        return 1;
      }
      Off += static_cast<size_t>(W);
    }
    Line.clear();
    if (!DrainOne()) {
      std::fprintf(stderr, "error: daemon closed the connection\n");
      ::close(Fd);
      return 1;
    }
  }
  ::close(Fd);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  cli::ArgSet Spec("sf_serve",
                   "Multi-tenant serving daemon: line-delimited JSON "
                   "requests, a compiled-plan cache, and admission "
                   "control over a shared device pool.");
  Spec.group("mode")
      .option("socket", "PATH", "AF_UNIX socket path (daemon/client mode)")
      .flag("once", "serve stdin -> stdout instead of a socket, then exit")
      .flag("client", "forward stdin request lines to a running daemon")
      .group("serving")
      .option("serve-workers", "N", "worker threads executing jobs (default 2)")
      .option("queue-depth", "N",
              "bounded admission queue; excess load is shed (default 16)")
      .option("cache-capacity", "N",
              "compiled-plan cache capacity in plans (default 64)")
      .option("device-pool", "N",
              "simulated devices shared by all jobs (default 8)")
      .flag("constrained-memory",
            "model the finite memory controller (default is ideal memory)");
  auto Args = Spec.parse(argc, argv);
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  if (Spec.helpShown())
    return 0;
  if (!Args->positional().empty()) {
    std::fprintf(stderr, "%s\n", Spec.usageLine().c_str());
    return 1;
  }

  std::string Socket = Args->getString("socket");
  bool Once = Args->has("once");
  bool Client = Args->has("client");
  if (Client) {
    if (Socket.empty()) {
      std::fprintf(stderr, "error: --client needs --socket PATH\n");
      return 1;
    }
    return runClient(Socket);
  }
  if (!Once && Socket.empty()) {
    std::fprintf(stderr, "error: pick a mode: --socket PATH or --once\n");
    return 1;
  }

  serve::ServerOptions Options;
  Error Err = Args->read("serve-workers", Options.Workers);
  if (!Err)
    Err = Args->read("queue-depth", Options.QueueDepth);
  if (!Err)
    Err = Args->read("cache-capacity", Options.CacheCapacity);
  if (!Err)
    Err = Args->read("device-pool", Options.DevicePool);
  if (Err) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return exitCodeFor(Err.code());
  }
  Options.Base.Simulator.UnconstrainedMemory =
      !Args->has("constrained-memory");
  serve::Server Core(Options);

  if (Once)
    return serveOnce(Core);

  serve::SocketServer Daemon(Core, Socket);
  if (Error Err = Daemon.open()) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return exitCodeFor(Err.code());
  }
  ActiveDaemon = &Daemon;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);
  std::printf("listening on %s (workers %d, queue %d, cache %zu, "
              "device pool %d)\n",
              Daemon.path().c_str(), Options.Workers, Options.QueueDepth,
              Options.CacheCapacity, Options.DevicePool);
  std::fflush(stdout);
  Daemon.run();
  ActiveDaemon = nullptr;

  serve::ServeStats Final = Core.stats();
  std::printf("served %lld request(s): %lld completed, %lld failed, "
              "%lld shed, %lld rejected; cache %lld hit(s) / %lld "
              "miss(es)\n",
              static_cast<long long>(Final.Received),
              static_cast<long long>(Final.Completed),
              static_cast<long long>(Final.Failed),
              static_cast<long long>(Final.Shed),
              static_cast<long long>(Final.Rejected),
              static_cast<long long>(Final.CacheHits),
              static_cast<long long>(Final.CacheMisses));
  return 0;
}
