//===- serve/SocketServer.cpp - AF_UNIX line-JSON transport --------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/SocketServer.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace stencilflow;
using namespace stencilflow::serve;

SocketServer::SocketServer(Server &Core, std::string Path)
    : Core(Core), Path(std::move(Path)) {}

SocketServer::~SocketServer() {
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0) {
    ::close(Fd);
    ::unlink(Path.c_str());
  }
}

Error SocketServer::open() {
  if (Path.empty())
    return makeError(ErrorCode::InvalidInput, "socket path is empty");
  sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path))
    return makeError(
        ErrorCode::InvalidInput,
        formatString("socket path '%s' exceeds the AF_UNIX limit of %zu",
                     Path.c_str(), sizeof(Addr.sun_path) - 1));

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeError(formatString("socket: %s", std::strerror(errno)));

  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);

  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    // A stale socket file from a crashed daemon: reclaim it iff nothing
    // answers on it.
    if (errno == EADDRINUSE) {
      int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      bool Live =
          Probe >= 0 &&
          ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                    sizeof(Addr)) == 0;
      if (Probe >= 0)
        ::close(Probe);
      if (!Live && ::unlink(Path.c_str()) == 0 &&
          ::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
              0) {
        // Reclaimed.
      } else {
        ::close(Fd);
        return makeError(
            ErrorCode::InvalidInput,
            formatString("socket path '%s' is in use by a live daemon",
                         Path.c_str()));
      }
    } else {
      Error Err = makeError(ErrorCode::InvalidInput,
                            formatString("bind '%s': %s", Path.c_str(),
                                         std::strerror(errno)));
      ::close(Fd);
      return Err;
    }
  }
  if (::listen(Fd, 64) < 0) {
    Error Err = makeError(formatString("listen '%s': %s", Path.c_str(),
                                       std::strerror(errno)));
    ::close(Fd);
    ::unlink(Path.c_str());
    return Err;
  }
  ListenFd.store(Fd);
  return Error::success();
}

void SocketServer::requestShutdown() {
  ShutdownRequested.store(true);
  int Fd = ListenFd.load();
  // shutdown(2) is async-signal-safe and unblocks the blocked accept(2);
  // the fd itself is closed by run()'s teardown, not here.
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void SocketServer::run() {
  Core.start();
  for (;;) {
    int Fd = ListenFd.load();
    if (Fd < 0)
      break;
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR && !ShutdownRequested.load())
        continue;
      break; // Shutdown or a fatal accept error: drain and exit.
    }
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Connections.emplace_back([this, Conn] { serveConnection(Conn); });
  }

  // Teardown: new connections are refused (listener closed), admitted
  // jobs drain, queued jobs shed, connection writers flush.
  Core.stop();
  std::vector<std::thread> Drain;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Drain.swap(Connections);
  }
  for (std::thread &T : Drain)
    T.join();
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0) {
    ::close(Fd);
    ::unlink(Path.c_str());
  }
}

void SocketServer::serveConnection(int Fd) {
  std::string Buffer;
  char Chunk[4096];
  bool Open = true;
  bool ShutdownOp = false;
  while (Open && !ShutdownRequested.load()) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N <= 0)
      break;
    Buffer.append(Chunk, static_cast<size_t>(N));

    size_t Pos;
    while ((Pos = Buffer.find('\n')) != std::string::npos) {
      std::string Line = Buffer.substr(0, Pos);
      Buffer.erase(0, Pos + 1);
      if (Line.empty())
        continue;

      Response Out = Core.handleLine(Line, ShutdownOp);
      if (ShutdownOp)
        Open = false; // Respond, then trigger the graceful teardown.

      std::string Text = Out.toJsonText();
      Text.push_back('\n');
      size_t Off = 0;
      while (Off < Text.size()) {
        ssize_t W = ::write(Fd, Text.data() + Off, Text.size() - Off);
        if (W <= 0) {
          Open = false;
          break;
        }
        Off += static_cast<size_t>(W);
      }
      if (!Open)
        break;
    }
  }
  ::close(Fd);
  // A client-issued "shutdown" op lands here after its response flushed.
  if (ShutdownOp)
    requestShutdown();
}
