//===- api/SocketServer.cpp -----------------------------------------------===//

#include "api/SocketServer.h"

#include "api/Serialize.h"
#include "api/Socket.h"
#include "support/Format.h"
#include "workloads/AppModel.h"

#include <cerrno>
#include <condition_variable>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

using namespace offchip;

/// One accepted client. Response callbacks run on service worker threads,
/// so writes are serialized by WriteMu and the reader thread waits for
/// Outstanding to hit zero before it lets the connection wind down — a
/// half-closed client still gets every answer it is owed.
struct SocketServer::Connection {
  int Fd = -1;
  std::thread Thread;
  std::mutex WriteMu;
  std::mutex Mu;
  std::condition_variable Cv;
  std::size_t Outstanding = 0;
  std::atomic<bool> Finished{false};

  void writeLine(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(WriteMu);
    sendAll(Fd, Line);
  }

  void writeError(const std::string &Id, const std::string &Text) {
    SimResponse Resp;
    Resp.Id = Id;
    Resp.Status = ResponseStatus::Error;
    Resp.ErrorText = Text;
    writeLine(writeResponseLine(Resp));
  }

  void beginRequest() {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Outstanding;
  }

  void endRequest() {
    std::lock_guard<std::mutex> Lock(Mu);
    --Outstanding;
    if (Outstanding == 0)
      Cv.notify_all();
  }

  void awaitQuiescent() {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [this] { return Outstanding == 0; });
  }
};

SocketServer::SocketServer(SimService &Service, ServerOptions Opts)
    : Service(Service), Opts(std::move(Opts)) {}

SocketServer::~SocketServer() {
  reapConnections(/*Join=*/true);
  if (ListenFd >= 0)
    close(ListenFd);
  for (int Fd : StopPipe)
    if (Fd >= 0)
      close(Fd);
}

bool SocketServer::start(std::string *Err) {
  if (pipe(StopPipe) != 0) {
    if (Err)
      *Err = formatString("cannot create stop pipe: %s",
                          std::strerror(errno));
    return false;
  }
  for (int Fd : StopPipe)
    fcntl(Fd, F_SETFD, FD_CLOEXEC);

  struct addrinfo Hints = {};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  std::string Service = formatString("%u", Opts.Port);
  struct addrinfo *Res = nullptr;
  if (int RC =
          getaddrinfo(Opts.Host.c_str(), Service.c_str(), &Hints, &Res)) {
    if (Err)
      *Err = formatString("cannot resolve %s: %s", Opts.Host.c_str(),
                          gai_strerror(RC));
    return false;
  }
  int BindErrno = 0;
  for (struct addrinfo *AI = Res; AI; AI = AI->ai_next) {
    int Fd = socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0) {
      BindErrno = errno;
      continue;
    }
    // Reuse TIME_WAIT remnants of a previous server; a port that is
    // actively listened on still fails with EADDRINUSE below.
    int One = 1;
    setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (bind(Fd, AI->ai_addr, AI->ai_addrlen) == 0 && listen(Fd, 64) == 0) {
      ListenFd = Fd;
      break;
    }
    BindErrno = errno;
    close(Fd);
  }
  freeaddrinfo(Res);
  if (ListenFd < 0) {
    if (Err) {
      if (BindErrno == EADDRINUSE)
        *Err = formatString(
            "%s:%u is already in use — another offchip-serve (or other "
            "process) is listening there; pick a different --port, or "
            "--port 0 for an ephemeral one",
            Opts.Host.c_str(), Opts.Port);
      else
        *Err = formatString("cannot listen on %s:%u: %s",
                            Opts.Host.c_str(), Opts.Port,
                            std::strerror(BindErrno));
    }
    return false;
  }

  struct sockaddr_storage Addr;
  socklen_t Len = sizeof(Addr);
  if (getsockname(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
                  &Len) == 0) {
    if (Addr.ss_family == AF_INET)
      BoundPort = ntohs(
          reinterpret_cast<struct sockaddr_in *>(&Addr)->sin_port);
    else if (Addr.ss_family == AF_INET6)
      BoundPort = ntohs(
          reinterpret_cast<struct sockaddr_in6 *>(&Addr)->sin6_port);
  }
  if (BoundPort == 0)
    BoundPort = Opts.Port;
  return true;
}

void SocketServer::requestStop() {
  // Async-signal-safe: one byte through the self-pipe; run()'s poll wakes.
  char Byte = 1;
  if (StopPipe[1] >= 0)
    (void)!write(StopPipe[1], &Byte, 1);
}

void SocketServer::run() {
  for (;;) {
    struct pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {StopPipe[0], POLLIN, 0}};
    int RC = poll(Fds, 2, /*timeout_ms=*/500);
    if (RC < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    reapConnections(/*Join=*/false);
    if (Fds[1].revents & POLLIN)
      break;
    if (!(Fds[0].revents & POLLIN))
      continue;
    int Fd = accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    NumConnections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(ConnMu);
    Conns.push_back(Conn);
    Conn->Thread =
        std::thread([this, Conn] { serveConnection(Conn); });
  }

  // Stop accepting, wake every blocked reader, and let each connection
  // drain its outstanding responses before the threads are joined.
  close(ListenFd);
  ListenFd = -1;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const std::shared_ptr<Connection> &Conn : Conns)
      if (!Conn->Finished.load())
        shutdown(Conn->Fd, SHUT_RD);
  }
  reapConnections(/*Join=*/true);
  Service.drain();
}

void SocketServer::reapConnections(bool Join) {
  std::vector<std::shared_ptr<Connection>> Done;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    if (Join) {
      Done.swap(Conns);
    } else {
      for (std::size_t I = 0; I < Conns.size();) {
        if (Conns[I]->Finished.load()) {
          Done.push_back(std::move(Conns[I]));
          Conns[I] = std::move(Conns.back());
          Conns.pop_back();
        } else {
          ++I;
        }
      }
    }
  }
  for (const std::shared_ptr<Connection> &Conn : Done) {
    if (Conn->Thread.joinable())
      Conn->Thread.join();
    close(Conn->Fd);
  }
}

void SocketServer::serveConnection(const std::shared_ptr<Connection> &Conn) {
  LineReader Reader(Conn->Fd);
  std::string Line;
  while (Reader.readLine(&Line)) {
    if (Line.find_first_not_of(" \t") == std::string::npos)
      continue;
    handleLine(Conn, Line);
  }
  if (Reader.tooLong()) {
    NumParseErrors.fetch_add(1, std::memory_order_relaxed);
    Conn->writeError("", formatString("request line longer than %zu bytes; "
                                      "closing the connection",
                                      LineReader::MaxLineBytes));
  }
  // EOF (or our own SHUT_RD): answer everything already admitted, then
  // signal the writing side so `nc -N`-style half-closing clients see a
  // clean end of stream.
  Conn->awaitQuiescent();
  shutdown(Conn->Fd, SHUT_WR);
  Conn->Finished.store(true);
}

void SocketServer::handleLine(const std::shared_ptr<Connection> &Conn,
                              const std::string &Line) {
  NumRequests.fetch_add(1, std::memory_order_relaxed);
  std::string Err;
  std::optional<JsonValue> V = parseJson(Line, &Err);
  if (!V) {
    NumParseErrors.fetch_add(1, std::memory_order_relaxed);
    Conn->writeError("", "cannot parse request: " + Err);
    return;
  }
  std::string Id;
  if (const JsonValue *IdV = V->isObject() ? V->find("id") : nullptr)
    if (IdV->isString())
      Id = IdV->asString();

  // Server-level methods answered inline (no simulation, no queueing).
  const JsonValue *MethodV = V->isObject() ? V->find("method") : nullptr;
  std::string Method =
      MethodV && MethodV->isString() ? MethodV->asString() : "";
  if (Method == "ping" || Method == "apps" || Method == "stats") {
    std::string Line;
    JsonWriter W(Line);
    W.beginObject();
    if (!Id.empty())
      W.key("id").value(Id);
    W.key("status").value(enumName(ResponseStatus::Ok));
    if (Method == "ping") {
      W.key("pong").value(true);
      W.key("workers").value(Service.workers());
    } else if (Method == "apps") {
      W.key("apps").beginArray();
      for (const std::string &Name : appNames()) {
        W.beginObject();
        W.key("name").value(Name);
        W.key("summary").value(findApp(Name)->Summary);
        W.endObject();
      }
      W.endArray();
    } else {
      SimService::Stats S = Service.stats();
      W.key("admitted").value(S.Admitted);
      W.key("completed").value(S.Completed);
      W.key("rejected").value(S.Rejected);
      W.key("singleflight_hits").value(S.Cache.SingleflightHits);
      W.key("cache_hits").value(S.Cache.Hits);
      W.key("cache_misses").value(S.Cache.Misses);
      W.key("cache_evictions").value(S.Cache.Evictions);
      W.key("cache_entries").value(S.Cache.Entries);
      W.key("cache_capacity").value(S.Cache.Capacity);
      W.key("connections")
          .value(NumConnections.load(std::memory_order_relaxed));
      W.key("requests").value(NumRequests.load(std::memory_order_relaxed));
      W.key("parse_errors")
          .value(NumParseErrors.load(std::memory_order_relaxed));
    }
    W.endObject();
    Line += '\n';
    Conn->writeLine(Line);
    return;
  }

  SimRequest Req;
  if (!requestFromJson(*V, &Req, &Err)) {
    NumParseErrors.fetch_add(1, std::memory_order_relaxed);
    Conn->writeError(Id, Err);
    return;
  }
  Conn->beginRequest();
  Service.submit(std::move(Req), [Conn](SimResponse Resp) {
    Conn->writeLine(writeResponseLine(Resp));
    Conn->endRequest();
  });
}

SocketServer::Counters SocketServer::counters() const {
  Counters C;
  C.Connections = NumConnections.load(std::memory_order_relaxed);
  C.Requests = NumRequests.load(std::memory_order_relaxed);
  C.ParseErrors = NumParseErrors.load(std::memory_order_relaxed);
  return C;
}
