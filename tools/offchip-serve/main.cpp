//===- tools/offchip-serve/main.cpp - optimization service daemon ----------===//
///
/// Long-running optimize/simulate service speaking the line-delimited JSON
/// protocol of api/Serialize.h over TCP. Each connection may pipeline any
/// number of requests; answers carry the request id, so ordering is free.
/// Concurrency, admission control and the content-addressed result cache
/// live in api/Service.h — this binary is flag parsing, signal wiring and
/// an exit code.
///
/// Try it:
///   offchip-serve --port 7411 &
///   printf '%s\n' '{"id":"r1","method":"optimize","app":"swim"}' |
///     nc -q 1 127.0.0.1 7411
///
/// SIGINT/SIGTERM stop accepting, drain every admitted request, flush all
/// responses, and exit 0.
///
//===----------------------------------------------------------------------===//

#include "api/SocketServer.h"
#include "support/Options.h"

#include <csignal>
#include <cstdio>
#include <fstream>

using namespace offchip;

namespace {

SocketServer *ActiveServer = nullptr;

void onSignal(int) {
  // Async-signal-safe: requestStop only writes one byte to a pipe.
  if (ActiveServer)
    ActiveServer->requestStop();
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Net;
  Net.Port = 7411;
  ServiceOptions Svc;
  std::string PortFile;

  OptionsParser Options("offchip-serve",
                        "optimization service over line-delimited JSON/TCP");
  Options.value("--host", &Net.Host, "address to bind (default 127.0.0.1)");
  Options.value("--port", &Net.Port,
                "TCP port (default 7411; 0 picks an ephemeral port)");
  Options.value("--port-file", &PortFile,
                "write the bound port to this file once listening (handy "
                "with --port 0)");
  unsigned Jobs = 0;
  Options.value("--jobs", &Jobs,
                "request worker threads N, each with one helper thread for "
                "a simulate request's variant pair, so up to 2N simulation "
                "threads (default 0 = all cores)");
  unsigned QueueDepth = 64, CacheEntries = 256;
  Options.value("--queue-depth", &QueueDepth,
                "admitted-but-unanswered request bound before new requests "
                "are answered 'overloaded' (default 64)");
  Options.value("--cache-entries", &CacheEntries,
                "result cache capacity in entries; 0 disables caching "
                "(default 256)");

  if (std::optional<int> Ec = Options.parseArgs(Argc, Argv))
    return *Ec;
  if (!Options.positional().empty()) {
    std::fprintf(stderr, "error: unexpected positional argument\n%s",
                 Options.helpText().c_str());
    return 2;
  }

  Svc.Workers = Jobs;
  Svc.QueueDepth = static_cast<std::size_t>(QueueDepth);
  Svc.CacheCapacity = static_cast<std::size_t>(CacheEntries);

  std::string Err;
  SimService Service(Svc);
  SocketServer Server(Service, Net);
  if (!Server.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!PortFile.empty()) {
    std::ofstream Out(PortFile);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write port file '%s'\n",
                   PortFile.c_str());
      return 1;
    }
    Out << Server.port() << "\n";
  }

  ActiveServer = &Server;
  struct sigaction SA = {};
  SA.sa_handler = onSignal;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
  // A client vanishing mid-write must not kill the daemon.
  signal(SIGPIPE, SIG_IGN);

  std::printf("offchip-serve: listening on %s:%u (%u workers, queue %llu, "
              "cache %llu)\n",
              Net.Host.c_str(), Server.port(), Service.workers(),
              static_cast<unsigned long long>(QueueDepth),
              static_cast<unsigned long long>(CacheEntries));
  std::fflush(stdout);

  Server.run(); // until SIGINT/SIGTERM; drains in-flight work

  SimService::Stats S = Service.stats();
  SocketServer::Counters C = Server.counters();
  std::printf("offchip-serve: drained — %llu requests on %llu connections "
              "(%llu completed, %llu overloaded, cache %llu/%llu hits)\n",
              static_cast<unsigned long long>(C.Requests),
              static_cast<unsigned long long>(C.Connections),
              static_cast<unsigned long long>(S.Completed),
              static_cast<unsigned long long>(S.Rejected),
              static_cast<unsigned long long>(S.Cache.Hits),
              static_cast<unsigned long long>(S.Cache.Hits + S.Cache.Misses));
  ActiveServer = nullptr;
  return 0;
}
