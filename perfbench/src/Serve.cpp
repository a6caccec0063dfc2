//===- perfbench/src/Serve.cpp - serve-mix and the api-layer probe --------===//

#include "Serve.h"

#include "Host.h"
#include "Layers.h"
#include "Trace.h"

#include "affine/ProgramText.h"
#include "api/ContentHash.h"
#include "api/Execute.h"
#include "api/Serialize.h"
#include "api/Socket.h"
#include "harness/Experiment.h"
#include "sim/Engine.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <optional>
#include <random>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace offchip;
using namespace perfbench;

namespace {

enum Class : unsigned { Hit = 0, OptMiss = 1, SimMiss = 2 };
constexpr const char *ClassNames[] = {"hit", "optmiss", "simmiss"};

/// Class shares, fixed per block of 20 requests of one client (the order
/// inside a block is seeded): 60% hits, 25% Optimize misses, 15% Simulate
/// misses. Hits are ~1 ms, Optimize misses several ms and Simulate misses
/// ~10 ms, so p50 falls inside the hits, p90 inside the Optimize misses and
/// p99 inside the Simulate misses, each with a margin of several percent of
/// the requests on either side.
constexpr unsigned BlockLen = 20;
constexpr unsigned ClassShare[] = {12, 5, 3};
constexpr unsigned Clients = 2;
constexpr const char *DaemonJobs = "2";
/// Size scale of every Optimize request.
constexpr double AppScale = 0.5;
/// serve-mix's hot set and Optimize-miss applications.
const std::vector<std::string> ServeApps = {"wupwise", "swim",  "mgrid",
                                            "applu",   "galgel", "apsi"};
/// Slices of the measured window that rps and the latency percentiles are
/// read over: 2,000-4,000 requests each in a 30-s window.
constexpr unsigned WindowSlices = 10;
/// Requests recomputed in-process after the daemon exits, per class.
constexpr std::size_t VerifyPerClass = 12;

std::uint64_t mix64(std::uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

std::uint64_t requestHash(std::uint64_t Seed, unsigned Client,
                          unsigned Index) {
  return mix64(mix64(Seed) ^ (static_cast<std::uint64_t>(Client) << 32 |
                              Index));
}

Class classOf(std::uint64_t Seed, unsigned Client, unsigned Index) {
  Class Block[BlockLen];
  unsigned N = 0;
  for (unsigned C = 0; C < 3; ++C)
    for (unsigned I = 0; I < ClassShare[C]; ++I)
      Block[N++] = static_cast<Class>(C);
  std::mt19937_64 Rng(requestHash(Seed, Client, Index / BlockLen | 1u << 31));
  for (unsigned I = BlockLen - 1; I > 0; --I)
    std::swap(Block[I], Block[Rng() % (I + 1)]);
  return Block[Index % BlockLen];
}

SimRequest optimizeRequest(const std::string &App, double Scale) {
  SimRequest R;
  R.Kind = RequestKind::Optimize;
  R.Config = paperMachine();
  R.Workload.App = App;
  R.Workload.SizeScale = Scale;
  return R;
}

/// The request \p Index of \p Client. Misses are unique within a session:
/// Optimize misses differ from the hot set and from each other in the
/// twelfth significant digit of their scale (array extents are unchanged,
/// so the work is that of the hot entry), Simulate misses in a comment.
SimRequest makeRequest(const std::vector<std::string> &Apps,
                       std::uint64_t Seed, unsigned Client, unsigned Index,
                       Class C) {
  std::uint64_t H = requestHash(Seed, Client, Index);
  const std::string &App = Apps[H % Apps.size()];
  SimRequest R;
  switch (C) {
  case Hit:
    R = optimizeRequest(App, AppScale);
    break;
  case OptMiss:
    R = optimizeRequest(
        App, AppScale * (1.0 + 1e-12 * static_cast<double>(
                                           1 + Client * 10000000ull + Index)));
    break;
  case SimMiss:
    R.Kind = RequestKind::Simulate;
    R.Config = paperMachine();
    R.Workload.ProgramText = std::string(tinyProgramText()) +
                             formatString("# client %u request %u\n", Client,
                                          Index);
    break;
  }
  R.Id = formatString("c%u-%u", Client, Index);
  return R;
}

/// A running offchip-serve child. The destructor kills and reaps a daemon
/// that was not stopped.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::string &Bin, const std::string &Dir,
             std::string *Err) {
    std::string PortFile = Dir + "/serve-port.txt";
    std::string Log = Dir + "/serve.log";
    unlink(PortFile.c_str());
    Pid = fork();
    if (Pid < 0) {
      *Err = "fork failed";
      return false;
    }
    if (Pid == 0) {
      int Out = open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      int In = open("/dev/null", O_RDONLY);
      if (Out >= 0) {
        dup2(Out, 1);
        dup2(Out, 2);
        close(Out);
      }
      if (In >= 0) {
        dup2(In, 0);
        close(In);
      }
      execl(Bin.c_str(), Bin.c_str(), "--port", "0", "--port-file",
            PortFile.c_str(), "--jobs", DaemonJobs,
            static_cast<char *>(nullptr));
      _exit(127);
    }
    double Deadline = nowSeconds() + 30.0;
    while (nowSeconds() < Deadline) {
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        *Err = "offchip-serve exited during start-up (see " + Log + ")";
        return false;
      }
      std::ifstream In(PortFile);
      std::string Text;
      if (std::getline(In, Text) && !In.eof()) {
        Port = static_cast<unsigned>(std::strtoul(Text.c_str(), nullptr, 10));
        break;
      }
      usleep(1000);
    }
    if (Port == 0) {
      *Err = "offchip-serve never published its port";
      return false;
    }
    int Fd = connectTcp("127.0.0.1", Port, Err);
    if (Fd < 0)
      return false;
    LineReader Reader(Fd);
    std::string Line;
    bool Pong = sendAll(Fd, "{\"id\":\"ping\",\"method\":\"ping\"}\n") &&
                Reader.readLine(&Line) &&
                Line.find("\"pong\":true") != std::string::npos;
    close(Fd);
    if (!Pong)
      *Err = "offchip-serve did not answer ping";
    return Pong;
  }

  unsigned port() const { return Port; }

  /// SIGTERM (the daemon drains and exits 0), then reap it; its peak
  /// resident set comes from wait4.
  bool stop(double *PeakRssMb, std::string *Err) {
    ::kill(Pid, SIGTERM);
    int Status = 0;
    struct rusage RU = {};
    pid_t Got;
    do
      Got = wait4(Pid, &Status, 0, &RU);
    while (Got < 0 && errno == EINTR);
    Pid = -1;
    *PeakRssMb = static_cast<double>(RU.ru_maxrss) / 1024.0;
    if (Got < 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      *Err = "offchip-serve did not exit cleanly";
      return false;
    }
    return true;
  }

private:
  pid_t Pid = -1;
  unsigned Port = 0;
};

/// One request/response exchange on an open connection.
bool exchange(int Fd, LineReader &Reader, const std::string &Line,
              std::string *Response) {
  return sendAll(Fd, Line) && Reader.readLine(Response);
}

/// Sends the hot set once so every hit-class request finds it cached.
bool warmHotSet(unsigned Port, const std::vector<std::string> &Apps,
                std::string *Err) {
  int Fd = connectTcp("127.0.0.1", Port, Err);
  if (Fd < 0)
    return false;
  LineReader Reader(Fd);
  bool Ok = true;
  for (std::size_t I = 0; I < Apps.size() && Ok; ++I) {
    SimRequest R = optimizeRequest(Apps[I], AppScale);
    R.Id = formatString("warm-%zu", I);
    std::string Resp;
    Ok = exchange(Fd, Reader, writeRequestLine(R), &Resp) &&
         Resp.find("\"status\":\"ok\"") != std::string::npos;
    if (!Ok)
      *Err = "hot-set request failed: " + Resp.substr(0, 200);
  }
  close(Fd);
  return Ok;
}

/// The leading fields of a response line, read without parsing the plan
/// and results that follow them.
struct Header {
  bool Ok = false;
  bool CacheHit = false;
  bool Singleflight = false;
  double ServerSeconds = 0.0;
};

Header readHeader(const std::string &Line, const std::string &Id) {
  Header H;
  std::size_t Plan = std::min(Line.find("\"plan\""), Line.size());
  std::string Head = Line.substr(0, Plan);
  if (Head.rfind("{\"id\":\"" + Id + "\"", 0) != 0)
    return H;
  H.Ok = Head.find("\"status\":\"ok\"") != std::string::npos;
  H.CacheHit = Head.find("\"cache\":\"hit\"") != std::string::npos;
  H.Singleflight = Head.find("\"singleflight\":true") != std::string::npos;
  std::size_t S = Head.find("\"server_seconds\":");
  if (S != std::string::npos)
    H.ServerSeconds = std::strtod(Head.c_str() + S + 17, nullptr);
  return H;
}

struct Served {
  Class C;
  double Ms;
  double ServerSeconds;
  double End; // steady-clock seconds at the response
  bool Ok;
  bool Traced;
};

struct Kept {
  Class C;
  std::string Request, Response;
};

struct ClientLog {
  std::vector<Served> Done;
  std::vector<Kept> Keep;
  std::string Error;
};

/// The first two blocks and a seeded sixteenth of the rest are kept for
/// verification and the in-process api probes.
bool keep(std::uint64_t Seed, unsigned Client, unsigned Index) {
  return Index < 2 * BlockLen ||
         (requestHash(Seed ^ 0x5bd1e995, Client, Index) % 16 == 0 &&
          Index < 64 * BlockLen);
}

void runClient(unsigned Port, const std::vector<std::string> &Apps,
               std::uint64_t Seed, unsigned Client, double Deadline,
               bool Trace, ClientLog *Log) {
  std::string Err;
  int Fd = connectTcp("127.0.0.1", Port, &Err);
  if (Fd < 0) {
    Log->Error = Err;
    return;
  }
  LineReader Reader(Fd);
  for (unsigned I = 0; nowSeconds() < Deadline; ++I) {
    Class C = classOf(Seed, Client, I);
    SimRequest R = makeRequest(Apps, Seed, Client, I, C);
    std::string Line = writeRequestLine(R), Resp;
    bool Traced = Trace && I % 2 == 1;
    std::optional<ScopedSpan> Span;
    if (Traced)
      Span.emplace("api.request", trace::newGroup());
    double T0 = nowSeconds();
    bool Got = exchange(Fd, Reader, Line, &Resp);
    double T1 = nowSeconds();
    Span.reset();
    if (!Got) {
      Log->Error = "connection lost at request " + R.Id;
      Log->Done.push_back({C, 0.0, 0.0, T1, false, Traced});
      break;
    }
    Header H = readHeader(Resp, R.Id);
    // A hit-class request must be answered from the cache and a miss must
    // be computed; anything else means the cache misbehaved.
    bool Ok = H.Ok && !H.Singleflight && H.CacheHit == (C == Hit);
    if (!Ok)
      std::fprintf(stderr, "error: %s (%s): %s\n", R.Id.c_str(),
                   ClassNames[C], Resp.substr(0, 160).c_str());
    Log->Done.push_back(
        {C, (T1 - T0) * 1e3, H.ServerSeconds, T1, Ok, Traced});
    if (keep(Seed, Client, I))
      Log->Keep.push_back({C, Line, Resp});
  }
  close(Fd);
}

struct Session {
  std::vector<double> SetupTimes;
  std::vector<Served> Done;
  std::vector<Kept> Keep;
  double Start = 0.0; // steady-clock seconds when the window opened
  double Window = 0.0;
  double PeakRssMb = 0.0;
  double Rejected = 0, CacheHits = 0, CacheMisses = 0;
  std::uint64_t Failed = 0;
  bool Correct = true;
  /// In-process execution times of the verified misses, per class.
  std::vector<double> ExecuteMs[3];
  /// One verified Simulate-miss answer (every one carries the same
  /// simulations).
  std::optional<SimResponse> Simulated;
};

double statsField(const JsonValue &V, const char *Key) {
  const JsonValue *F = V.find(Key);
  return F && F->isNumber() ? F->asDouble() : 0.0;
}

bool sameAnswer(const SimResponse &Served, const SimResponse &Direct,
                std::string *Why) {
  if (!Direct.ok()) {
    *Why = "direct execution failed: " + Direct.ErrorText;
    return false;
  }
  if (toJson(Served.Plan).write() != toJson(Direct.Plan).write()) {
    *Why = "plan differs";
    return false;
  }
  for (auto [S, D] : {std::pair{&Served.Original, &Direct.Original},
                      std::pair{&Served.Optimized, &Direct.Optimized}}) {
    if (S->has_value() != D->has_value()) {
      *Why = "a result is present on one side only";
      return false;
    }
    if (*S && !equalResults(**S, **D, Why))
      return false;
  }
  return true;
}

/// Recomputes a seeded subset of the kept answers in-process and compares
/// them with what was served.
void verify(Session &S) {
  std::size_t PerClass[3] = {0, 0, 0};
  for (const Kept &K : S.Keep) {
    if (PerClass[K.C] >= VerifyPerClass)
      continue;
    ++PerClass[K.C];
    std::string Err, Why;
    std::optional<JsonValue> Req = parseJson(K.Request, &Err);
    std::optional<JsonValue> Resp = parseJson(K.Response, &Err);
    SimRequest R;
    SimResponse Served;
    bool Ok = Req && Resp && requestFromJson(*Req, &R, &Err) &&
              responseFromJson(*Resp, &Served, &Err);
    if (Ok) {
      SimResponse Direct;
      double T0 = nowSeconds();
      {
        ScopedSpan Span("api.execute", trace::newGroup());
        Direct = executeRequest(R, /*Jobs=*/1);
      }
      S.ExecuteMs[K.C].push_back((nowSeconds() - T0) * 1e3);
      Ok = sameAnswer(Served, Direct, &Why);
      if (Ok && K.C == SimMiss && !S.Simulated)
        S.Simulated = std::move(Served);
    } else {
      Why = Err;
    }
    if (!Ok) {
      std::fprintf(stderr, "error: served answer differs from direct run: %s\n",
                   Why.c_str());
      ++S.Failed;
      S.Correct = false;
    }
  }
  if (!S.Simulated) {
    std::fprintf(stderr, "error: no Simulate answer was verified\n");
    S.Correct = false;
  }
}

Session serve(const BenchOptions &Opts, const std::vector<std::string> &Apps,
              double Seconds, unsigned SetupRepeats) {
  Session S;
  std::string Err;
  std::optional<Daemon> D;
  // Set-up, repeated: spawn a fresh daemon until it answers ping and holds
  // the hot set. Every daemon but the last is stopped again.
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    if (D) {
      double Rss;
      if (!D->stop(&Rss, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        S.Correct = false;
      }
      D.reset();
    }
    D.emplace();
    double T0 = nowSeconds();
    if (!D->start(Opts.ServeBin, Opts.WorkDir, &Err) ||
        !warmHotSet(D->port(), Apps, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      D.reset(); // kills and reaps the child before exiting
      std::exit(1);
    }
    S.SetupTimes.push_back(nowSeconds() - T0);
  }

  ClientLog Logs[Clients];
  S.Start = nowSeconds();
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back(runClient, D->port(), std::cref(Apps), Opts.Seed, C,
                           S.Start + Seconds, Opts.Trace, &Logs[C]);
    for (std::thread &T : Threads)
      T.join();
  }
  S.Window = nowSeconds() - S.Start;
  for (ClientLog &L : Logs) {
    if (!L.Error.empty()) {
      std::fprintf(stderr, "error: client: %s\n", L.Error.c_str());
      S.Correct = false;
    }
    S.Done.insert(S.Done.end(), L.Done.begin(), L.Done.end());
    for (Kept &K : L.Keep)
      S.Keep.push_back(std::move(K));
  }
  for (const Served &R : S.Done)
    S.Failed += R.Ok ? 0 : 1;

  // The daemon's own counters, then a clean shutdown.
  int Fd = connectTcp("127.0.0.1", D->port(), &Err);
  std::string Line;
  if (Fd >= 0) {
    LineReader Reader(Fd);
    if (exchange(Fd, Reader, "{\"id\":\"stats\",\"method\":\"stats\"}\n",
                 &Line))
      if (std::optional<JsonValue> V = parseJson(Line, &Err)) {
        S.Rejected = statsField(*V, "rejected");
        S.CacheHits = statsField(*V, "cache_hits");
        S.CacheMisses = statsField(*V, "cache_misses");
      }
    close(Fd);
  }
  if (!D->stop(&S.PeakRssMb, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    S.Correct = false;
  }
  if (S.Rejected > 0) {
    std::fprintf(stderr, "error: the daemon refused %g requests\n",
                 S.Rejected);
    S.Correct = false;
  }
  verify(S);
  return S;
}

std::vector<double> latencies(const Session &S, int C, int Traced = -1) {
  std::vector<double> Ms;
  for (const Served &R : S.Done)
    if (R.Ok && (C < 0 || R.C == static_cast<unsigned>(C)) &&
        (Traced < 0 || R.Traced == (Traced == 1)))
      Ms.push_back(R.Ms);
  return Ms;
}

/// Seconds per call of \p Fn over \p N calls, best of three passes.
template <typename FnT> double timePerCall(std::size_t N, FnT Fn) {
  double Best = 1e100;
  for (int Pass = 0; Pass < 3; ++Pass) {
    double T0 = nowSeconds();
    for (std::size_t I = 0; I < N; ++I)
      Fn(I);
    Best = std::min(Best, (nowSeconds() - T0) / static_cast<double>(N));
  }
  return Best;
}

/// api.* and serve.* metrics of a finished session.
void addApiMetrics(const Session &S, Report &Out) {
  // In-process costs of the api's own functions on the kept lines.
  std::vector<const std::string *> Lines;
  std::vector<SimRequest> Reqs;
  std::vector<SimResponse> Resps;
  for (const Kept &K : S.Keep) {
    std::string Err;
    SimRequest R;
    SimResponse A;
    std::optional<JsonValue> Q = parseJson(K.Request, &Err);
    std::optional<JsonValue> V = parseJson(K.Response, &Err);
    if (Q && V && requestFromJson(*Q, &R, &Err) &&
        responseFromJson(*V, &A, &Err)) {
      Lines.push_back(&K.Request);
      Reqs.push_back(std::move(R));
      Resps.push_back(std::move(A));
    }
  }
  std::size_t N = Reqs.size();
  double ParseS = 0, HashS = 0, SerializeS = 0;
  if (N) {
    ScopedSpan Span("api.probe", trace::newGroup());
    {
      ScopedSpan P("api.parse");
      ParseS = timePerCall(N, [&](std::size_t I) {
        std::string Err;
        SimRequest R;
        std::optional<JsonValue> Q = parseJson(*Lines[I], &Err);
        if (Q)
          requestFromJson(*Q, &R, &Err);
      });
    }
    {
      ScopedSpan H("api.hash");
      HashS = timePerCall(N, [&](std::size_t I) {
        volatile std::uint64_t Sink = requestKey(Reqs[I]).Lo;
        (void)Sink;
      });
    }
    {
      ScopedSpan W("api.serialize");
      SerializeS = timePerCall(N, [&](std::size_t I) {
        volatile std::size_t Sink = writeResponseLine(Resps[I]).size();
        (void)Sink;
      });
    }
  }
  std::vector<double> Wire;
  for (const Served &R : S.Done)
    if (R.Ok && R.C != Hit)
      Wire.push_back(R.Ms - R.ServerSeconds * 1e3);

  Out.add("api.parse_us", ParseS * 1e6, "us", N);
  Out.add("api.hash_us", HashS * 1e6, "us", N);
  Out.add("api.serialize_us", SerializeS * 1e6, "us", N);
  Out.add("api.execute_optmiss_ms", quantile(S.ExecuteMs[OptMiss], 0.5), "ms",
          S.ExecuteMs[OptMiss].size());
  Out.add("api.execute_simmiss_ms", quantile(S.ExecuteMs[SimMiss], 0.5), "ms",
          S.ExecuteMs[SimMiss].size());
  Out.add("api.queue_wire_p50_ms", quantile(Wire, 0.5), "ms", Wire.size());
  Out.add("api.queue_wire_p99_ms", quantile(Wire, 0.99), "ms", Wire.size());
  double Lookups = S.CacheHits + S.CacheMisses;
  Out.add("api.cache_hit_frac", Lookups > 0 ? S.CacheHits / Lookups : 0.0,
          "1", static_cast<std::size_t>(Lookups));
  Out.add("api.overloaded", S.Rejected, "count");
  for (int C = 0; C < 3; ++C) {
    std::vector<double> Ms = latencies(S, C);
    Out.add(formatString("serve.%s_p50_ms", ClassNames[C]), quantile(Ms, 0.5),
            "ms", Ms.size());
  }
}

} // namespace

ApiProbe perfbench::probeApiLayer(const BenchOptions &Opts,
                                  const std::vector<std::string> &Apps,
                                  Report &Out) {
  Session S = serve(Opts, Apps, std::min(3.0, Opts.Seconds / 4), 1);
  addApiMetrics(S, Out);
  return {S.Done.size(), S.Failed, S.Correct};
}

RunOutcome perfbench::runServeWorkload(const BenchOptions &Opts) {
  Session S = serve(Opts, ServeApps, Opts.Seconds, 5);
  RunOutcome Out;
  Out.Attempted = S.Done.size();
  Out.Failed = S.Failed;
  Out.Correct = S.Correct;
  Report &M = Out.Metrics;

  std::vector<double> SimServerSec;
  for (const Served &R : S.Done)
    if (R.Ok && R.C == SimMiss)
      SimServerSec.push_back(R.ServerSeconds);
  SimResult Orig, Opt;
  if (S.Simulated) {
    Orig = *S.Simulated->Original;
    Opt = *S.Simulated->Optimized;
  }
  std::vector<double> All = latencies(S, -1);

  if (!Opts.Trace) {
    double Accesses =
        static_cast<double>(Orig.TotalAccesses + Opt.TotalAccesses);
    double P10 = quantile(SimServerSec, 0.1);
    M.add("macc_per_s", P10 > 0 ? Accesses / P10 / 1e6 : 0.0, "Macc/s",
          SimServerSec.size());
    M.add("exec_mcycles",
          static_cast<double>(Orig.ExecutionCycles + Opt.ExecutionCycles) /
              1e6,
          "Mcycles", 2);
    M.add("offchip_lat_cyc", offchipLatencyCycles({&Orig, &Opt}), "cycles",
          2);
    std::vector<Timed> Requests;
    for (const Served &R : S.Done)
      if (R.Ok)
        Requests.push_back({R.End - S.Start, R.Ms / 1e3});
    Slices Window(Requests, S.Window, WindowSlices);
    M.add("rps", bestDecile(Window.rates(), true), "1/s", All.size());
    M.add("p50_ms", bestDecile(Window.quantiles(0.5), false) * 1e3, "ms",
          All.size());
    M.add("p90_ms", bestDecile(Window.quantiles(0.9), false) * 1e3, "ms",
          All.size());
    M.add("p99_ms", bestDecile(Window.quantiles(0.99), false) * 1e3, "ms",
          All.size());
    M.add("setup_s", quantile(S.SetupTimes, 0.5), "s", S.SetupTimes.size());
    M.add("peak_rss_mb", S.PeakRssMb, "MB");
    M.add("ok_frac", Out.okFrac(), "1", Out.Attempted);
    return Out;
  }

  // The traced run.
  std::vector<double> Overheads;
  for (int C = 0; C < 3; ++C)
    Overheads.push_back(quantile(latencies(S, C, 1), 0.5) /
                        quantile(latencies(S, C, 0), 0.5));
  M.add("sim.sample_p10_ms", quantile(SimServerSec, 0.1) * 1e3, "ms",
        SimServerSec.size());
  M.add("sim.sample_p50_ms", quantile(SimServerSec, 0.5) * 1e3, "ms",
        SimServerSec.size());
  M.add("trace.overhead_frac", geomean(Overheads) - 1.0, "1", All.size());

  // The workloads and core layers on the hot set, in-process.
  MachineConfig Config = paperMachine();
  ClusterMapping Mapping = makeM1Mapping(Config);
  std::vector<AppSize> HotSet;
  for (const std::string &App : ServeApps)
    HotSet.push_back({App, AppScale});
  addBuildLayerMetrics(HotSet, /*Optimized=*/true, Config, Mapping, M);

  // The sim-side layers on what serve-mix simulates: the small program,
  // original and optimized, exactly as executeRequest runs it.
  std::optional<AffineProgram> Tiny = parseProgramText(tinyProgramText());
  LayoutPlan OrigPlan = LayoutTransformer::originalPlan(*Tiny);
  LayoutPlan OptPlan =
      LayoutTransformer(Mapping, Config.layoutOptions()).run(*Tiny);
  MachineConfig OptConfig = Config;
  OptConfig.PagePolicy = PageAllocPolicy::CompilerGuided;
  std::vector<SimProgram> Programs = {
      {"tiny-original", &*Tiny, &OrigPlan, Config, 0, Orig, 0.0},
      {"tiny-optimized", &*Tiny, &OptPlan, OptConfig, 0, Opt, 0.0}};
  for (SimProgram &P : Programs) {
    std::vector<double> Times;
    for (int I = 0; I < 10; ++I) {
      double T0 = nowSeconds();
      SimResult R = runSingle(*P.Program, *P.Plan, P.Config, Mapping);
      Times.push_back(nowSeconds() - T0);
    }
    P.SampleP10 = quantile(Times, 0.1);
  }
  addSimLayerMetrics(Programs, Mapping, M);
  addApiMetrics(S, M);
  return Out;
}
