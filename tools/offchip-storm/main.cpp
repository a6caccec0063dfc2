//===- tools/offchip-storm/main.cpp - client storm for offchip-serve -------===//
///
/// Drives an already-running offchip-serve with closed-loop client swarms
/// at several concurrency levels and reports sustained requests/s plus
/// latency percentiles, a cache cold-vs-hit comparison, and (with
/// --verify) a bit-identity check of served responses against a local
/// executeRequest() run. The measurements land in BENCH_serve.json; the
/// exit code is non-zero if any response was dropped, malformed or — under
/// --verify — not identical to the direct run.
///
/// A "dropped" response cannot hide: every client is closed-loop (one
/// request outstanding), so a missing answer stalls its client and the
/// per-request id check catches any misrouted line.
///
//===----------------------------------------------------------------------===//

#include "api/ContentHash.h"
#include "api/Execute.h"
#include "api/Serialize.h"
#include "api/Socket.h"
#include "support/Format.h"
#include "support/HostClock.h"
#include "support/Options.h"
#include "support/Random.h"
#include "workloads/AppModel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace offchip;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// A small affine program that simulates quickly but still gives the
/// layout pass a transposed reference to fix — the workhorse of the
/// cold-vs-hit probe and the --verify simulate check.
const char *StormProgram = R"(
program stormlet
array a dims 64 64 elem 8

nest sweep bounds 0:64 1:63 parallel 0
  read  a [ i1-1, i0 ]
  write a [ i1, i0 ]
end
)";

/// The deterministic request mix: a hot set of optimize requests over the
/// table's apps (exercises the cache) plus a per-client unique scale
/// every fourth request (forces cold misses throughout the run). Every
/// level draws from the same distribution of work: the app is a hash of
/// (client, iteration), and a unique scale is the hot scale 1.0 plus a
/// distinct multiple of 1e-12, so the array extents, and with them the
/// work, are those of the hot entry.
///
/// With \p DuplicateRatio > 0, that fraction of each client's iterations
/// instead sends a simulate request whose content is identical across every
/// client at the same (level, iteration) but unique to this storm run:
/// closed-loop clients advance roughly in lockstep, so the copies are in
/// flight together and the server's single-flight merging collapses them
/// onto one execution (stragglers land as cache hits instead).
SimRequest mixRequest(unsigned Level, unsigned Client, unsigned Iter,
                      unsigned Requests, double DuplicateRatio, int RunTag) {
  const std::vector<std::string> &Apps = appNames();
  SimRequest R;
  R.Id = formatString("l%u-c%u-i%u", Level, Client, Iter);
  if (DuplicateRatio > 0.0 &&
      static_cast<double>(Iter % 16) < DuplicateRatio * 16.0) {
    R.Kind = RequestKind::Simulate;
    R.Workload.ProgramText =
        std::string(StormProgram) +
        formatString("# dup run %d level %u iter %u\n", RunTag, Level, Iter);
    return R;
  }
  R.Kind = RequestKind::Optimize;
  R.Workload.App = Apps[SplitMix64::mix((std::uint64_t{Client} << 32) | Iter) %
                        Apps.size()];
  if (Iter % 4 == 3) {
    // Unique content → guaranteed cache miss. Level L's clients number
    // L(L-1)/2 .. L(L+1)/2 - 1 across all levels, so no two requests of a
    // run share a scale.
    std::uint64_t Unique =
        1 + Iter +
        std::uint64_t{Requests} * (std::uint64_t{Level} * (Level - 1) / 2 +
                                   Client);
    R.Workload.SizeScale = 1.0 + 1e-12 * static_cast<double>(Unique);
  } else {
    R.Workload.SizeScale = (Iter % 2) ? 1.0 : 0.5;
  }
  return R;
}

struct ClientTally {
  std::vector<double> LatenciesMs;
  std::uint64_t Hits = 0, Misses = 0;
  std::uint64_t Singleflight = 0; // merged onto an in-flight leader
  std::uint64_t Overloaded = 0; // retried, not dropped
  std::uint64_t Errors = 0;
  std::uint64_t VerifyFailures = 0;
};

/// Locally computed oracle responses, keyed by content key, shared across
/// clients (each unique request is executed directly at most once).
class Oracle {
public:
  const SimResponse &lookup(const SimRequest &R) {
    std::string Key = requestKey(R).str();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Cache.find(Key);
      if (It != Cache.end())
        return It->second;
    }
    SimResponse Direct = executeRequest(R, /*Jobs=*/1);
    std::lock_guard<std::mutex> Lock(Mu);
    return Cache.emplace(Key, std::move(Direct)).first->second;
  }

private:
  std::mutex Mu;
  std::map<std::string, SimResponse> Cache; // stable references
};

bool sameResult(const std::optional<SimResult> &Served,
                const std::optional<SimResult> &Direct, const char *What,
                std::string *Why) {
  if (Served.has_value() != Direct.has_value()) {
    *Why = formatString("%s present only on one side", What);
    return false;
  }
  if (Served && !equalResults(*Served, *Direct, Why))
    return false;
  return true;
}

/// Served-vs-direct bit identity: the plan and both variant results.
bool verifyResponse(const SimResponse &Served, const SimResponse &Direct,
                    std::string *Why) {
  if (!Direct.ok()) {
    *Why = "direct execution failed: " + Direct.ErrorText;
    return false;
  }
  if (toJson(Served.Plan).write() != toJson(Direct.Plan).write()) {
    *Why = "plan differs";
    return false;
  }
  return sameResult(Served.Original, Direct.Original, "original", Why) &&
         sameResult(Served.Optimized, Direct.Optimized, "optimized", Why);
}

/// One closed-loop client: send, await the matching id, retry overloads.
void runClient(const std::string &Host, unsigned Port, unsigned Level,
               unsigned Client, unsigned Requests, double DuplicateRatio,
               int RunTag, bool Verify, Oracle *Oracles, ClientTally *Tally) {
  std::string Err;
  int Fd = connectTcp(Host, Port, &Err);
  if (Fd < 0) {
    Tally->Errors += Requests;
    return;
  }
  LineReader Reader(Fd);
  for (unsigned I = 0; I < Requests; ++I) {
    SimRequest R =
        mixRequest(Level, Client, I, Requests, DuplicateRatio, RunTag);
    for (;;) {
      Clock::time_point Start = Clock::now();
      if (!sendAll(Fd, writeRequestLine(R))) {
        ++Tally->Errors;
        close(Fd);
        return;
      }
      std::string Line;
      if (!Reader.readLine(&Line)) {
        ++Tally->Errors; // dropped: no answer for an accepted request
        close(Fd);
        return;
      }
      double Ms = msSince(Start);
      std::optional<JsonValue> V = parseJson(Line, &Err);
      SimResponse Resp;
      if (!V || !responseFromJson(*V, &Resp, &Err) || Resp.Id != R.Id) {
        ++Tally->Errors;
        break;
      }
      if (Resp.Status == ResponseStatus::Overloaded) {
        ++Tally->Overloaded;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue; // retry the same request
      }
      if (!Resp.ok()) {
        ++Tally->Errors;
        break;
      }
      Tally->LatenciesMs.push_back(Ms);
      if (Resp.Singleflight)
        ++Tally->Singleflight;
      else if (Resp.CacheHit)
        ++Tally->Hits;
      else
        ++Tally->Misses;
      if (Verify) {
        std::string Why;
        if (!verifyResponse(Resp, Oracles->lookup(R), &Why)) {
          ++Tally->VerifyFailures;
          std::fprintf(stderr, "verify: %s: %s\n", R.Id.c_str(),
                       Why.c_str());
        }
      }
      break;
    }
  }
  close(Fd);
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Rank = P * (Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - Lo;
  return Sorted[Lo] * (1.0 - Frac) + Sorted[Hi] * Frac;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Host = "127.0.0.1";
  unsigned Port = 7411;
  std::vector<unsigned> Levels = {1, 2, 4, 8};
  unsigned Requests = 32;
  std::string OutPath = "BENCH_serve.json";
  double DuplicateRatio = 0.0;
  bool Verify = false;

  OptionsParser Options("offchip-storm",
                        "client storm benchmark for offchip-serve");
  Options.value("--host", &Host, "server address (default 127.0.0.1)");
  Options.value("--port", &Port, "server port (default 7411)");
  Options.custom("--levels", "<n,n,...>",
                 [&](const std::string &V, std::string *) {
                   std::vector<unsigned> Parsed;
                   if (parseUnsignedList(V, &Parsed) != DigitsError::Ok ||
                       std::count(Parsed.begin(), Parsed.end(), 0u) != 0)
                     return false;
                   Levels = std::move(Parsed);
                   return true;
                 },
                 "comma-separated concurrent client counts, each >= 1 "
                 "(default 1,2,4,8)");
  Options.value("--requests", &Requests,
                "requests per client per level (default 32)");
  Options.value("--out", &OutPath,
                "measurement output path (default BENCH_serve.json)");
  Options.value("--duplicate-ratio", &DuplicateRatio,
                DoubleRange::UnitInterval,
                "fraction of each client's requests that are identical "
                "across clients (default 0; the server merges concurrent "
                "copies in flight — see singleflight_hits)");
  Options.flag("--verify", &Verify,
               "bit-compare every served response against a local "
               "executeRequest() run");

  if (std::optional<int> Ec = Options.parseArgs(Argc, Argv))
    return *Ec;

  // Cold-vs-hit probe: the same simulate request twice on one connection.
  // The first answer is computed, the second must come from the cache; the
  // latency ratio is the headline number of the result cache.
  double ColdMs = 0.0, HitMs = 0.0;
  bool ProbeHit = false;
  std::string Err;
  {
    int Fd = connectTcp(Host, Port, &Err);
    if (Fd < 0) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    LineReader Reader(Fd);
    SimRequest Probe;
    Probe.Kind = RequestKind::Simulate;
    Probe.Workload.ProgramText = StormProgram;
    // Unique content per storm run so the first send is genuinely cold
    // even against a long-lived server.
    Probe.Workload.ProgramText +=
        formatString("# storm-run %d\n", static_cast<int>(getpid()));
    for (int Round = 0; Round < 2; ++Round) {
      Probe.Id = formatString("probe-%d", Round);
      Clock::time_point Start = Clock::now();
      std::string Line;
      if (!sendAll(Fd, writeRequestLine(Probe)) ||
          !Reader.readLine(&Line)) {
        std::fprintf(stderr, "error: cache probe got no answer\n");
        close(Fd);
        return 1;
      }
      double Ms = msSince(Start);
      std::optional<JsonValue> V = parseJson(Line, &Err);
      SimResponse Resp;
      if (!V || !responseFromJson(*V, &Resp, &Err) || !Resp.ok()) {
        std::fprintf(stderr, "error: cache probe failed: %s\n", Err.c_str());
        close(Fd);
        return 1;
      }
      if (Round == 0)
        ColdMs = Ms;
      else {
        HitMs = Ms;
        ProbeHit = Resp.CacheHit;
      }
    }
    close(Fd);
  }

  // The report streams: the header fields, then one object per level.
  std::string Json;
  JsonWriter W(Json);
  W.beginObject();
  W.key("bench").value("serve");
  W.key("host_cores").value(std::thread::hardware_concurrency());
  W.key("cpu_model").value(hostCpuModel());
  W.key("requests_per_client").value(Requests);
  W.key("duplicate_ratio").value(DuplicateRatio);
  W.key("verified").value(Verify);
  W.key("cache_cold_ms").value(ColdMs);
  W.key("cache_hit_ms").value(HitMs);
  W.key("cache_probe_hit").value(ProbeHit);
  W.key("cache_speedup").value(HitMs > 0.0 ? ColdMs / HitMs : 0.0);
  W.key("levels").beginArray();
  std::uint64_t TotalErrors = 0, TotalVerifyFailures = 0;
  std::printf("%-8s %-10s %-10s %-10s %-10s %-10s %-10s %-8s %-7s %s\n",
              "clients", "rps", "p50_ms", "p90_ms", "p99_ms", "max_ms",
              "hit_rate", "sf_hits", "retries", "errors");
  Oracle Oracles;
  int RunTag = static_cast<int>(getpid());
  for (unsigned Level : Levels) {
    std::vector<ClientTally> Tallies(Level);
    std::vector<std::thread> Threads;
    Clock::time_point Start = Clock::now();
    for (unsigned C = 0; C < Level; ++C)
      Threads.emplace_back(runClient, Host, Port, Level, C, Requests,
                           DuplicateRatio, RunTag, Verify, &Oracles,
                           &Tallies[C]);
    for (std::thread &T : Threads)
      T.join();
    double WallSeconds =
        std::chrono::duration<double>(Clock::now() - Start).count();

    std::vector<double> Lat;
    std::uint64_t Hits = 0, Misses = 0, Singleflight = 0, Overloads = 0,
                  Errors = 0, VerifyFailures = 0;
    for (const ClientTally &T : Tallies) {
      Lat.insert(Lat.end(), T.LatenciesMs.begin(), T.LatenciesMs.end());
      Hits += T.Hits;
      Misses += T.Misses;
      Singleflight += T.Singleflight;
      Overloads += T.Overloaded;
      Errors += T.Errors;
      VerifyFailures += T.VerifyFailures;
    }
    std::sort(Lat.begin(), Lat.end());
    double Rps = WallSeconds > 0 ? Lat.size() / WallSeconds : 0.0;
    double P50 = percentile(Lat, 0.50), P90 = percentile(Lat, 0.90),
           P99 = percentile(Lat, 0.99), Max = Lat.empty() ? 0.0 : Lat.back();
    std::uint64_t Answered = Hits + Misses + Singleflight;
    double HitRate = Answered ? static_cast<double>(Hits) / Answered : 0.0;
    TotalErrors += Errors;
    TotalVerifyFailures += VerifyFailures;

    std::printf("%-8u %-10.1f %-10.2f %-10.2f %-10.2f %-10.2f %-10.2f "
                "%-8llu %-7llu %llu\n",
                Level, Rps, P50, P90, P99, Max, HitRate,
                static_cast<unsigned long long>(Singleflight),
                static_cast<unsigned long long>(Overloads),
                static_cast<unsigned long long>(Errors));

    W.beginObject();
    W.key("clients").value(Level);
    W.key("requests").value(Lat.size());
    W.key("wall_seconds").value(WallSeconds);
    W.key("rps").value(Rps);
    W.key("p50_ms").value(P50);
    W.key("p90_ms").value(P90);
    W.key("p99_ms").value(P99);
    W.key("max_ms").value(Max);
    W.key("cache_hits").value(Hits);
    W.key("cache_misses").value(Misses);
    W.key("singleflight_hits").value(Singleflight);
    W.key("overloaded_retries").value(Overloads);
    W.key("errors").value(Errors);
    W.key("verify_failures").value(VerifyFailures);
    W.endObject();
  }
  W.endArray();
  W.endObject();

  std::printf("\ncache probe: cold %.2f ms, hit %.2f ms (%.0fx)%s\n", ColdMs,
              HitMs, HitMs > 0.0 ? ColdMs / HitMs : 0.0,
              ProbeHit ? "" : " [WARNING: second probe was not a hit]");

  FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fputc('\n', F);
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());

  if (TotalErrors || TotalVerifyFailures || !ProbeHit) {
    std::fprintf(stderr,
                 "FAIL: %llu errors, %llu verify failures, probe hit=%d\n",
                 static_cast<unsigned long long>(TotalErrors),
                 static_cast<unsigned long long>(TotalVerifyFailures),
                 static_cast<int>(ProbeHit));
    return 1;
  }
  return 0;
}
