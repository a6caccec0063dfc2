//===- tests/api_test.cpp - service API unit tests ------------------------===//
//
// Covers the request/response vocabulary underneath offchip-serve: the
// canonical content hash (stability, inclusion/exclusion sets), exact JSON
// roundtrips for every request/response variant, the LRU result cache
// (eviction, stats, concurrent access), the service layer (backpressure,
// drain, served-vs-direct bit identity), and executeRequest error
// reporting.
//
//===----------------------------------------------------------------------===//

#include "api/ContentHash.h"
#include "api/Execute.h"
#include "api/ResultCache.h"
#include "api/Serialize.h"
#include "api/Service.h"

#include "gtest/gtest.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace offchip;

namespace {

const char *TinyProgram = R"(
program tiny
array a dims 32 32 elem 8

nest sweep bounds 0:32 1:31 parallel 0
  read  a [ i1-1, i0 ]
  write a [ i1, i0 ]
end
)";

SimRequest tinySimulate() {
  SimRequest R;
  R.Kind = RequestKind::Simulate;
  R.Workload.ProgramText = TinyProgram;
  return R;
}

//===----------------------------------------------------------------------===//
// Content hash
//===----------------------------------------------------------------------===//

TEST(ContentHash, StableAcrossProcesses) {
  // The cache key of a canonical request is part of the wire contract: if
  // this value drifts, every deployed cache goes cold and the protocol's
  // "key" field changes meaning. Update only with a protocol bump (last:
  // the explicit MC placement node list joined the hashed config surface,
  // tags 0x47/0x48).
  SimRequest R;
  R.Kind = RequestKind::Simulate;
  R.Workload.App = "swim";
  EXPECT_EQ(requestKey(R).str(), "d5fa66e9711c8e0a73006d9652340ab9");
}

TEST(ContentHash, IdAndExecutionKnobsExcluded) {
  SimRequest A = tinySimulate();
  SimRequest B = tinySimulate();
  B.Id = "completely-different";
  B.Config.CollectPhaseTimes = true;
  B.Config.CheckInvariants = !A.Config.CheckInvariants;
  B.Config.Trace.Enabled = true;
  B.Config.Trace.SampleCycles += 100;
  B.TracePrefix = "some-prefix";
  EXPECT_EQ(requestKey(A), requestKey(B));
}

TEST(ContentHash, ResultAffectingFieldsIncluded) {
  SimRequest Base = tinySimulate();
  CacheKey K = requestKey(Base);

  SimRequest R = Base;
  R.Config.MeshX = 4;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Kind = RequestKind::Optimize;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.MCsPerCluster = 2;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Workload.ProgramText += " ";
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.Dram.Timing.RowMissCycles += 1;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.PagePolicy = PageAllocPolicy::FirstTouch;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  EXPECT_NE(requestKey(R), K);
  CacheKey Msi = requestKey(R);
  R.Config.Coherence.Protocol = MachineConfig::CoherenceProtocol::MESI;
  EXPECT_NE(requestKey(R), Msi);

  R = Base;
  R.Config.Coherence.SparseDirectory = true;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.Coherence.SparseEntries *= 2;
  EXPECT_NE(requestKey(R), K);
}

TEST(ContentHash, AppAndScaleHashDistinctly) {
  SimRequest A;
  A.Workload.App = "swim";
  SimRequest B;
  B.Workload.App = "swim";
  B.Workload.SizeScale = 0.5;
  EXPECT_NE(requestKey(A), requestKey(B));

  SimRequest C;
  C.Workload.App = "mgrid";
  EXPECT_NE(requestKey(A), requestKey(C));
}

//===----------------------------------------------------------------------===//
// JSON roundtrips
//===----------------------------------------------------------------------===//

TEST(Serialize, RequestRoundtripApp) {
  SimRequest R;
  R.Id = "req-1";
  R.Kind = RequestKind::Simulate;
  R.Workload.App = "swim";
  R.Workload.SizeScale = 0.75;
  R.MCsPerCluster = 2;
  R.Config.MeshX = 4;
  R.Config.MeshY = 4;
  R.Config.NumMCs = 4;
  R.Config.SharedL2 = true;

  SimRequest Back;
  std::string Err;
  ASSERT_TRUE(requestFromJson(toJson(R), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Id, "req-1");
  EXPECT_EQ(Back.Kind, RequestKind::Simulate);
  EXPECT_EQ(Back.Workload.App, "swim");
  EXPECT_EQ(Back.Workload.SizeScale, 0.75);
  EXPECT_EQ(Back.MCsPerCluster, 2u);
  EXPECT_EQ(Back.Config.MeshX, 4u);
  EXPECT_TRUE(Back.Config.SharedL2);
  // The canonical hash is the strongest roundtrip check: every hashed
  // field survived.
  EXPECT_EQ(requestKey(Back), requestKey(R));
}

TEST(Serialize, RequestRoundtripProgramText) {
  SimRequest R;
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = "program p\n# with \"quotes\" \\ and\ttabs\n";
  SimRequest Back;
  std::string Err;
  ASSERT_TRUE(requestFromJson(toJson(R), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Kind, RequestKind::Optimize);
  EXPECT_EQ(Back.Workload.ProgramText, R.Workload.ProgramText);
  EXPECT_EQ(requestKey(Back), requestKey(R));
}

TEST(Serialize, RequestRejectsBadInput) {
  auto parseReq = [](const std::string &Text, std::string *Err) {
    std::optional<JsonValue> V = parseJson(Text, Err);
    if (!V)
      return false;
    SimRequest R;
    return requestFromJson(*V, &R, Err);
  };
  std::string Err;
  EXPECT_FALSE(parseReq("{\"method\":\"simulate\"}", &Err));
  EXPECT_NE(Err.find("app"), std::string::npos);
  EXPECT_FALSE(parseReq(
      "{\"method\":\"simulate\",\"app\":\"swim\",\"program\":\"x\"}", &Err));
  EXPECT_FALSE(parseReq("{\"app\":\"swim\"}", &Err));
  EXPECT_NE(Err.find("method"), std::string::npos);
  EXPECT_FALSE(parseReq("{\"method\":\"frobnicate\",\"app\":\"swim\"}", &Err));
  EXPECT_FALSE(
      parseReq("{\"method\":\"simulate\",\"app\":\"swim\",\"bogus\":1}",
               &Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos);
  EXPECT_FALSE(parseReq("{\"method\":\"simulate\",\"app\":\"swim\","
                        "\"config\":{\"mesh_x\":\"wide\"}}",
                        &Err));
  EXPECT_NE(Err.find("mesh_x"), std::string::npos);
  EXPECT_FALSE(parseReq("{\"method\":\"simulate\",\"app\":\"swim\","
                        "\"config\":{\"mash_x\":8}}",
                        &Err));
  EXPECT_NE(Err.find("mash_x"), std::string::npos);
  EXPECT_FALSE(parseReq("not json at all", &Err));
  // A degenerate scale would build a degenerate workload, answered ok and
  // cached under its own key.
  for (const char *Scale : {"-1", "0", "1e999"}) {
    EXPECT_FALSE(parseReq(std::string("{\"method\":\"simulate\",\"app\":"
                                      "\"swim\",\"scale\":") +
                              Scale + "}",
                          &Err))
        << Scale;
    EXPECT_NE(Err.find("field 'scale'"), std::string::npos) << Err;
  }
  // The intra-simulation engine knobs left the protocol: a client still
  // sending one gets the unknown-key error naming it.
  EXPECT_FALSE(parseReq("{\"method\":\"simulate\",\"app\":\"swim\","
                        "\"config\":{\"sim_threads\":2}}",
                        &Err));
  EXPECT_EQ(Err, "field 'sim_threads': unknown machine config key");
}

TEST(Serialize, MachineConfigFullRoundtrip) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 4;
  C.SharedL2 = true;
  C.Granularity = InterleaveGranularity::Page;
  C.PagePolicy = PageAllocPolicy::CompilerGuided;
  C.Placement = MCPlacementKind::EdgeMidpoints;
  C.Dram.Timing.RowMissCycles = 123;
  C.OptimalScheme = true;
  C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MESI;
  C.Coherence.SparseDirectory = true;
  C.Coherence.SparseEntries = 512;
  C.Coherence.AckBytes = 16;
  C.Coherence.InvalidateBytes = 12;

  MachineConfig Back = MachineConfig::scaledDefault();
  std::string Err;
  ASSERT_TRUE(machineConfigFromJson(toJson(C), &Back, &Err)) << Err;
  // Serialization covers every hashed field, so hash equality under a
  // fixed workload proves the config roundtrip is lossless.
  SimRequest A = tinySimulate(), B = tinySimulate();
  A.Config = C;
  B.Config = Back;
  EXPECT_EQ(requestKey(A), requestKey(B));
  EXPECT_EQ(toJson(Back).write(), toJson(C).write());
}

TEST(ContentHash, ExplicitNodeListIncluded) {
  // Two searched placements over the same machine are different machines:
  // the node list (and its interleave order) must reach the cache key.
  SimRequest Base = tinySimulate();
  Base.Config.Placement = MCPlacementKind::Explicit;
  Base.Config.MCNodes = {0, 7, 56, 63};
  CacheKey K = requestKey(Base);

  SimRequest R = Base;
  R.Config.MCNodes = {0, 7, 56, 62};
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Config.MCNodes = {7, 0, 56, 63}; // same set, different interleave order
  EXPECT_NE(requestKey(R), K);
}

TEST(Serialize, ExplicitConfigRoundtripExact) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {2, 13, 50, 61};

  MachineConfig Back = MachineConfig::scaledDefault();
  std::string Err;
  ASSERT_TRUE(machineConfigFromJson(toJson(C), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Placement, MCPlacementKind::Explicit);
  EXPECT_EQ(Back.MCNodes, C.MCNodes);
  EXPECT_EQ(toJson(Back).write(), toJson(C).write());
  SimRequest A = tinySimulate(), B = tinySimulate();
  A.Config = C;
  B.Config = Back;
  EXPECT_EQ(requestKey(A), requestKey(B));

  // mc_nodes is emitted only under the explicit kind, so every
  // pre-Explicit report and golden stays byte-identical...
  EXPECT_EQ(toJson(MachineConfig::scaledDefault()).write().find("mc_nodes"),
            std::string::npos);
  // ...and the wire layer still rejects malformed or unexpected shapes.
  auto parseCfg = [](const std::string &Text, std::string *E) {
    std::optional<JsonValue> V = parseJson(Text, E);
    if (!V)
      return false;
    MachineConfig Cfg = MachineConfig::scaledDefault();
    return machineConfigFromJson(*V, &Cfg, E);
  };
  EXPECT_FALSE(parseCfg("{\"mc_nodes\":5}", &Err));
  EXPECT_NE(Err.find("mc_nodes"), std::string::npos);
  EXPECT_FALSE(parseCfg("{\"mc_nodes\":[\"zero\"]}", &Err));
  EXPECT_FALSE(parseCfg("{\"mc_nodez\":[0]}", &Err));
  EXPECT_NE(Err.find("mc_nodez"), std::string::npos);
  EXPECT_TRUE(
      parseCfg("{\"placement\":\"explicit\",\"mc_nodes\":[0,7,56,63]}",
               &Err))
      << Err;
}

TEST(Serialize, PartialConfigKeepsBaseValues) {
  std::string Err;
  std::optional<JsonValue> V = parseJson("{\"mesh_x\":4,\"mesh_y\":4}", &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  MachineConfig C = MachineConfig::scaledDefault();
  MachineConfig Base = C;
  ASSERT_TRUE(machineConfigFromJson(*V, &C, &Err)) << Err;
  EXPECT_EQ(C.MeshX, 4u);
  EXPECT_EQ(C.MeshY, 4u);
  EXPECT_EQ(C.NumMCs, Base.NumMCs);
  EXPECT_EQ(C.L2SizeBytes, Base.L2SizeBytes);
}

TEST(Serialize, ResponseRoundtripEveryVariant) {
  std::string Err;

  // Overloaded.
  SimResponse Over;
  Over.Id = "r1";
  Over.Status = ResponseStatus::Overloaded;
  SimResponse Back;
  ASSERT_TRUE(responseFromJson(toJson(Over), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Id, "r1");
  EXPECT_EQ(Back.Status, ResponseStatus::Overloaded);

  // Error with text.
  SimResponse ErrResp;
  ErrResp.Id = "r2";
  ErrResp.Status = ResponseStatus::Error;
  ErrResp.ErrorText = "cannot parse program: line 3";
  ASSERT_TRUE(responseFromJson(toJson(ErrResp), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Status, ResponseStatus::Error);
  EXPECT_EQ(Back.ErrorText, ErrResp.ErrorText);

  // Error with config diagnostics.
  SimResponse DiagResp;
  DiagResp.Status = ResponseStatus::Error;
  ConfigDiagnostic D;
  D.Field = "MeshX";
  D.Value = "1";
  D.Constraint = "mesh must be at least 2 columns wide";
  D.Fix = "use a mesh between 2x2 and 8x8";
  DiagResp.Diagnostics.push_back(D);
  ASSERT_TRUE(responseFromJson(toJson(DiagResp), &Back, &Err)) << Err;
  ASSERT_EQ(Back.Diagnostics.size(), 1u);
  EXPECT_EQ(Back.Diagnostics[0].Field, "MeshX");
  EXPECT_EQ(Back.Diagnostics[0].Fix, D.Fix);

  // Ok with plan + both results: the real thing, via executeRequest.
  SimResponse Ok = executeRequest(tinySimulate());
  ASSERT_TRUE(Ok.ok());
  ASSERT_TRUE(Ok.Original.has_value());
  ASSERT_TRUE(Ok.Optimized.has_value());
  Ok.Key = requestKey(tinySimulate()).str();
  ASSERT_TRUE(responseFromJson(toJson(Ok), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Key, Ok.Key);
  EXPECT_EQ(Back.ServerSeconds, Ok.ServerSeconds);
  EXPECT_EQ(toJson(Back.Plan).write(), toJson(Ok.Plan).write());
  std::string Why;
  EXPECT_TRUE(equalResults(*Back.Original, *Ok.Original, &Why)) << Why;
  EXPECT_TRUE(equalResults(*Back.Optimized, *Ok.Optimized, &Why)) << Why;
  // And the whole line survives a second roundtrip byte-identically.
  EXPECT_EQ(writeResponseLine(Back), writeResponseLine(Ok));
}

TEST(Json, ExactNumberTokens) {
  // u64 beyond 2^53 and doubles must survive bit-exactly.
  std::string Err;
  std::optional<JsonValue> V = parseJson(
      "{\"big\":18446744073709551615,\"pi\":3.141592653589793}", &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  EXPECT_EQ(V->find("big")->asU64(), 18446744073709551615ull);
  EXPECT_EQ(V->find("pi")->asDouble(), 3.141592653589793);
  EXPECT_EQ(V->write(),
            "{\"big\":18446744073709551615,\"pi\":3.141592653589793}");
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

SimResponse okResponse(const std::string &Tag) {
  SimResponse R;
  R.Status = ResponseStatus::Ok;
  R.Plan.ProgramName = Tag;
  R.ServerSeconds = 1.0;
  return R;
}

CacheKey keyOf(std::uint64_t N) { return CacheKey{N, ~N}; }

TEST(ResultCache, LruEvictionOrder) {
  ResultCache Cache(2);
  Cache.insert(keyOf(1), okResponse("one"));
  Cache.insert(keyOf(2), okResponse("two"));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(Cache.lookup(keyOf(1)).has_value());
  Cache.insert(keyOf(3), okResponse("three"));
  EXPECT_TRUE(Cache.lookup(keyOf(1)).has_value());
  EXPECT_FALSE(Cache.lookup(keyOf(2)).has_value());
  EXPECT_TRUE(Cache.lookup(keyOf(3)).has_value());

  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 1u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache Cache(0);
  Cache.insert(keyOf(1), okResponse("one"));
  EXPECT_FALSE(Cache.lookup(keyOf(1)).has_value());
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(ResultCache, ConcurrentHitsAndMisses) {
  ResultCache Cache(64);
  constexpr unsigned NumThreads = 8, OpsPerThread = 2000;
  std::vector<std::thread> Threads;
  std::atomic<std::uint64_t> ObservedHits{0};
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Cache, &ObservedHits, T] {
      for (unsigned I = 0; I < OpsPerThread; ++I) {
        // 32 hot keys shared by all threads plus per-thread cold keys, so
        // lookups, inserts and evictions all race with each other.
        std::uint64_t N = (I % 3 == 0) ? 1000 + T * OpsPerThread + I
                                       : I % 32;
        if (std::optional<SimResponse> Hit = Cache.lookup(keyOf(N))) {
          ObservedHits.fetch_add(1);
          // A hit must be internally consistent, never a torn value.
          ASSERT_EQ(Hit->Plan.ProgramName,
                    "p" + std::to_string(N));
        } else {
          SimResponse R = okResponse("p" + std::to_string(N));
          Cache.insert(keyOf(N), R);
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, ObservedHits.load());
  EXPECT_EQ(S.Hits + S.Misses, NumThreads * OpsPerThread);
  EXPECT_LE(S.Entries, 64u);
  EXPECT_GT(S.Hits, 0u);
  EXPECT_GT(S.Evictions, 0u);
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

TEST(Service, ServedEqualsDirectAndSecondCallHits) {
  SimService Service({/*Workers=*/2, /*QueueDepth=*/8, /*CacheCapacity=*/8});
  SimRequest R = tinySimulate();
  R.Id = "first";

  SimResponse Direct = executeRequest(R);
  SimResponse Served = Service.call(R);
  ASSERT_TRUE(Served.ok());
  EXPECT_EQ(Served.Id, "first");
  EXPECT_FALSE(Served.CacheHit);
  EXPECT_EQ(Served.Key, requestKey(R).str());
  std::string Why;
  EXPECT_TRUE(equalResults(*Served.Original, *Direct.Original, &Why)) << Why;
  EXPECT_TRUE(equalResults(*Served.Optimized, *Direct.Optimized, &Why))
      << Why;
  EXPECT_EQ(toJson(Served.Plan).write(), toJson(Direct.Plan).write());

  R.Id = "second";
  // Result-invariant knobs → must still hit.
  R.Config.CheckInvariants = true;
  R.Config.Trace.Enabled = true;
  SimResponse Again = Service.call(R);
  ASSERT_TRUE(Again.ok());
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Id, "second");
  EXPECT_TRUE(equalResults(*Again.Original, *Direct.Original, &Why)) << Why;
  EXPECT_TRUE(equalResults(*Again.Optimized, *Direct.Optimized, &Why))
      << Why;

  // call() returns when the answer is delivered; the Completed counter is
  // bumped just after, under the same lock drain() waits on.
  Service.drain();
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Admitted, 2u);
  EXPECT_EQ(S.Completed, 2u);
  EXPECT_EQ(S.Cache.Hits, 1u);
  EXPECT_EQ(S.Cache.Misses, 1u);
}

TEST(Service, ErrorResponsesAreNotCached) {
  SimService Service({1, 8, 8});
  SimRequest Bad;
  Bad.Workload.App = "no-such-app";
  SimResponse First = Service.call(Bad);
  EXPECT_EQ(First.Status, ResponseStatus::Error);
  SimResponse Second = Service.call(Bad);
  EXPECT_EQ(Second.Status, ResponseStatus::Error);
  EXPECT_FALSE(Second.CacheHit);
  EXPECT_EQ(Service.stats().Cache.Entries, 0u);
}

TEST(Service, BackpressureOverloadsAndDrains) {
  // A gate executor lets us hold requests in flight deterministically.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Open = false;
  std::atomic<unsigned> Started{0};
  auto GateExec = [&](const SimRequest &R) {
    Started.fetch_add(1);
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Open; });
    SimResponse Resp;
    Resp.Id = R.Id;
    Resp.Status = ResponseStatus::Ok;
    Resp.ServerSeconds = 0.001;
    return Resp;
  };
  SimService Service({/*Workers=*/2, /*QueueDepth=*/3, /*CacheCapacity=*/0},
                     GateExec);

  std::mutex DoneMu;
  std::vector<SimResponse> Answers;
  auto Done = [&](SimResponse Resp) {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Answers.push_back(std::move(Resp));
  };

  // Distinct content per request (cache capacity is 0 anyway, but keep the
  // requests honest). 3 admitted, the rest overloaded immediately.
  for (unsigned I = 0; I < 6; ++I) {
    SimRequest R;
    R.Id = "r" + std::to_string(I);
    R.Workload.ProgramText = "program p" + std::to_string(I);
    Service.submit(R, Done);
  }
  {
    std::lock_guard<std::mutex> Lock(DoneMu);
    unsigned Overloaded = 0;
    for (const SimResponse &A : Answers)
      Overloaded += A.Status == ResponseStatus::Overloaded;
    EXPECT_EQ(Overloaded, 3u);
    EXPECT_EQ(Answers.size(), 3u); // only the rejections answered so far
  }

  {
    std::lock_guard<std::mutex> Lock(Mu);
    Open = true;
  }
  Cv.notify_all();
  Service.drain();

  std::lock_guard<std::mutex> Lock(DoneMu);
  EXPECT_EQ(Answers.size(), 6u); // exactly one answer per submit, none lost
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Admitted, 3u);
  EXPECT_EQ(S.Rejected, 3u);
  EXPECT_EQ(S.Completed, 3u);
}

TEST(Service, SingleflightMergesIdenticalConcurrentRequests) {
  // A stampede of identical requests while the first is still computing
  // must execute exactly once: latecomers attach to the in-flight leader
  // and receive its result, marked Singleflight.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Open = false;
  std::atomic<unsigned> Executions{0};
  auto GateExec = [&](const SimRequest &R) {
    Executions.fetch_add(1);
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Open; });
    SimResponse Resp;
    Resp.Id = R.Id;
    Resp.Status = ResponseStatus::Ok;
    Resp.Plan.ProgramName = "computed-once";
    Resp.ServerSeconds = 0.125;
    return Resp;
  };
  SimService Service({/*Workers=*/4, /*QueueDepth=*/8, /*CacheCapacity=*/8},
                     GateExec);

  std::mutex DoneMu;
  std::vector<SimResponse> Answers;
  auto Done = [&](SimResponse Resp) {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Answers.push_back(std::move(Resp));
  };

  constexpr unsigned N = 4;
  for (unsigned I = 0; I < N; ++I) {
    SimRequest R = tinySimulate();
    R.Id = "client" + std::to_string(I);
    Service.submit(R, Done);
  }
  // Wait until the three followers have attached to the leader; only then
  // is releasing the gate race-free (a follower arriving after completion
  // would be a cache hit instead, which is correct but not what this test
  // pins).
  while (Service.stats().SingleflightHits < N - 1)
    std::this_thread::yield();
  EXPECT_EQ(Executions.load(), 1u);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Open = true;
  }
  Cv.notify_all();
  Service.drain();

  std::lock_guard<std::mutex> Lock(DoneMu);
  ASSERT_EQ(Answers.size(), N);
  EXPECT_EQ(Executions.load(), 1u);
  unsigned Merged = 0;
  for (const SimResponse &A : Answers) {
    ASSERT_TRUE(A.ok());
    Merged += A.Singleflight;
    EXPECT_FALSE(A.CacheHit);
    // Every answer repeats the one computed result bit-for-bit, modulo the
    // per-client id echo and the merge marker.
    SimResponse Canon = A;
    Canon.Id.clear();
    Canon.Singleflight = false;
    SimResponse Lead = Answers[0];
    Lead.Id.clear();
    Lead.Singleflight = false;
    EXPECT_EQ(writeResponseLine(Canon), writeResponseLine(Lead));
    EXPECT_EQ(A.Plan.ProgramName, "computed-once");
    EXPECT_EQ(A.ServerSeconds, 0.125);
    EXPECT_EQ(A.Key, requestKey(tinySimulate()).str());
  }
  EXPECT_EQ(Merged, N - 1);
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.SingleflightHits, N - 1);
  EXPECT_EQ(S.Admitted, N);
  EXPECT_EQ(S.Completed, N);
  EXPECT_EQ(S.Cache.Misses, 1u); // one lookup miss: the leader's
}

TEST(Service, SingleflightUnderOverloadStillAnswersEverySubmit) {
  // Both workers gated on distinct content, queue filled, one rejection —
  // then the freed worker merges the queued identical requests onto the
  // still-running leader. Exactly one answer per submit, one execution per
  // distinct content.
  std::mutex Mu;
  std::condition_variable Cv;
  bool OpenA = false, OpenB = false;
  std::atomic<unsigned> ExecA{0}, ExecB{0};
  auto GateExec = [&](const SimRequest &R) {
    bool IsB = R.Workload.ProgramText.find("array b") != std::string::npos;
    (IsB ? ExecB : ExecA).fetch_add(1);
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return IsB ? OpenB : OpenA; });
    SimResponse Resp;
    Resp.Id = R.Id;
    Resp.Status = ResponseStatus::Ok;
    Resp.Plan.ProgramName = IsB ? "b" : "a";
    Resp.ServerSeconds = 0.5;
    return Resp;
  };
  SimService Service({/*Workers=*/2, /*QueueDepth=*/4, /*CacheCapacity=*/8},
                     GateExec);

  std::mutex DoneMu;
  std::vector<SimResponse> Answers;
  auto Done = [&](SimResponse Resp) {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Answers.push_back(std::move(Resp));
  };

  SimRequest A = tinySimulate();
  A.Id = "leader";
  SimRequest B = tinySimulate();
  B.Workload.ProgramText =
      "\nprogram other\narray b dims 16 16 elem 8\n\nnest sweep bounds 0:16 "
      "0:16 parallel 0\n  read b [ i1, i0 ]\nend\n";
  B.Id = "other";

  Service.submit(A, Done);
  while (ExecA.load() == 0)
    std::this_thread::yield();
  Service.submit(B, Done);
  while (ExecB.load() == 0)
    std::this_thread::yield();

  // Both workers blocked; these two identical-to-A requests queue up.
  SimRequest A2 = A, A3 = A;
  A2.Id = "w2";
  A3.Id = "w3";
  Service.submit(A2, Done);
  Service.submit(A3, Done);
  // Pending == QueueDepth: the next submit is rejected on the spot.
  SimRequest A4 = A;
  A4.Id = "rejected";
  Service.submit(A4, Done);
  {
    std::lock_guard<std::mutex> Lock(DoneMu);
    ASSERT_EQ(Answers.size(), 1u);
    EXPECT_EQ(Answers[0].Status, ResponseStatus::Overloaded);
    EXPECT_EQ(Answers[0].Id, "rejected");
  }

  // Free worker 2: it drains the queued w2/w3, which attach to the gated
  // leader instead of executing.
  {
    std::lock_guard<std::mutex> Lock(Mu);
    OpenB = true;
  }
  Cv.notify_all();
  while (Service.stats().SingleflightHits < 2)
    std::this_thread::yield();
  EXPECT_EQ(ExecA.load(), 1u);

  {
    std::lock_guard<std::mutex> Lock(Mu);
    OpenA = true;
  }
  Cv.notify_all();
  Service.drain();

  std::lock_guard<std::mutex> Lock(DoneMu);
  ASSERT_EQ(Answers.size(), 5u); // one answer per submit, none lost
  EXPECT_EQ(ExecA.load(), 1u);
  EXPECT_EQ(ExecB.load(), 1u);
  unsigned Merged = 0;
  for (const SimResponse &R : Answers)
    if (R.ok() && R.Plan.ProgramName == "a") {
      Merged += R.Singleflight;
      EXPECT_EQ(R.ServerSeconds, 0.5);
    }
  EXPECT_EQ(Merged, 2u);
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Admitted, 4u);
  EXPECT_EQ(S.Rejected, 1u);
  EXPECT_EQ(S.SingleflightHits, 2u);
}

//===----------------------------------------------------------------------===//
// executeRequest error reporting
//===----------------------------------------------------------------------===//

TEST(Execute, InvalidConfigYieldsDiagnostics) {
  SimRequest R = tinySimulate();
  R.Config.MeshX = 1;
  SimResponse Resp = executeRequest(R);
  EXPECT_EQ(Resp.Status, ResponseStatus::Error);
  ASSERT_FALSE(Resp.Diagnostics.empty());
  EXPECT_EQ(Resp.Diagnostics[0].Field, "MeshX");
}

TEST(Execute, ParseErrorYieldsErrorText) {
  SimRequest R;
  R.Workload.ProgramText = "this is not a program";
  SimResponse Resp = executeRequest(R);
  EXPECT_EQ(Resp.Status, ResponseStatus::Error);
  EXPECT_FALSE(Resp.ErrorText.empty());
  EXPECT_TRUE(Resp.Diagnostics.empty());
}

TEST(Execute, OptimizeCarriesPlanButNoResults) {
  SimRequest R;
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = TinyProgram;
  SimResponse Resp = executeRequest(R);
  ASSERT_TRUE(Resp.ok());
  EXPECT_FALSE(Resp.Original.has_value());
  EXPECT_FALSE(Resp.Optimized.has_value());
  EXPECT_EQ(Resp.Plan.ProgramName, "tiny");
  EXPECT_FALSE(Resp.Plan.TransformedSource.empty());
  EXPECT_FALSE(Resp.Plan.Arrays.empty());
}

} // namespace
