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
#include "support/Format.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <condition_variable>
#include <future>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>

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

/// Values other than \p V of V's type, for the field-list walks: every
/// other enumerator of an enum, one changed value of anything else.
template <class T> std::vector<T> otherValues(const T &V) {
  if constexpr (std::is_enum_v<T>) {
    std::vector<T> Out;
    for (const EnumName<T> &N : enumNames(V))
      if (N.Value != V)
        Out.push_back(N.Value);
    return Out;
  } else if constexpr (std::is_same_v<T, bool>) {
    return {!V};
  } else if constexpr (std::is_same_v<T, std::vector<unsigned>>) {
    return {{1, 2}};
  } else {
    return {static_cast<T>(V + 1)};
  }
}

/// Changes one SimResult member.
void perturb(Accumulator &A) { A.addSample(1.0); }
void perturb(IntHistogram &H) { H.addSample(1); }
template <class T> void perturb(std::vector<T> &V) { V.push_back(T(1)); }
template <class T> void perturb(T &V) { V += 1; }

/// The wire tree of a request or response: its protocol line, parsed.
JsonValue wireTree(const SimRequest &R) {
  return *parseJson(writeRequestLine(R));
}
JsonValue wireTree(const SimResponse &R) {
  return *parseJson(writeResponseLine(R));
}
/// A result's wire object, as an ok response carries it.
JsonValue wireTree(const SimResult &R) {
  SimResponse Resp;
  Resp.Status = ResponseStatus::Ok;
  Resp.Original = R;
  return *wireTree(Resp).find("original");
}

/// Submits \p R and waits for its answer.
SimResponse callService(SimService &Service, SimRequest R) {
  std::promise<SimResponse> Answer;
  std::future<SimResponse> Future = Answer.get_future();
  Service.submit(std::move(R), [&Answer](SimResponse Resp) {
    Answer.set_value(std::move(Resp));
  });
  return Future.get();
}

/// A result whose every field is set, with small values.
SimResult sampleResult() {
  SimResult R;
  R.ExecutionCycles = 9007199254740993ull; // above 2^53: exact tokens
  R.ThreadFinishCycles = {11, 12};
  R.TotalAccesses = 100;
  R.L1Hits = 40;
  R.LocalL2Hits = 20;
  R.RemoteL2Hits = 15;
  R.OffChipAccesses = 25;
  R.OnChipNetLatency.addSample(3.5);
  R.OffChipNetLatency.addSample(20.25);
  R.OffChipNetLatency.addSample(0.1);
  R.MemLatency.addSample(100.0);
  R.AccessLatency.addSample(1.0 / 3.0);
  R.OnChipMsgHops.addSample(1);
  R.OffChipMsgHops.addSample(4);
  R.OffChipMsgHops.addSample(4);
  R.NumNodes = 2;
  R.NumMCs = 2;
  R.NodeToMCTraffic = {1, 2, 3, 4};
  R.AvgBankQueueOccupancy = 0.75;
  R.RowHitRate = 0.1;
  R.PerMCQueueOccupancy = {0.5, 1e-7};
  R.PerMCAccesses = {10, 15};
  R.RedirectedPages = 3;
  R.AllocatedPages = 7;
  R.BurstTransactions = 2;
  R.BurstLines = 5;
  R.PerMCLines = {12, 16};
  R.CoherenceUpgrades = 6;
  R.Invalidations = 8;
  R.InvalidationAcks = 8;
  R.Downgrades = 1;
  R.CoherenceWritebacks = 2;
  R.ExclusiveGrants = 4;
  R.DirEvictions = 9;
  R.CohMsgHops.addSample(3);
  R.LinkBusyCycles = 12345;
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
  EXPECT_EQ(requestKey(A), requestKey(B));
}

TEST(ContentHash, ResultAffectingFieldsIncluded) {
  SimRequest Base = tinySimulate();
  CacheKey K = requestKey(Base);

  SimRequest R = Base;
  R.Kind = RequestKind::Optimize;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.MCsPerCluster = 2;
  EXPECT_NE(requestKey(R), K);

  R = Base;
  R.Workload.ProgramText += " ";
  EXPECT_NE(requestKey(R), K);

  // Every config row, set to each value other than the default: the value
  // survives toJson -> machineConfigFromJson, and the key changes exactly
  // when the row is hashed — to a key no other change produces.
  const std::string BaseWire = toJson(Base.Config).write();
  std::set<std::string> WireKeys, Keys{K.str()};
  std::set<unsigned> Tags;
  std::vector<std::string> Unhashed;
  SimRequest Changed = Base;
  forEachConfigField(
      [&](ConfigField F, const auto &BaseMember, auto &Member) {
        EXPECT_TRUE(WireKeys.insert(F.Key).second) << F.Key;
        if (F.HashTag == ResultInvariant)
          Unhashed.push_back(F.Key);
        else
          EXPECT_TRUE(Tags.insert(F.HashTag).second) << F.Key;
        for (const auto &V : otherValues(BaseMember)) {
          Member = V;
          std::string Wire = toJson(Changed.Config).write();
          EXPECT_NE(Wire, BaseWire) << F.Key;
          MachineConfig Back;
          std::string Err;
          std::optional<JsonValue> J = parseJson(Wire, &Err);
          ASSERT_TRUE(J && machineConfigFromJson(*J, &Back, &Err)) << Err;
          EXPECT_EQ(toJson(Back).write(), Wire) << F.Key;
          CacheKey Key = requestKey(Changed);
          if (F.HashTag == ResultInvariant)
            EXPECT_EQ(Key, K) << F.Key;
          else
            EXPECT_TRUE(Keys.insert(Key.str()).second) << F.Key;
        }
        Member = BaseMember;
      },
      Base.Config, Changed.Config);
  EXPECT_EQ(Unhashed, std::vector<std::string>{"check_invariants"});
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
  ASSERT_TRUE(requestFromJson(wireTree(R), &Back, &Err)) << Err;
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
  ASSERT_TRUE(requestFromJson(wireTree(R), &Back, &Err)) << Err;
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
  // Wire integers are plain digit tokens that fit the field: no sign
  // (formerly read as 2^64 - 2048), no exponent (an out-of-range cast), no
  // fraction (silently truncated) and no overflow of 64 or 32 bits.
  for (const char *Key :
       {"\"l1_size_bytes\":-2048", "\"bytes_per_mc\":1e30",
        "\"mesh_x\":4.7", "\"l2_size_bytes\":18446744073709551617",
        "\"mesh_x\":4294967296"}) {
    std::string Member = Key;
    EXPECT_FALSE(parseReq("{\"method\":\"simulate\",\"app\":\"swim\","
                          "\"config\":{" + Member + "}}",
                          &Err))
        << Member;
    EXPECT_EQ(Err, "field '" + Member.substr(1, Member.find('"', 1) - 1) +
                       "': expected a non-negative integer");
  }
}

TEST(Serialize, EveryResultFieldComparedAndRoundTrips) {
  // Perturbing any one result row makes equalResults fail naming exactly
  // that row, the perturbed result survives the wire, and a result object
  // missing that row is rejected.
  const SimResult Base = sampleResult();
  SimResult Changed = Base;
  std::string Why;
  ASSERT_TRUE(equalResults(Base, Changed, &Why)) << Why;
  forEachResultField(
      [&](ResultField F, const auto &BaseMember, auto &Member) {
        perturb(Member);
        Why.clear();
        EXPECT_FALSE(equalResults(Base, Changed, &Why)) << F.Name;
        EXPECT_EQ(Why, F.Name);
        SimResult Back;
        std::string Err;
        ASSERT_TRUE(simResultFromJson(wireTree(Changed), &Back, &Err)) << Err;
        EXPECT_TRUE(equalResults(Back, Changed, &Why)) << F.Key << ": " << Why;
        // Every row is required on read.
        const JsonValue Full = wireTree(Base);
        std::string WithoutText;
        JsonWriter W(WithoutText);
        W.beginObject();
        for (const auto &[Key, Value] : Full.members())
          if (Key != F.Key)
            W.key(Key).value(Value);
        W.endObject();
        std::optional<JsonValue> Without = parseJson(WithoutText);
        ASSERT_TRUE(Without.has_value()) << WithoutText;
        EXPECT_FALSE(simResultFromJson(*Without, &Back, &Err)) << F.Key;
        EXPECT_EQ(Err.rfind(std::string("field '") + F.Key + "'", 0), 0u)
            << Err;
        Member = BaseMember;
      },
      Base, Changed);
}

TEST(Serialize, WireBytesPinned) {
  // The wire layout is a protocol: these strings are the bytes the
  // hand-written serializer produced before the field lists replaced it.
  EXPECT_EQ(
      toJson(MachineConfig::scaledDefault()).write(),
      R"({"mesh_x":8,"mesh_y":8,"l1_size_bytes":2048,"l1_line_bytes":64,)"
      R"("l1_ways":8,"l1_latency_cycles":2,"l2_size_bytes":16384,)"
      R"("l2_line_bytes":256,"l2_ways":16,"l2_latency_cycles":10,)"
      R"("shared_l2":false,"noc_per_hop_cycles":4,"noc_link_bytes":16,)"
      R"("num_mcs":4,"placement":"corners","dram_banks":4,)"
      R"("dram_row_buffer_bytes":4096,"dram_frfcfs_window_rows":8,)"
      R"("dram_row_hit_cycles":28,"dram_row_miss_cycles":82,)"
      R"("bytes_per_mc":1073741824,"granularity":"line","page_bytes":4096,)"
      R"("page_policy":"round_robin","threads_per_core":1,)"
      R"("compute_gap_cycles":16,"transform_overhead_cycles":1,)"
      R"("directory_latency_cycles":6,"request_bytes":16,)"
      R"("optimal_scheme":false,"burst_coalesce":false,)"
      R"("burst_window_accesses":256,"burst_max_lines":8,)"
      R"("dram_burst_beat_cycles":8,"coherence":"none",)"
      R"("coherence_sparse_dir":false,"coherence_sparse_entries":4096,)"
      R"("coherence_ack_bytes":8,"coherence_invalidate_bytes":8,)"
      R"("check_invariants":false})");

  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {9, 22, 33, 54};
  C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  C.Coherence.SparseDirectory = true;
  C.Coherence.SparseEntries = 512;
  EXPECT_EQ(
      toJson(C).write(),
      R"({"mesh_x":8,"mesh_y":8,"l1_size_bytes":2048,"l1_line_bytes":64,)"
      R"("l1_ways":8,"l1_latency_cycles":2,"l2_size_bytes":16384,)"
      R"("l2_line_bytes":256,"l2_ways":16,"l2_latency_cycles":10,)"
      R"("shared_l2":false,"noc_per_hop_cycles":4,"noc_link_bytes":16,)"
      R"("num_mcs":4,"placement":"explicit","mc_nodes":[9,22,33,54],)"
      R"("dram_banks":4,"dram_row_buffer_bytes":4096,)"
      R"("dram_frfcfs_window_rows":8,"dram_row_hit_cycles":28,)"
      R"("dram_row_miss_cycles":82,"bytes_per_mc":1073741824,)"
      R"("granularity":"line","page_bytes":4096,"page_policy":"round_robin",)"
      R"("threads_per_core":1,"compute_gap_cycles":16,)"
      R"("transform_overhead_cycles":1,"directory_latency_cycles":6,)"
      R"("request_bytes":16,"optimal_scheme":false,"burst_coalesce":false,)"
      R"("burst_window_accesses":256,"burst_max_lines":8,)"
      R"("dram_burst_beat_cycles":8,"coherence":"msi",)"
      R"("coherence_sparse_dir":true,"coherence_sparse_entries":512,)"
      R"("coherence_ack_bytes":8,"coherence_invalidate_bytes":8,)"
      R"("check_invariants":false})");

  SimResponse Resp;
  Resp.Id = "r7";
  Resp.Status = ResponseStatus::Ok;
  Resp.Singleflight = true;
  Resp.Key = "0123456789abcdef0123456789abcdef";
  Resp.ServerSeconds = 0.125;
  Resp.Plan.ProgramName = "tiny";
  Resp.Plan.NumClusters = 4;
  Resp.Plan.Arrays.push_back({"a", true, "[1 0; 0 1]", "strip-mined"});
  Resp.Plan.ArraysOptimizedFraction = 1.0;
  Resp.Original = sampleResult();
  Resp.Optimized = sampleResult();
  const std::string Result =
      R"({"execution_cycles":9007199254740993,"thread_finish_cycles":[11,12],)"
      R"("total_accesses":100,"l1_hits":40,"local_l2_hits":20,)"
      R"("remote_l2_hits":15,"offchip_accesses":25,)"
      R"("onchip_net_latency":{"count":1,"sum":3.5,"min":3.5,"max":3.5},)"
      R"("offchip_net_latency":{"count":2,"sum":20.350000000000001,)"
      R"("min":0.10000000000000001,"max":20.25},)"
      R"("mem_latency":{"count":1,"sum":100,"min":100,"max":100},)"
      R"("access_latency":{"count":1,"sum":0.33333333333333331,)"
      R"("min":0.33333333333333331,"max":0.33333333333333331},)"
      R"("onchip_msg_hops":{"cap":256,"buckets":[0,1]},)"
      R"("offchip_msg_hops":{"cap":256,"buckets":[0,0,0,0,2]},)"
      R"("num_nodes":2,"num_mcs":2,"node_to_mc_traffic":[1,2,3,4],)"
      R"("avg_bank_queue_occupancy":0.75,"row_hit_rate":0.10000000000000001,)"
      R"("per_mc_queue_occupancy":[0.5,9.9999999999999995e-08],)"
      R"("per_mc_accesses":[10,15],"redirected_pages":3,)"
      R"("allocated_pages":7,"burst_transactions":2,"burst_lines":5,)"
      R"("per_mc_lines":[12,16],"coherence_upgrades":6,)"
      R"("invalidations":8,"invalidation_acks":8,"downgrades":1,)"
      R"("coherence_writebacks":2,"exclusive_grants":4,"dir_evictions":9,)"
      R"("coh_msg_hops":{"cap":256,"buckets":[0,0,0,1]},)"
      R"("link_busy_cycles":12345})";
  EXPECT_EQ(
      writeResponseLine(Resp),
      R"({"id":"r7","status":"ok","cache":"miss","singleflight":true,)"
      R"("key":"0123456789abcdef0123456789abcdef","server_seconds":0.125,)"
      R"("plan":{"program":"tiny","clusters":4,"cores_per_cluster_x":0,)"
      R"("cores_per_cluster_y":0,"mcs_per_cluster":0,)"
      R"("arrays":[{"name":"a","optimized":true,"u":"[1 0; 0 1]",)"
      R"("note":"strip-mined"}],"arrays_optimized_fraction":1,)"
      R"("refs_satisfied_fraction":0,"source":""},"original":)" +
          Result + R"(,"optimized":)" + Result + "}\n");

  // "offnet_latency_hist" has left the result. A result that still carries
  // it (an older daemon's answer) decodes, because the result reader skips
  // keys it does not know.
  std::string Retired = Result;
  Retired.insert(Retired.find(R"("onchip_msg_hops")"),
                 R"("offnet_latency_hist":{"cap":1024,"buckets":[0,0,1]},)");
  std::string Err;
  std::optional<JsonValue> Old = parseJson(Retired, &Err);
  ASSERT_TRUE(Old.has_value()) << Err;
  SimResult Back;
  ASSERT_TRUE(simResultFromJson(*Old, &Back, &Err)) << Err;
  std::string Why;
  EXPECT_TRUE(equalResults(Back, sampleResult(), &Why)) << Why;
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
  ASSERT_TRUE(responseFromJson(wireTree(Over), &Back, &Err)) << Err;
  EXPECT_EQ(Back.Id, "r1");
  EXPECT_EQ(Back.Status, ResponseStatus::Overloaded);

  // Error with text.
  SimResponse ErrResp;
  ErrResp.Id = "r2";
  ErrResp.Status = ResponseStatus::Error;
  ErrResp.ErrorText = "cannot parse program: line 3";
  ASSERT_TRUE(responseFromJson(wireTree(ErrResp), &Back, &Err)) << Err;
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
  ASSERT_TRUE(responseFromJson(wireTree(DiagResp), &Back, &Err)) << Err;
  ASSERT_EQ(Back.Diagnostics.size(), 1u);
  EXPECT_EQ(Back.Diagnostics[0].Field, "MeshX");
  EXPECT_EQ(Back.Diagnostics[0].Fix, D.Fix);

  // Ok with plan + both results: the real thing, via executeRequest.
  SimResponse Ok = executeRequest(tinySimulate());
  ASSERT_TRUE(Ok.ok());
  ASSERT_TRUE(Ok.Original.has_value());
  ASSERT_TRUE(Ok.Optimized.has_value());
  Ok.Key = requestKey(tinySimulate()).str();
  ASSERT_TRUE(responseFromJson(wireTree(Ok), &Back, &Err)) << Err;
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

// The formatter JsonWriter replaced, kept as the byte-for-byte reference:
// one snprintf per number and a per-character escape.
std::string referenceNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  if (std::strchr(Buf, 'n') || std::strchr(Buf, 'i'))
    std::snprintf(Buf, sizeof(Buf), "0");
  return Buf;
}

std::string referenceNumber(std::uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu", static_cast<unsigned long long>(V));
  return Buf;
}

std::string referenceString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

template <class T> std::string written(const T &V) {
  std::string Out;
  JsonWriter(Out).value(V);
  return Out;
}

TEST(Json, WriterMatchesPrintfOracle) {
  std::mt19937_64 Rng(20151013);
  auto bitsToDouble = [](std::uint64_t Bits) {
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    return D;
  };
  using Limits = std::numeric_limits<double>;
  std::vector<double> Doubles = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.0,
                                 0.1,
                                 1.0 / 3.0,
                                 0.5,
                                 1e-5,
                                 1e-4,
                                 1e16,
                                 1e17,
                                 123456789.0,
                                 9007199254740992.0,
                                 9007199254740994.0,
                                 18446744073709551616.0,
                                 1e20,
                                 1e21,
                                 1e308,
                                 -1e308,
                                 Limits::max(),
                                 -Limits::max(),
                                 Limits::min(),
                                 Limits::denorm_min(),
                                 -Limits::denorm_min(),
                                 bitsToDouble(0x000fffffffffffffull),
                                 Limits::quiet_NaN(),
                                 -Limits::quiet_NaN(),
                                 Limits::infinity(),
                                 -Limits::infinity()};
  for (int I = 0; I < 6000; ++I)
    Doubles.push_back(bitsToDouble(Rng())); // every exponent, NaNs included
  for (int I = 0; I < 2000; ++I) // subnormals
    Doubles.push_back(bitsToDouble(Rng() & 0x800fffffffffffffull));
  for (int I = 0; I < 2000; ++I) // integers above 2^53
    Doubles.push_back(std::ldexp(static_cast<double>(Rng() >> 11), 1 + I % 60));
  for (int I = 0; I < 2000; ++I) // short decimals, like the results carry
    Doubles.push_back(static_cast<double>(Rng() % 100000) /
                      std::pow(10.0, static_cast<double>(I % 12)));
  std::size_t NonFinite = 0;
  for (double D : Doubles) {
    ASSERT_EQ(written(D), referenceNumber(D)) << std::hexfloat << D;
    NonFinite += !std::isfinite(D);
    // And the token parses back to the same bits (non-finite values to 0).
    std::optional<JsonValue> V = parseJson(written(D));
    ASSERT_TRUE(V && V->isNumber());
    double Back = V->asDouble(), Want = std::isfinite(D) ? D : 0.0;
    EXPECT_EQ(std::memcmp(&Back, &Want, sizeof(double)), 0) << written(D);
  }
  EXPECT_GT(NonFinite, 4u);

  std::vector<std::uint64_t> Ints = {0, 1, 9, 10, 4294967295ull,
                                     9007199254740993ull,
                                     18446744073709551615ull};
  for (std::uint64_t P = 1; P <= 1000000000000000000ull; P *= 10)
    Ints.insert(Ints.end(), {P - 1, P, P + 1});
  for (int I = 0; I < 2000; ++I)
    Ints.push_back(Rng() >> (Rng() % 64));
  for (std::uint64_t U : Ints) {
    ASSERT_EQ(written(U), referenceNumber(U));
    EXPECT_EQ(parseJson(written(U))->asU64(), U);
  }
  EXPECT_EQ(written(0u), "0");
  EXPECT_EQ(written(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");

  std::vector<std::string> Strings = {"", "plain", "caf\xc3\xa9 \xe2\x82\xac",
                                      "\xf0\x9f\x98\x80 emoji", "\x7f",
                                      "\"quoted\" back\\slash /"};
  for (int C = 0; C < 0x80; ++C)
    Strings.push_back(std::string(1, static_cast<char>(C)) + "x" +
                      std::string(1, static_cast<char>(C)));
  const char *Utf8[] = {"\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80"};
  for (int I = 0; I < 2000; ++I) {
    std::string S;
    for (std::uint64_t N = Rng() % 40; N > 0; --N) {
      std::uint64_t R = Rng();
      if (R % 5 == 0)
        S += Utf8[R / 5 % 3];
      else
        S += static_cast<char>(R / 5 % 0x80);
    }
    Strings.push_back(S);
  }
  for (const std::string &S : Strings) {
    ASSERT_EQ(written(S), referenceString(S));
    // The parser reads every escape back to the original bytes.
    std::optional<JsonValue> V = parseJson(written(S));
    ASSERT_TRUE(V && V->isString()) << written(S);
    EXPECT_EQ(V->asString(), S);
    EXPECT_EQ(V->write(), written(S));
  }
}

TEST(Json, DuplicateKeysKeepFirstPositionAndLastValue) {
  std::optional<JsonValue> V =
      parseJson(R"({"a":1,"b":2,"a":{"x":3,"x":4},"c":5,"b":6})");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->write(), R"({"a":{"x":4},"b":6,"c":5})");
  EXPECT_EQ(V->find("b")->asU64(), 6u);

  // Past the parser's first table size, and with the same key at another
  // nesting depth in between.
  std::string Text = "{";
  for (int I = 0; I < 100; ++I)
    Text += formatString("\"k%d\":%d,", I, I);
  Text += R"("k7":{"k7":1,"k8":2,"k7":3},"k99":"last","k0":true})";
  V = parseJson(Text);
  ASSERT_TRUE(V.has_value());
  ASSERT_EQ(V->members().size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(V->members()[I].first, formatString("k%d", I));
  EXPECT_TRUE(V->members()[0].second.asBool());
  EXPECT_EQ(V->members()[7].second.write(), R"({"k7":3,"k8":2})");
  EXPECT_EQ(V->members()[99].second.asString(), "last");
  EXPECT_EQ(V->members()[50].second.asU64(), 50u);
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

/// Runs \p K through the table as a leader that computed \p Resp.
void fill(ResultCache &Cache, const CacheKey &K, const SimResponse &Resp) {
  ASSERT_TRUE(Cache.claim(K, "", nullptr).Lead);
  EXPECT_TRUE(Cache.finish(K, Resp).empty());
}

/// Claims \p K; a miss is retired with an error so the table is unchanged.
bool hits(ResultCache &Cache, const CacheKey &K) {
  ResultCache::Claim C = Cache.claim(K, "", nullptr);
  if (C.Lead) {
    SimResponse Failed;
    Failed.Status = ResponseStatus::Error;
    Cache.finish(K, Failed);
  }
  return C.Hit != nullptr;
}

TEST(ResultCache, LruEvictionOrder) {
  ResultCache Cache(2);
  fill(Cache, keyOf(1), okResponse("one"));
  fill(Cache, keyOf(2), okResponse("two"));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(hits(Cache, keyOf(1)));
  fill(Cache, keyOf(3), okResponse("three"));
  EXPECT_TRUE(hits(Cache, keyOf(1)));
  EXPECT_FALSE(hits(Cache, keyOf(2)));
  EXPECT_TRUE(hits(Cache, keyOf(3)));

  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 4u); // three fills and the evicted key
  EXPECT_EQ(S.SingleflightHits, 0u);
  EXPECT_EQ(S.Capacity, 2u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache Cache(0);
  fill(Cache, keyOf(1), okResponse("one"));
  EXPECT_FALSE(hits(Cache, keyOf(1)));
  EXPECT_EQ(Cache.stats().Entries, 0u);

  // A running entry still merges identical claims; finishing erases it.
  ASSERT_TRUE(Cache.claim(keyOf(1), "leader", nullptr).Lead);
  ResultCache::Claim Joined = Cache.claim(keyOf(1), "waiter", nullptr);
  EXPECT_FALSE(Joined.Lead);
  EXPECT_EQ(Joined.Hit, nullptr);
  std::vector<ResultCache::Waiter> Waiters =
      Cache.finish(keyOf(1), okResponse("one"));
  ASSERT_EQ(Waiters.size(), 1u);
  EXPECT_EQ(Waiters[0].Id, "waiter");
  EXPECT_TRUE(Cache.claim(keyOf(1), "", nullptr).Lead);
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(ResultCache, DoneEntriesDropPerRequestFields) {
  ResultCache Cache(4);
  SimResponse Resp = okResponse("one");
  Resp.Id = "client";
  Resp.CacheHit = true;
  Resp.Singleflight = true;
  Resp.Key = "k";
  fill(Cache, keyOf(1), Resp);
  ResultCache::Claim C = Cache.claim(keyOf(1), "", nullptr);
  ASSERT_NE(C.Hit, nullptr);
  EXPECT_EQ(C.Hit->Id, "");
  EXPECT_FALSE(C.Hit->CacheHit);
  EXPECT_FALSE(C.Hit->Singleflight);
  EXPECT_EQ(C.Hit->Key, "");
  EXPECT_EQ(C.Hit->Plan.ProgramName, "one");
  EXPECT_EQ(C.Hit->ServerSeconds, 1.0);
}

TEST(ResultCache, ConcurrentHitsAndMisses) {
  ResultCache Cache(64);
  constexpr unsigned NumThreads = 8, OpsPerThread = 2000;
  std::vector<std::thread> Threads;
  std::atomic<std::uint64_t> ObservedHits{0}, AnsweredWaiters{0};
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Cache, &ObservedHits, &AnsweredWaiters, T] {
      for (unsigned I = 0; I < OpsPerThread; ++I) {
        // 32 hot keys shared by all threads plus per-thread cold keys, so
        // claims, joins, finishes and evictions all race with each other.
        std::uint64_t N = (I % 3 == 0) ? 1000 + T * OpsPerThread + I
                                       : I % 32;
        std::string Want =
            formatString("p%llu", static_cast<unsigned long long>(N));
        ResultCache::Claim C = Cache.claim(
            keyOf(N), "", [&AnsweredWaiters, Want](SimResponse Resp) {
              EXPECT_EQ(Resp.Plan.ProgramName, Want);
              AnsweredWaiters.fetch_add(1);
            });
        if (C.Hit) {
          ObservedHits.fetch_add(1);
          // A hit must be internally consistent, never a torn value.
          ASSERT_EQ(C.Hit->Plan.ProgramName, Want);
        } else if (C.Lead) {
          SimResponse R = okResponse(Want);
          for (ResultCache::Waiter &W : Cache.finish(keyOf(N), R))
            W.Done(R);
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, ObservedHits.load());
  EXPECT_EQ(S.SingleflightHits, AnsweredWaiters.load());
  EXPECT_EQ(S.Hits + S.Misses + S.SingleflightHits, NumThreads * OpsPerThread);
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
  SimResponse Served = callService(Service, R);
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
  SimResponse Again = callService(Service, R);
  ASSERT_TRUE(Again.ok());
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Id, "second");
  EXPECT_TRUE(equalResults(*Again.Original, *Direct.Original, &Why)) << Why;
  EXPECT_TRUE(equalResults(*Again.Optimized, *Direct.Optimized, &Why))
      << Why;

  // callService() returns when the answer is delivered; the Completed
  // counter is bumped just after, under the same lock drain() waits on.
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
  SimResponse First = callService(Service, Bad);
  EXPECT_EQ(First.Status, ResponseStatus::Error);
  SimResponse Second = callService(Service, Bad);
  EXPECT_EQ(Second.Status, ResponseStatus::Error);
  EXPECT_FALSE(Second.CacheHit);
  EXPECT_EQ(Service.stats().Cache.Entries, 0u);
}

TEST(Service, ExecutorExceptionAnswersEveryoneAndRetiresKey) {
  // An executor that throws must not lose the request: the leader and its
  // single-flight waiter are answered with an error, drain() returns,
  // nothing is cached, and the key is retired so the next identical
  // request executes again instead of attaching to a dead leader.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Open = false;
  std::atomic<unsigned> Executions{0};
  auto Exec = [&](const SimRequest &R) {
    if (Executions.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return Open; });
      throw std::runtime_error("executor failed");
    }
    SimResponse Resp;
    Resp.Id = R.Id;
    Resp.Status = ResponseStatus::Ok;
    return Resp;
  };
  SimService Service({/*Workers=*/2, /*QueueDepth=*/8, /*CacheCapacity=*/8},
                     Exec);

  std::mutex DoneMu;
  std::vector<SimResponse> Answers;
  auto Done = [&](SimResponse Resp) {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Answers.push_back(std::move(Resp));
  };
  for (const char *Id : {"leader", "waiter"}) {
    SimRequest R = tinySimulate();
    R.Id = Id;
    Service.submit(R, Done);
  }
  while (Service.stats().Cache.SingleflightHits < 1)
    std::this_thread::yield();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Open = true;
  }
  Cv.notify_all();
  Service.drain();

  {
    std::lock_guard<std::mutex> Lock(DoneMu);
    ASSERT_EQ(Answers.size(), 2u);
    std::set<std::string> Ids;
    for (const SimResponse &A : Answers) {
      Ids.insert(A.Id);
      EXPECT_EQ(A.Status, ResponseStatus::Error);
      EXPECT_EQ(A.ErrorText, "internal error: executor failed");
      std::string Err;
      std::optional<JsonValue> J = parseJson(writeResponseLine(A), &Err);
      ASSERT_TRUE(J.has_value()) << Err;
      EXPECT_EQ(J->find("status")->asString(), "error");
    }
    EXPECT_EQ(Ids, (std::set<std::string>{"leader", "waiter"}));
  }
  EXPECT_EQ(Service.stats().Cache.Entries, 0u);

  SimResponse Again = callService(Service, tinySimulate());
  EXPECT_TRUE(Again.ok());
  EXPECT_FALSE(Again.Singleflight);
  EXPECT_EQ(Executions.load(), 2u);
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
    R.Id = formatString("r%u", I);
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
  // pins). Followers can attach before the leader, which registers the key
  // first, has entered the executor, so wait for that too.
  while (Service.stats().Cache.SingleflightHits < N - 1 || Executions.load() == 0)
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
  EXPECT_EQ(S.Cache.SingleflightHits, N - 1);
  EXPECT_EQ(S.Admitted, N);
  EXPECT_EQ(S.Completed, N);
  EXPECT_EQ(S.Cache.Misses, 1u); // one lookup miss: the leader's
}

TEST(Service, SingleflightWithCacheDisabled) {
  // With no result cache, identical concurrent requests still execute once:
  // every one is answered and no entry outlives the run.
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
    return Resp;
  };
  constexpr unsigned N = 4;
  SimService Service({/*Workers=*/N, /*QueueDepth=*/8, /*CacheCapacity=*/0},
                     GateExec);

  std::mutex DoneMu;
  std::vector<SimResponse> Answers;
  auto Done = [&](SimResponse Resp) {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Answers.push_back(std::move(Resp));
  };
  for (unsigned I = 0; I < N; ++I) {
    SimRequest R = tinySimulate();
    R.Id = "client" + std::to_string(I);
    Service.submit(R, Done);
  }
  // A joined request's worker completes at once while the gated leader
  // runs, so N - 1 completions with one execution means N - 1 joins.
  while (Service.stats().Completed < N - 1 || Executions.load() == 0)
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
  std::set<std::string> Ids;
  unsigned Merged = 0;
  for (const SimResponse &A : Answers) {
    ASSERT_TRUE(A.ok());
    EXPECT_FALSE(A.CacheHit);
    EXPECT_EQ(A.Plan.ProgramName, "computed-once");
    Merged += A.Singleflight;
    Ids.insert(A.Id);
  }
  EXPECT_EQ(Merged, N - 1);
  EXPECT_EQ(Ids.size(), N);
  SimService::Stats S = Service.stats();
  EXPECT_EQ(S.Completed, N);
  EXPECT_EQ(S.Cache.Entries, 0u);
  EXPECT_EQ(S.Cache.Hits, 0u);
  EXPECT_EQ(S.Cache.Misses, 1u);
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
  while (Service.stats().Cache.SingleflightHits < 2)
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
  EXPECT_EQ(S.Cache.SingleflightHits, 2u);
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

TEST(Execute, MalformedProgramNumberAnswersError) {
  SimRequest R;
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = "program p\narray a dims abc elem 8\n";
  SimResponse Resp = executeRequest(R);
  EXPECT_EQ(Resp.Status, ResponseStatus::Error);
  EXPECT_EQ(Resp.ErrorText.rfind("line 2: ", 0), 0u) << Resp.ErrorText;
}

TEST(Execute, UnknownAppNamesEveryApp) {
  SimRequest R;
  R.Kind = RequestKind::Optimize;
  R.Workload.App = "nope";
  SimResponse Resp = executeRequest(R);
  EXPECT_EQ(Resp.Status, ResponseStatus::Error);
  EXPECT_EQ(Resp.ErrorText,
            "unknown application 'nope' (registered: wupwise, swim, mgrid, "
            "applu, galgel, apsi, gafort, fma3d, art, ammp, hpccg, "
            "minighost, minimd)");
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
