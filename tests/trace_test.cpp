//===- tests/trace_test.cpp -----------------------------------------------===//
///
/// The tracing subsystem promises two things the rest of the repo leans on:
///
///  1. Observation does not perturb: a traced run produces a SimResult
///     identical to the untraced run, field for field, on every config axis.
///  2. Trace output is deterministic: the rendered trace.json and
///     series.csv bytes are identical across reruns, even when the
///     per-node event rings overflow and drop.
///
/// Plus the exporter contracts: the CSV dump round-trips through its parser,
/// and the re-derived node->MC traffic table matches SimResult exactly; and
/// the exact per-access event sequence of every access flow is pinned.
///
//===----------------------------------------------------------------------===//

#include "core/LayoutTransformer.h"
#include "harness/Experiment.h"
#include "sim/AddressMap.h"
#include "sim/Machine.h"
#include "sim/ThreadStream.h"
#include "trace/TraceSink.h"
#include "sim/Engine.h"
#include "trace/ChromeExport.h"
#include "trace/TimeSeries.h"
#include "workloads/AppModel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace offchip;

namespace {

/// Exact equality over the full SimResult (pins "tracing observes, never
/// perturbs").
void expectIdentical(const SimResult &A, const SimResult &B) {
  EXPECT_EQ(A.ExecutionCycles, B.ExecutionCycles);
  EXPECT_EQ(A.ThreadFinishCycles, B.ThreadFinishCycles);
  EXPECT_EQ(A.TotalAccesses, B.TotalAccesses);
  EXPECT_EQ(A.L1Hits, B.L1Hits);
  EXPECT_EQ(A.LocalL2Hits, B.LocalL2Hits);
  EXPECT_EQ(A.RemoteL2Hits, B.RemoteL2Hits);
  EXPECT_EQ(A.OffChipAccesses, B.OffChipAccesses);

  auto ExpectAccEq = [](const Accumulator &X, const Accumulator &Y,
                        const char *Name) {
    EXPECT_EQ(X.count(), Y.count()) << Name;
    EXPECT_EQ(X.sum(), Y.sum()) << Name;
    EXPECT_EQ(X.min(), Y.min()) << Name;
    EXPECT_EQ(X.max(), Y.max()) << Name;
  };
  ExpectAccEq(A.OnChipNetLatency, B.OnChipNetLatency, "OnChipNetLatency");
  ExpectAccEq(A.OffChipNetLatency, B.OffChipNetLatency, "OffChipNetLatency");
  ExpectAccEq(A.MemLatency, B.MemLatency, "MemLatency");
  ExpectAccEq(A.AccessLatency, B.AccessLatency, "AccessLatency");

  auto ExpectHistEq = [](const IntHistogram &X, const IntHistogram &Y,
                         const char *Name) {
    EXPECT_EQ(X.total(), Y.total()) << Name;
    unsigned Top = std::max(X.maxNonEmptyBucket(), Y.maxNonEmptyBucket());
    for (unsigned I = 0; I <= Top; ++I)
      EXPECT_EQ(X.countAt(I), Y.countAt(I)) << Name << " bucket " << I;
  };
  ExpectHistEq(A.OffNetLatencyHist, B.OffNetLatencyHist, "OffNetLatencyHist");
  ExpectHistEq(A.OnChipMsgHops, B.OnChipMsgHops, "OnChipMsgHops");
  ExpectHistEq(A.OffChipMsgHops, B.OffChipMsgHops, "OffChipMsgHops");

  EXPECT_EQ(A.NumNodes, B.NumNodes);
  EXPECT_EQ(A.NumMCs, B.NumMCs);
  EXPECT_EQ(A.NodeToMCTraffic, B.NodeToMCTraffic);

  EXPECT_EQ(A.AvgBankQueueOccupancy, B.AvgBankQueueOccupancy);
  EXPECT_EQ(A.RowHitRate, B.RowHitRate);
  EXPECT_EQ(A.PerMCQueueOccupancy, B.PerMCQueueOccupancy);
  EXPECT_EQ(A.PerMCAccesses, B.PerMCAccesses);

  EXPECT_EQ(A.RedirectedPages, B.RedirectedPages);
  EXPECT_EQ(A.AllocatedPages, B.AllocatedPages);
}

MachineConfig smallConfig() {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 4;
  C.MeshY = 4;
  return C;
}

/// Runs \p App with tracing enabled (in-memory only; no files written).
SimResult runTraced(const AppModel &App, MachineConfig Config,
                    RunVariant Variant) {
  Config.Trace.Enabled = true;
  ClusterMapping M = makeM1Mapping(Config);
  return runVariant(App, Config, M, Variant);
}

/// Tracing must not change a single simulated number, on any config axis:
/// cache-line and page interleaving, shared L2, and the optimized variant.
void checkUnperturbed(const char *AppName, MachineConfig Config,
                      RunVariant Variant) {
  AppModel App = buildApp(AppName, /*SizeScale=*/0.1);
  ClusterMapping M = makeM1Mapping(Config);
  SimResult Plain = runVariant(App, Config, M, Variant);
  EXPECT_EQ(Plain.Trace, nullptr);
  SimResult Traced = runTraced(App, Config, Variant);
  ASSERT_NE(Traced.Trace, nullptr);
  EXPECT_GT(Traced.Trace->EmittedEvents, 0u);
  SCOPED_TRACE(AppName);
  expectIdentical(Plain, Traced);
}

} // namespace

TEST(Trace, UnperturbedPrivateL2CacheLine) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::CacheLine;
  checkUnperturbed("swim", C, RunVariant::Original);
}

TEST(Trace, UnperturbedPageInterleaving) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  checkUnperturbed("swim", C, RunVariant::Original);
}

TEST(Trace, UnperturbedSharedL2) {
  MachineConfig C = smallConfig();
  C.SharedL2 = true;
  checkUnperturbed("mgrid", C, RunVariant::Original);
}

TEST(Trace, UnperturbedOptimalScheme) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  C.OptimalScheme = true;
  checkUnperturbed("wupwise", C, RunVariant::Optimized);
}

// Byte-identity must survive ring overflow: with a tiny per-node cap the
// drops are a pure function of each node's event sequence, so a capped
// trace renders to the same bytes on every rerun.
TEST(Trace, RingCapDropsAreDeterministic) {
  MachineConfig C = smallConfig();
  AppModel App = buildApp("mgrid", 0.1);

  C.Trace.Enabled = true;
  C.Trace.MaxEventsPerNode = 64;
  ClusterMapping M = makeM1Mapping(C);
  SimResult First = runVariant(App, C, M, RunVariant::Original);
  ASSERT_NE(First.Trace, nullptr);
  EXPECT_GT(First.Trace->DroppedEvents, 0u);
  EXPECT_LE(First.Trace->Events.size(),
            static_cast<std::size_t>(64) * C.numNodes());
  EXPECT_EQ(First.Trace->EmittedEvents,
            First.Trace->Events.size() + First.Trace->DroppedEvents);

  SimResult Second = runVariant(App, C, M, RunVariant::Original);
  ASSERT_NE(Second.Trace, nullptr);
  EXPECT_EQ(First.Trace->DroppedEvents, Second.Trace->DroppedEvents);
  EXPECT_EQ(renderChromeTrace(*First.Trace), renderChromeTrace(*Second.Trace));
  EXPECT_EQ(renderTimeSeriesCsv(*First.Trace),
            renderTimeSeriesCsv(*Second.Trace));
}

// The trace-side traffic table is re-derived independently (counted at
// TraceSink::emit) and must agree exactly with the engine's own Figure 13 map.
// The aggregate tables ignore the ring cap, so this holds even when the
// event list is truncated.
TEST(Trace, TrafficTableMatchesSimResult) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  C.Trace.Enabled = true;
  C.Trace.MaxEventsPerNode = 16; // force heavy dropping
  AppModel App = buildApp("swim", 0.1);
  ClusterMapping M = makeM1Mapping(C);
  SimResult R = runVariant(App, C, M, RunVariant::Original);
  ASSERT_NE(R.Trace, nullptr);
  EXPECT_GT(R.Trace->DroppedEvents, 0u);
  ASSERT_EQ(R.Trace->NodeToMCRequests.size(), R.NodeToMCTraffic.size());
  EXPECT_EQ(R.Trace->NodeToMCRequests, R.NodeToMCTraffic);
}

// Events are sorted by access key, and every kind that reaches the export
// is well-formed: nodes, MCs and links stay inside the machine geometry.
TEST(Trace, EventStreamIsSortedAndInBounds) {
  MachineConfig C = smallConfig();
  AppModel App = buildApp("swim", 0.1);
  SimResult R = runTraced(App, C, RunVariant::Original);
  ASSERT_NE(R.Trace, nullptr);
  const TraceData &D = *R.Trace;
  ASSERT_FALSE(D.Events.empty());
  for (std::size_t I = 1; I < D.Events.size(); ++I)
    ASSERT_LE(D.Events[I - 1].Key, D.Events[I].Key) << "event " << I;
  for (const TraceEvent &E : D.Events) {
    ASSERT_LT(E.Node, D.NumNodes);
    switch (E.Kind) {
    case TraceKind::NocHop:
      ASSERT_LT(E.Aux, D.NumNodes * 4u);
      break;
    case TraceKind::MCEnqueue:
      ASSERT_LT(E.Aux, D.NumMCs);
      break;
    case TraceKind::BankService:
      ASSERT_LT(E.Aux >> 16, D.NumMCs);
      break;
    case TraceKind::L2Hit:
    case TraceKind::L2Miss:
    case TraceKind::DirLookup:
    case TraceKind::RemoteL2Hit:
      ASSERT_LT(E.Aux, D.NumNodes);
      break;
    default:
      break;
    }
  }
}

// The CSV dump parses back into the same aggregates: render -> parse ->
// render is a fixed point, and the parsed geometry matches.
TEST(Trace, TimeSeriesCsvRoundTrips) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  AppModel App = buildApp("wupwise", 0.1);
  SimResult R = runTraced(App, C, RunVariant::Original);
  ASSERT_NE(R.Trace, nullptr);

  std::string Csv = renderTimeSeriesCsv(*R.Trace);
  TraceData Parsed;
  std::string Err;
  ASSERT_TRUE(parseTimeSeriesCsv(Csv, Parsed, &Err)) << Err;
  EXPECT_EQ(Parsed.NumNodes, R.Trace->NumNodes);
  EXPECT_EQ(Parsed.MeshX, R.Trace->MeshX);
  EXPECT_EQ(Parsed.NumMCs, R.Trace->NumMCs);
  EXPECT_EQ(Parsed.MCNodes, R.Trace->MCNodes);
  EXPECT_EQ(Parsed.NodeToMCRequests, R.Trace->NodeToMCRequests);
  EXPECT_EQ(Csv, renderTimeSeriesCsv(Parsed));

  // And the parsed dump renders the same human report as the original —
  // trace-report sees no difference between live and round-tripped data.
  EXPECT_EQ(renderTraceReport(*R.Trace), renderTraceReport(Parsed));
}

TEST(Trace, ParserRejectsMalformedDumps) {
  TraceData D;
  std::string Err;
  EXPECT_FALSE(parseTimeSeriesCsv("link,0,0,5\n", D, &Err)); // no meta
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseTimeSeriesCsv(
      "meta,num_nodes,16\nmeta,mesh_x,4\nmeta,num_mcs,2\n"
      "traffic,99,0,1,1\n",
      D, &Err)); // node out of range
  EXPECT_FALSE(parseTimeSeriesCsv(
      "meta,num_nodes,16\nmeta,mesh_x,4\nmeta,num_mcs,2\n"
      "bogus,1,2,3\n",
      D, &Err)); // unknown row kind
}

//===----------------------------------------------------------------------===//
// Per-access event sequence of every flow
//===----------------------------------------------------------------------===//

namespace {

/// A bare machine with a trace sink attached, driven through
/// Machine::access the way the engine drives it. Each access gets the next
/// key, so the taken event list groups by access in issue order.
struct TracedRig {
  ClusterMapping Mapping;
  VirtualMemory VM;
  Machine M;
  TraceSink Sink;
  SimResult R;
  std::uint64_t NextKey = 1;

  explicit TracedRig(MachineConfig C)
      : Mapping(makeM1Mapping(C)),
        VM(VmConfig{C.PageBytes, C.NumMCs, C.BytesPerMC}, C.PagePolicy),
        M(C, Mapping, VM),
        Sink(C.Trace, C.numNodes(), C.MeshX, C.NumMCs, M.mcNodes()) {
    M.setTraceSink(&Sink);
    R.NodeToMCTraffic.assign(
        static_cast<std::size_t>(C.numNodes()) * C.NumMCs, 0);
  }

  void go(unsigned Node, std::uint64_t VA, bool IsWrite, std::uint64_t Time,
          ThreadStream *Lookahead = nullptr) {
    M.access(Node, VA, IsWrite, Time, R, Lookahead, NextKey++);
  }

  /// Every event taken so far, one "Kind Start Dur Addr Aux Node Key" line
  /// each (Kind by its stable enum value, Addr in hex), after a leading
  /// newline so the expected lists below start on their own line.
  std::string events() {
    M.setTraceSink(nullptr);
    TraceData D = Sink.take(0);
    std::string Out = "\n";
    char Buf[128];
    for (const TraceEvent &E : D.Events) {
      std::snprintf(Buf, sizeof(Buf), "%u %llu %u 0x%llx %u %u %llu\n",
                    static_cast<unsigned>(E.Kind),
                    static_cast<unsigned long long>(E.Start), E.Dur,
                    static_cast<unsigned long long>(E.Addr), E.Aux, E.Node,
                    static_cast<unsigned long long>(E.Key));
      Out += Buf;
    }
    return Out;
  }
};

} // namespace

// Private L2, cache-line interleaving: an off-chip miss, an L1 hit, an own-L2
// hit (a different L1 line of the same L2 line) and a remote-L2 hit.
TEST(TraceFlow, PrivateCacheLineEvents) {
  TracedRig G(smallConfig());
  G.go(6, 0x10000, false, 0);
  G.go(6, 0x10000, false, 1000);
  G.go(6, 0x10040, false, 2000);
  G.go(9, 0x10000, false, 3000);
  EXPECT_EQ(G.events(), R"(
1 0 2 0x10000 0 6 1
3 2 10 0x10000 6 6 1
6 12 1 0x0 25 6 1
6 16 1 0x0 21 6 1
6 20 1 0x0 19 6 1
4 24 6 0x10000 0 6 1
7 30 0 0x10000 0 6 1
8 30 82 0x10000 2 6 1
6 112 16 0x0 0 6 1
6 116 16 0x0 4 6 1
6 120 16 0x0 10 6 1
9 139 0 0x10000 0 6 1
10 0 139 0x10000 0 6 1
0 1000 2 0x10000 0 6 2
1 2000 2 0x10040 0 6 3
2 2002 10 0x10040 6 6 3
9 2012 0 0x10040 0 6 3
1 3000 2 0x10000 0 9 4
3 3002 10 0x10000 9 9 4
6 3012 1 0x0 37 9 4
6 3016 1 0x0 35 9 4
6 3020 1 0x0 19 9 4
4 3024 6 0x10000 0 9 4
6 3030 1 0x0 0 9 4
6 3034 1 0x0 4 9 4
6 3038 1 0x0 10 9 4
5 3042 10 0x10000 6 9 4
6 3052 16 0x0 25 9 4
6 3056 16 0x0 22 9 4
9 3075 0 0x10000 0 9 4
10 3000 75 0x10000 0 9 4
)");
}

// Private L2, page interleaving: the miss translates, and the own-L2 hit
// closes with a Complete span.
TEST(TraceFlow, PrivatePageOwnL2HitEvents) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  TracedRig G(C);
  G.go(6, 0x10000, false, 0);
  G.go(6, 0x10040, true, 1000);
  EXPECT_EQ(G.events(), R"(
1 0 2 0x10000 0 6 1
3 2 10 0x0 6 6 1
6 12 1 0x0 25 6 1
6 16 1 0x0 21 6 1
6 20 1 0x0 19 6 1
4 24 6 0x0 0 6 1
7 30 0 0x0 0 6 1
8 30 82 0x0 0 6 1
6 112 16 0x0 0 6 1
6 116 16 0x0 4 6 1
6 120 16 0x0 10 6 1
9 139 0 0x10000 0 6 1
10 0 139 0x10000 0 6 1
1 1000 2 0x10040 0 6 2
2 1002 10 0x40 6 6 2
9 1012 0 0x10040 0 6 2
10 1000 12 0x10040 0 6 2
)");
}

// Shared L2 (SNUCA): a home-bank miss fetched from the MC, then a hit in the
// same home bank from another node.
TEST(TraceFlow, SharedL2HomeMissAndHitEvents) {
  MachineConfig C = smallConfig();
  C.SharedL2 = true;
  TracedRig G(C);
  G.go(6, 0x10000, false, 0);
  G.go(9, 0x10000, false, 1000);
  EXPECT_EQ(G.events(), R"(
1 0 2 0x10000 0 6 1
6 2 1 0x0 25 6 1
6 6 1 0x0 21 6 1
6 10 1 0x0 19 6 1
3 14 10 0x10000 0 6 1
7 24 0 0x10000 0 6 1
8 24 82 0x10000 2 6 1
6 106 4 0x0 0 6 1
6 110 4 0x0 4 6 1
6 114 4 0x0 10 6 1
9 121 0 0x10000 0 6 1
10 0 121 0x10000 0 6 1
1 1000 2 0x10000 0 9 2
6 1002 1 0x0 37 9 2
6 1006 1 0x0 35 9 2
6 1010 1 0x0 19 9 2
2 1014 10 0x10000 0 9 2
6 1024 4 0x0 0 9 2
6 1028 4 0x0 6 9 2
6 1032 4 0x0 22 9 2
9 1039 0 0x10000 0 9 2
10 1000 39 0x10000 0 9 2
)");
}

// Burst coalescing: the first access of a streaming thread misses off-chip
// and pulls its adjacent future lines along in one DRAM transaction.
TEST(TraceFlow, BurstTriggerEvents) {
  MachineConfig C = smallConfig();
  C.Granularity = InterleaveGranularity::Page;
  C.Burst.Enabled = true;
  TracedRig G(C);
  AffineProgram P("stream");
  ArrayId A = P.addArray({"a", {4096}, 8});
  LoopNest Nest("n", IterationSpace({0}, {4096}), 0);
  Nest.addRef(pointRef(A, {0}, false, 1));
  P.addNest(std::move(Nest));
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  AddressMap Map(P, Plan, G.VM, C);
  ThreadStream S(Map, 0, 1);
  AccessRequest Req;
  ASSERT_TRUE(S.next(Req));
  G.go(6, Req.VA, Req.IsWrite, 0, &S);
  EXPECT_EQ(G.R.BurstTransactions, 1u);
  EXPECT_EQ(G.events(), R"(
1 0 2 0x4000 0 6 1
3 2 10 0x0 6 6 1
6 12 1 0x0 25 6 1
6 16 1 0x0 21 6 1
6 20 1 0x0 19 6 1
4 24 6 0x0 0 6 1
7 30 0 0x0 0 6 1
8 30 138 0x0 0 6 1
11 30 138 0x0 8 6 1
6 168 128 0x0 0 6 1
6 172 128 0x0 4 6 1
6 176 128 0x0 10 6 1
9 307 0 0x4000 0 6 1
10 0 307 0x4000 0 6 1
)");
}

// MSI: two readers share a line, then the first writes it — an L1 write hit
// on a Shared line upgrades through the directory and invalidates the other
// copy.
TEST(TraceFlow, MsiWriteUpgradeEvents) {
  MachineConfig C = smallConfig();
  C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  TracedRig G(C);
  G.go(6, 0x10000, false, 0);
  G.go(9, 0x10000, false, 1000);
  G.go(6, 0x10000, true, 2000);
  EXPECT_EQ(G.R.CoherenceUpgrades, 1u);
  EXPECT_EQ(G.R.Invalidations, 1u);
  EXPECT_EQ(G.events(), R"(
1 0 2 0x10000 6 6 1
3 2 10 0x10000 6 6 1
6 12 1 0x0 25 6 1
6 16 1 0x0 21 6 1
6 20 1 0x0 19 6 1
4 24 6 0x10000 0 6 1
7 30 0 0x10000 0 6 1
8 30 82 0x10000 2 6 1
6 112 16 0x0 0 6 1
6 116 16 0x0 4 6 1
6 120 16 0x0 10 6 1
9 139 0 0x10000 0 6 1
10 0 139 0x10000 0 6 1
1 1000 2 0x10000 9 9 2
3 1002 10 0x10000 9 9 2
6 1012 1 0x0 37 9 2
6 1016 1 0x0 35 9 2
6 1020 1 0x0 19 9 2
4 1024 6 0x10000 0 9 2
6 1030 1 0x0 0 9 2
6 1034 1 0x0 4 9 2
6 1038 1 0x0 10 9 2
5 1042 10 0x10000 6 9 2
6 1052 16 0x0 25 9 2
6 1056 16 0x0 22 9 2
9 1075 0 0x10000 0 9 2
10 1000 75 0x10000 0 9 2
6 2002 1 0x0 25 6 3
6 2006 1 0x0 21 6 3
6 2010 1 0x0 19 6 3
4 2014 6 0x10000 0 6 3
6 2020 1 0x0 0 6 3
6 2024 1 0x0 6 6 3
6 2028 1 0x0 22 6 3
13 2032 0 0x10000 9 6 3
6 2032 1 0x0 37 6 3
6 2036 1 0x0 35 6 3
6 2040 1 0x0 19 6 3
15 2044 0 0x10000 9 6 3
6 2044 1 0x0 0 6 3
6 2048 1 0x0 4 6 3
6 2052 1 0x0 10 6 3
10 2000 56 0x10000 0 6 3
)");
}
