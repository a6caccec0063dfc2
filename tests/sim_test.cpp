//===- tests/sim_test.cpp - simulator unit tests ----------------------------===//

#include "harness/Experiment.h"
#include "sim/AddressMap.h"
#include "sim/Engine.h"
#include "sim/ThreadStream.h"

#include <gtest/gtest.h>

#include <set>

using namespace offchip;

namespace {

/// Tiny machine for fast tests: 4x4 mesh, small caches.
MachineConfig tinyConfig() {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 4;
  C.MeshY = 4;
  return C;
}

ClusterMapping tinyMapping(const MachineConfig &C) { return makeM1Mapping(C); }

/// Two co-running apps on the tiny machine, one per half in M1's thread
/// order (threads 0-7 walk the left two columns, 8-15 the right two).
const std::vector<std::vector<unsigned>> TinyHalves = {
    {0, 4, 8, 12, 1, 5, 9, 13}, {2, 6, 10, 14, 3, 7, 11, 15}};

/// A small 2-array streaming program.
AffineProgram tinyProgram(std::int64_t N = 64) {
  AffineProgram P("tiny");
  ArrayId A = P.addArray({"a", {N, N}, 8});
  ArrayId B = P.addArray({"b", {N, N}, 8});
  LoopNest Nest("sweep", IterationSpace({0, 0}, {N, N}), 0);
  Nest.addRef(pointRef(A, {0, 0}, false, 2));
  Nest.addRef(pointRef(B, {0, 0}, true, 2));
  P.addNest(std::move(Nest));
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// MachineConfig
//===----------------------------------------------------------------------===//

TEST(MachineConfig, PaperDefaultsMatchTable1) {
  MachineConfig C;
  EXPECT_EQ(C.MeshX, 8u);
  EXPECT_EQ(C.MeshY, 8u);
  EXPECT_EQ(C.L1SizeBytes, 16u * 1024);
  EXPECT_EQ(C.L1LineBytes, 64u);
  EXPECT_EQ(C.L1Ways, 2u);
  EXPECT_EQ(C.L2SizeBytes, 256u * 1024);
  EXPECT_EQ(C.L2LineBytes, 256u);
  EXPECT_EQ(C.L2Ways, 16u);
  EXPECT_EQ(C.L1LatencyCycles, 2u);
  EXPECT_EQ(C.L2LatencyCycles, 10u);
  EXPECT_EQ(C.Noc.PerHopCycles, 4u);
  EXPECT_EQ(C.Noc.LinkBytes, 16u);
  EXPECT_EQ(C.NumMCs, 4u);
  EXPECT_EQ(C.PageBytes, 4096u);
  EXPECT_EQ(C.Dram.RowBufferBytes, 4096u);
}

TEST(MachineConfig, InterleaveBytesFollowGranularity) {
  MachineConfig C;
  C.Granularity = InterleaveGranularity::CacheLine;
  EXPECT_EQ(C.interleaveBytes(), C.L2LineBytes);
  C.Granularity = InterleaveGranularity::Page;
  EXPECT_EQ(C.interleaveBytes(), C.PageBytes);
}

//===----------------------------------------------------------------------===//
// AddressMap
//===----------------------------------------------------------------------===//

TEST(AddressMap, ArraysAreDisjointAndAligned) {
  MachineConfig C = tinyConfig();
  AffineProgram P = tinyProgram();
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  VmConfig VC;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::InterleavedRoundRobin);
  AddressMap Map(P, Plan, VM, C);

  std::uint64_t Align =
      static_cast<std::uint64_t>(C.NumMCs) * C.interleaveBytes();
  EXPECT_EQ(Map.base(0) % Align, 0u);
  EXPECT_EQ(Map.base(1) % Align, 0u);
  std::uint64_t End0 = Map.base(0) + P.array(0).sizeInBytes();
  EXPECT_GE(Map.base(1), End0);
}

TEST(AddressMap, FlatLookupMatchesVectorLookup) {
  MachineConfig C = tinyConfig();
  AffineProgram P = tinyProgram();
  ClusterMapping M = tinyMapping(C);
  LayoutTransformer Pass(M, C.layoutOptions());
  LayoutPlan Plan = Pass.run(P);
  VmConfig VC;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::InterleavedRoundRobin);
  AddressMap Map(P, Plan, VM, C);
  AddressMap::FlatScratch S;
  for (std::int64_t Flat : {0, 5, 63, 64, 4095}) {
    IntVector Vec = P.array(0).delinearize(static_cast<std::uint64_t>(Flat));
    EXPECT_EQ(Map.vaOfFlat(0, Flat, S), Map.vaOf(0, Vec));
  }
  // Out-of-range flats clamp instead of crashing.
  EXPECT_EQ(Map.vaOfFlat(0, -5, S), Map.vaOfFlat(0, 0, S));
  EXPECT_EQ(Map.vaOfFlat(0, 1 << 30, S), Map.vaOfFlat(0, 64 * 64 - 1, S));
}

TEST(AddressMap, EmitsPageHintsUnderCompilerGuidedPolicy) {
  MachineConfig C = tinyConfig();
  C.Granularity = InterleaveGranularity::Page;
  C.PagePolicy = PageAllocPolicy::CompilerGuided;
  AffineProgram P = tinyProgram(128);
  ClusterMapping M = tinyMapping(C);
  LayoutTransformer Pass(M, C.layoutOptions());
  LayoutPlan Plan = Pass.run(P);
  ASSERT_TRUE(Plan.PerArray[0].Optimized);

  VmConfig VC;
  VC.PageBytes = C.PageBytes;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::CompilerGuided);
  AddressMap Map(P, Plan, VM, C);
  // Touch a page and check it landed on the layout's desired MC.
  std::uint64_t VA = Map.vaOf(0, {0, 0});
  std::uint64_t PA = VM.translate(VA, /*TouchingMC=*/9999 % 4);
  int Desired = Plan.PerArray[0].Layout->desiredMCForOffset(
      (VA - Map.base(0)) / 8);
  ASSERT_GE(Desired, 0);
  EXPECT_EQ(VM.mcOfPhysAddr(PA), static_cast<unsigned>(Desired));
}

//===----------------------------------------------------------------------===//
// ThreadStream
//===----------------------------------------------------------------------===//

TEST(ThreadStream, CoversEveryReferenceExactlyOnce) {
  MachineConfig C = tinyConfig();
  AffineProgram P = tinyProgram(32);
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  VmConfig VC;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::InterleavedRoundRobin);
  AddressMap Map(P, Plan, VM, C);

  std::uint64_t Total = 0;
  std::set<std::uint64_t> ReadVAs;
  for (unsigned T = 0; T < 16; ++T) {
    ThreadStream S(Map, T, 16);
    AccessRequest Req;
    while (S.next(Req)) {
      ++Total;
      if (!Req.IsWrite)
        ReadVAs.insert(Req.VA);
    }
  }
  // 32x32 iterations x 2 refs, split among 16 threads.
  EXPECT_EQ(Total, 32u * 32 * 2);
  // Each read element appears exactly once: 1024 distinct addresses.
  EXPECT_EQ(ReadVAs.size(), 32u * 32);
}

TEST(ThreadStream, RepeatsMultiplyTheStream) {
  MachineConfig C = tinyConfig();
  AffineProgram P("rep");
  ArrayId A = P.addArray({"a", {32, 32}, 8});
  LoopNest Nest("n", IterationSpace({0, 0}, {32, 32}), 0);
  Nest.addRef(pointRef(A, {0, 0}, false, 2));
  Nest.setRepeatCount(3);
  P.addNest(std::move(Nest));
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  VmConfig VC;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::InterleavedRoundRobin);
  AddressMap Map(P, Plan, VM, C);
  ThreadStream S(Map, 0, 1);
  AccessRequest Req;
  std::uint64_t N = 0;
  while (S.next(Req))
    ++N;
  EXPECT_EQ(N, 3u * 32 * 32);
}

TEST(ThreadStream, IndexedRefsIssueIndexThenData) {
  MachineConfig C = tinyConfig();
  AffineProgram P("idx");
  ArrayId Data = P.addArray({"data", {64}, 8});
  ArrayId Idx = P.addArray({"idx", {8}, 8});
  P.setIndexArrayValues(Idx,
                        std::vector<std::int64_t>{5, 1, 63, 0, 2, 7, 9, 11});
  LoopNest Nest("n", IterationSpace({0}, {8}), 0);
  IntMatrix IA(1, 1);
  IA.at(0, 0) = 1;
  Nest.addIndexedRef({Data, Idx, AffineRef(Idx, IA, {0}, false), true});
  P.addNest(std::move(Nest));
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  VmConfig VC;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::InterleavedRoundRobin);
  AddressMap Map(P, Plan, VM, C);
  ThreadStream S(Map, 0, 1);
  AccessRequest Req;
  // First access: read of idx[0].
  ASSERT_TRUE(S.next(Req));
  EXPECT_EQ(Req.VA, Map.vaOf(Idx, {0}));
  EXPECT_FALSE(Req.IsWrite);
  // Second access: write of data[idx[0]] == data[5].
  ASSERT_TRUE(S.next(Req));
  EXPECT_EQ(Req.VA, Map.vaOf(Data, {5}));
  EXPECT_TRUE(Req.IsWrite);
}

TEST(ThreadStream, EmptyChunksProduceNothing) {
  MachineConfig C = tinyConfig();
  AffineProgram P("small");
  ArrayId A = P.addArray({"a", {4, 64}, 8});
  LoopNest Nest("n", IterationSpace({0, 0}, {4, 64}), 0);
  Nest.addRef(pointRef(A, {0, 0}, false, 2));
  P.addNest(std::move(Nest));
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  VmConfig VC;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::InterleavedRoundRobin);
  AddressMap Map(P, Plan, VM, C);
  // 16 threads over 4 iterations: threads 4+ have empty chunks.
  ThreadStream S(Map, 10, 16);
  AccessRequest Req;
  EXPECT_FALSE(S.next(Req));
}

TEST(ThreadStream, LookaheadMemoryStaysBoundedUnderFrequentPeeks) {
  // Regression: the burst coalescer peeks a window ahead on every miss.
  // The peekSpan consumed-prefix
  // compaction must keep the lookahead buffer's capacity pinned near the
  // window size instead of growing with the stream (it once retained
  // every consumed access until the stream ended).
  MachineConfig C = tinyConfig();
  AffineProgram P("long");
  ArrayId A = P.addArray({"a", {32, 32}, 8});
  LoopNest Nest("n", IterationSpace({0, 0}, {32, 32}), 0);
  Nest.addRef(pointRef(A, {0, 0}, false, 2));
  Nest.setRepeatCount(64);
  P.addNest(std::move(Nest));
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  VmConfig VC;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::InterleavedRoundRobin);
  AddressMap Map(P, Plan, VM, C);
  ThreadStream S(Map, 0, 1);
  AccessRequest Req;
  std::size_t Peak = 0;
  std::size_t Avail = 0;
  std::uint64_t N = 0;
  while (S.next(Req)) {
    ++N;
    S.peekSpan(256, &Avail);
    Peak = std::max(Peak, S.lookaheadBytes());
  }
  // 64 repeats x 32x32 iterations; ~1M peeked accesses consumed.
  EXPECT_EQ(N, 64u * 32 * 32);
  // The whole stream is ~16 MB of AccessRequests; the buffer must stay
  // bounded by the peek window (~2x 256 requests), far under 1 MB.
  EXPECT_LT(Peak, std::size_t(1) << 20);
}

TEST(ThreadStream, HugePeekWindowCostsOnlyTheStreamsLength) {
  // The peek window comes from a request's burst_window_accesses, which has
  // no upper bound: the buffer must grow with what the stream actually
  // generates, never with the window asked for.
  MachineConfig C = tinyConfig();
  AffineProgram P("short");
  ArrayId A = P.addArray({"a", {8, 64}, 8});
  LoopNest Nest("n", IterationSpace({0, 0}, {8, 64}), 0);
  Nest.addRef(pointRef(A, {0, 0}, false, 2));
  P.addNest(std::move(Nest));
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  VmConfig VC;
  VC.NumMCs = C.NumMCs;
  VirtualMemory VM(VC, PageAllocPolicy::InterleavedRoundRobin);
  AddressMap Map(P, Plan, VM, C);
  ThreadStream S(Map, 0, 1);
  std::size_t Avail = 0;
  S.peekSpan(std::size_t(1) << 30, &Avail);
  EXPECT_EQ(Avail, 8u * 64);
  // 512 accesses of 16 B: at most twice that once the doubling rounds up.
  EXPECT_LE(S.lookaheadBytes(), 2 * Avail * sizeof(AccessRequest));
  AccessRequest Req;
  std::uint64_t N = 0;
  while (S.next(Req))
    ++N;
  EXPECT_EQ(N, 8u * 64);
  EXPECT_EQ(S.generated(), N);
}

//===----------------------------------------------------------------------===//
// Engine end-to-end
//===----------------------------------------------------------------------===//

TEST(Engine, RunsToCompletionAndCountsAccesses) {
  MachineConfig C = tinyConfig();
  ClusterMapping M = tinyMapping(C);
  AffineProgram P = tinyProgram(64);
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  SimResult R = runSingle(P, Plan, C, M);
  EXPECT_EQ(R.TotalAccesses, 64u * 64 * 2);
  EXPECT_GT(R.ExecutionCycles, 0u);
  EXPECT_EQ(R.ThreadFinishCycles.size(), 16u);
  EXPECT_EQ(R.L1Hits + R.LocalL2Hits + R.RemoteL2Hits + R.OffChipAccesses,
            R.TotalAccesses);
}

TEST(Engine, OptimizedRunTouchesSameElementCount) {
  MachineConfig C = tinyConfig();
  ClusterMapping M = tinyMapping(C);
  AffineProgram P = tinyProgram(64);
  LayoutPlan Base = LayoutTransformer::originalPlan(P);
  LayoutTransformer Pass(M, C.layoutOptions());
  LayoutPlan Opt = Pass.run(P);
  SimResult RB = runSingle(P, Base, C, M);
  SimResult RO = runSingle(P, Opt, C, M);
  EXPECT_EQ(RB.TotalAccesses, RO.TotalAccesses);
}

TEST(Engine, TrafficMapSumsToOffchipCount) {
  MachineConfig C = tinyConfig();
  ClusterMapping M = tinyMapping(C);
  AffineProgram P = tinyProgram(64);
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  SimResult R = runSingle(P, Plan, C, M);
  std::uint64_t Sum = 0;
  for (unsigned Node = 0; Node < C.numNodes(); ++Node)
    for (unsigned MC = 0; MC < C.NumMCs; ++MC)
      Sum += R.trafficAt(Node, MC);
  EXPECT_EQ(Sum, R.OffChipAccesses);
}

TEST(Engine, ThreadsPerCoreMultiplyThreads) {
  MachineConfig C = tinyConfig();
  C.ThreadsPerCore = 2;
  ClusterMapping M = tinyMapping(C);
  AffineProgram P = tinyProgram(64);
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  SimResult R = runSingle(P, Plan, C, M);
  EXPECT_EQ(R.ThreadFinishCycles.size(), 32u);
  EXPECT_EQ(R.TotalAccesses, 64u * 64 * 2);
}

TEST(Engine, MultiprogramOutputsPerApp) {
  MachineConfig C = tinyConfig();
  ClusterMapping M = tinyMapping(C);
  AffineProgram P1 = tinyProgram(32);
  AffineProgram P2 = tinyProgram(64);
  LayoutPlan Plan1 = LayoutTransformer::originalPlan(P1);
  LayoutPlan Plan2 = LayoutTransformer::originalPlan(P2);
  for (unsigned T = 0; T < 16; ++T)
    ASSERT_EQ(TinyHalves[T / 8][T % 8], M.threadToNode(T));
  AppInstance A1{&P1, &Plan1, TinyHalves[0], 0};
  AppInstance A2{&P2, &Plan2, TinyHalves[1], 0};
  RunOutputs Multi;
  SimResult R = runSimulation({A1, A2}, C, M, &Multi);
  ASSERT_EQ(Multi.AppAccesses.size(), 2u);
  EXPECT_EQ(Multi.AppAccesses[0], 32u * 32 * 2);
  EXPECT_EQ(Multi.AppAccesses[1], 64u * 64 * 2);
  EXPECT_EQ(Multi.AppAccesses[0] + Multi.AppAccesses[1], R.TotalAccesses);
  EXPECT_LE(Multi.AppFinishCycles[0], R.ExecutionCycles);
  EXPECT_LE(Multi.AppFinishCycles[1], R.ExecutionCycles);
}

TEST(Engine, SharedL2ClassifiesBankHits) {
  MachineConfig C = tinyConfig();
  C.SharedL2 = true;
  ClusterMapping M = tinyMapping(C);
  AffineProgram P = tinyProgram(64);
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  SimResult R = runSingle(P, Plan, C, M);
  // Shared machines have no private local L2: every L2 hit is a bank hit.
  EXPECT_EQ(R.LocalL2Hits, 0u);
  EXPECT_GT(R.RemoteL2Hits, 0u);
}

TEST(Engine, OptimalSchemeBeatsBaseline) {
  MachineConfig C = tinyConfig();
  ClusterMapping M = tinyMapping(C);
  AppModel App = buildApp("mgrid", 0.25);
  App.ComputeGapCycles = 8;
  SimResult Base = runVariant(App, C, M, RunVariant::Original);
  SimResult Best = runVariant(App, C, M, RunVariant::Optimal);
  EXPECT_LT(Best.ExecutionCycles, Base.ExecutionCycles);
  EXPECT_LT(Best.OffChipNetLatency.mean(), Base.OffChipNetLatency.mean());
}

TEST(Engine, BurstCoalesceConservesWorkAndTraffic) {
  // Burst on vs off: coalescing changes timing and line-level DRAM traffic,
  // never the work — every thread still issues its whole access stream, and
  // the line counters obey the conservation identity. CheckInvariants also
  // verifies the identity (and directory exactness after ridealong fills)
  // inside both runs.
  MachineConfig C = tinyConfig();
  C.Granularity = InterleaveGranularity::Page; // contiguous in-page runs
  C.CheckInvariants = true;
  ClusterMapping M = tinyMapping(C);
  AppModel App = buildApp("swim", 0.1);

  SimResult Off = runVariant(App, C, M, RunVariant::Optimized);
  C.Burst.Enabled = true;
  SimResult On = runVariant(App, C, M, RunVariant::Optimized);

  EXPECT_EQ(On.TotalAccesses, Off.TotalAccesses);
  EXPECT_EQ(On.AccessLatency.count(), Off.AccessLatency.count());
  EXPECT_EQ(On.ThreadFinishCycles.size(), Off.ThreadFinishCycles.size());

  EXPECT_EQ(Off.BurstTransactions, 0u);
  EXPECT_EQ(Off.BurstLines, 0u);
  EXPECT_GT(On.BurstTransactions, 0u);
  EXPECT_GE(On.BurstLines, 2 * On.BurstTransactions);

  std::uint64_t OffLines = 0, OnLines = 0;
  for (std::uint64_t L : Off.PerMCLines)
    OffLines += L;
  for (std::uint64_t L : On.PerMCLines)
    OnLines += L;
  EXPECT_EQ(OffLines, Off.OffChipAccesses);
  EXPECT_EQ(OnLines,
            On.OffChipAccesses - On.BurstTransactions + On.BurstLines);

  // Ridealong fills convert future off-chip misses into local L2 hits.
  EXPECT_LE(On.OffChipAccesses, Off.OffChipAccesses);
}

TEST(Engine, BurstCoalescePerThreadWorkIdentical) {
  // Co-run two apps and require per-app (and hence per-thread-group)
  // consumed-access counts to be unchanged by the coalescer.
  MachineConfig C = tinyConfig();
  C.Granularity = InterleaveGranularity::Page;
  ClusterMapping M = tinyMapping(C);
  AffineProgram P1 = tinyProgram(32);
  AffineProgram P2 = tinyProgram(64);
  LayoutPlan Plan1 = LayoutTransformer::originalPlan(P1);
  LayoutPlan Plan2 = LayoutTransformer::originalPlan(P2);
  AppInstance A1{&P1, &Plan1, TinyHalves[0], 0};
  AppInstance A2{&P2, &Plan2, TinyHalves[1], 0};

  RunOutputs Off;
  runSimulation({A1, A2}, C, M, &Off);
  C.Burst.Enabled = true;
  RunOutputs On;
  runSimulation({A1, A2}, C, M, &On);
  EXPECT_EQ(On.AppAccesses, Off.AppAccesses);
}

TEST(Engine, DeterministicAcrossRuns) {
  MachineConfig C = tinyConfig();
  ClusterMapping M = tinyMapping(C);
  AffineProgram P = tinyProgram(64);
  LayoutPlan Plan = LayoutTransformer::originalPlan(P);
  SimResult A = runSingle(P, Plan, C, M);
  SimResult B = runSingle(P, Plan, C, M);
  EXPECT_EQ(A.ExecutionCycles, B.ExecutionCycles);
  EXPECT_EQ(A.OffChipAccesses, B.OffChipAccesses);
  EXPECT_DOUBLE_EQ(A.OffChipNetLatency.mean(), B.OffChipNetLatency.mean());
}

//===----------------------------------------------------------------------===//
// Harness helpers
//===----------------------------------------------------------------------===//

TEST(Harness, DefaultClusterGrid) {
  unsigned CX, CY;
  defaultClusterGrid(8, 8, 4, CX, CY);
  EXPECT_EQ(CX, 2u);
  EXPECT_EQ(CY, 2u);
  defaultClusterGrid(8, 8, 8, CX, CY);
  EXPECT_EQ(CX * CY, 8u);
  EXPECT_EQ(8 % CX, 0u);
  EXPECT_EQ(8 % CY, 0u);
  defaultClusterGrid(4, 8, 4, CX, CY);
  EXPECT_EQ(CX * CY, 4u);
}

TEST(Harness, SavingsAndSummary) {
  EXPECT_DOUBLE_EQ(savings(100, 80), 0.2);
  EXPECT_DOUBLE_EQ(savings(0, 80), 0.0);
  SimResult A, B;
  A.ExecutionCycles = 1000;
  B.ExecutionCycles = 800;
  A.OnChipNetLatency.addSample(100);
  B.OnChipNetLatency.addSample(50);
  A.OffChipNetLatency.addSample(200);
  B.OffChipNetLatency.addSample(100);
  A.MemLatency.addSample(80);
  B.MemLatency.addSample(60);
  SavingsSummary S = summarizeSavings(A, B);
  EXPECT_DOUBLE_EQ(S.ExecutionTime, 0.2);
  EXPECT_DOUBLE_EQ(S.OnChipNetLatency, 0.5);
  EXPECT_DOUBLE_EQ(S.OffChipNetLatency, 0.5);
  EXPECT_DOUBLE_EQ(S.MemLatency, 0.25);
}
