//===- bench/micro_components.cpp - component microbenchmarks -------------===//
///
/// google-benchmark timings of the pieces the experiments lean on: the
/// Data-to-Core solve, full layout-pass runs, customized-layout address
/// computation (the source of the ~4% overhead of Section 6.1) next to the
/// access stream's cursor step, boundary recompute and 64-thread drain, the
/// event loop's tournament-tree step, XY-routed message injection and the
/// link calendar under it, cache probes and fills (alone and at the scaled
/// L1/L2 geometry over 64 caches), DRAM bank service, and the service's
/// JSON codec: writing an Optimize and a Simulate answer and parsing a
/// request, and whole Optimize misses for the five gather apps.
///
//===----------------------------------------------------------------------===//

#include "api/ContentHash.h"
#include "api/Execute.h"
#include "api/Serialize.h"
#include "cache/Cache.h"
#include "cache/Directory.h"
#include "core/LayoutTransformer.h"
#include "dram/MemoryController.h"
#include "harness/Experiment.h"
#include "noc/Network.h"
#include "sim/AddressMap.h"
#include "sim/ThreadStream.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/TournamentTree.h"
#include "workloads/AppModel.h"

#include <benchmark/benchmark.h>

using namespace offchip;

namespace {

MachineConfig benchConfig() { return MachineConfig::scaledDefault(); }

void BM_DataToCoreSolve(benchmark::State &State) {
  AppModel App = buildApp("swim", 0.25);
  std::vector<WeightedAccess> Accesses;
  for (const LoopNest &Nest : App.Program.nests())
    for (const AffineRef &Ref : Nest.refs())
      Accesses.push_back(
          {Ref.accessMatrix(), Nest.partitionDim(), Nest.dynamicWeight(),
           Ref.offset()});
  for (auto _ : State) {
    DataToCoreResult R = solveDataToCore(2, Accesses);
    benchmark::DoNotOptimize(R.Found);
  }
}
BENCHMARK(BM_DataToCoreSolve);

void BM_LayoutPassWholeProgram(benchmark::State &State) {
  MachineConfig C = benchConfig();
  ClusterMapping Mapping = makeM1Mapping(C);
  AppModel App = buildApp("mgrid", 0.25);
  LayoutTransformer Pass(Mapping, C.layoutOptions());
  for (auto _ : State) {
    LayoutPlan Plan = Pass.run(App.Program);
    benchmark::DoNotOptimize(Plan.PerArray.size());
  }
}
BENCHMARK(BM_LayoutPassWholeProgram);

void BM_PrivateLayoutAddressCompute(benchmark::State &State) {
  MachineConfig C = benchConfig();
  ClusterMapping Mapping = makeM1Mapping(C);
  ArrayDecl Decl{"a", {512, 512}, 8};
  PrivateL2Layout Layout(Decl, IntMatrix::identity(2), Mapping,
                         C.L2LineBytes / 8);
  IntVector V{0, 0};
  std::int64_t I = 0;
  for (auto _ : State) {
    V[0] = I % 512;
    V[1] = (I * 7) % 512;
    ++I;
    benchmark::DoNotOptimize(Layout.elementOffset(V));
  }
}
BENCHMARK(BM_PrivateLayoutAddressCompute);

void BM_RowMajorAddressCompute(benchmark::State &State) {
  ArrayDecl Decl{"a", {512, 512}, 8};
  RowMajorLayout Layout(Decl);
  IntVector V{0, 0};
  std::int64_t I = 0;
  for (auto _ : State) {
    V[0] = I % 512;
    V[1] = (I * 7) % 512;
    ++I;
    benchmark::DoNotOptimize(Layout.elementOffset(V));
  }
}
BENCHMARK(BM_RowMajorAddressCompute);

/// A cursor recompute: the offset of a box point plus its affine run, what
/// the stream pays at a block or run boundary.
void BM_PrivateLayoutRunRecompute(benchmark::State &State) {
  MachineConfig C = benchConfig();
  ClusterMapping Mapping = makeM1Mapping(C);
  ArrayDecl Decl{"a", {512, 512}, 8};
  PrivateL2Layout Layout(Decl, IntMatrix::identity(2), Mapping,
                         C.L2LineBytes / 8);
  IntVector T{0, 0};
  const IntVector Step{0, 1};
  std::int64_t I = 0;
  for (auto _ : State) {
    T[0] = I % 512;
    T[1] = (I * 7) % 512;
    ++I;
    benchmark::DoNotOptimize(Layout.offsetInBox(T));
    benchmark::DoNotOptimize(Layout.runAlong(T, Step).Steps);
  }
}
BENCHMARK(BM_PrivateLayoutRunRecompute);

/// One access of an optimized stream (swim, page interleaving): mostly a
/// cursor step, with the occasional boundary recompute the layout's runs
/// call for. Compare with BM_PrivateLayoutAddressCompute, the per-access
/// cost before the cursors.
void BM_CursorStepOptimizedStream(benchmark::State &State) {
  MachineConfig C = benchConfig();
  C.Granularity = InterleaveGranularity::Page;
  ClusterMapping Mapping = makeM1Mapping(C);
  AppModel App = buildApp("swim", 0.25);
  LayoutPlan Plan = LayoutTransformer(Mapping, C.layoutOptions())
                        .run(App.Program);
  VmConfig VC;
  VC.PageBytes = C.PageBytes;
  VC.NumMCs = C.NumMCs;
  VC.BytesPerMC = C.BytesPerMC;
  VirtualMemory VM(VC, C.PagePolicy);
  AddressMap Map(App.Program, Plan, VM, C);
  auto Stream = std::make_unique<ThreadStream>(Map, 0, C.numNodes());
  AccessRequest R;
  for (auto _ : State) {
    if (!Stream->next(R)) {
      State.PauseTiming();
      Stream = std::make_unique<ThreadStream>(Map, 0, C.numNodes());
      State.ResumeTiming();
      Stream->next(R);
    }
    benchmark::DoNotOptimize(R.VA);
  }
}
BENCHMARK(BM_CursorStepOptimizedStream);

/// One next() of the simulator's stream mix: wupwise's optimized plan at
/// scale 0.25, all 64 threads' streams drained round-robin as the event
/// loop interleaves them, so each call may land on a drained buffer.
void BM_ThreadStreamDrain(benchmark::State &State) {
  MachineConfig C = benchConfig();
  C.Granularity = InterleaveGranularity::Page;
  ClusterMapping Mapping = makeM1Mapping(C);
  AppModel App = buildApp("wupwise", 0.25);
  LayoutPlan Plan = LayoutTransformer(Mapping, C.layoutOptions())
                        .run(App.Program);
  VmConfig VC;
  VC.PageBytes = C.PageBytes;
  VC.NumMCs = C.NumMCs;
  VC.BytesPerMC = C.BytesPerMC;
  VirtualMemory VM(VC, C.PagePolicy);
  AddressMap Map(App.Program, Plan, VM, C);
  const unsigned Threads = C.numNodes();
  std::vector<std::unique_ptr<ThreadStream>> Streams;
  for (unsigned T = 0; T < Threads; ++T)
    Streams.push_back(std::make_unique<ThreadStream>(Map, T, Threads));
  AccessRequest R;
  unsigned T = 0;
  for (auto _ : State) {
    if (!Streams[T]->next(R)) {
      State.PauseTiming();
      Streams[T] = std::make_unique<ThreadStream>(Map, T, Threads);
      State.ResumeTiming();
      Streams[T]->next(R);
    }
    benchmark::DoNotOptimize(R.VA);
    T = T + 1 == Threads ? 0 : T + 1;
  }
}
BENCHMARK(BM_ThreadStreamDrain);

/// The event loop's per-access queue step: pop the earliest of 64 threads'
/// packed keys and reschedule the same thread a jittered gap later.
void BM_TournamentTreeReplaceTop(benchmark::State &State) {
  const unsigned Threads = 64, Shift = 6;
  TournamentTree Tree(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Tree.set(T, (static_cast<std::uint64_t>(T) * 389 % 1024) << Shift | T);
  SplitMix64 Jitter(1);
  for (auto _ : State) {
    std::uint64_t Top = Tree.top();
    unsigned T = static_cast<unsigned>(Top & (Threads - 1));
    std::uint64_t Next = (Top >> Shift) + 20 + (Jitter.next() & 63);
    Tree.set(T, Next << Shift | T);
    benchmark::DoNotOptimize(Top);
  }
}
BENCHMARK(BM_TournamentTreeReplaceTop);

/// One link's calendar under the mix the simulator sees: mostly requests
/// queueing at the back (inline appends and back-merges), with one in four
/// a response booked into the future, whose gaps later messages fill (the
/// out-of-line insert path), at about 60% link load.
void BM_LinkCalendarReserveMixed(benchmark::State &State) {
  Network::LinkState Link;
  SplitMix64 Rng(5);
  std::uint64_t Floor = 0;
  for (auto _ : State) {
    std::uint64_t R = Rng.next();
    Floor += R & 31;
    std::uint64_t From = Floor + ((R >> 8 & 3) == 0 ? (R >> 16 & 511) : 0);
    benchmark::DoNotOptimize(Link.reserve(From, 16, Floor));
  }
}
BENCHMARK(BM_LinkCalendarReserveMixed);

void BM_NetworkSend(benchmark::State &State) {
  Mesh M(8, 8);
  Network Net(M, NocConfig());
  std::uint64_t T = 0;
  unsigned Src = 0;
  for (auto _ : State) {
    // The engine raises the floor to each access's time; without it no
    // calendar is ever pruned and every link's list grows for the whole run.
    Net.advanceFloor(T);
    MessageResult R = Net.send(Src, 63 - Src, 256, T);
    T = R.ArrivalTime;
    Src = (Src + 1) % 64;
    benchmark::DoNotOptimize(R.ArrivalTime);
  }
}
BENCHMARK(BM_NetworkSend);

void BM_CacheAccess(benchmark::State &State) {
  MachineConfig C = benchConfig();
  Cache L2(C.L2SizeBytes, C.L2LineBytes, C.L2Ways);
  std::uint64_t A = 0;
  for (auto _ : State) {
    std::uint64_t Line = L2.lineOf(A);
    bool Hit = L2.access(Line, false);
    if (!Hit)
      L2.insert(Line, false);
    A += C.L2LineBytes * 3; // revisits sets; mix of hits and misses
    benchmark::DoNotOptimize(Hit);
  }
}
BENCHMARK(BM_CacheAccess);

/// A miss fill into a full 16-way set: the residency probe over every tag,
/// then the LRU victim scan, then the eviction.
void BM_CacheInsertFullSet(benchmark::State &State) {
  const unsigned Ways = 16;
  Cache Set(Ways * 64, 64, Ways); // one set
  std::uint64_t Line = 0;
  for (; Line < Ways; ++Line)
    Set.insert(Line, false);
  for (auto _ : State) {
    Cache::Eviction Ev = Set.insert(Line++, false);
    benchmark::DoNotOptimize(Ev.LineAddr);
  }
}
BENCHMARK(BM_CacheInsertFullSet);

/// A probe, and a fill on a miss, at the scaled machine's geometry: the L1
/// (4 sets x 8 ways, one probe chunk) or the L2 (4 x 16, two chunks). The
/// lines rotate over 64 caches, one per node, so the footprint is the
/// simulator's; each cache's lines come from twice its capacity, a mix of
/// hits and misses.
void BM_CacheProbe(benchmark::State &State) {
  MachineConfig C = benchConfig();
  const bool L2 = State.range(0) != 0;
  const std::uint64_t Size = L2 ? C.L2SizeBytes : C.L1SizeBytes;
  const unsigned LineBytes = L2 ? C.L2LineBytes : C.L1LineBytes;
  const unsigned Ways = L2 ? C.L2Ways : C.L1Ways;
  const unsigned NumCaches = 64;
  std::vector<Cache> Caches(NumCaches, Cache(Size, LineBytes, Ways));
  SplitMix64 Rng(11);
  std::vector<std::uint64_t> Lines(1 << 14);
  for (std::uint64_t &L : Lines)
    L = Rng.nextBelow(2 * Size / LineBytes);
  std::size_t I = 0;
  for (auto _ : State) {
    Cache &K = Caches[I % NumCaches];
    std::uint64_t Line = Lines[I % Lines.size()];
    bool Hit = K.access(Line, false);
    if (!Hit)
      K.insert(Line, false);
    ++I;
    benchmark::DoNotOptimize(Hit);
  }
  State.SetLabel(formatString("%s %ux%u", L2 ? "L2" : "L1",
                              static_cast<unsigned>(Size / LineBytes / Ways),
                              Ways));
}
BENCHMARK(BM_CacheProbe)->Arg(0)->Arg(1);

void BM_DirectoryFindSharer(benchmark::State &State) {
  Directory Dir(64);
  const std::uint64_t NumLines = 1 << 15;
  for (std::uint64_t L = 0; L < NumLines; ++L)
    Dir.addSharer(L * 7919, static_cast<unsigned>(L % 64));
  std::uint64_t L = 0;
  for (auto _ : State) {
    // Alternate present and absent lines: both probe paths matter.
    benchmark::DoNotOptimize(Dir.findSharer(L * 7919 + (L & 1)));
    L = (L + 1) % NumLines;
  }
}
BENCHMARK(BM_DirectoryFindSharer);

void BM_AddressMapVaOf(benchmark::State &State) {
  MachineConfig C = benchConfig();
  AppModel App = buildApp("swim", 0.25);
  LayoutPlan Plan = LayoutTransformer::originalPlan(App.Program);
  VmConfig VC;
  VC.PageBytes = C.PageBytes;
  VC.NumMCs = C.NumMCs;
  VC.BytesPerMC = C.BytesPerMC;
  VirtualMemory VM(VC, C.PagePolicy);
  AddressMap Map(App.Program, Plan, VM, C);
  const ArrayDecl &Decl = App.Program.array(0);
  IntVector V(Decl.rank(), 0);
  std::int64_t I = 0;
  for (auto _ : State) {
    for (unsigned D = 0; D < Decl.rank(); ++D)
      V[D] = (I * (7 + D)) % Decl.Dims[D];
    ++I;
    benchmark::DoNotOptimize(Map.vaOf(0, V));
  }
}
BENCHMARK(BM_AddressMapVaOf);

void BM_DramAccess(benchmark::State &State) {
  MemoryController MC(0, DramConfig());
  std::uint64_t T = 0;
  std::uint64_t A = 0;
  for (auto _ : State) {
    DramAccessResult R = MC.access(A, T);
    T = R.CompleteTime;
    A += 4096 * 3; // mix of row hits and conflicts
    benchmark::DoNotOptimize(R.CompleteTime);
  }
}
BENCHMARK(BM_DramAccess);

/// The machine offchip-serve's benchmark traffic names: the scaled default
/// at page interleaving.
MachineConfig serveConfig() {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Granularity = InterleaveGranularity::Page;
  return C;
}

SimRequest optimizeSwim() {
  SimRequest R;
  R.Id = "c0-1";
  R.Kind = RequestKind::Optimize;
  R.Config = serveConfig();
  R.Workload.App = "swim";
  R.Workload.SizeScale = 0.5;
  return R;
}

/// \p R's answer as the daemon sends it for a cache hit.
SimResponse answerAsHit(const SimRequest &R) {
  SimResponse Resp = executeRequest(R, /*Jobs=*/1);
  Resp.Id = R.Id;
  Resp.CacheHit = true;
  Resp.Key = requestKey(R).str();
  return Resp;
}

void writeAnswer(benchmark::State &State, const SimResponse &Resp) {
  std::size_t Bytes = 0;
  for (auto _ : State) {
    std::string Line = writeResponseLine(Resp);
    Bytes = Line.size();
    benchmark::DoNotOptimize(Line.data());
    benchmark::ClobberMemory();
  }
  State.counters["bytes"] = static_cast<double>(Bytes);
}

void BM_WritePlanAnswer(benchmark::State &State) {
  writeAnswer(State, answerAsHit(optimizeSwim()));
}
BENCHMARK(BM_WritePlanAnswer);

void BM_WriteSimulateAnswer(benchmark::State &State) {
  SimRequest R;
  R.Id = "c0-2";
  R.Kind = RequestKind::Simulate;
  R.Config = serveConfig();
  R.Workload.ProgramText = R"(
program tinylet
array a dims 64 64 elem 8

nest sweep bounds 0:64 1:63 parallel 0
  read  a [ i1-1, i0 ]
  write a [ i1, i0 ]
end
)";
  writeAnswer(State, answerAsHit(R));
}
BENCHMARK(BM_WriteSimulateAnswer);

void BM_ParseRequest(benchmark::State &State) {
  const std::string Line = writeRequestLine(optimizeSwim());
  for (auto _ : State) {
    std::string Err;
    SimRequest R;
    std::optional<JsonValue> V = parseJson(Line, &Err);
    bool Ok = V && requestFromJson(*V, &R, &Err);
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(R.Config.MeshX);
  }
  State.counters["bytes"] = static_cast<double>(Line.size());
}
BENCHMARK(BM_ParseRequest);

/// An Optimize miss for one of the five gather apps, served in-process with
/// one job: build, layout pass (its Section 5.4 profiles) and plan summary.
/// The profile is O(samples) and index arrays are descriptors, so the time
/// should stay flat from scale 1 to 4.
void BM_OptimizeGatherApp(benchmark::State &State) {
  static const char *const Apps[] = {"gafort", "fma3d", "ammp", "hpccg",
                                     "minimd"};
  SimRequest R;
  R.Kind = RequestKind::Optimize;
  R.Workload.App = Apps[State.range(0)];
  R.Workload.SizeScale = static_cast<double>(State.range(1));
  for (auto _ : State) {
    SimResponse Resp = executeRequest(R, /*Jobs=*/1);
    benchmark::DoNotOptimize(Resp.Plan.RefsSatisfiedFraction);
  }
  State.SetLabel(R.Workload.App + formatString("@%g", R.Workload.SizeScale));
}
BENCHMARK(BM_OptimizeGatherApp)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

} // namespace
