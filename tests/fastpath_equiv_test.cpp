//===- tests/fastpath_equiv_test.cpp --------------------------------------===//
///
/// The fast paths this simulator leans on — shift/mask address decode and
/// the reciprocal remainder (support/Pow2.h), the open-addressing directory
/// map (support/FlatMap.h), and the strength-reduced access stream
/// (sim/ThreadStream.cpp) — must be
/// exactly equivalent to the generic implementations they replaced. Each
/// test here confronts a fast path with an independent slow-path model and
/// demands bit-identical answers, including the configurations that defeat
/// the fast path (non-power-of-two geometry, transformed layouts, indexed
/// references). The stream's address cursors step a reference's VA by a
/// constant delta between the block and run boundaries of its layout, so
/// the stream cases cover every layout kind at both interleave
/// granularities, plus count gates pinning how often the cursors must
/// fall back to a full recompute and how often the NoC link calendar
/// leaves its inline fast path.
///
//===----------------------------------------------------------------------===//

#include "affine/ProgramText.h"
#include "cache/Cache.h"
#include "harness/Experiment.h"
#include "sim/Engine.h"
#include "sim/Metrics.h"
#include "sim/ThreadStream.h"
#include "support/FlatMap.h"
#include "support/Pow2.h"
#include "support/Random.h"
#include "workloads/AppModel.h"

#include "TestOracles.h"

#include <gtest/gtest.h>

#include <cassert>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

using namespace offchip;

//===----------------------------------------------------------------------===//
// Pow2Divider vs hardware div/mod
//===----------------------------------------------------------------------===//

TEST(Pow2DividerTest, MatchesHardwareDivMod) {
  const std::uint64_t Divisors[] = {1,  2,  4,   8,   64,   256,  4096,
                                    3,  5,  6,   7,   9,    12,   36,
                                    96, 1000, 4097, 1ull << 20, (1ull << 20) + 1};
  SplitMix64 Rng(42);
  std::vector<std::uint64_t> Xs;
  for (std::uint64_t X = 0; X < 1024; ++X)
    Xs.push_back(X);
  for (int I = 0; I < 1000; ++I)
    Xs.push_back(Rng.next());
  for (std::uint64_t D : Divisors) {
    Pow2Divider Div(D);
    EXPECT_EQ(Div.divisor(), D);
    Xs.push_back(D - 1);
    Xs.push_back(D);
    Xs.push_back(D + 1);
    Xs.push_back(D * 12345);
    for (std::uint64_t X : Xs) {
      ASSERT_EQ(Div.div(X), X / D) << "X=" << X << " D=" << D;
      ASSERT_EQ(Div.mod(X), X % D) << "X=" << X << " D=" << D;
    }
  }
}

TEST(Pow2DividerTest, ReciprocalModIsExact) {
  // The generic mod is a 128-bit reciprocal product, not a divide. Check it
  // against % for every divisor up to 2^16 (power-of-two divisors forced
  // down the same path) on the numerators where a rounding error in the
  // reciprocal would show first: 0, 2^64 - 1, and multiples of the divisor
  // plus and minus one, up to the largest multiple below 2^64.
  const std::uint64_t Max = ~0ull;
  struct ForceGeneric {
    ForceGeneric() { Pow2Divider::setForceGenericDivision(true); }
    ~ForceGeneric() { Pow2Divider::setForceGenericDivision(false); }
  } Guard;
  for (std::uint64_t D = 1; D <= (1ull << 16); ++D) {
    Pow2Divider Div(D);
    std::uint64_t Top = Max / D; // largest multiplier k with k * D <= Max
    const std::uint64_t Ks[] = {1, 2, 3, 1000, 1ull << 32, Top / 2,
                                Top - 1, Top};
    auto Check = [&](std::uint64_t X) {
      ASSERT_EQ(Div.mod(X), X % D) << "X=" << X << " D=" << D;
    };
    Check(0);
    Check(Max);
    for (std::uint64_t K : Ks) {
      if (K == 0 || K > Top)
        continue;
      Check(K * D - 1);
      Check(K * D);
      if (K * D != Max)
        Check(K * D + 1);
    }
    if (HasFatalFailure())
      return;
  }
}

TEST(Pow2DividerTest, DefaultIsDivisorOne) {
  Pow2Divider Div;
  EXPECT_EQ(Div.divisor(), 1u);
  EXPECT_EQ(Div.div(12345), 12345u);
  EXPECT_EQ(Div.mod(12345), 0u);
}

TEST(Pow2DividerTest, ForceGenericDivisionStillCorrect) {
  // The fuzzer's fast-vs-slow leg relies on this switch: dividers built
  // while it is set must take the generic path even for power-of-two
  // divisors, and still agree with hardware div/mod everywhere.
  Pow2Divider::setForceGenericDivision(true);
  Pow2Divider Forced(256);
  Pow2Divider::setForceGenericDivision(false);
  Pow2Divider Fast(256);
  SplitMix64 Rng(9);
  for (int I = 0; I < 10000; ++I) {
    std::uint64_t X = Rng.next();
    ASSERT_EQ(Forced.div(X), X / 256);
    ASSERT_EQ(Forced.mod(X), X % 256);
    ASSERT_EQ(Forced.div(X), Fast.div(X));
    ASSERT_EQ(Forced.mod(X), Fast.mod(X));
  }
}

TEST(Pow2DividerTest, WholeSimulationMatchesGenericDivision) {
  // End to end: a full run of the scaled machine with every shift/mask
  // decode replaced by hardware div/mod must reproduce the fast build's
  // results bit for bit. Power-of-two geometry everywhere makes this the
  // maximally-divergent comparison (every divider switches paths).
  AppModel App = buildApp("swim", 0.25);
  LayoutPlan Plan = LayoutTransformer::originalPlan(App.Program);
  MachineConfig Config = MachineConfig::scaledDefault();
  ClusterMapping Mapping = makeM1Mapping(Config);

  SimResult Fast = runSingle(App.Program, Plan, Config, Mapping);
  Pow2Divider::setForceGenericDivision(true);
  SimResult Slow = runSingle(App.Program, Plan, Config, Mapping);
  Pow2Divider::setForceGenericDivision(false);

  std::string Why;
  EXPECT_TRUE(equalResults(Fast, Slow, &Why)) << "diverged on " << Why;
}

//===----------------------------------------------------------------------===//
// FlatMap64 vs std::unordered_map
//===----------------------------------------------------------------------===//

TEST(FlatMap64Test, MatchesUnorderedMapModel) {
  FlatMap64 Map;
  std::unordered_map<std::uint64_t, std::uint64_t> Model;
  SplitMix64 Rng(7);

  auto CheckAgainstModel = [&] {
    ASSERT_EQ(Map.size(), Model.size());
    for (const auto &[K, V] : Model) {
      const std::uint64_t *Found = Map.find(K);
      ASSERT_NE(Found, nullptr) << "missing key " << K;
      ASSERT_EQ(*Found, V) << "wrong value for key " << K;
    }
    std::size_t Visited = 0;
    Map.forEach([&](std::uint64_t K, std::uint64_t V) {
      auto It = Model.find(K);
      ASSERT_NE(It, Model.end()) << "phantom key " << K;
      ASSERT_EQ(It->second, V);
      ++Visited;
    });
    ASSERT_EQ(Visited, Model.size());
  };

  // A small key universe forces many insert-erase-reinsert collisions (the
  // backward-shift deletion path); occasional huge keys exercise hashing of
  // sparse line addresses.
  for (int Op = 0; Op < 200000; ++Op) {
    std::uint64_t Key = (Op % 17 == 0) ? Rng.next() : Rng.nextBelow(700);
    switch (Rng.nextBelow(4)) {
    case 0:
    case 1: { // insert / update (directory addSharer idiom)
      std::uint64_t Bit = 1ull << Rng.nextBelow(64);
      Map.refOrInsert(Key) |= Bit;
      Model[Key] |= Bit;
      break;
    }
    case 2: { // erase
      Map.erase(Key);
      Model.erase(Key);
      break;
    }
    case 3: { // lookup
      const std::uint64_t *Found = Map.find(Key);
      auto It = Model.find(Key);
      ASSERT_EQ(Found != nullptr, It != Model.end());
      if (Found) {
        ASSERT_EQ(*Found, It->second);
      }
      break;
    }
    }
    if (Op % 20000 == 0)
      CheckAgainstModel();
  }
  CheckAgainstModel();

  Map.clear();
  EXPECT_EQ(Map.size(), 0u);
  EXPECT_TRUE(Map.empty());
  EXPECT_EQ(Map.find(1), nullptr);
}

TEST(FlatMap64Test, ReserveKeepsContents) {
  FlatMap64 Map;
  for (std::uint64_t K = 0; K < 100; ++K)
    Map.refOrInsert(K * 3) = K;
  Map.reserve(1 << 12);
  ASSERT_EQ(Map.size(), 100u);
  for (std::uint64_t K = 0; K < 100; ++K) {
    const std::uint64_t *V = Map.find(K * 3);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, K);
  }
}

TEST(FlatMap64Test, EraseReusesSlotsWithoutGrowth) {
  // Backward-shift deletion leaves no tombstones, so churning the same keys
  // forever must never trigger a rehash: capacity stays fixed while the
  // same slots are reused.
  FlatMap64 Map;
  Map.reserve(256);
  std::size_t Cap = Map.capacity();
  for (int Round = 0; Round < 1000; ++Round) {
    for (std::uint64_t K = 0; K < 100; ++K)
      Map.refOrInsert(K + 1) = Round;
    for (std::uint64_t K = 0; K < 100; ++K)
      ASSERT_TRUE(Map.erase(K + 1));
  }
  EXPECT_EQ(Map.capacity(), Cap);
  EXPECT_TRUE(Map.empty());
}

TEST(FlatMap64Test, EraseCompactsWraparoundChains) {
  // Keys engineered to collide into one probe chain that wraps past the
  // table end; erasing from the middle must keep every survivor reachable.
  FlatMap64 Map(16);
  ASSERT_EQ(Map.capacity(), 16u);
  // Find 8 keys that all hash to the last two home slots of the table.
  std::vector<std::uint64_t> Chain;
  for (std::uint64_t K = 1; Chain.size() < 8 && K < 2000000; ++K) {
    std::size_t Home =
        static_cast<std::size_t>((K * 0x9E3779B97F4A7C15ull) >> 60);
    if (Home >= 14)
      Chain.push_back(K);
  }
  ASSERT_EQ(Chain.size(), 8u);
  for (std::uint64_t K : Chain)
    Map.refOrInsert(K) = K * 10;
  // Erase every second key, front to back, then verify the rest.
  for (std::size_t I = 0; I < Chain.size(); I += 2)
    ASSERT_TRUE(Map.erase(Chain[I]));
  for (std::size_t I = 0; I < Chain.size(); ++I) {
    const std::uint64_t *V = Map.find(Chain[I]);
    if (I % 2 == 0) {
      EXPECT_EQ(V, nullptr);
    } else {
      ASSERT_NE(V, nullptr);
      EXPECT_EQ(*V, Chain[I] * 10);
    }
  }
}

TEST(FlatMap64Test, NonPowerOfTwoReserveRoundsUp) {
  // reserve(N) must provision for N entries below the 0.7 load factor even
  // for awkward N; inserting exactly N entries then must not rehash.
  for (std::size_t N : {3u, 100u, 1000u, 4097u}) {
    FlatMap64 M;
    M.reserve(N);
    std::size_t Cap = M.capacity();
    EXPECT_TRUE((Cap & (Cap - 1)) == 0) << "capacity must stay a power of two";
    EXPECT_GT(Cap * 7, N * 10) << "reserve(" << N << ") under-provisioned";
    for (std::uint64_t K = 0; K < N; ++K)
      M.refOrInsert(K * 7 + 1) = K;
    EXPECT_EQ(M.capacity(), Cap) << "reserve(" << N << ") still rehashed";
    EXPECT_EQ(M.size(), N);
  }
}

TEST(FlatMap64Test, ForEachAfterGrowthVisitsEachEntryOnce) {
  // Start tiny, force several rehashes, interleave erases, then check
  // forEach enumerates exactly the surviving set.
  FlatMap64 Map(16);
  std::vector<bool> Alive(5000, false);
  for (std::uint64_t K = 0; K < 5000; ++K) {
    Map.refOrInsert(K + 1) = K;
    Alive[K] = true;
    if (K % 3 == 0) {
      Map.erase(K / 2 + 1);
      Alive[K / 2] = false;
    }
  }
  std::vector<unsigned> Seen(5000, 0);
  Map.forEach([&](std::uint64_t K, std::uint64_t V) {
    ASSERT_GE(K, 1u);
    ASSERT_LE(K, 5000u);
    ASSERT_EQ(V, K - 1);
    ++Seen[K - 1];
  });
  for (std::uint64_t K = 0; K < 5000; ++K)
    ASSERT_EQ(Seen[K], Alive[K] ? 1u : 0u) << "key " << K + 1;
}

//===----------------------------------------------------------------------===//
// Strength-reduced ThreadStream vs general-path reference walk
//===----------------------------------------------------------------------===//

namespace {

/// Replays the thread's chunk walk issuing every access through the general
/// path only — vaOf(evaluate(Iter)) each iteration, never a delta step.
std::vector<AccessRequest> referenceStream(const AddressMap &Map,
                                           unsigned ThreadId,
                                           unsigned NumThreads) {
  std::vector<AccessRequest> Out;
  AddressMap::FlatScratch Scratch;
  const AffineProgram &P = Map.program();
  for (const LoopNest &Nest : P.nests()) {
    for (unsigned Rep = 0; Rep < Nest.repeatCount(); ++Rep) {
      IterationChunk Chunk = chunkForThread(Nest.space(), Nest.partitionDim(),
                                            ThreadId, NumThreads);
      IterationSpace Space = Nest.space().restricted(Nest.partitionDim(),
                                                     Chunk.Begin, Chunk.End);
      if (Space.isEmpty())
        continue;
      IntVector Iter = Space.firstIteration();
      do {
        for (const AffineRef &Ref : Nest.refs()) {
          AccessRequest R;
          R.VA = Map.vaOf(Ref.arrayId(), oracle::evaluate(Ref, Iter));
          R.IsWrite = Ref.isWrite();
          R.Transformed = Map.isTransformed(Ref.arrayId());
          Out.push_back(R);
        }
        for (const IndexedRef &IRef : Nest.indexedRefs()) {
          IntVector IndexVec = oracle::evaluate(IRef.IndexAccess, Iter);
          AccessRequest RI;
          RI.VA = Map.vaOf(IRef.IndexArray, IndexVec);
          RI.IsWrite = false;
          RI.Transformed = Map.isTransformed(IRef.IndexArray);
          Out.push_back(RI);
          const IndexValues *Values = P.indexArrayValues(IRef.IndexArray);
          assert(Values && "indexed reference without index array contents");
          AccessRequest RD;
          RD.VA = Map.vaOfFlat(
              IRef.DataArray,
              Values->at(P.array(IRef.IndexArray).linearize(IndexVec)),
              Scratch);
          RD.IsWrite = IRef.IsWrite;
          RD.Transformed = Map.isTransformed(IRef.DataArray);
          Out.push_back(RD);
        }
      } while (Space.nextIteration(Iter));
    }
  }
  return Out;
}

void expectThreadMatches(const AddressMap &Map, unsigned Tid,
                         unsigned NumThreads) {
  std::vector<AccessRequest> Expected = referenceStream(Map, Tid, NumThreads);
  ThreadStream Stream(Map, Tid, NumThreads);
  AccessRequest Got;
  for (std::size_t I = 0; I < Expected.size(); ++I) {
    ASSERT_TRUE(Stream.next(Got))
        << "stream ended early at access " << I << " (thread " << Tid << ")";
    ASSERT_EQ(Got.VA, Expected[I].VA)
        << "VA diverged at access " << I << " (thread " << Tid << ")";
    ASSERT_EQ(Got.IsWrite, Expected[I].IsWrite) << "access " << I;
    ASSERT_EQ(Got.Transformed, Expected[I].Transformed) << "access " << I;
  }
  EXPECT_FALSE(Stream.next(Got)) << "stream too long (thread " << Tid << ")";
  EXPECT_EQ(Stream.generated(), Expected.size());
}

/// Checks every thread: each owns different block and run boundaries.
void expectStreamsMatch(const AddressMap &Map, unsigned NumThreads) {
  for (unsigned Tid = 0; Tid < NumThreads; ++Tid) {
    expectThreadMatches(Map, Tid, NumThreads);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

/// Builds the address map of \p Program under its optimized (or original)
/// plan. Customized layouts keep a pointer to the mapping, so it must
/// outlive the plan; it is built only for optimized plans (some configs
/// under test have no valid cluster grid).
struct MapFixture {
  std::unique_ptr<ClusterMapping> Mapping;
  LayoutPlan Plan;
  VirtualMemory VM;
  AddressMap Map;

  MapFixture(const AffineProgram &Program, const MachineConfig &Config,
             bool Optimize, LayoutOptions Options)
      : Mapping(Optimize ? std::make_unique<ClusterMapping>(
                               makeM1Mapping(Config))
                         : nullptr),
        Plan(Optimize ? LayoutTransformer(*Mapping, Options).run(Program)
                      : LayoutTransformer::originalPlan(Program)),
        VM(vmConfig(Config), Config.PagePolicy),
        Map(Program, Plan, VM, Config) {}

  MapFixture(const AffineProgram &Program, const MachineConfig &Config,
             bool Optimize)
      : MapFixture(Program, Config, Optimize, Config.layoutOptions()) {}

  static VmConfig vmConfig(const MachineConfig &C) {
    VmConfig VC;
    VC.PageBytes = C.PageBytes;
    VC.NumMCs = C.NumMCs;
    VC.BytesPerMC = C.BytesPerMC;
    return VC;
  }

  /// True when at least one array got a customized layout.
  bool anyTransformed() const {
    for (ArrayId Id = 0; Id < Map.program().numArrays(); ++Id)
      if (Map.isTransformed(Id))
        return true;
    return false;
  }
};

/// An application model at scale 0.25; a base of StreamFixture so it is
/// built before the address map that points into it.
struct AppHolder {
  AppModel App;
};

struct StreamFixture : AppHolder, MapFixture {
  StreamFixture(const std::string &Name, const MachineConfig &Config,
                bool Optimize)
      : AppHolder{buildApp(Name, 0.25)},
        MapFixture(App.Program, Config, Optimize) {}
  StreamFixture(const std::string &Name, const MachineConfig &Config,
                LayoutOptions Options)
      : AppHolder{buildApp(Name, 0.25)},
        MapFixture(App.Program, Config, true, Options) {}
};

MachineConfig pageConfig() {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Granularity = InterleaveGranularity::Page;
  return C;
}

} // namespace

TEST(ThreadStreamEquivTest, RegularAppOriginalLayout) {
  StreamFixture F("swim", MachineConfig::scaledDefault(), /*Optimize=*/false);
  expectStreamsMatch(F.Map, 8);
}

TEST(ThreadStreamEquivTest, TransformedLayoutApp) {
  // Customized layouts step by a delta only between block and run
  // boundaries; every thread crosses different ones.
  StreamFixture F("swim", MachineConfig::scaledDefault(), /*Optimize=*/true);
  ASSERT_TRUE(F.anyTransformed());
  expectStreamsMatch(F.Map, 64);
}

TEST(ThreadStreamEquivTest, IndexedApp) {
  // gafort's indexed references interleave index-array reads with dependent
  // data accesses between the affine fast-path slots.
  StreamFixture F("gafort", MachineConfig::scaledDefault(),
                  /*Optimize=*/false);
  expectStreamsMatch(F.Map, 8);
}

TEST(ThreadStreamEquivTest, NonPowerOfTwoConfig) {
  // Three MCs defeat every shift/mask decode in the VM and address-map base
  // alignment; the stream must be unchanged relative to its own reference.
  MachineConfig C = MachineConfig::scaledDefault();
  C.NumMCs = 3;
  StreamFixture F("swim", C, /*Optimize=*/false);
  expectStreamsMatch(F.Map, 8);
}

TEST(ThreadStreamEquivTest, SharedL2DeltaSkipOnAndOff) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.SharedL2 = true;
  for (bool Skip : {true, false}) {
    LayoutOptions O = C.layoutOptions();
    O.EnableDeltaSkip = Skip;
    StreamFixture F("swim", C, O);
    ASSERT_TRUE(F.anyTransformed());
    expectStreamsMatch(F.Map, 64);
  }
}

TEST(ThreadStreamEquivTest, ThreeMCsOptimized) {
  // Three MCs need a mesh dimension divisible by three for the cluster
  // grid and an explicit placement (the generated ones want even counts);
  // 6x8 also makes the mesh non-square.
  MachineConfig C = pageConfig();
  C.NumMCs = 3;
  C.MeshX = 6;
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {1, 45, 4};
  for (const ConfigDiagnostic &D : C.validate())
    ADD_FAILURE() << D.str();
  StreamFixture F("swim", C, /*Optimize=*/true);
  ASSERT_TRUE(F.anyTransformed());
  expectStreamsMatch(F.Map, C.numNodes());
}

TEST(ThreadStreamEquivTest, NegativeInnermostCoefficient) {
  // Reversed walks step T backwards: the cursors' runs end at the low
  // edge of a block or run instead of the high one.
  const char *Text = R"(program reverse
array a dims 96 96 elem 8
array b dims 96 96 elem 8
array x dims 9216 elem 8
array idx dims 96 96 elem 8
index idx nearby 64 7 for x
nest flip bounds 0:96 0:96 parallel 0
  read a [ i0, 95-i1 ]
  read b [ i0, -i1+95 ]
  write b [ i0, i1 ]
  gather-read x via idx [ i0, 95-i1 ]
end
nest transpose bounds 0:96 0:96 parallel 1
  read a [ 95-i1, i0 ]
  write b [ i1, i0 ]
end
)";
  std::string Err;
  std::optional<AffineProgram> P = parseProgramText(Text, &Err);
  ASSERT_TRUE(P) << Err;
  for (InterleaveGranularity G :
       {InterleaveGranularity::CacheLine, InterleaveGranularity::Page}) {
    MachineConfig C = MachineConfig::scaledDefault();
    C.Granularity = G;
    MapFixture F(*P, C, /*Optimize=*/true);
    ASSERT_TRUE(F.anyTransformed());
    expectStreamsMatch(F.Map, C.numNodes());
  }
}

namespace {

/// One drained stream: its accesses and its final counters.
struct Drained {
  std::vector<AccessRequest> Seq;
  std::uint64_t Generated = 0;
  std::uint64_t Recomputes = 0;
};

/// Drains thread \p Tid one program-walk step per access: a peekSpan(1) on
/// the drained buffer generates exactly one access, which next() then
/// pops, so the buffer never refills a block ahead.
Drained drainOneAtATime(const AddressMap &Map, unsigned Tid,
                        unsigned NumThreads) {
  Drained Out;
  ThreadStream S(Map, Tid, NumThreads);
  AccessRequest R;
  std::size_t Avail = 0;
  while (true) {
    S.peekSpan(1, &Avail);
    EXPECT_LE(Avail, 1u);
    if (!S.next(R))
      break;
    Out.Seq.push_back(R);
  }
  EXPECT_EQ(Avail, 0u);
  Out.Generated = S.generated();
  Out.Recomputes = S.recomputes();
  return Out;
}

/// Drains thread \p Tid through next()'s block refill, peeking a \p Window
/// after every access as the burst coalescer does (0: no peeks). Each
/// window must hold the next accesses of \p Ref, as many as remain up to
/// \p Window.
Drained drainWithPeeks(const AddressMap &Map, unsigned Tid,
                       unsigned NumThreads, std::size_t Window,
                       const std::vector<AccessRequest> &Ref) {
  Drained Out;
  ThreadStream S(Map, Tid, NumThreads);
  AccessRequest R;
  while (S.next(R)) {
    Out.Seq.push_back(R);
    if (Window == 0)
      continue;
    std::size_t Avail = 0;
    const AccessRequest *W = S.peekSpan(Window, &Avail);
    std::size_t Pos = Out.Seq.size();
    std::size_t Left = Ref.size() > Pos ? Ref.size() - Pos : 0;
    EXPECT_EQ(Avail >= Window ? Window : Avail, std::min(Window, Left))
        << "window " << Window << " at access " << Pos;
    if (Avail != 0 && Left != 0) {
      EXPECT_EQ(W[0].VA, Ref[Pos].VA) << "window " << Window << " at " << Pos;
      std::size_t Last = std::min(Avail, Left) - 1;
      EXPECT_EQ(W[Last].VA, Ref[Pos + Last].VA)
          << "window " << Window << " at " << Pos;
    }
    if (::testing::Test::HasFailure())
      break;
  }
  Out.Generated = S.generated();
  Out.Recomputes = S.recomputes();
  return Out;
}

} // namespace

TEST(ThreadStream, BlockRefillMatchesOneAtATime) {
  // next() generates a block of accesses whenever its buffer drains, and
  // the burst coalescer's peeks share that buffer. Neither may change the
  // stream: the same (VA, IsWrite, Transformed) sequence and the same final
  // generated() and recomputes() as a one-step-per-access drain, on an
  // optimized affine app and on a gather app, for every thread.
  MachineConfig C = pageConfig();
  for (const char *App : {"swim", "hpccg"}) {
    StreamFixture F(App, C, /*Optimize=*/true);
    for (unsigned Tid = 0; Tid < C.numNodes(); ++Tid) {
      Drained Ref = drainOneAtATime(F.Map, Tid, C.numNodes());
      for (std::size_t Window : {0, 1, 31, 32, 33, 256}) {
        Drained Got = drainWithPeeks(F.Map, Tid, C.numNodes(), Window,
                                     Ref.Seq);
        ASSERT_EQ(Got.Seq.size(), Ref.Seq.size())
            << App << " thread " << Tid << " window " << Window;
        for (std::size_t I = 0; I < Ref.Seq.size(); ++I) {
          ASSERT_EQ(Got.Seq[I].VA, Ref.Seq[I].VA) << App << " " << I;
          ASSERT_EQ(Got.Seq[I].IsWrite, Ref.Seq[I].IsWrite) << App << " " << I;
          ASSERT_EQ(Got.Seq[I].Transformed, Ref.Seq[I].Transformed)
              << App << " " << I;
        }
        EXPECT_EQ(Got.Generated, Ref.Generated) << App << " " << Window;
        EXPECT_EQ(Got.Recomputes, Ref.Recomputes) << App << " " << Window;
        if (::testing::Test::HasFailure())
          return;
      }
    }
  }
}

/// Every application, optimized, at one interleave granularity.
class AllAppsStreamEquiv
    : public ::testing::TestWithParam<
          std::tuple<std::string, InterleaveGranularity>> {};

TEST_P(AllAppsStreamEquiv, OptimizedMatchesReference) {
  auto [Name, Granularity] = GetParam();
  MachineConfig C = MachineConfig::scaledDefault();
  C.Granularity = Granularity;
  StreamFixture F(Name, C, /*Optimize=*/true);
  expectStreamsMatch(F.Map, C.numNodes());
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AllAppsStreamEquiv,
    ::testing::Combine(::testing::ValuesIn(appNames()),
                       ::testing::Values(InterleaveGranularity::CacheLine,
                                         InterleaveGranularity::Page)),
    [](const auto &Info) {
      return std::get<0>(Info.param) +
             (std::get<1>(Info.param) == InterleaveGranularity::Page
                  ? "_page"
                  : "_line");
    });

//===----------------------------------------------------------------------===//
// Cursor recompute counts
//===----------------------------------------------------------------------===//

namespace {

struct StreamCounts {
  std::uint64_t Recomputes = 0;
  std::uint64_t Accesses = 0;
};

StreamCounts drainAllThreads(const AddressMap &Map, unsigned NumThreads) {
  StreamCounts Out;
  AccessRequest R;
  for (unsigned Tid = 0; Tid < NumThreads; ++Tid) {
    ThreadStream S(Map, Tid, NumThreads);
    while (S.next(R))
      ;
    Out.Recomputes += S.recomputes();
    Out.Accesses += S.generated();
  }
  return Out;
}

/// Accesses issued through a cursor: every affine reference and every
/// indexed reference's index-array read, per iteration.
std::uint64_t affineAccesses(const AffineProgram &P) {
  std::uint64_t N = 0;
  for (const LoopNest &Nest : P.nests())
    N += (Nest.refs().size() + Nest.indexedRefs().size()) *
         Nest.space().tripCount() * Nest.repeatCount();
  return N;
}

} // namespace

TEST(ThreadStreamCountTest, RecomputesArePinned) {
  // Recomputes are deterministic: any per-access general-path work coming
  // back moves these exact numbers even where wall-clock is too noisy to
  // gate. A cursor recomputes at every outer-loop step and nest start by
  // design, and at every block or run boundary its reference crosses, so
  // the floor is the programs' own: hpccg's spmv inner loop runs 7
  // iterations, and swim's boundary nest walks its arrays down a column,
  // crossing a thread block on every step (4096 of swim's 7526). The
  // ratio bound is loose on purpose; the exact pins are the gate.
  struct Case {
    const char *App;
    std::uint64_t Recomputes;
    std::uint64_t AffineAccesses;
  };
  const Case Cases[] = {{"swim", 7526, 187012},
                        {"wupwise", 3810, 225806},
                        {"hpccg", 190910, 1302528}};
  MachineConfig C = pageConfig();
  for (const Case &K : Cases) {
    StreamFixture F(K.App, C, /*Optimize=*/true);
    StreamCounts N = drainAllThreads(F.Map, C.numNodes());
    std::uint64_t Affine = affineAccesses(F.App.Program);
    EXPECT_EQ(Affine, K.AffineAccesses) << K.App;
    EXPECT_EQ(N.Recomputes, K.Recomputes) << K.App;
    EXPECT_LT(N.Recomputes * 4, Affine) << K.App;
  }
}

//===----------------------------------------------------------------------===//
// Link calendar path split
//===----------------------------------------------------------------------===//

TEST(LinkCalendarCountTest, PathSplitIsPinned) {
  // The link calendar books most hops on its inline fast path (an empty
  // link, an append or a back-merge) and leaves the rest to the
  // out-of-line path that prunes and inserts into gaps. The split is
  // deterministic, so it is pinned exactly: a change that sends more
  // reservations out of line, or adds reservations, moves these numbers
  // even where wall-clock is too noisy to gate. Original and optimized
  // layouts load the links very differently, so both are pinned.
  struct Case {
    const char *App;
    RunVariant Variant;
    std::uint64_t Reserves;
    std::uint64_t Slow;
  };
  const Case Cases[] = {
      {"swim", RunVariant::Original, 477393, 231067},
      {"swim", RunVariant::Optimized, 336274, 138685},
      {"wupwise", RunVariant::Original, 511938, 217289},
      {"wupwise", RunVariant::Optimized, 237840, 63554},
      {"hpccg", RunVariant::Original, 7005614, 4405060},
      {"hpccg", RunVariant::Optimized, 6004428, 2940488},
  };
  const MachineConfig Base = pageConfig();
  ClusterMapping Mapping = makeM1Mapping(Base);
  for (const Case &K : Cases) {
    AppModel App = buildApp(K.App, 0.25);
    MachineConfig C = Base;
    if (K.Variant == RunVariant::Optimized)
      C.PagePolicy = PageAllocPolicy::CompilerGuided;
    LayoutPlan Plan = planForVariant(App, C, Mapping, K.Variant);
    AppInstance Inst;
    Inst.Program = &App.Program;
    Inst.Plan = &Plan;
    Inst.ComputeGapCycles = App.ComputeGapCycles;
    for (unsigned T = 0; T < C.numNodes(); ++T)
      Inst.Nodes.push_back(Mapping.threadToNode(T));
    RunOutputs Out;
    runSimulation({Inst}, C, Mapping, &Out);
    const char *Name =
        K.Variant == RunVariant::Optimized ? "optimized" : "original";
    EXPECT_EQ(Out.LinkReserves, K.Reserves) << K.App << " " << Name;
    EXPECT_EQ(Out.SlowLinkReserves, K.Slow) << K.App << " " << Name;
  }
}

//===----------------------------------------------------------------------===//
// Non-power-of-two cache geometry (generic div/mod decode path)
//===----------------------------------------------------------------------===//

TEST(NonPow2CacheTest, BasicInvariantsHold) {
  // 12 KB / 64 B / 2 ways = 96 sets: SetDiv falls back to hardware div/mod.
  Cache C(12 * 1024, 64, 2);
  SplitMix64 Rng(3);
  std::vector<std::uint64_t> Lines;
  for (int I = 0; I < 4096; ++I) {
    std::uint64_t Line = C.lineOf(Rng.nextBelow(1ull << 30));
    if (!C.access(Line, I % 3 == 0))
      C.insert(Line, I % 3 == 0);
    ASSERT_TRUE(C.contains(Line)) << "line lost right after insert";
    Lines.push_back(Line);
  }
  unsigned Resident = 0;
  for (std::uint64_t Line : Lines)
    Resident += C.contains(Line) ? 1 : 0;
  EXPECT_GT(Resident, 0u);
  EXPECT_EQ(C.hits() + C.misses(), Lines.size());
  C.invalidate(Lines.back());
  EXPECT_FALSE(C.contains(Lines.back()));
}
