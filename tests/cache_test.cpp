//===- tests/cache_test.cpp - cache and directory unit tests ---------------===//

#include "cache/Cache.h"
#include "cache/Directory.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace offchip;

TEST(Cache, MissThenHit) {
  Cache C(1024, 64, 2);
  EXPECT_FALSE(C.access(7, false));
  C.insert(7, false);
  EXPECT_TRUE(C.access(7, false));
  EXPECT_EQ(C.hits(), 1u);
  EXPECT_EQ(C.misses(), 1u);
}

TEST(Cache, ContainsDoesNotPerturbStats) {
  Cache C(1024, 64, 2);
  C.insert(1, false);
  EXPECT_TRUE(C.contains(1));
  EXPECT_FALSE(C.contains(2));
  EXPECT_EQ(C.hits(), 0u);
  EXPECT_EQ(C.misses(), 0u);
}

TEST(Cache, LruEvictionOrder) {
  // Fully-associative 2-line cache.
  Cache C(128, 64, 2);
  C.insert(10, false);
  C.insert(20, false);
  C.access(10, false); // 10 is now MRU
  Cache::Eviction Ev = C.insert(30, false);
  ASSERT_TRUE(Ev.Valid);
  EXPECT_EQ(Ev.LineAddr, 20u);
  EXPECT_TRUE(C.contains(10));
  EXPECT_TRUE(C.contains(30));
}

TEST(Cache, DirtyTracking) {
  Cache C(128, 64, 2);
  C.insert(1, /*IsWrite=*/true);
  C.insert(2, false);
  C.access(2, /*IsWrite=*/true); // dirties line 2
  Cache::Eviction Ev = C.insert(3, false); // evicts LRU (line 1)
  ASSERT_TRUE(Ev.Valid);
  EXPECT_EQ(Ev.LineAddr, 1u);
  EXPECT_TRUE(Ev.Dirty);
}

TEST(Cache, MarkDirtyWithoutStats) {
  Cache C(128, 64, 2);
  C.insert(5, false);
  EXPECT_TRUE(C.markDirty(5));
  EXPECT_FALSE(C.markDirty(6));
  EXPECT_EQ(C.hits(), 0u);
  Cache::Eviction Ev = C.insert(7, false);
  Cache::Eviction Ev2 = C.insert(8, false);
  // One of the two evictions carries line 5, dirty.
  bool Seen = (Ev.Valid && Ev.LineAddr == 5 && Ev.Dirty) ||
              (Ev2.Valid && Ev2.LineAddr == 5 && Ev2.Dirty);
  EXPECT_TRUE(Seen);
}

TEST(Cache, Invalidate) {
  Cache C(128, 64, 2);
  C.insert(9, true);
  EXPECT_TRUE(C.invalidate(9));
  EXPECT_FALSE(C.contains(9));
  EXPECT_FALSE(C.invalidate(9));
}

TEST(Cache, DoubleInsertRefreshesInsteadOfDuplicating) {
  Cache C(128, 64, 2);
  C.insert(4, false);
  Cache::Eviction Ev = C.insert(4, true);
  EXPECT_FALSE(Ev.Valid);
  // Still only one way occupied: inserting two more lines evicts only
  // one line and keeps 4 or evicts 4 exactly once.
  C.insert(5, false);
  Cache::Eviction Ev2 = C.insert(6, false);
  ASSERT_TRUE(Ev2.Valid);
}

TEST(Cache, HashingSpreadsResidueClasses) {
  // Lines congruent mod 4 (the MC-interleave pathology) must spread across
  // sets rather than pile into one: a 16-set cache with 4-way associativity
  // must retain far more than 4 of 32 such lines.
  Cache C(16 * 4 * 64, 64, 4);
  for (std::uint64_t I = 0; I < 32; ++I)
    C.insert(I * 4, false);
  unsigned Resident = 0;
  for (std::uint64_t I = 0; I < 32; ++I)
    if (C.contains(I * 4))
      ++Resident;
  EXPECT_GE(Resident, 24u);
}

// Property: the cache never holds more lines than its capacity and always
// agrees with a reference model on residency counts.
class CacheProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheProperty, NeverExceedsCapacity) {
  const unsigned Lines = 32;
  Cache C(Lines * 64, 64, 4);
  SplitMix64 Rng(static_cast<std::uint64_t>(GetParam()) * 31 + 3);
  std::map<std::uint64_t, bool> Inserted;
  for (int I = 0; I < 2000; ++I) {
    std::uint64_t Line = Rng.nextBelow(200);
    if (!C.access(Line, false))
      C.insert(Line, Rng.nextBelow(2) == 0);
    Inserted[Line] = true;
  }
  unsigned Resident = 0;
  for (const auto &KV : Inserted)
    if (C.contains(KV.first))
      ++Resident;
  EXPECT_LE(Resident, Lines);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheProperty, ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Directory
//===----------------------------------------------------------------------===//

namespace {

/// A naive reference cache: one array of ways per set, the set index
/// recomputed with Cache's documented XOR fold, an explicit Valid flag, and
/// the replacement rule written out: a resident line is refreshed wherever
/// it sits, else the first invalid way is filled, else the least recently
/// used way is evicted.
class RefCache {
public:
  RefCache(unsigned NumSets, unsigned Ways)
      : NumSets(NumSets), Sets(NumSets, std::vector<Way>(Ways)) {}

  bool access(std::uint64_t Line, bool IsWrite) {
    Way *W = find(Line);
    if (!W)
      return false;
    W->LastUse = ++Clock;
    W->Dirty = W->Dirty || IsWrite;
    return true;
  }

  Cache::Eviction insert(std::uint64_t Line, bool IsWrite, LineState State) {
    if (Way *W = find(Line)) {
      W->LastUse = ++Clock;
      W->Dirty = W->Dirty || IsWrite;
      W->State = State;
      return Cache::Eviction();
    }
    std::vector<Way> &S = Sets[setOf(Line)];
    Way *Victim = nullptr;
    for (Way &W : S)
      if (!W.Valid) {
        Victim = &W;
        break;
      }
    if (!Victim) {
      Victim = &S[0];
      for (Way &W : S)
        if (W.LastUse < Victim->LastUse)
          Victim = &W;
    }
    Cache::Eviction Out;
    if (Victim->Valid) {
      Out.Valid = true;
      Out.LineAddr = Victim->Line;
      Out.Dirty = Victim->Dirty;
      Out.State = Victim->State;
    }
    *Victim = Way{true, Line, ++Clock, IsWrite, State};
    return Out;
  }

  bool invalidate(std::uint64_t Line) {
    Way *W = find(Line);
    if (W)
      W->Valid = false;
    return W != nullptr;
  }

  bool markDirty(std::uint64_t Line) {
    Way *W = find(Line);
    if (W)
      W->Dirty = true;
    return W != nullptr;
  }

  bool setState(std::uint64_t Line, LineState State) {
    Way *W = find(Line);
    if (W)
      W->State = State;
    return W != nullptr;
  }

  int stateOf(std::uint64_t Line) {
    Way *W = find(Line);
    return W ? static_cast<int>(W->State) : -1;
  }

private:
  struct Way {
    bool Valid = false;
    std::uint64_t Line = 0;
    std::uint64_t LastUse = 0;
    bool Dirty = false;
    LineState State = LineState::Shared;
  };

  unsigned setOf(std::uint64_t Line) const {
    std::uint64_t D1 = Line / NumSets;
    return static_cast<unsigned>((Line ^ D1 ^ (D1 / NumSets)) % NumSets);
  }

  Way *find(std::uint64_t Line) {
    for (Way &W : Sets[setOf(Line)])
      if (W.Valid && W.Line == Line)
        return &W;
    return nullptr;
  }

  unsigned NumSets;
  std::vector<std::vector<Way>> Sets;
  std::uint64_t Clock = 0;
};

} // namespace

TEST(Cache, MatchesReferenceModel) {
  // Random access/insert/invalidate/markDirty/setState sequences over a
  // small line universe (so sets fill, evict and develop invalid holes):
  // same hits, same victims with the same dirty bit and state. Geometries
  // cover one set, power-of-two and generic set counts, and the probe's
  // 8-way chunks: the scaled L1 (4 x 8, one full chunk) and L2 (4 x 16),
  // masked tails (3 x 9, 5 x 12, 12 x 3), sets spanning several chunks
  // (1 x 17, 2 x 70), and a last set whose chunk reads the padding.
  struct Geometry {
    unsigned Sets, Ways;
  };
  const Geometry Gs[] = {{1, 1},  {1, 4},  {8, 2},  {16, 16}, {12, 3}, {2, 70},
                         {4, 8},  {4, 16}, {3, 9},  {5, 12},  {1, 17}};
  for (const Geometry &G : Gs) {
    Cache C(static_cast<std::uint64_t>(G.Sets) * G.Ways * 64, 64, G.Ways);
    RefCache Ref(G.Sets, G.Ways);
    SplitMix64 Rng(G.Sets * 131 + G.Ways);
    const std::uint64_t Universe = 3ull * G.Sets * G.Ways + 5;
    for (int Op = 0; Op < 40000; ++Op) {
      std::uint64_t Line = Rng.nextBelow(Universe) * 977;
      bool IsWrite = Rng.nextBelow(3) == 0;
      LineState State = static_cast<LineState>(Rng.nextBelow(3));
      switch (Rng.nextBelow(8)) {
      case 0:
        ASSERT_EQ(C.invalidate(Line), Ref.invalidate(Line)) << Op;
        break;
      case 1:
        ASSERT_EQ(C.markDirty(Line), Ref.markDirty(Line)) << Op;
        break;
      case 2:
        ASSERT_EQ(C.setState(Line, State), Ref.setState(Line, State)) << Op;
        break;
      case 3: {
        // A blind insert, resident or not (the racy double-insert path).
        Cache::Eviction A = C.insert(Line, IsWrite, State);
        Cache::Eviction B = Ref.insert(Line, IsWrite, State);
        ASSERT_EQ(A.Valid, B.Valid) << Op;
        ASSERT_EQ(A.LineAddr, B.LineAddr) << Op;
        ASSERT_EQ(A.Dirty, B.Dirty) << Op;
        ASSERT_EQ(A.State, B.State) << Op;
        break;
      }
      default: {
        bool Hit = C.access(Line, IsWrite);
        ASSERT_EQ(Hit, Ref.access(Line, IsWrite)) << Op;
        if (!Hit) {
          Cache::Eviction A = C.insert(Line, IsWrite, State);
          Cache::Eviction B = Ref.insert(Line, IsWrite, State);
          ASSERT_EQ(A.Valid, B.Valid) << Op;
          ASSERT_EQ(A.LineAddr, B.LineAddr) << Op;
          ASSERT_EQ(A.Dirty, B.Dirty) << Op;
          ASSERT_EQ(A.State, B.State) << Op;
        }
        break;
      }
      }
      ASSERT_EQ(C.stateOf(Line), Ref.stateOf(Line)) << Op;
    }
  }
}

TEST(Cache, InsertFindsLineResidentBehindAHole) {
  // One 4-way set holding A B C D; invalidating A leaves an empty way in
  // front of B. Re-inserting B must refresh it in place, not fill the hole
  // with a second copy.
  Cache C(4 * 64, 64, 4);
  for (std::uint64_t L : {10, 11, 12, 13})
    C.insert(L, false);
  ASSERT_TRUE(C.invalidate(10));
  Cache::Eviction Ev = C.insert(11, true);
  EXPECT_FALSE(Ev.Valid);
  unsigned Copies = 0, Resident = 0;
  C.forEachLine([&](std::uint64_t L) {
    ++Resident;
    Copies += L == 11;
  });
  EXPECT_EQ(Copies, 1u);
  EXPECT_EQ(Resident, 3u);
  // The hole is still the next victim: no valid line is evicted.
  EXPECT_FALSE(C.insert(14, false).Valid);
  // The refresh made 11 most recent, so 12 is now the LRU victim.
  Ev = C.insert(15, false);
  ASSERT_TRUE(Ev.Valid);
  EXPECT_EQ(Ev.LineAddr, 12u);
}

TEST(Directory, AddFindRemove) {
  Directory D(64);
  EXPECT_EQ(D.findSharer(100), -1);
  D.addSharer(100, 7);
  EXPECT_EQ(D.findSharer(100), 7);
  D.addSharer(100, 3);
  EXPECT_EQ(D.findSharer(100), 3); // lowest-numbered sharer
  D.removeSharer(100, 3);
  EXPECT_EQ(D.findSharer(100), 7);
  D.removeSharer(100, 7);
  EXPECT_EQ(D.findSharer(100), -1);
  EXPECT_EQ(D.trackedLines(), 0u);
}

TEST(Directory, RemoveUntrackedIsANoop) {
  Directory D(8);
  D.removeSharer(5, 2);
  EXPECT_EQ(D.findSharer(5), -1);
}

TEST(Directory, ManyLines) {
  Directory D(64);
  for (std::uint64_t L = 0; L < 1000; ++L)
    D.addSharer(L, static_cast<unsigned>(L % 64));
  EXPECT_EQ(D.trackedLines(), 1000u);
  for (std::uint64_t L = 0; L < 1000; ++L)
    EXPECT_EQ(D.findSharer(L), static_cast<int>(L % 64));
}
