//===- tests/support_test.cpp - support library unit tests ----------------===//

#include "support/Format.h"
#include "support/MathUtil.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/TournamentTree.h"

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <vector>

using namespace offchip;

TEST(MathUtil, FloorDivRoundsTowardNegativeInfinity) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(floorDiv(-7, -2), 3);
  EXPECT_EQ(floorDiv(6, 3), 2);
  EXPECT_EQ(floorDiv(-6, 3), -2);
}

TEST(MathUtil, FloorModIsAlwaysNonNegative) {
  EXPECT_EQ(floorMod(7, 3), 1);
  EXPECT_EQ(floorMod(-7, 3), 2);
  EXPECT_EQ(floorMod(-9, 3), 0);
}

// Floored modulo takes the sign of the modulus; this is what makes the
// floorDiv/floorMod identity hold for negative B too. (The old assert
// demanded a non-negative result unconditionally, which fired in Debug
// builds on any negative modulus — release builds never ran it.)
TEST(MathUtil, FloorModTakesSignOfModulus) {
  EXPECT_EQ(floorMod(7, -3), -2);
  EXPECT_EQ(floorMod(-7, -3), -1);
  EXPECT_EQ(floorMod(1, -7), -6);
  EXPECT_EQ(floorMod(-6, -3), 0);
}

TEST(MathUtil, FloorDivModIdentity) {
  for (std::int64_t A = -20; A <= 20; ++A)
    for (std::int64_t B : {-7, -3, -1, 1, 2, 5})
      EXPECT_EQ(floorDiv(A, B) * B + floorMod(A, B), A)
          << "A=" << A << " B=" << B;
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceilDiv(10, 3), 4u);
  EXPECT_EQ(ceilDiv(9, 3), 3u);
  EXPECT_EQ(ceilDiv(1, 100), 1u);
}

TEST(MathUtil, PowerOfTwoAndLogs) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(4096));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(12));
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(9), 3u);
  EXPECT_EQ(log2Ceil(9), 4u);
  EXPECT_EQ(log2Ceil(8), 3u);
}

TEST(MathUtil, Gcd64) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(0, 0), 0);
}

TEST(MathUtil, AlignTo) {
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(16, 8), 16u);
}

TEST(Random, Deterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, NextBelowInRange) {
  SplitMix64 Rng(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(Random, DoubleInUnitInterval) {
  SplitMix64 Rng(3);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Accumulator, BasicMoments) {
  Accumulator A;
  EXPECT_TRUE(A.empty());
  A.addSample(2.0);
  A.addSample(4.0);
  A.addSample(6.0);
  EXPECT_EQ(A.count(), 3u);
  EXPECT_DOUBLE_EQ(A.mean(), 4.0);
  EXPECT_DOUBLE_EQ(A.min(), 2.0);
  EXPECT_DOUBLE_EQ(A.max(), 6.0);
}

TEST(Accumulator, Merge) {
  Accumulator A, B;
  A.addSample(1.0);
  B.addSample(3.0);
  B.addSample(5.0);
  A.merge(B);
  EXPECT_EQ(A.count(), 3u);
  EXPECT_DOUBLE_EQ(A.mean(), 3.0);
  EXPECT_DOUBLE_EQ(A.max(), 5.0);
}

TEST(IntHistogram, CdfMatchesCounts) {
  IntHistogram H;
  H.addSample(0);
  H.addSample(1);
  H.addSample(1);
  H.addSample(4);
  EXPECT_EQ(H.total(), 4u);
  EXPECT_DOUBLE_EQ(H.cdfAt(0), 0.25);
  EXPECT_DOUBLE_EQ(H.cdfAt(1), 0.75);
  EXPECT_DOUBLE_EQ(H.cdfAt(3), 0.75);
  EXPECT_DOUBLE_EQ(H.cdfAt(4), 1.0);
  EXPECT_EQ(H.maxNonEmptyBucket(), 4u);
  EXPECT_DOUBLE_EQ(H.mean(), 1.5);
}

TEST(IntHistogram, CapBucketsOverflowSamples) {
  IntHistogram H(/*MaxBucket=*/4);
  H.addSample(1000);
  EXPECT_EQ(H.countAt(3), 1u);
  EXPECT_EQ(H.total(), 1u);
}

TEST(Format, PercentAndPadding) {
  EXPECT_EQ(formatPercent(0.205), "20.5%");
  EXPECT_EQ(formatPercent(0.0), "0.0%");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
}

TEST(TournamentTree, PopsLikePriorityQueue) {
  // The engine's use: one packed (time << shift | slot) key per slot, the
  // popped slot rescheduled at a later (or equal) time or retired. The tree
  // must pop exactly the sequence a min-heap of the same keys pops.
  for (unsigned Slots : {1u, 2u, 3u, 5u, 16u, 64u, 100u}) {
    unsigned Shift = 0;
    while ((1u << Shift) < Slots)
      ++Shift;
    const std::uint64_t Mask = (1ull << Shift) - 1;
    SplitMix64 Rng(Slots);
    TournamentTree Tree(Slots);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        Queue;
    std::vector<unsigned> Left(Slots);
    for (unsigned S = 0; S < Slots; ++S) {
      std::uint64_t Key = (Rng.nextBelow(1000) << Shift) | S;
      Tree.set(S, Key);
      Queue.push(Key);
      Left[S] = 1 + static_cast<unsigned>(Rng.nextBelow(200));
    }
    std::uint64_t Pops = 0;
    while (!Queue.empty()) {
      std::uint64_t Key = Queue.top();
      Queue.pop();
      ASSERT_EQ(Tree.top(), Key) << Slots << " slots, pop " << Pops;
      ++Pops;
      unsigned S = static_cast<unsigned>(Key & Mask);
      if (--Left[S] == 0) {
        Tree.set(S, TournamentTree::Empty);
        continue;
      }
      std::uint64_t Next = (((Key >> Shift) + Rng.nextBelow(300)) << Shift) | S;
      Tree.set(S, Next);
      Queue.push(Next);
    }
    EXPECT_EQ(Tree.top(), TournamentTree::Empty) << Slots << " slots";
    EXPECT_GT(Pops, Slots);
  }
}
