//===- tests/dram_test.cpp - memory controller unit tests ------------------===//

#include "dram/MemoryController.h"

#include <gtest/gtest.h>

using namespace offchip;

namespace {

DramConfig smallConfig() {
  DramConfig C;
  C.Banks = 4;
  C.RowBufferBytes = 4096;
  C.FrFcfsWindowRows = 2;
  return C;
}

} // namespace

TEST(MemoryController, FirstAccessIsARowMiss) {
  MemoryController MC(0, smallConfig());
  DramAccessResult R = MC.access(0, 100);
  EXPECT_FALSE(R.RowHit);
  EXPECT_EQ(R.QueueCycles, 0u);
  EXPECT_EQ(R.ServiceCycles, smallConfig().Timing.RowMissCycles);
  EXPECT_EQ(R.CompleteTime, 100 + R.ServiceCycles);
}

TEST(MemoryController, SameRowHitsAfterOpen) {
  MemoryController MC(0, smallConfig());
  MC.access(0, 0);
  DramAccessResult R = MC.access(256, 1000); // same 4KB row, bank idle
  EXPECT_TRUE(R.RowHit);
  EXPECT_EQ(R.ServiceCycles, smallConfig().Timing.RowHitCycles);
}

TEST(MemoryController, QueueingWhenBankBusy) {
  MemoryController MC(0, smallConfig());
  DramAccessResult A = MC.access(0, 0);
  DramAccessResult B = MC.access(64, 1); // same row, hence same bank
  EXPECT_EQ(B.QueueCycles, A.CompleteTime - 1);
  EXPECT_EQ(B.CompleteTime, A.CompleteTime + B.ServiceCycles);
}

TEST(MemoryController, SomeRowPairLandsOnDistinctBanks) {
  // The folded bank index still spreads rows: among a handful of rows at
  // least one pair maps to different banks and does not queue.
  MemoryController MC(0, smallConfig());
  MC.access(0, 0);
  bool FoundParallel = false;
  for (unsigned R = 1; R <= 8 && !FoundParallel; ++R) {
    DramAccessResult A = MC.access(R * 4096ull, 1);
    if (A.QueueCycles == 0)
      FoundParallel = true;
  }
  EXPECT_TRUE(FoundParallel);
}

TEST(MemoryController, FrFcfsWindowToleratesOneInterleavedStream) {
  DramConfig C = smallConfig();
  C.Banks = 1; // single bank isolates the window behaviour
  MemoryController MC(0, C);
  std::uint64_t RowA = 0;
  std::uint64_t RowB = 4096;
  MC.access(RowA, 0);
  MC.access(RowB, 1000);
  // Both rows are in the 2-deep window now: revisits hit.
  EXPECT_TRUE(MC.access(RowA + 256, 2000).RowHit);
  EXPECT_TRUE(MC.access(RowB + 256, 3000).RowHit);
}

TEST(MemoryController, WindowEvictsBeyondCapacity) {
  DramConfig C = smallConfig();
  C.Banks = 1;
  MemoryController MC(0, C); // window of 2 rows
  std::uint64_t Rows[3] = {0, 4096, 4096 * 2};
  MC.access(Rows[0], 0);
  MC.access(Rows[1], 1000);
  MC.access(Rows[2], 2000); // evicts row 0 from the window
  EXPECT_FALSE(MC.access(Rows[0] + 256, 3000).RowHit);
}

TEST(MemoryController, WritebacksOccupyBanks) {
  MemoryController MC(0, smallConfig());
  MC.writeback(0, 0);
  DramAccessResult R = MC.access(64, 1);
  EXPECT_GT(R.QueueCycles, 0u); // queued behind the writeback
}

TEST(MemoryController, StatisticsAndLittlesLaw) {
  MemoryController MC(0, smallConfig());
  MC.access(0, 0);
  MC.access(64, 0); // queues fully behind the first
  EXPECT_EQ(MC.accesses(), 2u);
  EXPECT_EQ(MC.rowHits(), 1u);
  EXPECT_GT(MC.totalQueueCycles(), 0u);
  double Occ = MC.averageQueueOccupancy(1000);
  EXPECT_NEAR(Occ, static_cast<double>(MC.totalQueueCycles()) / 1000.0,
              1e-12);
}

// Property sweep: service times are always one of the two configured values
// and completion never precedes arrival + service.
class DramProperty : public ::testing::TestWithParam<int> {};

TEST_P(DramProperty, TimingInvariants) {
  MemoryController MC(0, smallConfig());
  std::uint64_t Seed = static_cast<std::uint64_t>(GetParam());
  std::uint64_t T = 0;
  for (int I = 0; I < 500; ++I) {
    std::uint64_t Addr = ((Seed = Seed * 6364136223846793005ULL + 1)) %
                         (1u << 22);
    T += Seed % 97;
    DramAccessResult R = MC.access(Addr, T);
    EXPECT_TRUE(R.ServiceCycles == smallConfig().Timing.RowHitCycles ||
                R.ServiceCycles == smallConfig().Timing.RowMissCycles);
    EXPECT_EQ(R.CompleteTime, T + R.QueueCycles + R.ServiceCycles);
    EXPECT_GE(R.CompleteTime, T + R.ServiceCycles);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DramProperty, ::testing::Range(0, 10));
