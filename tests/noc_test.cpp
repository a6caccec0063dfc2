//===- tests/noc_test.cpp - mesh and network unit tests --------------------===//

#include "noc/Mesh.h"
#include "noc/Network.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace offchip;

TEST(Mesh, IdsAndCoordsRoundTrip) {
  Mesh M(8, 8);
  for (unsigned N = 0; N < 64; ++N)
    EXPECT_EQ(M.nodeId(M.coordOf(N)), N);
  EXPECT_EQ(M.nodeId({0, 0}), 0u);
  EXPECT_EQ(M.nodeId({7, 0}), 7u);
  EXPECT_EQ(M.nodeId({0, 1}), 8u);
}

TEST(Mesh, ManhattanDistance) {
  Mesh M(8, 8);
  EXPECT_EQ(M.manhattan(0, 0), 0u);
  EXPECT_EQ(M.manhattan(0, 63), 14u);
  EXPECT_EQ(M.manhattan(M.nodeId({2, 3}), M.nodeId({5, 1})), 5u);
}

TEST(Mesh, XYRouteIsXFirstAndMinimal) {
  Mesh M(8, 8);
  std::vector<unsigned> Route = M.xyRoute(M.nodeId({1, 1}), M.nodeId({3, 4}));
  ASSERT_EQ(Route.size(), 6u); // manhattan 5 + 1
  EXPECT_EQ(Route.front(), M.nodeId({1, 1}));
  EXPECT_EQ(Route[1], M.nodeId({2, 1})); // X first
  EXPECT_EQ(Route[2], M.nodeId({3, 1}));
  EXPECT_EQ(Route[3], M.nodeId({3, 2})); // then Y
  EXPECT_EQ(Route.back(), M.nodeId({3, 4}));
}

TEST(Mesh, RouteHopsEqualManhattan) {
  Mesh M(8, 4);
  SplitMix64 Rng(5);
  for (int I = 0; I < 200; ++I) {
    unsigned A = static_cast<unsigned>(Rng.nextBelow(32));
    unsigned B = static_cast<unsigned>(Rng.nextBelow(32));
    EXPECT_EQ(M.xyRoute(A, B).size() - 1, M.manhattan(A, B));
  }
}

TEST(Placement, CornersOrder) {
  Mesh M(8, 8);
  std::vector<unsigned> MCs =
      placeMemoryControllers(M, 4, MCPlacementKind::Corners);
  ASSERT_EQ(MCs.size(), 4u);
  EXPECT_EQ(MCs[0], M.nodeId({0, 0}));
  EXPECT_EQ(MCs[1], M.nodeId({7, 0}));
  EXPECT_EQ(MCs[2], M.nodeId({0, 7}));
  EXPECT_EQ(MCs[3], M.nodeId({7, 7}));
}

TEST(Placement, EdgeMidpointsReduceAverageDistance) {
  Mesh M(8, 8);
  auto AvgNearest = [&](MCPlacementKind K) {
    std::vector<unsigned> MCs = placeMemoryControllers(M, 4, K);
    double Sum = 0;
    for (unsigned N = 0; N < 64; ++N) {
      unsigned Best = 100;
      for (unsigned MC : MCs)
        Best = std::min(Best, M.manhattan(N, MC));
      Sum += Best;
    }
    return Sum / 64.0;
  };
  // The paper's P2 beats P1 on average distance-to-controller.
  EXPECT_LT(AvgNearest(MCPlacementKind::EdgeMidpoints),
            AvgNearest(MCPlacementKind::Corners));
}

TEST(Placement, LargerCountsAreDistinctAndOnEdges) {
  Mesh M(8, 8);
  for (unsigned Count : {8u, 16u}) {
    std::vector<unsigned> MCs =
        placeMemoryControllers(M, Count, MCPlacementKind::TopBottomSpread);
    ASSERT_EQ(MCs.size(), Count);
    std::sort(MCs.begin(), MCs.end());
    EXPECT_EQ(std::unique(MCs.begin(), MCs.end()), MCs.end());
    for (unsigned Node : MCs) {
      Coord C = M.coordOf(Node);
      EXPECT_TRUE(C.Y == 0 || C.Y == 7);
    }
  }
}

TEST(Placement, NearestMC) {
  Mesh M(8, 8);
  std::vector<unsigned> MCs =
      placeMemoryControllers(M, 4, MCPlacementKind::Corners);
  EXPECT_EQ(nearestMC(M, MCs, M.nodeId({1, 1})), 0u);
  EXPECT_EQ(nearestMC(M, MCs, M.nodeId({6, 1})), 1u);
  EXPECT_EQ(nearestMC(M, MCs, M.nodeId({1, 6})), 2u);
  EXPECT_EQ(nearestMC(M, MCs, M.nodeId({6, 6})), 3u);
}

//===----------------------------------------------------------------------===//
// Network
//===----------------------------------------------------------------------===//

TEST(Network, UncontendedLatencyFormula) {
  Mesh M(8, 8);
  Network Net(M, NocConfig());
  // 14 hops * 4 cycles + (16 flits - 1) for a 256-byte message.
  MessageResult R = Net.send(0, 63, 256, 100);
  EXPECT_EQ(R.Hops, 14u);
  EXPECT_EQ(R.NetworkCycles, 14u * 4 + 15);
  // A 16-byte request is a single flit.
  R = Net.send(8, 9, 16, 0);
  EXPECT_EQ(R.NetworkCycles, 4u);
}

TEST(Network, LocalDeliveryIsFree) {
  Mesh M(4, 4);
  Network Net(M, NocConfig());
  MessageResult R = Net.send(5, 5, 256, 42);
  EXPECT_EQ(R.ArrivalTime, 42u);
  EXPECT_EQ(R.NetworkCycles, 0u);
  EXPECT_EQ(R.Hops, 0u);
}

TEST(Network, ConvoySerializesAtFlitRate) {
  Mesh M(8, 1);
  Network Net(M, NocConfig());
  // Two 256B messages on the same path injected back to back: the second
  // must trail by the 16-cycle serialization of the first.
  MessageResult A = Net.send(0, 7, 256, 0);
  MessageResult B = Net.send(0, 7, 256, 1);
  EXPECT_GE(B.ArrivalTime, A.ArrivalTime + 16);
}

TEST(Network, WorkConservingAroundFutureReservations) {
  Mesh M(8, 1);
  Network Net(M, NocConfig());
  // A response booked far in the future must not delay an earlier message.
  Net.advanceFloor(0);
  MessageResult Future = Net.send(0, 1, 256, 10000);
  MessageResult Now = Net.send(0, 1, 256, 0);
  EXPECT_EQ(Now.NetworkCycles, 4u + 15);
  EXPECT_EQ(Future.NetworkCycles, 4u + 15);
}

TEST(Network, NoOvertakingOfQueuedMessages) {
  Mesh M(8, 1);
  Network Net(M, NocConfig());
  // B arrives 1 cycle after A started transmitting: FIFO means B waits,
  // even though B is shorter.
  Net.send(0, 1, 256, 0);
  MessageResult B = Net.send(0, 1, 16, 1);
  EXPECT_GT(B.NetworkCycles, 4u);
}

TEST(Network, ReservationsNeverOverlap) {
  // Property: on a single link, service intervals of randomized traffic are
  // pairwise disjoint (the capacity invariant).
  Mesh M(2, 1);
  Network Net(M, NocConfig());
  SplitMix64 Rng(11);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> Intervals;
  std::uint64_t Floor = 0;
  for (int I = 0; I < 3000; ++I) {
    Floor += Rng.nextBelow(6);
    Net.advanceFloor(Floor);
    std::uint64_t T = Floor + (Rng.nextBelow(2) ? Rng.nextBelow(400) : 0);
    MessageResult R = Net.send(0, 1, 256, T);
    std::uint64_t Depart = R.ArrivalTime - 15 - 4;
    Intervals.push_back({Depart, Depart + 16});
  }
  std::sort(Intervals.begin(), Intervals.end());
  for (std::size_t I = 1; I < Intervals.size(); ++I)
    EXPECT_GE(Intervals[I].first, Intervals[I - 1].second);
}

TEST(Network, IdealSendDoesNotReserve) {
  Mesh M(8, 1);
  Network Net(M, NocConfig());
  MessageResult A = Net.sendIdeal(0, 7, 256, 0);
  MessageResult B = Net.send(0, 7, 256, 0);
  EXPECT_EQ(A.NetworkCycles, B.NetworkCycles); // same formula when idle
  MessageResult C = Net.send(0, 7, 256, 1);
  EXPECT_GT(C.NetworkCycles, B.NetworkCycles); // only B reserved
}

TEST(Network, StatsAccumulate) {
  Mesh M(4, 4);
  Network Net(M, NocConfig());
  EXPECT_EQ(Net.messagesSent(), 0u);
  Net.send(0, 5, 64, 0);
  Net.send(3, 12, 64, 0);
  EXPECT_EQ(Net.messagesSent(), 2u);
  EXPECT_GT(Net.totalLinkBusyCycles(), 0u);
  // One reservation per hop; the two routes share no link, so every
  // reservation landed on an empty calendar (the inline path).
  EXPECT_EQ(Net.linkReserves(), M.manhattan(0, 5) + M.manhattan(3, 12));
  EXPECT_EQ(Net.slowLinkReserves(), 0u);
}

TEST(LinkCalendar, MatchesBusyCycleOracle) {
  // Whichever path reserve() takes (inline append, pruning, gap insert,
  // merges), it must book the earliest t >= From where [t, t + Flits) is
  // idle. The oracle is the set of busy cycles itself. Floors are monotone
  // and every From is at or past its floor, as the engine guarantees.
  for (std::uint64_t Seed : {1u, 2u, 3u}) {
    SplitMix64 Rng(Seed);
    Network::LinkState L;
    std::vector<bool> Busy;
    auto Idle = [&](std::uint64_t T, unsigned Flits) {
      for (std::uint64_t C = T; C < T + Flits; ++C)
        if (C < Busy.size() && Busy[C])
          return false;
      return true;
    };
    std::uint64_t Floor = 0;
    const int Calls = 20000;
    std::size_t MaxLive = 0;
    for (int I = 0; I < Calls; ++I) {
      // ~70% link load: mostly near-floor requests that queue at the back,
      // plus far-future responses that leave gaps for later ones to fill.
      Floor += Rng.nextBelow(24);
      std::uint64_t From = Floor + (Rng.nextBelow(4) == 0 ? Rng.nextBelow(600)
                                                          : Rng.nextBelow(20));
      unsigned Flits = 1 + static_cast<unsigned>(Rng.nextBelow(16));
      std::uint64_t Want = From;
      while (!Idle(Want, Flits))
        ++Want;
      ASSERT_EQ(L.reserve(From, Flits, Floor), Want)
          << "seed " << Seed << " call " << I << " From=" << From
          << " Flits=" << Flits << " Floor=" << Floor;
      if (Busy.size() < Want + Flits)
        Busy.resize(Want + Flits);
      for (std::uint64_t C = Want; C < Want + Flits; ++C)
        Busy[C] = true;
      MaxLive = std::max(MaxLive, L.Reserved.size() - L.Head);
    }
    // Well-formed past Head, both paths taken, and pruning keeps the
    // calendar short.
    for (std::size_t I = L.Head; I < L.Reserved.size(); ++I) {
      ASSERT_LT(L.Reserved[I].Start, L.Reserved[I].End);
      if (I > L.Head) {
        ASSERT_LT(L.Reserved[I - 1].End, L.Reserved[I].Start)
            << "adjacent intervals must merge";
      }
    }
    EXPECT_GT(L.SlowReserves, 0u);
    EXPECT_LT(L.SlowReserves, static_cast<std::uint64_t>(Calls));
    EXPECT_LT(MaxLive, 64u);
  }
}
