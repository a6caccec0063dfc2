//===- tests/coherence_test.cpp - MSI/MESI protocol unit tests -------------===//
///
/// Drives Machine::access on coherent machines with hand-picked addresses,
/// pinning the protocol's counter semantics (invalidations, downgrades,
/// upgrades, exclusive grants, sparse-directory evictions), the invariant
/// algebra over those counters, and run-to-run determinism with coherence
/// enabled. Directory/FlatMap edge cases — victim-cursor
/// rotation and the erase-outside-forEach discipline — are covered at the
/// unit level.
///
//===----------------------------------------------------------------------===//

#include "cache/Directory.h"
#include "harness/Experiment.h"
#include "sim/Machine.h"
#include "support/FlatMap.h"
#include "workloads/AppModel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace offchip;

namespace {

struct Rig {
  MachineConfig Config;
  ClusterMapping Mapping;
  VirtualMemory VM;
  Machine M;
  SimResult R;

  explicit Rig(MachineConfig C)
      : Config(C), Mapping(makeM1Mapping(C)),
        VM(VmConfig{C.PageBytes, C.NumMCs, C.BytesPerMC}, C.PagePolicy),
        M(C, Mapping, VM) {
    R.NodeToMCTraffic.assign(
        static_cast<std::size_t>(C.numNodes()) * C.NumMCs, 0);
  }

  /// Issues one coherent access and returns its completion cycle.
  std::uint64_t go(unsigned Node, std::uint64_t VA, bool IsWrite,
                   std::uint64_t Time) {
    return M.access(Node, VA, IsWrite, Time, R);
  }

  /// Finalizes and demands a clean invariant report.
  void expectClean(std::uint64_t Now) {
    M.finalize(R, Now);
    std::vector<std::string> Violations = M.checkInvariants(R);
    EXPECT_TRUE(Violations.empty())
        << "first violation: "
        << (Violations.empty() ? "" : Violations.front());
  }
};

MachineConfig msiConfig() {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  return C;
}

MachineConfig mesiConfig() {
  MachineConfig C = msiConfig();
  C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MESI;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol counter semantics
//===----------------------------------------------------------------------===//

TEST(Coherence, MsiWriteInvalidatesSharersAndReadDowngradesOwner) {
  Rig Rig_(msiConfig());
  std::uint64_t VA = 0x30000;
  // Two readers establish Shared copies: one off-chip fill, one
  // directory-served forward.
  std::uint64_t T = Rig_.go(0, VA, false, 0);
  T = Rig_.go(1, VA, false, T + 100);
  EXPECT_EQ(Rig_.R.OffChipAccesses, 1u);
  EXPECT_EQ(Rig_.R.RemoteL2Hits, 1u);
  EXPECT_EQ(Rig_.R.Invalidations, 0u);

  // A third node's write forwards from the lowest-numbered sharer (whose
  // copy dies with the forward, uncounted) and explicitly invalidates the
  // other one.
  T = Rig_.go(2, VA, true, T + 100);
  EXPECT_EQ(Rig_.R.RemoteL2Hits, 2u);
  EXPECT_EQ(Rig_.R.Invalidations, 1u);
  EXPECT_EQ(Rig_.R.InvalidationAcks, 1u);
  EXPECT_EQ(Rig_.R.Downgrades, 0u);

  // Reading the now-Modified line back downgrades the owner and writes the
  // dirty data through to its MC.
  T = Rig_.go(0, VA, false, T + 100);
  EXPECT_EQ(Rig_.R.RemoteL2Hits, 3u);
  EXPECT_EQ(Rig_.R.Downgrades, 1u);
  EXPECT_EQ(Rig_.R.CoherenceWritebacks, 1u);

  // Partition under coherence, and the hop-sample identity.
  EXPECT_EQ(Rig_.R.TotalAccesses, 4u);
  EXPECT_EQ(Rig_.R.L1Hits + Rig_.R.LocalL2Hits + Rig_.R.RemoteL2Hits +
                Rig_.R.OffChipAccesses + Rig_.R.CoherenceUpgrades,
            Rig_.R.TotalAccesses);
  EXPECT_EQ(Rig_.R.CohMsgHops.total(),
            2 * Rig_.R.CoherenceUpgrades + 2 * Rig_.R.Invalidations +
                Rig_.R.Downgrades);
  Rig_.expectClean(T + 10000);
}

TEST(Coherence, MsiWriteBroadcastsToEveryOtherSharer) {
  Rig Rig_(msiConfig());
  std::uint64_t VA = 0x44000;
  std::uint64_t T = 0;
  for (unsigned Node = 0; Node < 4; ++Node)
    T = Rig_.go(Node, VA, false, T + 100);
  // Holders {0,1,2,3}; node 5's write forwards from node 0 (invalidation
  // rides the forward) and sends explicit invalidations to 1, 2, 3.
  T = Rig_.go(5, VA, true, T + 100);
  EXPECT_EQ(Rig_.R.Invalidations, 3u);
  EXPECT_EQ(Rig_.R.InvalidationAcks, 3u);
  EXPECT_EQ(Rig_.R.CohMsgHops.total(), 2 * 3u);
  // Every invalidated copy is really gone: each old sharer's re-read must
  // miss its own tile and downgrade the new owner exactly once.
  T = Rig_.go(1, VA, false, T + 100);
  EXPECT_EQ(Rig_.R.Downgrades, 1u);
  Rig_.expectClean(T + 10000);
}

TEST(Coherence, MsiWriteToOwnSharedLineUpgrades) {
  Rig Rig_(msiConfig());
  std::uint64_t VA = 0x52000;
  std::uint64_t T = Rig_.go(0, VA, false, 0);
  T = Rig_.go(1, VA, false, T + 100);
  // Node 0 still holds the line in L1+L2 (Shared): the write pays a
  // directory upgrade instead of a plain L1 hit, invalidating node 1.
  T = Rig_.go(0, VA, true, T + 100);
  EXPECT_EQ(Rig_.R.CoherenceUpgrades, 1u);
  EXPECT_EQ(Rig_.R.Invalidations, 1u);
  EXPECT_EQ(Rig_.R.InvalidationAcks, 1u);
  EXPECT_EQ(Rig_.R.L1Hits, 0u);
  EXPECT_EQ(Rig_.R.CohMsgHops.total(), 2u + 2u);
  // The upgrade left the line Modified: a further write is a silent L1 hit.
  T = Rig_.go(0, VA, true, T + 100);
  EXPECT_EQ(Rig_.R.L1Hits, 1u);
  EXPECT_EQ(Rig_.R.CoherenceUpgrades, 1u);
  Rig_.expectClean(T + 10000);
}

TEST(Coherence, MesiGrantsExclusiveAndUpgradesSilently) {
  Rig Rig_(mesiConfig());
  std::uint64_t VA = 0x61000;
  // A solo read miss comes back Exclusive under MESI.
  std::uint64_t T = Rig_.go(0, VA, false, 0);
  EXPECT_EQ(Rig_.R.ExclusiveGrants, 1u);
  // E -> M needs no directory traffic: the write is an ordinary L1 hit.
  T = Rig_.go(0, VA, true, T + 100);
  EXPECT_EQ(Rig_.R.L1Hits, 1u);
  EXPECT_EQ(Rig_.R.CoherenceUpgrades, 0u);
  EXPECT_EQ(Rig_.R.Invalidations, 0u);
  EXPECT_EQ(Rig_.R.CohMsgHops.total(), 0u);
  // The silent upgrade really dirtied the line: a remote read downgrades
  // the owner and flushes it.
  T = Rig_.go(1, VA, false, T + 100);
  EXPECT_EQ(Rig_.R.Downgrades, 1u);
  EXPECT_EQ(Rig_.R.CoherenceWritebacks, 1u);
  EXPECT_EQ(Rig_.R.CohMsgHops.total(), 1u);
  Rig_.expectClean(T + 10000);
}

TEST(Coherence, MsiReadSharingStaysSilent) {
  Rig Rig_(msiConfig());
  std::uint64_t VA = 0x70000;
  std::uint64_t T = 0;
  for (unsigned Node = 0; Node < 3; ++Node)
    T = Rig_.go(Node, VA, false, T + 100);
  // Read-only sharing generates zero protocol traffic under MSI.
  EXPECT_EQ(Rig_.R.CoherenceUpgrades, 0u);
  EXPECT_EQ(Rig_.R.Invalidations, 0u);
  EXPECT_EQ(Rig_.R.Downgrades, 0u);
  EXPECT_EQ(Rig_.R.ExclusiveGrants, 0u);
  EXPECT_EQ(Rig_.R.CohMsgHops.total(), 0u);
  Rig_.expectClean(T + 10000);
}

TEST(Coherence, SparseDirectoryEvictsByBroadcastInvalidate) {
  MachineConfig C = msiConfig();
  C.Coherence.SparseDirectory = true;
  C.Coherence.SparseEntries = 4;
  Rig Rig_(C);
  // Eight distinct L2 lines through one node: tracking the 5th..8th each
  // evicts one directory entry, invalidating its (sole) holder.
  std::uint64_t T = 0;
  for (unsigned I = 0; I < 8; ++I)
    T = Rig_.go(0, 0x100000 + I * 64ull * C.L2LineBytes, false, T + 100);
  EXPECT_EQ(Rig_.R.DirEvictions, 4u);
  EXPECT_EQ(Rig_.R.Invalidations, 4u);
  EXPECT_EQ(Rig_.R.InvalidationAcks, 4u);
  EXPECT_EQ(Rig_.R.OffChipAccesses, 8u);
  Rig_.expectClean(T + 10000);
}

TEST(Coherence, SparseEvictionOfSharedLineInvalidatesEveryHolder) {
  MachineConfig C = msiConfig();
  C.Coherence.SparseDirectory = true;
  C.Coherence.SparseEntries = 1;
  Rig Rig_(C);
  // Three nodes share line A; touching line B must evict A's entry and
  // invalidate all three copies in one broadcast.
  std::uint64_t A = 0x100000, B = 0x200000;
  std::uint64_t T = 0;
  for (unsigned Node = 0; Node < 3; ++Node)
    T = Rig_.go(Node, A, false, T + 100);
  T = Rig_.go(7, B, false, T + 100);
  EXPECT_EQ(Rig_.R.DirEvictions, 1u);
  EXPECT_EQ(Rig_.R.Invalidations, 3u);
  EXPECT_EQ(Rig_.R.InvalidationAcks, 3u);
  // The broadcast really emptied every tile: node 0's re-read goes
  // off-chip again (nobody on chip holds A).
  std::uint64_t Off = Rig_.R.OffChipAccesses;
  T = Rig_.go(0, A, false, T + 100);
  EXPECT_EQ(Rig_.R.OffChipAccesses, Off + 1);
  Rig_.expectClean(T + 10000);
}

TEST(Coherence, IdenticalRunsProduceIdenticalResults) {
  // The protocol engine is deterministic: replaying the same access
  // sequence in a fresh rig reproduces every metric exactly.
  auto Play = [](Rig &Rig_) {
    std::uint64_t T = 0;
    for (unsigned I = 0; I < 200; ++I) {
      unsigned Node = (I * 7) % 16;
      std::uint64_t VA = 0x30000 + (I % 24) * 0x1000ull;
      T = Rig_.go(Node, VA, (I % 3) == 0, T + 50);
    }
    Rig_.M.finalize(Rig_.R, T + 10000);
    return T;
  };
  Rig A(mesiConfig()), B(mesiConfig());
  Play(A);
  Play(B);
  std::string Why;
  EXPECT_TRUE(equalResults(A.R, B.R, &Why)) << Why;
  EXPECT_TRUE(A.M.checkInvariants(A.R).empty());
}

//===----------------------------------------------------------------------===//
// Directory / FlatMap edges
//===----------------------------------------------------------------------===//

TEST(CoherenceDirectory, EraseAfterWalkNotDuringIt) {
  // The FlatMap forbids erasing inside forEach (backward-shift compaction
  // would corrupt the walk): the supported discipline is collect-then-
  // erase, which this test pins as a regression guard for every directory
  // walker.
  Directory D(64);
  for (std::uint64_t Line = 1; Line <= 10; ++Line)
    D.addSharer(Line, static_cast<unsigned>(Line % 8));
  EXPECT_EQ(D.trackedLines(), 10u);
  std::vector<std::uint64_t> Keys;
  D.forEachLine([&](std::uint64_t Line, std::uint64_t) {
    Keys.push_back(Line);
  });
  ASSERT_EQ(Keys.size(), 10u);
  for (std::uint64_t Line : Keys)
    D.eraseLine(Line);
  EXPECT_EQ(D.trackedLines(), 0u);
  for (std::uint64_t Line = 1; Line <= 10; ++Line)
    EXPECT_FALSE(D.tracksLine(Line));
}

TEST(CoherenceDirectory, VictimRotationIsDeterministicAndExhaustive) {
  // Two directories built identically must pick the same victim sequence,
  // and repeated pick+erase must drain every entry exactly once.
  auto Fill = [](Directory &D) {
    for (std::uint64_t Line = 100; Line < 120; ++Line)
      D.addSharer(Line, 3);
  };
  Directory A(64), B(64);
  Fill(A);
  Fill(B);
  std::vector<std::uint64_t> PickedA, PickedB;
  std::uint64_t Victim = 0;
  while (A.pickVictim(&Victim)) {
    EXPECT_TRUE(A.tracksLine(Victim));
    A.eraseLine(Victim);
    PickedA.push_back(Victim);
  }
  while (B.pickVictim(&Victim)) {
    B.eraseLine(Victim);
    PickedB.push_back(Victim);
  }
  EXPECT_EQ(PickedA, PickedB);
  EXPECT_EQ(PickedA.size(), 20u);
  std::vector<std::uint64_t> Sorted = PickedA;
  std::sort(Sorted.begin(), Sorted.end());
  for (std::size_t I = 0; I < Sorted.size(); ++I)
    EXPECT_EQ(Sorted[I], 100 + I);
}

TEST(CoherenceDirectory, ExclusiveOwnerTracksProtocolTransitions) {
  Directory D(64);
  std::uint64_t Line = 0x1234;
  EXPECT_EQ(D.exclusiveOwner(Line), -1);
  D.addSharer(Line, 5);
  D.setExclusive(Line, 5);
  EXPECT_EQ(D.exclusiveOwner(Line), 5);
  D.clearExclusive(Line);
  EXPECT_EQ(D.exclusiveOwner(Line), -1);
  // eraseLine drops the exclusive record along with the sharer mask.
  D.setExclusive(Line, 5);
  D.eraseLine(Line);
  EXPECT_EQ(D.exclusiveOwner(Line), -1);
  EXPECT_FALSE(D.tracksLine(Line));
}

TEST(CoherenceFlatMap, NextKeyRotatesOverEveryEntry) {
  FlatMap64 M;
  for (std::uint64_t K = 1; K <= 17; ++K)
    M.refOrInsert(K * 1000) = K;
  std::size_t Cursor = 0;
  std::uint64_t Key = 0;
  std::vector<std::uint64_t> Seen;
  const std::size_t N = M.size();
  for (std::size_t I = 0; I < N; ++I) {
    ASSERT_TRUE(M.nextKey(&Cursor, &Key));
    Seen.push_back(Key);
    ASSERT_TRUE(M.erase(Key));
  }
  EXPECT_FALSE(M.nextKey(&Cursor, &Key));
  std::sort(Seen.begin(), Seen.end());
  for (std::size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I], (I + 1) * 1000);
}
