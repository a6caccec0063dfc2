//===- tests/machine_test.cpp - Machine access-flow unit tests -------------===//
///
/// Drives Machine::access directly with hand-picked addresses, pinning the
/// Figure 2 flows: hit classification, directory-served on-chip transfers,
/// home-bank routing, the optimal scheme's redirection, and first-touch
/// translation; and the directory's initial size.
///
//===----------------------------------------------------------------------===//

#include "affine/ProgramText.h"
#include "harness/Experiment.h"
#include "sim/AddressMap.h"
#include "sim/Machine.h"
#include "support/Random.h"

#include <gtest/gtest.h>

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
};

MachineConfig privateConfig() {
  MachineConfig C = MachineConfig::scaledDefault();
  return C;
}

} // namespace

TEST(Machine, L1HitCostsL1Latency) {
  Rig Rig_(privateConfig());
  // First access misses everywhere; the second hits in L1.
  std::uint64_t Done1 = Rig_.M.access(0, 0x10000, false, 0, Rig_.R);
  std::uint64_t Done2 =
      Rig_.M.access(0, 0x10008, false, Done1, Rig_.R);
  EXPECT_EQ(Done2 - Done1, Rig_.Config.L1LatencyCycles);
  EXPECT_EQ(Rig_.R.TotalAccesses, 2u);
  EXPECT_EQ(Rig_.R.L1Hits, 1u);
  EXPECT_EQ(Rig_.R.OffChipAccesses, 1u);
}

TEST(Machine, L2HitAfterL1Eviction) {
  Rig Rig_(privateConfig());
  // Touch enough distinct L1 lines within one L2 line's reach... simpler:
  // two L1 lines in the same 256B L2 line: second access misses L1 (other
  // line) but hits the L2 filled by the first.
  Rig_.M.access(5, 0x20000, false, 0, Rig_.R);
  Rig_.M.access(5, 0x20080, false, 1000, Rig_.R); // same L2 line, other L1
  EXPECT_EQ(Rig_.R.LocalL2Hits, 1u);
  EXPECT_EQ(Rig_.R.OffChipAccesses, 1u);
}

TEST(Machine, DirectoryServesRemoteSharers) {
  Rig Rig_(privateConfig());
  // Node 9 fetches a line off-chip; node 10's later miss must be served
  // on-chip from node 9's L2 via the directory.
  Rig_.M.access(9, 0x30000, false, 0, Rig_.R);
  Rig_.M.access(10, 0x30000, false, 5000, Rig_.R);
  EXPECT_EQ(Rig_.R.OffChipAccesses, 1u);
  EXPECT_EQ(Rig_.R.RemoteL2Hits, 1u);
  EXPECT_GT(Rig_.R.OnChipNetLatency.count(), 0u);
}

TEST(Machine, TrafficMapRecordsRequesterAndMC) {
  Rig Rig_(privateConfig());
  std::uint64_t VA = 0x40000;
  Rig_.M.access(3, VA, false, 0, Rig_.R);
  unsigned MC = static_cast<unsigned>(
      (VA / Rig_.Config.interleaveBytes()) % Rig_.Config.NumMCs);
  EXPECT_EQ(Rig_.R.NodeToMCTraffic[3 * Rig_.Config.NumMCs + MC], 1u);
}

TEST(Machine, OptimalSchemeUsesNearestMC) {
  MachineConfig C = privateConfig();
  C.OptimalScheme = true;
  Rig Rig_(C);
  // Node 0 (top-left corner) must be served by MC0 regardless of the
  // address's interleave residue.
  std::uint64_t VA = 0x40000 + C.interleaveBytes(); // residue 1
  Rig_.M.access(0, VA, false, 0, Rig_.R);
  EXPECT_EQ(Rig_.R.NodeToMCTraffic[0 * C.NumMCs + 0], 1u);
}

TEST(Machine, SharedFlowRoutesToHomeBank) {
  MachineConfig C = privateConfig();
  C.SharedL2 = true;
  Rig Rig_(C);
  // With identity translation the home bank is (VA / 256) % 64. A second
  // access to the same line from another node must hit the home bank.
  std::uint64_t VA = 37ull * C.L2LineBytes; // home bank 37
  Rig_.M.access(2, VA, false, 0, Rig_.R);
  Rig_.M.access(11, VA + 8, false, 5000, Rig_.R);
  EXPECT_EQ(Rig_.R.OffChipAccesses, 1u);
  EXPECT_EQ(Rig_.R.RemoteL2Hits, 1u);
  // Shared machines never report local L2 hits.
  EXPECT_EQ(Rig_.R.LocalL2Hits, 0u);
}

TEST(Machine, SharedBankHitFromOwnNodeHasNoNetwork) {
  MachineConfig C = privateConfig();
  C.SharedL2 = true;
  Rig Rig_(C);
  std::uint64_t VA = 37ull * C.L2LineBytes;
  Rig_.M.access(37, VA, false, 0, Rig_.R);           // fill (off-chip)
  std::uint64_t T1 = 100000;
  // +128 bytes: a different L1 line within the same (resident) L2 line.
  std::uint64_t Done = Rig_.M.access(37, VA + 128, false, T1, Rig_.R);
  // L1 miss -> home bank is the same node: only L1+L2 latency.
  EXPECT_EQ(Done - T1, C.L1LatencyCycles + C.L2LatencyCycles);
}

TEST(Machine, PageInterleaveTranslatesByPolicy) {
  MachineConfig C = privateConfig();
  C.Granularity = InterleaveGranularity::Page;
  C.PagePolicy = PageAllocPolicy::FirstTouch;
  Rig Rig_(C);
  // Node 9 sits in the top-left cluster: its first touch pins the page to
  // MC0, so its own request is recorded against MC0.
  Rig_.M.access(9, 0x100000, false, 0, Rig_.R);
  EXPECT_EQ(Rig_.R.NodeToMCTraffic[9 * C.NumMCs + 0], 1u);
  // Another node's access to the same page goes to the pinned MC too.
  Rig_.M.access(54, 0x100000 + 64, false, 50000, Rig_.R);
  if (Rig_.R.OffChipAccesses == 2) { // may be a directory hit instead
    EXPECT_EQ(Rig_.R.NodeToMCTraffic[54 * C.NumMCs + 0], 1u);
  }
}

TEST(Machine, FinalizeFillsMemoryStatistics) {
  Rig Rig_(privateConfig());
  for (unsigned I = 0; I < 32; ++I)
    Rig_.M.access(I % 4, 0x50000 + I * 4096ull, false, I * 10, Rig_.R);
  Rig_.M.finalize(Rig_.R, 100000);
  EXPECT_EQ(Rig_.R.NumNodes, Rig_.Config.numNodes());
  EXPECT_EQ(Rig_.R.NumMCs, Rig_.Config.NumMCs);
  EXPECT_EQ(Rig_.R.PerMCAccesses.size(), Rig_.Config.NumMCs);
  std::uint64_t Sum = 0;
  for (std::uint64_t A : Rig_.R.PerMCAccesses)
    Sum += A;
  EXPECT_EQ(Sum, Rig_.R.OffChipAccesses);
}

//===----------------------------------------------------------------------===//
// MachineConfig::validate() boundary sweep
//===----------------------------------------------------------------------===//

namespace {

/// True when validate() reports at least one diagnostic naming \p Field.
bool rejectsWith(const MachineConfig &C, const std::string &Field) {
  for (const ConfigDiagnostic &D : C.validate())
    if (D.Field == Field)
      return true;
  return false;
}

} // namespace

TEST(ConfigValidate, DefaultsAreClean) {
  EXPECT_TRUE(MachineConfig::scaledDefault().validate().empty());
  EXPECT_TRUE(MachineConfig().validate().empty());
}

TEST(ConfigValidate, RejectsDegenerateMeshes) {
  // Each of these crashed a constructor before validate() existed: 0-wide
  // meshes divide by zero in the mapping, 1-wide ones underflow the
  // placement arithmetic, and >64 nodes overflow the directory's bitmask.
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 0;
  EXPECT_TRUE(rejectsWith(C, "MeshX"));
  C.MeshX = 1;
  EXPECT_TRUE(rejectsWith(C, "MeshX"));
  C = MachineConfig::scaledDefault();
  C.MeshY = 0;
  EXPECT_TRUE(rejectsWith(C, "MeshY"));
  C = MachineConfig::scaledDefault();
  C.MeshX = 16;
  C.MeshY = 16;
  EXPECT_TRUE(rejectsWith(C, "MeshX*MeshY"));
}

TEST(ConfigValidate, RejectsZeroCacheGeometry) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.L1LineBytes = 0;
  EXPECT_TRUE(rejectsWith(C, "L1LineBytes"));
  C = MachineConfig::scaledDefault();
  C.L1Ways = 0;
  EXPECT_TRUE(rejectsWith(C, "L1Ways"));
  C = MachineConfig::scaledDefault();
  C.L2SizeBytes = C.L2LineBytes * C.L2Ways + 1; // not a whole set count
  EXPECT_TRUE(rejectsWith(C, "L2SizeBytes"));
}

TEST(ConfigValidate, RejectsLineStraddle) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.L1LineBytes = 48; // 256 % 48 != 0: an L1 line would straddle L2 lines
  EXPECT_TRUE(rejectsWith(C, "L2LineBytes"));
}

TEST(ConfigValidate, RejectsBadPageGeometry) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.PageBytes = 0;
  EXPECT_TRUE(rejectsWith(C, "PageBytes"));
  C.PageBytes = 3000; // not a power of two
  EXPECT_TRUE(rejectsWith(C, "PageBytes"));
  C = MachineConfig::scaledDefault();
  C.Granularity = InterleaveGranularity::Page;
  C.BytesPerMC = C.PageBytes / 2;
  EXPECT_TRUE(rejectsWith(C, "BytesPerMC"));
}

TEST(ConfigValidate, RejectsBadMcCounts) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.NumMCs = 0;
  EXPECT_TRUE(rejectsWith(C, "NumMCs"));
  C = MachineConfig::scaledDefault();
  C.NumMCs = 128; // the per-page MC hint is an int8
  EXPECT_TRUE(rejectsWith(C, "NumMCs"));
  C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::EdgeMidpoints;
  C.NumMCs = 6; // EdgeMidpoints is exactly 4
  EXPECT_TRUE(rejectsWith(C, "NumMCs"));
  C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::TopBottomSpread;
  C.NumMCs = 3; // odd counts cannot split across two edges
  EXPECT_TRUE(rejectsWith(C, "NumMCs"));
}

TEST(ConfigValidate, AcceptsTwoCornerMcs) {
  // NumMCs == 2 under Corners used to divide by zero in the placement
  // spread; it is a legal machine and must both validate and simulate.
  MachineConfig C = MachineConfig::scaledDefault();
  C.NumMCs = 2;
  EXPECT_TRUE(C.validate().empty());
  Rig Rig_(C);
  Rig_.M.access(0, 0x10000, false, 0, Rig_.R);
  Rig_.M.finalize(Rig_.R, 1000);
  EXPECT_EQ(Rig_.R.OffChipAccesses, 1u);
}

TEST(ConfigValidate, RejectsZeroNocAndDramGeometry) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Noc.LinkBytes = 0;
  EXPECT_TRUE(rejectsWith(C, "Noc.LinkBytes"));
  C = MachineConfig::scaledDefault();
  C.Dram.Banks = 0;
  EXPECT_TRUE(rejectsWith(C, "Dram.Banks"));
  C = MachineConfig::scaledDefault();
  C.Dram.RowBufferBytes = 0;
  EXPECT_TRUE(rejectsWith(C, "Dram.RowBufferBytes"));
  C = MachineConfig::scaledDefault();
  C.ThreadsPerCore = 0;
  EXPECT_TRUE(rejectsWith(C, "ThreadsPerCore"));
}

TEST(ConfigValidate, RejectsOptimalSchemeUnderCoherence) {
  // The coherence flow never reads OptimalScheme, so accepting the pair
  // would answer an "optimal" run with the plain coherent results.
  MachineConfig C = MachineConfig::scaledDefault();
  C.OptimalScheme = true;
  EXPECT_TRUE(C.validate().empty());
  for (MachineConfig::CoherenceProtocol P :
       {MachineConfig::CoherenceProtocol::MSI,
        MachineConfig::CoherenceProtocol::MESI}) {
    C.Coherence.Protocol = P;
    EXPECT_TRUE(rejectsWith(C, "OptimalScheme"));
  }
}

TEST(ConfigValidate, DiagnosticsCarryValueConstraintAndFix) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 0;
  std::vector<ConfigDiagnostic> Diags = C.validate();
  ASSERT_FALSE(Diags.empty());
  const ConfigDiagnostic &D = Diags.front();
  EXPECT_EQ(D.Field, "MeshX");
  EXPECT_EQ(D.Value, "0");
  EXPECT_FALSE(D.Constraint.empty());
  EXPECT_FALSE(D.Fix.empty());
  EXPECT_NE(D.str().find("MeshX = 0"), std::string::npos);
  EXPECT_NE(renderDiagnostics(Diags).find("invalid machine config: MeshX"),
            std::string::npos);
}

TEST(Machine, AccessClassesPartitionTotals) {
  Rig Rig_(privateConfig());
  SplitMix64 Rng(3);
  std::uint64_t T = 0;
  for (int I = 0; I < 2000; ++I) {
    unsigned Node = static_cast<unsigned>(Rng.nextBelow(64));
    std::uint64_t VA = Rng.nextBelow(1u << 22);
    T += 10;
    Rig_.M.access(Node, VA, Rng.nextBelow(4) == 0, T, Rig_.R);
  }
  EXPECT_EQ(Rig_.R.L1Hits + Rig_.R.LocalL2Hits + Rig_.R.RemoteL2Hits +
                Rig_.R.OffChipAccesses,
            Rig_.R.TotalAccesses);
}

TEST(Machine, DirectoryStartsAtTheDataFootprint) {
  // The directory's table is sized from the lines the address maps
  // reserved, capped at 1 << 14 lines (a 32768-slot table): a tiny program
  // allocates KiBs, an app at a quarter of its size keeps the capped start.
  MachineConfig C = privateConfig();
  auto InitialSlots = [](const MachineConfig &C, const AffineProgram &P) {
    VirtualMemory VM(VmConfig{C.PageBytes, C.NumMCs, C.BytesPerMC},
                     C.PagePolicy);
    LayoutPlan Plan = LayoutTransformer::originalPlan(P);
    AddressMap Map(P, Plan, VM, C);
    ClusterMapping Mapping = makeM1Mapping(C);
    return Machine(C, Mapping, VM).directory().tableSlots();
  };
  std::optional<AffineProgram> Tiny = parseProgramText(R"(
program tiny
array a dims 32 32 elem 8
nest sweep bounds 0:32 1:31 parallel 0
  read  a [ i1-1, i0 ]
  write a [ i1, i0 ]
end
)");
  ASSERT_TRUE(Tiny);
  std::size_t TinySlots = InitialSlots(C, *Tiny);
  EXPECT_LE(TinySlots * 16, 4096u) << TinySlots << " slots";
  EXPECT_EQ(InitialSlots(C, buildApp("swim", 0.25).Program), 32768u);

  // The sparse directory's victim rotation walks the slots: it keeps the
  // fixed start whatever the footprint.
  MachineConfig Sparse = C;
  Sparse.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  Sparse.Coherence.SparseDirectory = true;
  EXPECT_EQ(InitialSlots(Sparse, *Tiny), 32768u);
}
