//===- tests/core_test.cpp - layout pass unit tests ------------------------===//

#include "core/ClusterMapping.h"
#include "core/DataLayout.h"
#include "core/DataToCore.h"
#include "core/LayoutTransformer.h"
#include "core/MappingSelector.h"

#include "workloads/AppModel.h"

#include "TestOracles.h"

#include <gtest/gtest.h>

#include <set>

using namespace offchip;

namespace {

Mesh mesh8() { return Mesh(8, 8); }

ClusterMapping m1() {
  Mesh M = mesh8();
  return ClusterMapping::makeLocalityMapping(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2, 1);
}

ClusterMapping m2() {
  Mesh M = mesh8();
  return ClusterMapping::makeLocalityMapping(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2, 2);
}

} // namespace

//===----------------------------------------------------------------------===//
// ClusterMapping
//===----------------------------------------------------------------------===//

TEST(ClusterMapping, RejectsUnevenGrid) {
  Mesh M = mesh8();
  std::string Err;
  auto R = ClusterMapping::create(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 3, 2,
      {{0}, {1}, {2}, {3}, {0}, {1}}, &Err);
  EXPECT_FALSE(R.has_value());
  EXPECT_FALSE(Err.empty());
}

TEST(ClusterMapping, RejectsUnequalMCCounts) {
  Mesh M = mesh8();
  std::string Err;
  auto R = ClusterMapping::create(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2,
      {{0}, {1}, {2}, {2, 3}}, &Err);
  EXPECT_FALSE(R.has_value());
}

TEST(ClusterMapping, RejectsNonContiguousGroups) {
  Mesh M = mesh8();
  std::string Err;
  // {0, 2} is not a contiguous interleave group for k=2.
  auto R = ClusterMapping::create(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2,
      {{0, 2}, {0, 2}, {1, 3}, {1, 3}}, &Err);
  EXPECT_FALSE(R.has_value());
}

TEST(ClusterMapping, RejectsUnbalancedGroups) {
  Mesh M = mesh8();
  std::string Err;
  // Group {0,1} serves 3 clusters, group {2,3} serves 1.
  auto R = ClusterMapping::create(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2,
      {{0, 1}, {0, 1}, {0, 1}, {2, 3}}, &Err);
  EXPECT_FALSE(R.has_value());
}

TEST(ClusterMapping, M1GeometryAndNearestAssignment) {
  ClusterMapping M = m1();
  EXPECT_EQ(M.numClusters(), 4u);
  EXPECT_EQ(M.mcsPerCluster(), 1u);
  EXPECT_EQ(M.numGroups(), 4u);
  EXPECT_EQ(M.coresPerClusterX(), 4u);
  EXPECT_EQ(M.coresPerClusterY(), 4u);
  // Each cluster must be assigned its own corner MC: the average distance
  // to the assigned MC equals the average distance to the nearest MC.
  EXPECT_DOUBLE_EQ(M.averageDistanceToAssignedMCs(),
                   oracle::meanNearestMCDistance(M));
}

TEST(ClusterMapping, M2SharesGroupsOfTwo) {
  ClusterMapping M = m2();
  EXPECT_EQ(M.mcsPerCluster(), 2u);
  EXPECT_EQ(M.numGroups(), 2u);
  // M2's average distance can only be worse (or equal).
  EXPECT_GE(M.averageDistanceToAssignedMCs(),
            m1().averageDistanceToAssignedMCs());
}

TEST(ClusterMapping, SequenceIdsRespectGroups) {
  for (const ClusterMapping &M : {m1(), m2()}) {
    std::set<unsigned> Seen;
    for (unsigned C = 0; C < M.numClusters(); ++C) {
      unsigned Q = M.sequenceId(C);
      EXPECT_EQ(Q % M.numGroups(), M.groupOfCluster(C));
      EXPECT_EQ(M.clusterBySequenceId(Q), C);
      Seen.insert(Q);
    }
    EXPECT_EQ(Seen.size(), M.numClusters());
  }
}

TEST(ClusterMapping, ThreadToNodeIsABijection) {
  ClusterMapping M = m1();
  std::set<unsigned> Nodes;
  for (unsigned T = 0; T < 64; ++T) {
    unsigned Node = M.threadToNode(T);
    EXPECT_LT(Node, 64u);
    Nodes.insert(Node);
  }
  EXPECT_EQ(Nodes.size(), 64u);
}

TEST(ClusterMapping, ThreadOrderMatchesBlockDecomposition) {
  // Thread ids walk y-within-cluster fastest (the R(r_v) order): groups of
  // coresPerClusterY consecutive threads share a cluster.
  ClusterMapping M = m1();
  unsigned NY = M.coresPerClusterY();
  for (unsigned T = 0; T < 64; ++T) {
    unsigned Cluster = M.clusterOfNode(M.threadToNode(T));
    unsigned First = M.clusterOfNode(M.threadToNode((T / NY) * NY));
    EXPECT_EQ(Cluster, First) << "thread " << T;
  }
}

TEST(ClusterMapping, AcceptableExcludesOnlyDiagonal) {
  ClusterMapping M = m1();
  // For corner MCs the only unacceptable controller is the diagonal one.
  std::vector<bool> A = M.acceptableMCsFor(0); // top-left
  EXPECT_TRUE(A[0]);
  EXPECT_TRUE(A[1]);  // top-right shares an edge
  EXPECT_TRUE(A[2]);  // bottom-left shares an edge
  EXPECT_FALSE(A[3]); // bottom-right is diagonal
}

//===----------------------------------------------------------------------===//
// Data-to-Core solver
//===----------------------------------------------------------------------===//

TEST(DataToCore, PaperExampleTransposesLayout) {
  // Figure 9(a): Z[j][i] with the i loop partitioned; U must swap the
  // dimensions (Figure 9(b): Z'[i][j]).
  WeightedAccess WA{IntMatrix::fromRows({{0, 1}, {1, 0}}), 0, 1000, {}};
  DataToCoreResult R = solveDataToCore(2, {WA});
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.U, IntMatrix::fromRows({{0, 1}, {1, 0}}));
  EXPECT_EQ(R.Gv, (IntVector{0, 1}));
  EXPECT_EQ(R.SatisfiedWeight, 1000u);
  EXPECT_EQ(R.SatisfiedRefs, 1u);
}

TEST(DataToCore, IdentityAccessKeepsRowMajor) {
  WeightedAccess WA{IntMatrix::identity(2), 0, 10, {}};
  DataToCoreResult R = solveDataToCore(2, {WA});
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Gv, (IntVector{1, 0}));
  EXPECT_EQ(R.U, IntMatrix::identity(2));
}

TEST(DataToCore, WeightedMajorityWins) {
  // Heavy identity access vs light transposed access: identity's layout
  // must win and the transposed reference stays unsatisfied.
  WeightedAccess Heavy{IntMatrix::identity(2), 0, 1000, {}};
  WeightedAccess Light{IntMatrix::fromRows({{0, 1}, {1, 0}}), 0, 10, {}};
  DataToCoreResult R = solveDataToCore(2, {Heavy, Light});
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Gv, (IntVector{1, 0}));
  EXPECT_EQ(R.SatisfiedWeight, 1000u);
  EXPECT_EQ(R.TotalWeight, 1010u);
  EXPECT_EQ(R.SatisfiedRefs, 1u);
  EXPECT_EQ(R.TotalRefs, 2u);
}

TEST(DataToCore, SharedDiagonalHasNoSolution) {
  // a = 8*i + j: the partition submatrix has full rank, so only the trivial
  // hyperplane exists — inherently shared data.
  IntMatrix A(1, 2);
  A.at(0, 0) = 8;
  A.at(0, 1) = 1;
  DataToCoreResult R = solveDataToCore(1, {{A, 0, 5, {}}});
  EXPECT_FALSE(R.Found);
}

TEST(DataToCore, DifferentPartitionDimsConflict) {
  // Identity accesses from two nests partitioned on different dims: the
  // heavier one decides.
  WeightedAccess OnDim0{IntMatrix::identity(3), 0, 100, {}};
  WeightedAccess OnDim1{IntMatrix::identity(3), 1, 900, {}};
  DataToCoreResult R = solveDataToCore(3, {OnDim0, OnDim1});
  ASSERT_TRUE(R.Found);
  // The dim-1 partitioning wins: g tracks data dimension 1.
  EXPECT_EQ(R.Gv, (IntVector{0, 1, 0}));
  EXPECT_EQ(R.SatisfiedWeight, 900u);
}

TEST(DataToCore, OrientationFollowsIterationOrder) {
  // Access a = (-1)*i + j over partitioned i: g must be oriented so that
  // g . (A e_u) > 0, i.e. g = (-1) direction handled by sign flip.
  IntMatrix A(1, 2);
  A.at(0, 0) = -1;
  A.at(0, 1) = 0;
  DataToCoreResult R = solveDataToCore(1, {{A, 0, 7, {}}});
  ASSERT_TRUE(R.Found);
  EXPECT_GT(dot(R.Gv, A.column(0)), 0);
}

TEST(DataToCore, CorrectToUnimodularFixesScaledRows) {
  IntMatrix Scaled = IntMatrix::fromRows({{2, 0}, {0, 3}});
  IntMatrix Fixed = correctToUnimodular(Scaled);
  EXPECT_TRUE(isUnimodular(Fixed));
  EXPECT_EQ(correctToUnimodular(IntMatrix::identity(3)),
            IntMatrix::identity(3));
}

//===----------------------------------------------------------------------===//
// PrivateL2Layout
//===----------------------------------------------------------------------===//

TEST(PrivateL2Layout, IsABijectionOnTheDataSpace) {
  ClusterMapping M = m1();
  ArrayDecl Decl{"a", {128, 96}, 8};
  PrivateL2Layout L(Decl, IntMatrix::identity(2), M, /*ElementsPerUnit=*/32);
  std::set<std::uint64_t> Seen;
  for (std::int64_t I = 0; I < 128; ++I)
    for (std::int64_t J = 0; J < 96; ++J) {
      std::uint64_t Off = L.elementOffset({I, J});
      EXPECT_LT(Off, L.sizeInElements());
      EXPECT_TRUE(Seen.insert(Off).second)
          << "collision at (" << I << "," << J << ")";
    }
}

TEST(PrivateL2Layout, RunsCycleOverClusterSequence) {
  ClusterMapping M = m1();
  ArrayDecl Decl{"a", {128, 128}, 8};
  PrivateL2Layout L(Decl, IntMatrix::identity(2), M, 32);
  // Every element's run must advertise the MC of the owning block's
  // cluster; with k=1 the desired MC is the cluster's single controller.
  for (std::int64_t I = 0; I < 128; I += 7)
    for (std::int64_t J = 0; J < 128; J += 5) {
      std::uint64_t Off = L.elementOffset({I, J});
      unsigned Thread = static_cast<unsigned>(I / L.blockSize());
      unsigned Cluster = M.clusterOfNode(M.threadToNode(Thread));
      int Desired = L.desiredMCForOffset(Off);
      ASSERT_GE(Desired, 0);
      EXPECT_EQ(static_cast<unsigned>(Desired), M.clusterMCs(Cluster)[0]);
      // And the hardware interleave agrees: with 32-element units and
      // 8-byte elements, unit index == Off/32, MC = unit % 4.
      EXPECT_EQ((Off / 32) % 4, static_cast<std::uint64_t>(Desired));
    }
}

TEST(PrivateL2Layout, M2RunsCoverBothGroupMCs) {
  ClusterMapping M = m2();
  ArrayDecl Decl{"a", {128, 128}, 8};
  PrivateL2Layout L(Decl, IntMatrix::identity(2), M, 32);
  // With k=2, a thread's consecutive 32-element units alternate between
  // the two MCs of its cluster's group.
  std::set<std::uint64_t> MCs;
  for (std::int64_t J = 0; J < 128; ++J)
    MCs.insert((L.elementOffset({0, J}) / 32) % 4);
  unsigned Cluster = M.clusterOfNode(M.threadToNode(0));
  std::set<std::uint64_t> Expected(M.clusterMCs(Cluster).begin(),
                                   M.clusterMCs(Cluster).end());
  EXPECT_EQ(MCs, Expected);
}

TEST(PrivateL2Layout, TransposedArrayLocalizesColumns) {
  // Paper example: Z[j][i] partitioned on i. After U swaps dims, column i
  // of the original array belongs to thread i/b entirely.
  ClusterMapping M = m1();
  ArrayDecl Decl{"z", {128, 128}, 8};
  IntMatrix U = IntMatrix::fromRows({{0, 1}, {1, 0}});
  PrivateL2Layout L(Decl, U, M, 32);
  for (std::int64_t I = 0; I < 128; I += 11) {
    // Original elements Z[j][i] for all j: one transformed column.
    int First = L.desiredMCForOffset(L.elementOffset({0, I}));
    for (std::int64_t J = 1; J < 128; J += 13)
      EXPECT_EQ(L.desiredMCForOffset(L.elementOffset({J, I})), First);
  }
}

TEST(PrivateL2Layout, OneDimensionalArrays) {
  ClusterMapping M = m1();
  ArrayDecl Decl{"v", {100000}, 8};
  PrivateL2Layout L(Decl, IntMatrix::identity(1), M, 32);
  std::set<std::uint64_t> Seen;
  for (std::int64_t I = 0; I < 100000; I += 17) {
    std::uint64_t Off = L.elementOffset({I});
    EXPECT_LT(Off, L.sizeInElements());
    EXPECT_TRUE(Seen.insert(Off).second);
  }
}

//===----------------------------------------------------------------------===//
// SharedL2Layout
//===----------------------------------------------------------------------===//

TEST(SharedL2Layout, HomeBankIsOwnersNodeWithoutRelocation) {
  ClusterMapping M = m1();
  ArrayDecl Decl{"a", {128, 128}, 8};
  SharedL2Layout L(Decl, IntMatrix::identity(2), M, 32,
                   /*EnableDeltaSkip=*/false);
  for (std::int64_t I = 0; I < 128; I += 2) {
    unsigned Thread = static_cast<unsigned>(I / 2); // block size 128/64
    EXPECT_EQ(oracle::homeBank(L, {I, 0}), M.threadToNode(Thread));
  }
  EXPECT_EQ(L.relocatedBanks(), 0u);
}

TEST(SharedL2Layout, RelocationKeepsBanksNearby) {
  ClusterMapping M = m1();
  ArrayDecl Decl{"a", {128, 128}, 8};
  SharedL2Layout L(Decl, IntMatrix::identity(2), M, 32,
                   /*EnableDeltaSkip=*/true);
  Mesh Mesh8(8, 8);
  double TotalDist = 0.0;
  for (std::int64_t I = 0; I < 128; I += 2) {
    unsigned Owner = M.threadToNode(static_cast<unsigned>(I / 2));
    unsigned Host = oracle::homeBank(L, {I, 0});
    EXPECT_LE(Mesh8.manhattan(Owner, Host), 8u)
        << "owner " << Owner << " hosted too far away";
    TotalDist += Mesh8.manhattan(Owner, Host);
  }
  // Most owners stay put; the mean displacement is small.
  EXPECT_LT(TotalDist / 64.0, 2.0);
  // Some owners must be relocated: their own residue maps to the diagonal
  // MC (the Eq. 4/5 impossibility).
  EXPECT_GT(L.relocatedBanks(), 0u);
  EXPECT_LT(L.relocatedBanks(), 64u);
}

TEST(SharedL2Layout, RelocatedResiduesAreAcceptable) {
  ClusterMapping M = m1();
  ArrayDecl Decl{"a", {128, 128}, 8};
  SharedL2Layout L(Decl, IntMatrix::identity(2), M, 32, true);
  for (std::int64_t I = 0; I < 128; I += 2) {
    unsigned Owner = M.threadToNode(static_cast<unsigned>(I / 2));
    unsigned Host = oracle::homeBank(L, {I, 0});
    unsigned Desired = M.clusterMCs(M.clusterOfNode(Owner))[0];
    EXPECT_TRUE(M.acceptableMCsFor(Desired)[Host % 4])
        << "owner " << Owner << " host " << Host;
  }
}

TEST(SharedL2Layout, BijectionAndBankConsistency) {
  ClusterMapping M = m1();
  ArrayDecl Decl{"a", {128, 64}, 8};
  SharedL2Layout L(Decl, IntMatrix::identity(2), M, 32, true);
  std::set<std::uint64_t> Seen;
  for (std::int64_t I = 0; I < 128; ++I)
    for (std::int64_t J = 0; J < 64; ++J) {
      std::uint64_t Off = L.elementOffset({I, J});
      EXPECT_LT(Off, L.sizeInElements());
      EXPECT_TRUE(Seen.insert(Off).second);
      // The hardware bank decode (line mod 64) must match the layout's
      // claimed home bank.
      EXPECT_EQ((Off / 32) % 64, oracle::homeBank(L, {I, J}));
    }
}

//===----------------------------------------------------------------------===//
// LayoutTransformer end-to-end
//===----------------------------------------------------------------------===//

TEST(LayoutTransformer, OriginalPlanIsRowMajorEverywhere) {
  AppModel App = buildApp("swim", 0.25);
  LayoutPlan Plan = LayoutTransformer::originalPlan(App.Program);
  for (const ArrayLayoutResult &R : Plan.PerArray) {
    EXPECT_FALSE(R.Optimized);
    EXPECT_FALSE(R.Layout->isTransformed());
  }
}

TEST(LayoutTransformer, OptimizesAffineAppsButNotSharedTables) {
  ClusterMapping M = m1();
  LayoutOptions O;
  AppModel App = buildApp("swim", 0.25);
  LayoutTransformer Pass(M, O);
  LayoutPlan Plan = Pass.run(App.Program);
  EXPECT_GT(Plan.arraysOptimizedFraction(), 0.5);
  EXPECT_GT(Plan.refsSatisfiedFraction(), 0.5);
  // The shared diagonal table must stay row-major.
  for (ArrayId Id = 0; Id < App.Program.numArrays(); ++Id) {
    if (App.Program.array(Id).Name == "shared_cu") {
      EXPECT_FALSE(Plan.PerArray[Id].Optimized);
    }
  }
}

TEST(LayoutTransformer, SkipsRandomIndexedArrays) {
  ClusterMapping M = m1();
  LayoutOptions O;
  AppModel App = buildApp("ammp", 0.25);
  LayoutTransformer Pass(M, O);
  LayoutPlan Plan = Pass.run(App.Program);
  // ammp's coords/forces are still optimized via their affine accesses,
  // but the random pair list cannot help: satisfied weight < total.
  EXPECT_LT(Plan.refsSatisfiedFraction(), 1.0);
}

TEST(LayoutTransformer, SharedModeBuildsSharedLayouts) {
  ClusterMapping M = m1();
  LayoutOptions O;
  O.SharedL2 = true;
  AppModel App = buildApp("mgrid", 0.25);
  LayoutTransformer Pass(M, O);
  LayoutPlan Plan = Pass.run(App.Program);
  bool AnyOptimized = false;
  for (const ArrayLayoutResult &R : Plan.PerArray)
    if (R.Optimized) {
      AnyOptimized = true;
      EXPECT_NE(dynamic_cast<SharedL2Layout *>(R.Layout.get()), nullptr);
    }
  EXPECT_TRUE(AnyOptimized);
}

TEST(LayoutTransformer, AllAppsProduceValidPlans) {
  ClusterMapping M = m1();
  LayoutOptions O;
  for (const std::string &Name : appNames()) {
    AppModel App = buildApp(Name, 0.25);
    LayoutTransformer Pass(M, O);
    LayoutPlan Plan = Pass.run(App.Program);
    ASSERT_EQ(Plan.PerArray.size(), App.Program.numArrays()) << Name;
    for (const ArrayLayoutResult &R : Plan.PerArray) {
      ASSERT_NE(R.Layout, nullptr) << Name;
      EXPECT_GT(R.Layout->sizeInElements(), 0u) << Name;
    }
    EXPECT_GT(Plan.arraysOptimizedFraction(), 0.0) << Name;
  }
}

//===----------------------------------------------------------------------===//
// MappingSelector
//===----------------------------------------------------------------------===//

TEST(MappingSelector, LowDemandPrefersLocality) {
  ClusterMapping M1Map = m1(), M2Map = m2();
  EXPECT_EQ(selectBestMapping({&M1Map, &M2Map}, /*DemandPerCore=*/0.3), 0u);
}

TEST(MappingSelector, HighDemandPrefersParallelism) {
  ClusterMapping M1Map = m1(), M2Map = m2();
  EXPECT_EQ(selectBestMapping({&M1Map, &M2Map}, /*DemandPerCore=*/3.0), 1u);
}

TEST(MappingSelector, FavorsM2ExactlyForTheHighDemandApps) {
  // The paper's observation: the analysis picks M2 for fma3d and minighost
  // and M1 for everything else.
  ClusterMapping M1Map = m1(), M2Map = m2();
  for (const std::string &Name : appNames()) {
    AppModel App = buildApp(Name, 0.25);
    unsigned Pick = selectBestMapping({&M1Map, &M2Map}, App.MemDemandPerCore);
    bool WantsM2 = Name == "fma3d" || Name == "minighost";
    EXPECT_EQ(Pick == 1, WantsM2) << Name;
  }
}

TEST(MappingSelector, ScoresAreMonotoneInDemand) {
  ClusterMapping M1Map = m1();
  double Prev = scoreMapping(M1Map, 0.1).QueueDelay;
  for (double D : {0.5, 1.0, 2.0, 4.0}) {
    double Cur = scoreMapping(M1Map, D).QueueDelay;
    EXPECT_GE(Cur, Prev);
    Prev = Cur;
  }
}
