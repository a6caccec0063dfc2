//===- tests/harness_test.cpp - experiment harness tests -------------------===//

#include "harness/Experiment.h"

#include "TestOracles.h"

#include <gtest/gtest.h>

using namespace offchip;

TEST(HarnessMappings, M1AcrossMachineShapes) {
  for (auto [X, Y] : {std::pair<unsigned, unsigned>{8, 8}, {4, 8}, {4, 4}}) {
    MachineConfig C = MachineConfig::scaledDefault();
    C.MeshX = X;
    C.MeshY = Y;
    ClusterMapping M = makeM1Mapping(C);
    EXPECT_EQ(M.numMCs(), C.NumMCs);
    EXPECT_EQ(M.mcsPerCluster(), 1u);
    EXPECT_EQ(M.numClusters(), C.NumMCs);
    EXPECT_EQ(M.mesh().numNodes(), C.numNodes());
    // Nearest assignment stays close to the nearest-MC lower bound (equal
    // on the square 8x8 machine; rectangular clusters put a few nodes
    // nearer to a neighbor cluster's controller).
    EXPECT_LE(M.averageDistanceToAssignedMCs(),
              oracle::meanNearestMCDistance(M) * 1.6);
    if (X == Y && X == 8) {
      EXPECT_DOUBLE_EQ(M.averageDistanceToAssignedMCs(),
                       oracle::meanNearestMCDistance(M));
    }
  }
}

TEST(HarnessMappings, M1WithMoreControllers) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.NumMCs = 8;
  C.Placement = MCPlacementKind::TopBottomSpread;
  ClusterMapping M = makeM1Mapping(C);
  EXPECT_EQ(M.numClusters(), 8u);
  EXPECT_EQ(M.numGroups(), 8u);
}

TEST(HarnessMappings, M2KeepsClusterGeometry) {
  MachineConfig C = MachineConfig::scaledDefault();
  ClusterMapping M1 = makeM1Mapping(C);
  ClusterMapping M2 = makeM2Mapping(C);
  EXPECT_EQ(M2.numClusters(), M1.numClusters());
  EXPECT_EQ(M2.mcsPerCluster(), 2u);
  EXPECT_EQ(M2.numGroups(), 2u);
}

TEST(HarnessVariants, PlanSelection) {
  MachineConfig C = MachineConfig::scaledDefault();
  ClusterMapping M = makeM1Mapping(C);
  AppModel App = buildApp("wupwise", 0.25);
  LayoutPlan Orig = planForVariant(App, C, M, RunVariant::Original);
  LayoutPlan Opt = planForVariant(App, C, M, RunVariant::Optimized);
  LayoutPlan FT = planForVariant(App, C, M, RunVariant::FirstTouch);
  EXPECT_DOUBLE_EQ(Orig.arraysOptimizedFraction(), 0.0);
  EXPECT_GT(Opt.arraysOptimizedFraction(), 0.0);
  // First-touch runs on the original layouts (it is an OS policy).
  EXPECT_DOUBLE_EQ(FT.arraysOptimizedFraction(), 0.0);
}

TEST(HarnessVariants, VariantsProduceDistinctRuns) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 4;
  C.MeshY = 4;
  C.Granularity = InterleaveGranularity::Page;
  ClusterMapping M = makeM1Mapping(C);
  AppModel App = buildApp("wupwise", 0.25);
  SimResult Base = runVariant(App, C, M, RunVariant::Original);
  SimResult Opt = runVariant(App, C, M, RunVariant::Optimized);
  SimResult FT = runVariant(App, C, M, RunVariant::FirstTouch);
  SimResult Best = runVariant(App, C, M, RunVariant::Optimal);
  // Identical access counts, different placements/times.
  EXPECT_EQ(Base.TotalAccesses, Opt.TotalAccesses);
  EXPECT_EQ(Base.TotalAccesses, FT.TotalAccesses);
  EXPECT_EQ(Base.TotalAccesses, Best.TotalAccesses);
  EXPECT_NE(Base.ExecutionCycles, Opt.ExecutionCycles);
  EXPECT_LT(Best.OffChipMsgHops.mean(), Base.OffChipMsgHops.mean());
}

TEST(HarnessVariants, OptimalRedirectsEverythingNearest) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 4;
  C.MeshY = 4;
  ClusterMapping M = makeM1Mapping(C);
  AppModel App = buildApp("wupwise", 0.25);
  SimResult Best = runVariant(App, C, M, RunVariant::Optimal);
  // Under Optimal every node's off-chip traffic goes to its nearest MC,
  // which for M1's quadrant clusters is the cluster's own controller.
  for (unsigned Node = 0; Node < C.numNodes(); ++Node) {
    unsigned Own = M.clusterMCs(M.clusterOfNode(Node))[0];
    for (unsigned MC = 0; MC < C.NumMCs; ++MC) {
      if (MC == Own)
        continue;
      EXPECT_EQ(Best.trafficAt(Node, MC), 0u)
          << "node " << Node << " leaked to MC " << MC;
    }
  }
}

TEST(HarnessGrid, RejectsImpossibleGrids) {
  unsigned CX = 0, CY = 0;
  // 5 groups cannot divide an 8x8 mesh.
  EXPECT_DEATH(defaultClusterGrid(8, 8, 5, CX, CY), "cluster grid");
}
