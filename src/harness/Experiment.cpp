//===- harness/Experiment.cpp ---------------------------------------------===//

#include "harness/Experiment.h"

#include "support/Error.h"

using namespace offchip;

void offchip::defaultClusterGrid(unsigned MeshX, unsigned MeshY,
                                 unsigned NumGroups, unsigned &CX,
                                 unsigned &CY) {
  double BestSkew = -1.0;
  CX = 0;
  CY = 0;
  for (unsigned X = 1; X <= NumGroups; ++X) {
    if (NumGroups % X != 0)
      continue;
    unsigned Y = NumGroups / X;
    if (MeshX % X != 0 || MeshY % Y != 0)
      continue;
    double W = static_cast<double>(MeshX) / X;
    double H = static_cast<double>(MeshY) / Y;
    double Skew = W > H ? W / H : H / W;
    if (CX == 0 || Skew < BestSkew) {
      CX = X;
      CY = Y;
      BestSkew = Skew;
    }
  }
  if (CX == 0)
    reportFatalError("no cluster grid divides the mesh for this MC count");
}

ClusterMapping offchip::makeM1Mapping(const MachineConfig &Config) {
  return makeM2Mapping(Config, /*MCsPerCluster=*/1);
}

ClusterMapping offchip::makeM2Mapping(const MachineConfig &Config,
                                      unsigned MCsPerCluster) {
  Mesh M(Config.MeshX, Config.MeshY);
  std::vector<unsigned> MCNodes = Config.placedMCNodes();
  // Keep the M1 cluster geometry (Figure 8b keeps four 4x4 clusters) but
  // assign each cluster a group of MCsPerCluster controllers.
  unsigned CX, CY;
  defaultClusterGrid(Config.MeshX, Config.MeshY, Config.NumMCs, CX, CY);
  return ClusterMapping::makeLocalityMapping(M, std::move(MCNodes), CX, CY,
                                             MCsPerCluster);
}

LayoutPlan offchip::planForVariant(const AppModel &App,
                                   const MachineConfig &Config,
                                   const ClusterMapping &Mapping,
                                   RunVariant Variant) {
  if (Variant == RunVariant::Optimized) {
    LayoutTransformer Pass(Mapping, Config.layoutOptions());
    return Pass.run(App.Program);
  }
  return LayoutTransformer::originalPlan(App.Program);
}

MachineConfig offchip::optimizedConfig(const MachineConfig &Config) {
  MachineConfig C = Config;
  if (C.Granularity == InterleaveGranularity::Page)
    C.PagePolicy = PageAllocPolicy::CompilerGuided;
  return C;
}

SimResult offchip::runVariant(const AppModel &App,
                              const MachineConfig &Config,
                              const ClusterMapping &Mapping,
                              RunVariant Variant) {
  MachineConfig C = Config;
  switch (Variant) {
  case RunVariant::Original:
    break;
  case RunVariant::Optimized:
    C = optimizedConfig(C);
    break;
  case RunVariant::Optimal:
    C.OptimalScheme = true;
    break;
  case RunVariant::FirstTouch:
    C.PagePolicy = PageAllocPolicy::FirstTouch;
    break;
  }
  LayoutPlan Plan = planForVariant(App, C, Mapping, Variant);
  return runSingle(App.Program, Plan, C, Mapping, App.ComputeGapCycles);
}
