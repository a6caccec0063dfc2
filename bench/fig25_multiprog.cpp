//===- bench/fig25_multiprog.cpp - Figure 25 reproduction -----------------===//
///
/// Figure 25 (Section 6.4): multiprogrammed workloads of multithreaded
/// applications, evaluated by weighted speedup [21]:
///   WS = sum_i Rate_shared,i / Rate_alone,i
/// with an application's rate measured as accesses per cycle. The paper's
/// approach does nothing special for multiprogramming; improvements range
/// 5.4%-13.1% depending on the mix.
///
//===----------------------------------------------------------------------===//

#include "harness/BenchSuite.h"
#include "support/Format.h"

#include <map>

using namespace offchip;

namespace {

using AppList = std::vector<std::shared_ptr<const AppModel>>;

/// Schedules the co-run of \p Apps (every app runs one thread on every
/// core; the mixes contend for caches, links and banks). The per-app
/// finish/access outputs land in \p Multi once the returned future
/// resolves.
SimFuture scheduleMix(BenchSuite &Suite, AppList Apps,
                      const MachineConfig &Config,
                      const ClusterMapping &Mapping, bool Optimized,
                      std::shared_ptr<RunOutputs> Multi) {
  MachineConfig C = Optimized ? optimizedConfig(Config) : Config;
  ClusterMapping M = Mapping;
  return Suite.runCustom([Apps = std::move(Apps), C, M = std::move(M),
                          Optimized, Multi]() -> SimResult {
    std::vector<unsigned> AllNodes;
    for (unsigned T = 0; T < M.mesh().numNodes(); ++T)
      AllNodes.push_back(M.threadToNode(T));
    std::vector<LayoutPlan> Plans;
    for (const auto &App : Apps) {
      if (Optimized) {
        LayoutTransformer Pass(M, C.layoutOptions());
        Plans.push_back(Pass.run(App->Program));
      } else {
        Plans.push_back(LayoutTransformer::originalPlan(App->Program));
      }
    }
    std::vector<AppInstance> Instances;
    for (unsigned I = 0; I < Apps.size(); ++I) {
      AppInstance Inst;
      Inst.Program = &Apps[I]->Program;
      Inst.Plan = &Plans[I];
      Inst.Nodes = AllNodes;
      Inst.ComputeGapCycles = Apps[I]->ComputeGapCycles;
      Instances.push_back(std::move(Inst));
    }
    return runSimulation(Instances, C, M, Multi.get());
  });
}

double weightedSpeedup(const RunOutputs &Multi,
                       const std::vector<double> &AloneRates) {
  double WS = 0.0;
  for (unsigned I = 0; I < AloneRates.size(); ++I) {
    double SharedRate = static_cast<double>(Multi.AppAccesses[I]) /
                        static_cast<double>(Multi.AppFinishCycles[I]);
    WS += SharedRate / AloneRates[I];
  }
  return WS;
}

} // namespace

int main(int Argc, char **Argv) {
  MachineConfig Config = MachineConfig::scaledDefault();
  BenchSuite Suite("Figure 25: multiprogrammed workloads, weighted speedup",
                   "improvements between 5.4% and 13.1% depending on mix",
                   Config);
  if (auto Ec = Suite.parseArgs(Argc, Argv))
    return *Ec;
  const ClusterMapping &Mapping = Suite.m1();

  struct MixRow {
    std::string Label;
    std::vector<SimFuture> Alone; // accesses-per-cycle when run alone
    SimFuture Base, Opt;
    std::shared_ptr<RunOutputs> MultiBase, MultiOpt;
  };
  // Alone-rate runs are shared between mixes containing the same app at the
  // same scale.
  std::map<std::pair<std::string, double>, SimFuture> AloneCache;

  std::vector<MixRow> Rows;
  for (const std::vector<std::string> &Mix : multiprogramMixes()) {
    MixRow Row;
    AppList Apps;
    for (const std::string &Name : Mix) {
      // Scale the 2D/1D apps down so a mix's total footprint resembles one
      // full-size app; the 3D grids keep their full extent (their partition
      // dimension must cover all 64 threads).
      bool Is3D = Name == "mgrid" || Name == "applu" || Name == "apsi" ||
                  Name == "minighost";
      double Scale = Is3D ? 1.0 : (Mix.size() > 2 ? 0.45 : 0.6);
      auto App = Suite.app(Name, Scale);
      Apps.push_back(App);
      auto Key = std::make_pair(Name, Scale);
      auto It = AloneCache.find(Key);
      if (It == AloneCache.end())
        It = AloneCache
                 .emplace(Key, Suite.run(App, RunVariant::Original))
                 .first;
      Row.Alone.push_back(It->second);
      if (!Row.Label.empty())
        Row.Label += "+";
      Row.Label += Name;
    }
    Row.MultiBase = std::make_shared<RunOutputs>();
    Row.MultiOpt = std::make_shared<RunOutputs>();
    Row.Base = scheduleMix(Suite, Apps, Config, Mapping,
                           /*Optimized=*/false, Row.MultiBase);
    Row.Opt = scheduleMix(Suite, std::move(Apps), Config, Mapping,
                          /*Optimized=*/true, Row.MultiOpt);
    Rows.push_back(std::move(Row));
  }

  Suite.header();
  Suite.columns(
      {{"workload", 36}, {"WS-orig", 10}, {"WS-opt", 10}, {"gain", 10}});
  for (MixRow &Row : Rows) {
    std::vector<double> AloneRates;
    for (SimFuture &F : Row.Alone) {
      const SimResult &R = F.get();
      AloneRates.push_back(static_cast<double>(R.TotalAccesses) /
                           static_cast<double>(R.ExecutionCycles));
    }
    Row.Base.get(); // synchronizes MultiBase
    Row.Opt.get();  // synchronizes MultiOpt
    double WSBase = weightedSpeedup(*Row.MultiBase, AloneRates);
    double WSOpt = weightedSpeedup(*Row.MultiOpt, AloneRates);
    Suite.row({Row.Label, formatString("%.3f", WSBase),
               formatString("%.3f", WSOpt),
               formatString("%.1f%%", 100.0 * (WSOpt / WSBase - 1.0))});
  }
  return 0;
}
