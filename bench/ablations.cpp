//===- bench/ablations.cpp - design-choice ablations ----------------------===//
///
/// Quantifies the design choices DESIGN.md §4b/§5 calls out, on three
/// representative applications:
///   1. partition-phase alignment on/off (stencil center offsets),
///   2. the shared-L2 off-chip relocation on/off (the paper's δ idea),
///   3. the transform address-computation overhead charged vs waived
///      (Section 6.1's ~4%),
///   4. mapping M1 vs M2 (locality vs MLP — the Figure 17 tradeoff).
///
//===----------------------------------------------------------------------===//

#include "harness/BenchSuite.h"
#include "support/Format.h"

using namespace offchip;

namespace {

double execSaving(const SimResult &Base, const SimResult &Opt) {
  return savings(static_cast<double>(Base.ExecutionCycles),
                 static_cast<double>(Opt.ExecutionCycles));
}

/// Schedules an optimized run with a plan built from custom layout options.
SimFuture runWith(BenchSuite &Suite, std::shared_ptr<const AppModel> App,
                  const MachineConfig &Config,
                  const ClusterMapping &Mapping, LayoutOptions Options) {
  MachineConfig C = optimizedConfig(Config);
  ClusterMapping M = Mapping;
  return Suite.runCustom(
      [App = std::move(App), C, M = std::move(M), Options]() -> SimResult {
        LayoutTransformer Pass(M, Options);
        LayoutPlan Plan = Pass.run(App->Program);
        return runSingle(App->Program, Plan, C, M, App->ComputeGapCycles);
      });
}

} // namespace

int main(int Argc, char **Argv) {
  MachineConfig Config = MachineConfig::scaledDefault();
  BenchSuite Suite("Ablations: the design choices behind the pass",
                   "phase alignment, shared-L2 relocation, transform "
                   "overhead, M1 vs M2",
                   Config);
  if (auto Ec = Suite.parseArgs(Argc, Argv))
    return *Ec;
  const ClusterMapping &Mapping = Suite.m1();
  const ClusterMapping &M2 = Suite.m2();

  const char *Apps[] = {"mgrid", "apsi", "fma3d"};

  MachineConfig NoOv = Config;
  NoOv.TransformOverheadCycles = 0;
  MachineConfig Shared = Config;
  Shared.SharedL2 = true;

  struct AppRuns {
    std::string Name;
    SimFuture Base, Opt;            // M1, default config
    SimFuture OptNoOverhead;        // overhead waived
    SimFuture SharedBase;           // shared L2, original
    SimFuture SharedWith, SharedWithout; // delta-skip on / off
    SimFuture OptM2;
  };
  std::vector<AppRuns> Runs;
  for (const char *Name : Apps) {
    auto App = Suite.app(Name);
    AppRuns R;
    R.Name = Name;
    R.Base = Suite.run(App, RunVariant::Original);
    R.Opt = Suite.run(App, RunVariant::Optimized);
    R.OptNoOverhead = Suite.run(App, NoOv, Mapping, RunVariant::Optimized);
    R.SharedBase = Suite.run(App, Shared, Mapping, RunVariant::Original);
    LayoutOptions WithOpts = Shared.layoutOptions();
    LayoutOptions WithoutOpts = WithOpts;
    WithoutOpts.EnableDeltaSkip = false;
    R.SharedWith = runWith(Suite, App, Shared, Mapping, WithOpts);
    R.SharedWithout = runWith(Suite, App, Shared, Mapping, WithoutOpts);
    R.OptM2 = Suite.run(App, M2, RunVariant::Optimized);
    Runs.push_back(std::move(R));
  }

  Suite.header();

  // 1. Transform overhead charged vs waived (upper bound on its cost).
  Suite.note("[1] address-computation overhead (exec saving with / "
             "without the per-access charge)");
  for (AppRuns &R : Runs)
    Suite.note(formatString(
        "  %-10s charged %5.1f%%   waived %5.1f%%", R.Name.c_str(),
        100.0 * execSaving(R.Base.get(), R.Opt.get()),
        100.0 * execSaving(R.Base.get(), R.OptNoOverhead.get())));

  // 2. Shared-L2 off-chip relocation (the paper's delta idea) on/off.
  Suite.note("");
  Suite.note("[2] shared-L2 off-chip relocation (exec saving with "
             "relocation / on-chip-only)");
  for (AppRuns &R : Runs)
    Suite.note(formatString(
        "  %-10s relocated %5.1f%%   on-chip-only %5.1f%%", R.Name.c_str(),
        100.0 * execSaving(R.SharedBase.get(), R.SharedWith.get()),
        100.0 * execSaving(R.SharedBase.get(), R.SharedWithout.get())));

  // 3. M1 vs M2 (the Figure 17 tradeoff, condensed).
  Suite.note("");
  Suite.note("[3] locality (M1) vs memory-level parallelism (M2)");
  for (AppRuns &R : Runs)
    Suite.note(formatString(
        "  %-10s M1 %5.1f%%   M2 %5.1f%%", R.Name.c_str(),
        100.0 * execSaving(R.Base.get(), R.Opt.get()),
        100.0 * execSaving(R.Base.get(), R.OptM2.get())));

  // 4. Off-chip localization share: fraction of off-chip requests served by
  // the requester cluster's own controller, original vs optimized — the
  // mechanism every other number rests on.
  Suite.note("");
  Suite.note("[4] off-chip requests served by the cluster's own MC");
  auto Local = [&](const SimResult &R) {
    std::uint64_t L = 0, T = 0;
    for (unsigned Node = 0; Node < R.NumNodes; ++Node) {
      unsigned Own = Mapping.clusterMCs(Mapping.clusterOfNode(Node))[0];
      for (unsigned MC = 0; MC < R.NumMCs; ++MC) {
        T += R.trafficAt(Node, MC);
        if (MC == Own)
          L += R.trafficAt(Node, MC);
      }
    }
    return T == 0 ? 0.0
                  : 100.0 * static_cast<double>(L) /
                        static_cast<double>(T);
  };
  for (AppRuns &R : Runs)
    Suite.note(formatString("  %-10s original %5.1f%%   optimized %5.1f%%",
                            R.Name.c_str(), Local(R.Base.get()),
                            Local(R.Opt.get())));
  return 0;
}
