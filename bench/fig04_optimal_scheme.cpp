//===- bench/fig04_optimal_scheme.cpp - Figure 4 reproduction -------------===//
///
/// Figure 4 (Section 2): the headroom of an *optimal scheme* in which every
/// off-chip request is served by the nearest MC with no network contention
/// (the banks still queue as usual). Paper averages: on-chip network latency -20.8%,
/// off-chip network latency -68.2%, memory latency -45.6%, execution time
/// -19.5%, under page interleaving.
///
//===----------------------------------------------------------------------===//

#include "harness/BenchSuite.h"

#include <cstdio>

using namespace offchip;

int main(int Argc, char **Argv) {
  MachineConfig Config = MachineConfig::scaledDefault();
  Config.Granularity = InterleaveGranularity::Page;
  BenchSuite Suite(
      "Figure 4: headroom of the optimal scheme (page interleaving)",
      "avg on-chip net 20.8%, off-chip net 68.2%, mem 45.6%, exec 19.5%",
      Config);
  if (auto Ec = Suite.parseArgs(Argc, Argv))
    return *Ec;
  // The optimal variant is a machine of its own (validate() rejects it
  // under --coherence): refuse it up front like any other bad flag mix.
  MachineConfig Optimal = Suite.config();
  Optimal.OptimalScheme = true;
  if (std::vector<ConfigDiagnostic> Diags = Optimal.validate();
      !Diags.empty()) {
    std::fprintf(stderr, "%s\n", renderDiagnostics(Diags).c_str());
    return 2;
  }

  struct Row {
    std::string Name;
    SimFuture Base, Best;
  };
  std::vector<Row> Rows;
  for (const std::string &Name : Suite.apps()) {
    auto App = Suite.app(Name);
    Rows.push_back({Name, Suite.run(App, RunVariant::Original),
                    Suite.run(App, RunVariant::Optimal)});
  }

  Suite.header();
  Suite.savingsColumns();
  for (Row &R : Rows)
    Suite.savingsRow(R.Name, summarizeSavings(R.Base.get(), R.Best.get()));
  Suite.savingsAverage();
  return 0;
}
