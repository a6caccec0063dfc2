//===- perfbench/src/Sim.cpp - sim-original and sim-optimized -------------===//
///
/// Round-robin simulations of three applications on the paper's machine,
/// many short samples each, after an untimed reference simulation per
/// application. Every sample must reproduce its application's reference
/// bit for bit.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Layers.h"
#include "Serve.h"
#include "Trace.h"

#include "core/CodeGen.h"
#include "harness/Experiment.h"
#include "sim/Engine.h"
#include "workloads/AppModel.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <random>

using namespace offchip;
using namespace perfbench;

MachineConfig perfbench::paperMachine() {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Granularity = InterleaveGranularity::Page;
  return C;
}

namespace {

/// The applications and their size scales. Each sample simulates one
/// application to completion; the scales keep a sample between about 50
/// and 300 ms so a 30-s window holds dozens per application.
/// hpccg brings the gather streams and the deep DRAM queues.
const std::vector<AppSize> SimApps = {
    {"wupwise", 0.25}, {"swim", 0.25}, {"hpccg", 0.1}};

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 5;

struct App {
  AppModel Model;
  LayoutPlan Plan;
  SimResult Reference;
  std::vector<double> Times;       // untraced samples, seconds
  std::vector<double> TracedTimes; // traced samples (traced run only)
};

/// Optimized layouts point at the mapping they were built for, so a Setup
/// lives on the heap and never moves.
struct Setup {
  MachineConfig Config;
  ClusterMapping Mapping;
  std::vector<App> Apps;
};

/// Set-up proper: the application models and their layout plans.
std::unique_ptr<Setup> buildSetup(bool Optimized) {
  MachineConfig Config = paperMachine();
  if (Optimized)
    Config.PagePolicy = PageAllocPolicy::CompilerGuided;
  auto Owned =
      std::make_unique<Setup>(Setup{Config, makeM1Mapping(Config), {}});
  Setup &S = *Owned;
  for (const AppSize &Spec : SimApps) {
    AppModel Model = buildApp(Spec.Name, Spec.Scale);
    LayoutPlan Plan = planForVariant(
        Model, Config, S.Mapping,
        Optimized ? RunVariant::Optimized : RunVariant::Original);
    S.Apps.push_back(
        App{std::move(Model), std::move(Plan), SimResult(), {}, {}});
  }
  return Owned;
}

/// The untimed warm-up, one simulation per application, doubles as the
/// reference every sample must reproduce. It runs with the simulator's
/// invariant checker on, which never changes results.
void simulateReferences(Setup &S) {
  MachineConfig Checked = S.Config;
  Checked.CheckInvariants = true;
  for (App &P : S.Apps) {
    ScopedSpan Span("sim.reference", trace::newGroup());
    P.Reference = runSingle(P.Model.Program, P.Plan, Checked, S.Mapping,
                            P.Model.ComputeGapCycles);
  }
}

/// Accesses partition into L1 hits, L2 hits and off-chip accesses (the
/// coherence-free machine has no upgrades).
bool conserves(const SimResult &R) {
  return R.TotalAccesses > 0 &&
         R.L1Hits + R.LocalL2Hits + R.RemoteL2Hits + R.OffChipAccesses ==
             R.TotalAccesses;
}

/// The seed fixes the order the applications take in every round.
std::vector<std::size_t> seededOrder(std::uint64_t Seed) {
  std::vector<std::size_t> Order(SimApps.size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::mt19937_64 Rng(Seed);
  for (std::size_t I = Order.size() - 1; I > 0; --I)
    std::swap(Order[I], Order[Rng() % (I + 1)]);
  return Order;
}

} // namespace

RunOutcome perfbench::runSimWorkload(const BenchOptions &Opts,
                                     bool Optimized) {
  RunOutcome Out;
  // Every set-up and sample runs on the next of the process's CPUs in turn.
  // On a shared host one CPU can run this code 1.5x slower than another for
  // minutes, so a run left on one CPU measures that CPU; rotating gives
  // every run the same mix, and the p10 reads the fast ones.
  std::vector<int> Cpus = allowedCpus();
  std::size_t NextCpu = 0;
  auto rotate = [&] {
    if (!Cpus.empty())
      runOn({Cpus[NextCpu++ % Cpus.size()]});
  };

  // Set-up, repeated: application models and layout plans. Every set-up
  // must produce the same transformed code.
  std::vector<double> SetupTimes;
  std::unique_ptr<Setup> S;
  std::vector<std::string> Code;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    rotate();
    double T0 = nowSeconds();
    std::unique_ptr<Setup> Next = buildSetup(Optimized);
    SetupTimes.push_back(nowSeconds() - T0);
    for (std::size_t A = 0; A < SimApps.size(); ++A) {
      std::string Emitted =
          emitProgram(Next->Apps[A].Model.Program, Next->Apps[A].Plan);
      if (I == 0) {
        Code.push_back(std::move(Emitted));
      } else if (Emitted != Code[A]) {
        std::fprintf(stderr, "error: %s layout differs across set-ups\n",
                     SimApps[A].Name.c_str());
        Out.Correct = false;
      }
    }
    S = std::move(Next);
  }
  simulateReferences(*S);
  for (std::size_t A = 0; A < SimApps.size(); ++A)
    if (!conserves(S->Apps[A].Reference)) {
      std::fprintf(stderr, "error: %s reference does not conserve accesses\n",
                   SimApps[A].Name.c_str());
      Out.Correct = false;
    }

  // The measured window: round-robin samples in the seeded order. In the
  // traced run every other round records a span per sample, so traced and
  // untraced samples share the host's conditions.
  std::vector<std::size_t> Order = seededOrder(Opts.Seed);
  double Start = nowSeconds();
  for (unsigned Round = 0; nowSeconds() - Start < Opts.Seconds; ++Round) {
    bool Traced = Opts.Trace && Round % 2 == 1;
    for (std::size_t A : Order) {
      App &P = S->Apps[A];
      rotate();
      double T0 = nowSeconds();
      SimResult R;
      {
        std::optional<ScopedSpan> Span;
        if (Traced)
          Span.emplace("sim.run", trace::newGroup());
        R = runSingle(P.Model.Program, P.Plan, S->Config, S->Mapping,
                      P.Model.ComputeGapCycles);
      }
      (Traced ? P.TracedTimes : P.Times).push_back(nowSeconds() - T0);
      ++Out.Attempted;
      std::string Why;
      if (!conserves(R) || !equalResults(R, P.Reference, &Why)) {
        std::fprintf(stderr, "error: %s sample %llu differs: %s\n",
                     SimApps[A].Name.c_str(),
                     static_cast<unsigned long long>(Out.Attempted),
                     Why.c_str());
        ++Out.Failed;
      }
    }
  }
  double Window = nowSeconds() - Start;
  runOn(Cpus);

  std::vector<double> Rates, P10s, P50s, P90s, P99s;
  std::vector<const SimResult *> Refs;
  double Cycles = 0;
  std::size_t Samples = 0;
  for (App &P : S->Apps) {
    double P10 = quantile(P.Times, 0.1);
    Rates.push_back(static_cast<double>(P.Reference.TotalAccesses) / P10);
    P10s.push_back(P10);
    P50s.push_back(quantile(P.Times, 0.5));
    P90s.push_back(quantile(P.Times, 0.9));
    P99s.push_back(quantile(P.Times, 0.99));
    Samples += P.Times.size();
    Cycles += static_cast<double>(P.Reference.ExecutionCycles);
    Refs.push_back(&P.Reference);
  }
  Report &M = Out.Metrics;
  if (!Opts.Trace) {
    M.add("macc_per_s", geomean(Rates) / 1e6, "Macc/s", Samples);
    M.add("exec_mcycles", Cycles / 1e6, "Mcycles", Refs.size());
    M.add("offchip_lat_cyc", offchipLatencyCycles(Refs), "cycles",
          Refs.size());
    // Too few samples per app for per-slice percentiles (see Slices), so
    // these are taken over the whole window.
    M.add("rps", static_cast<double>(Samples) / Window, "1/s", Samples);
    M.add("p50_ms", geomean(P50s) * 1e3, "ms", Samples);
    M.add("p90_ms", geomean(P90s) * 1e3, "ms", Samples);
    M.add("p99_ms", geomean(P99s) * 1e3, "ms", Samples);
    M.add("setup_s", quantile(SetupTimes, 0.5), "s", SetupTimes.size());
    M.add("peak_rss_mb", selfPeakRssMb(), "MB");
    M.add("ok_frac", Out.okFrac(), "1", Out.Attempted);
    return Out;
  }

  // The traced run: per-layer metrics.
  std::vector<double> Overheads;
  for (App &P : S->Apps)
    Overheads.push_back(quantile(P.TracedTimes, 0.1) / quantile(P.Times, 0.1));
  M.add("sim.sample_p10_ms", geomean(P10s) * 1e3, "ms", Samples);
  M.add("sim.sample_p50_ms", geomean(P50s) * 1e3, "ms", Samples);
  M.add("trace.overhead_frac", geomean(Overheads) - 1.0, "1", Samples);

  addBuildLayerMetrics(SimApps, Optimized, S->Config, S->Mapping, M);
  std::vector<SimProgram> Programs;
  for (std::size_t A = 0; A < SimApps.size(); ++A) {
    App &P = S->Apps[A];
    Programs.push_back({SimApps[A].Name, &P.Model.Program, &P.Plan, S->Config,
                        P.Model.ComputeGapCycles, P.Reference,
                        quantile(P.Times, 0.1)});
  }
  addSimLayerMetrics(Programs, S->Mapping, M);

  std::vector<std::string> Names;
  for (const AppSize &App : SimApps)
    Names.push_back(App.Name);
  ApiProbe Api = probeApiLayer(Opts, Names, M);
  Out.Attempted += Api.Attempted;
  Out.Failed += Api.Failed;
  Out.Correct = Out.Correct && Api.Correct;
  return Out;
}
