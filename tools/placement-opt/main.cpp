//===- tools/placement-opt/main.cpp - joint placement x layout search -----===//
///
/// Searches memory-controller placements jointly with the paper's layout
/// transformation (EXPERIMENTS.md, "Placement methodology"): every
/// candidate is an Explicit MachineConfig::MCNodes list,
/// MachineConfig::validate() (plus validateGrouping() when
/// --mcs-per-cluster > 1) is the feasibility oracle, and candidate
/// evaluations fan across cores through ExperimentRunner. Small spaces
/// (at most --exhaustive-threshold candidate node sets) are enumerated
/// exhaustively; larger ones run a seeded batch-synchronous simulated
/// annealing.
///
/// Output is a Pareto table over the fig03 apps — placement x layout ->
/// avg off-chip latency, off-chip message hops, link-busy cycles —
/// through the standard table/CSV/JSON sinks. Every simulation is
/// submitted in a deterministic order and collected in submission order,
/// and the annealing chain draws from one seeded SplitMix64 on the main
/// thread, so the report is byte-identical for any --jobs value.
///
/// Usage:
///   placement-opt [options]
///   placement-opt --mesh 4x4 --mcs 2 --apps mgrid   # exhaustive, seconds
///
//===----------------------------------------------------------------------===//

#include "harness/BenchSuite.h"
#include "support/Format.h"
#include "support/Options.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace offchip;

namespace {

//===----------------------------------------------------------------------===//
// Candidate space
//===----------------------------------------------------------------------===//

/// A candidate placement: a sorted list of distinct node ids (the canonical
/// form — the hardware interleave maps residue i to list slot i, but for
/// the ungrouped M1 mapping any order of one node set is the same machine,
/// so the search space is node *sets*).
using Candidate = std::vector<unsigned>;

/// C(Nodes, MCs), capped at \p Cap so an 8x8 space never overflows
/// (C(64,4) already exceeds half a million).
std::uint64_t chooseCapped(std::uint64_t Nodes, std::uint64_t MCs,
                           std::uint64_t Cap) {
  if (MCs > Nodes)
    return 0;
  std::uint64_t R = 1;
  for (std::uint64_t I = 0; I < MCs; ++I) {
    R = R * (Nodes - I) / (I + 1);
    if (R > Cap)
      return Cap + 1;
  }
  return R;
}

/// Lexicographic successor of a sorted combination over [0, Nodes);
/// \returns false once the last combination has been visited.
bool nextCombination(Candidate &C, unsigned Nodes) {
  unsigned M = static_cast<unsigned>(C.size());
  for (unsigned I = M; I-- > 0;) {
    if (C[I] + 1 <= Nodes - (M - I)) {
      ++C[I];
      for (unsigned J = I + 1; J < M; ++J)
        C[J] = C[J - 1] + 1;
      return true;
    }
  }
  return false;
}

/// A uniform draw of MCs distinct nodes (sorted), via partial Fisher-Yates.
Candidate randomCandidate(SplitMix64 &R, unsigned Nodes, unsigned MCs) {
  std::vector<unsigned> All(Nodes);
  for (unsigned I = 0; I < Nodes; ++I)
    All[I] = I;
  for (unsigned I = 0; I < MCs; ++I)
    std::swap(All[I],
              All[I + static_cast<unsigned>(R.nextBelow(Nodes - I))]);
  Candidate C(All.begin(), All.begin() + MCs);
  std::sort(C.begin(), C.end());
  return C;
}

/// Mutates one MC of \p Base to a random unused node (the annealing move).
Candidate mutateCandidate(SplitMix64 &R, const Candidate &Base,
                          unsigned Nodes) {
  Candidate C = Base;
  unsigned Slot = static_cast<unsigned>(R.nextBelow(C.size()));
  for (;;) {
    unsigned N = static_cast<unsigned>(R.nextBelow(Nodes));
    if (std::find(C.begin(), C.end(), N) == C.end()) {
      C[Slot] = N;
      break;
    }
  }
  std::sort(C.begin(), C.end());
  return C;
}

std::string candidateText(const Candidate &C) {
  std::string Out;
  for (unsigned N : C)
    Out += (Out.empty() ? "" : ",") + formatString("%u", N);
  return Out;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

struct ToolOptions {
  MachineConfig Base;
  unsigned MCsPerCluster = 1;
  unsigned Jobs = 0;
  std::uint64_t Seed = 1;
  unsigned ExhaustiveThreshold = 256;
  unsigned AnnealRounds = 12;
  unsigned AnnealBatch = 8;
  double SizeScale = 1.0;
  double SearchScale = 0.25;
  std::vector<std::string> TableApps = appNames();
  std::vector<std::string> SearchApps = {"mgrid", "art"};
};

/// The machine a candidate describes: the base config with an Explicit
/// placement over \p C.
MachineConfig candidateConfig(const ToolOptions &Opt, const Candidate &C) {
  MachineConfig Config = Opt.Base;
  Config.Placement = MCPlacementKind::Explicit;
  Config.MCNodes = C;
  return Config;
}

/// The feasibility oracle: validate() plus, for grouped mappings, the
/// contiguous-group tightness check.
bool feasible(const ToolOptions &Opt, const MachineConfig &Config) {
  if (!Config.validate().empty())
    return false;
  return Config.validateGrouping(Opt.MCsPerCluster).empty();
}

ClusterMapping mappingFor(const ToolOptions &Opt,
                          const MachineConfig &Config) {
  return Opt.MCsPerCluster == 1
             ? makeM1Mapping(Config)
             : makeM2Mapping(Config, Opt.MCsPerCluster);
}

/// Schedules the search-energy runs of one feasible config: the optimized
/// layout over every search app. The returned futures resolve to the runs
/// in app order.
std::vector<SimFuture>
submitEnergy(ExperimentRunner &Runner, const ToolOptions &Opt,
             const MachineConfig &Config,
             const std::vector<std::shared_ptr<const AppModel>> &Apps) {
  ClusterMapping Mapping = mappingFor(Opt, Config);
  std::vector<SimFuture> Futures;
  Futures.reserve(Apps.size());
  for (const std::shared_ptr<const AppModel> &App : Apps)
    Futures.push_back(
        Runner.submit(SimJob{App, Config, Mapping, RunVariant::Optimized}));
  return Futures;
}

/// Avg off-chip latency of one run: the network legs plus the MC queue and
/// bank service — the quantity the paper's Figure 14/16 decompose.
double offChipLatency(const SimResult &R) {
  return R.OffChipNetLatency.mean() + R.MemLatency.mean();
}

/// Mean search energy over the collected app runs.
double collectEnergy(const std::vector<SimFuture> &Futures) {
  double Sum = 0.0;
  for (const SimFuture &F : Futures)
    Sum += offChipLatency(F.get());
  return Futures.empty() ? 0.0 : Sum / static_cast<double>(Futures.size());
}

//===----------------------------------------------------------------------===//
// Pareto table
//===----------------------------------------------------------------------===//

struct TableRow {
  std::string Placement;
  std::string Layout;
  double OffChipLatency = 0.0;
  double Hops = 0.0;
  double LinkBusy = 0.0;
  bool Pareto = false;
};

/// Marks the rows no other row dominates (all three metrics minimized).
void markPareto(std::vector<TableRow> &Rows) {
  for (TableRow &R : Rows) {
    R.Pareto = true;
    for (const TableRow &O : Rows) {
      bool Dominates = O.OffChipLatency <= R.OffChipLatency &&
                       O.Hops <= R.Hops && O.LinkBusy <= R.LinkBusy &&
                       (O.OffChipLatency < R.OffChipLatency ||
                        O.Hops < R.Hops || O.LinkBusy < R.LinkBusy);
      if (Dominates) {
        R.Pareto = false;
        break;
      }
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Opt;
  Opt.Base = MachineConfig::scaledDefault();
  // The fig03 sweeps run page interleaving (the OS-visible configuration
  // the paper's layout+allocation co-design targets); keep that default.
  Opt.Base.Granularity = InterleaveGranularity::Page;

  bool Line = false;
  ReportFormat Format;

  OptionsParser Options("placement-opt",
                        "joint MC-placement x layout search over the "
                        "paper's application models");
  addMeshFlags(Options, Opt.Base);
  Options.value("--mcs-per-cluster", &Opt.MCsPerCluster,
                "MCs per cluster, mapping M2 style; > 1 adds the "
                "contiguous-group tightness check to the feasibility "
                "oracle (default 1)");
  Options.flag("--line", &Line,
               "cache-line interleaving instead of the fig03 page default");
  Options.value("--jobs", &Opt.Jobs,
                "worker threads (0 = all cores; output is byte-identical "
                "for any value)");
  Options.value("--seed", &Opt.Seed, "annealing RNG seed (default 1)");
  Options.value("--exhaustive-threshold", &Opt.ExhaustiveThreshold,
                "enumerate every candidate when the space has at most this "
                "many node sets; anneal above it (default 256)");
  Options.value("--anneal-rounds", &Opt.AnnealRounds,
                "annealing rounds (default 12)");
  Options.value("--anneal-batch", &Opt.AnnealBatch,
                "proposals evaluated in parallel per round (default 8)");
  Options.value("--size-scale", &Opt.SizeScale, DoubleRange::Positive,
                "workload scale of the final Pareto table (default 1.0)");
  Options.value("--search-scale", &Opt.SearchScale, DoubleRange::Positive,
                "workload scale of the search-energy runs (default 0.25)");
  addAppListFlag(Options, "--apps", &Opt.TableApps,
                 "apps of the final Pareto table (default: all 13)");
  addAppListFlag(Options, "--search-apps", &Opt.SearchApps,
                 "apps the search energy averages over (default mgrid,art)");
  Format.addFlags(Options);

  if (std::optional<int> Ec = Options.parseArgs(Argc, Argv))
    return *Ec;
  if (Line)
    Opt.Base.Granularity = InterleaveGranularity::CacheLine;
  if (std::optional<int> Ec = Format.check())
    return *Ec;
  if (Opt.AnnealRounds < 1 || Opt.AnnealBatch < 1) {
    std::fprintf(stderr,
                 "error: --anneal-rounds and --anneal-batch must be >= 1\n");
    return 2;
  }

  // The base machine must be sound before any candidate is generated: the
  // oracle can only distinguish placements if mesh/MC geometry itself is
  // feasible. Validate under the Corners default so placement-independent
  // problems (bad mesh, no cluster grid) surface as diagnostics here.
  if (std::optional<int> Ec = checkMachineFlags(Opt.Base))
    return *Ec;
  unsigned Nodes = Opt.Base.numNodes();
  if (Opt.Base.NumMCs > Nodes) {
    std::fprintf(stderr,
                 "error: %u MCs cannot each have a node on a %u-node mesh\n",
                 Opt.Base.NumMCs, Nodes);
    return 2;
  }

  ExperimentRunner Runner(Opt.Jobs);

  // Shared immutable app models, one per (name, scale) used.
  std::map<std::pair<std::string, double>,
           std::shared_ptr<const AppModel>>
      AppCache;
  auto GetApp = [&](const std::string &Name,
                    double Scale) -> std::shared_ptr<const AppModel> {
    auto Key = std::make_pair(Name, Scale);
    auto It = AppCache.find(Key);
    if (It == AppCache.end())
      It = AppCache
               .emplace(Key, std::make_shared<AppModel>(
                                 buildApp(Name, Scale)))
               .first;
    return It->second;
  };
  std::vector<std::shared_ptr<const AppModel>> SearchModels;
  for (const std::string &Name : Opt.SearchApps)
    SearchModels.push_back(GetApp(Name, Opt.SearchScale));

  //===--------------------------------------------------------------------===//
  // Phase 1: the three built-in placements under the search energy. They
  // both calibrate the chain (annealing starts from the best one) and let
  // the report say whether the search actually beat them.
  //===--------------------------------------------------------------------===//

  struct BuiltIn {
    MCPlacementKind Kind;
    Candidate NodeSet; // sorted, for the energy cache
    double Energy = 0.0;
    bool Feasible = false;
  };
  std::vector<BuiltIn> BuiltIns;
  for (MCPlacementKind K :
       {MCPlacementKind::Corners, MCPlacementKind::EdgeMidpoints,
        MCPlacementKind::TopBottomSpread}) {
    BuiltIn B;
    B.Kind = K;
    MachineConfig C = Opt.Base;
    C.Placement = K;
    B.Feasible = C.validate().empty();
    if (B.Feasible) {
      B.NodeSet = C.placedMCNodes();
      std::sort(B.NodeSet.begin(), B.NodeSet.end());
    }
    BuiltIns.push_back(std::move(B));
  }
  {
    std::vector<std::pair<std::size_t, std::vector<SimFuture>>> Pending;
    for (std::size_t I = 0; I < BuiltIns.size(); ++I)
      if (BuiltIns[I].Feasible) {
        MachineConfig C = Opt.Base;
        C.Placement = BuiltIns[I].Kind;
        Pending.emplace_back(I,
                             submitEnergy(Runner, Opt, C, SearchModels));
      }
    for (auto &P : Pending)
      BuiltIns[P.first].Energy = collectEnergy(P.second);
  }

  //===--------------------------------------------------------------------===//
  // Phase 2: the search. Energies are cached by node set so revisits (and
  // built-in coincidences) cost nothing.
  //===--------------------------------------------------------------------===//

  std::map<Candidate, double> EnergyCache;
  for (const BuiltIn &B : BuiltIns)
    if (B.Feasible)
      EnergyCache[B.NodeSet] = B.Energy;

  Candidate Best;
  double BestEnergy = 0.0;
  bool HaveBest = false;
  auto Consider = [&](const Candidate &C, double E) {
    // Strict improvement only: ties keep the earlier (lexicographically
    // smaller under exhaustive order) candidate, deterministically.
    if (!HaveBest || E < BestEnergy) {
      Best = C;
      BestEnergy = E;
      HaveBest = true;
    }
  };

  std::uint64_t SpaceSize =
      chooseCapped(Nodes, Opt.Base.NumMCs, Opt.ExhaustiveThreshold);
  bool Exhaustive = SpaceSize <= Opt.ExhaustiveThreshold;
  std::uint64_t Evaluated = 0;

  if (Exhaustive) {
    // Enumerate in lexicographic order; submit every feasible candidate up
    // front, then collect in the same order.
    std::vector<Candidate> Feasibles;
    Candidate C(Opt.Base.NumMCs);
    for (unsigned I = 0; I < Opt.Base.NumMCs; ++I)
      C[I] = I;
    do {
      MachineConfig Config = candidateConfig(Opt, C);
      if (feasible(Opt, Config))
        Feasibles.push_back(C);
    } while (nextCombination(C, Nodes));
    std::vector<std::vector<SimFuture>> Futures;
    Futures.reserve(Feasibles.size());
    for (const Candidate &F : Feasibles)
      Futures.push_back(submitEnergy(
          Runner, Opt, candidateConfig(Opt, F), SearchModels));
    for (std::size_t I = 0; I < Feasibles.size(); ++I) {
      double E = collectEnergy(Futures[I]);
      EnergyCache[Feasibles[I]] = E;
      Consider(Feasibles[I], E);
    }
    Evaluated = Feasibles.size();
  } else {
    // Batch-synchronous simulated annealing: each round proposes
    // AnnealBatch mutations of the round-entry state, evaluates the
    // uncached ones in parallel, then walks the batch sequentially with
    // Metropolis acceptance. All randomness is drawn on this thread from
    // one seeded SplitMix64, so the chain is identical for any --jobs.
    SplitMix64 Rng(Opt.Seed);
    Candidate Current;
    double CurrentEnergy = 0.0;
    bool HaveCurrent = false;
    for (const BuiltIn &B : BuiltIns)
      if (B.Feasible && (!HaveCurrent || B.Energy < CurrentEnergy)) {
        Current = B.NodeSet;
        CurrentEnergy = B.Energy;
        HaveCurrent = true;
      }
    if (!HaveCurrent) {
      // No built-in fits this geometry (e.g. an odd MC count): start from
      // a random feasible draw instead.
      for (unsigned Tries = 0; Tries < 1000 && !HaveCurrent; ++Tries) {
        Candidate C = randomCandidate(Rng, Nodes, Opt.Base.NumMCs);
        MachineConfig Config = candidateConfig(Opt, C);
        if (!feasible(Opt, Config))
          continue;
        std::vector<SimFuture> F =
            submitEnergy(Runner, Opt, Config, SearchModels);
        Current = C;
        CurrentEnergy = collectEnergy(F);
        EnergyCache[Current] = CurrentEnergy;
        ++Evaluated;
        HaveCurrent = true;
      }
      if (!HaveCurrent) {
        std::fprintf(stderr,
                     "error: no feasible placement found in 1000 draws\n");
        return 1;
      }
    }
    Consider(Current, CurrentEnergy);

    // Relative-energy Metropolis: temperatures are fractions of the
    // current energy, so the schedule needs no prior latency scale.
    const double T0 = 0.05, T1 = 0.005;
    for (unsigned Round = 0; Round < Opt.AnnealRounds; ++Round) {
      double Frac = Opt.AnnealRounds == 1
                        ? 0.0
                        : static_cast<double>(Round) /
                              static_cast<double>(Opt.AnnealRounds - 1);
      double T = T0 * std::pow(T1 / T0, Frac);
      std::vector<Candidate> Proposals;
      for (unsigned I = 0; I < Opt.AnnealBatch; ++I) {
        Candidate C = mutateCandidate(Rng, Current, Nodes);
        if (feasible(Opt, candidateConfig(Opt, C)))
          Proposals.push_back(std::move(C));
      }
      // Evaluate every uncached proposal in parallel (duplicates within
      // the batch submit once).
      std::vector<std::pair<Candidate, std::vector<SimFuture>>> Pending;
      for (const Candidate &C : Proposals) {
        if (EnergyCache.count(C))
          continue;
        bool InFlight = false;
        for (const auto &P : Pending)
          InFlight |= P.first == C;
        if (!InFlight)
          Pending.emplace_back(
              C, submitEnergy(Runner, Opt, candidateConfig(Opt, C),
                              SearchModels));
      }
      for (auto &P : Pending) {
        EnergyCache[P.first] = collectEnergy(P.second);
        ++Evaluated;
      }
      for (const Candidate &C : Proposals) {
        double E = EnergyCache.at(C);
        Consider(C, E);
        bool Accept = E < CurrentEnergy;
        if (!Accept && CurrentEnergy > 0.0) {
          double Penalty = (E - CurrentEnergy) / (T * CurrentEnergy);
          Accept = Rng.nextDouble() < std::exp(-Penalty);
        }
        if (Accept) {
          Current = C;
          CurrentEnergy = E;
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Phase 3: the Pareto table. The three built-ins plus the searched
  // placement, each under both layouts, averaged over the table apps.
  //===--------------------------------------------------------------------===//

  std::vector<std::shared_ptr<const AppModel>> TableModels;
  for (const std::string &Name : Opt.TableApps)
    TableModels.push_back(GetApp(Name, Opt.SizeScale));

  struct TableEntry {
    std::string Label;
    MachineConfig Config;
  };
  std::vector<TableEntry> Entries;
  for (const BuiltIn &B : BuiltIns) {
    if (!B.Feasible)
      continue;
    MachineConfig C = Opt.Base;
    C.Placement = B.Kind;
    Entries.push_back({enumName(B.Kind), C});
  }
  Entries.push_back({"searched [" + candidateText(Best) + "]",
                     candidateConfig(Opt, Best)});

  struct PendingRow {
    std::string Placement;
    std::string Layout;
    std::vector<SimFuture> Futures;
  };
  std::vector<PendingRow> PendingRows;
  for (const TableEntry &E : Entries) {
    ClusterMapping Mapping = mappingFor(Opt, E.Config);
    for (RunVariant V : {RunVariant::Original, RunVariant::Optimized}) {
      PendingRow P;
      P.Placement = E.Label;
      P.Layout = V == RunVariant::Original ? "original" : "optimized";
      for (const std::shared_ptr<const AppModel> &App : TableModels)
        P.Futures.push_back(Runner.submit(SimJob{App, E.Config, Mapping, V}));
      PendingRows.push_back(std::move(P));
    }
  }

  std::vector<TableRow> Rows;
  for (PendingRow &P : PendingRows) {
    TableRow R;
    R.Placement = P.Placement;
    R.Layout = P.Layout;
    double N = static_cast<double>(P.Futures.size());
    for (const SimFuture &F : P.Futures) {
      const SimResult &S = F.get();
      R.OffChipLatency += offChipLatency(S) / N;
      R.Hops += S.OffChipMsgHops.mean() / N;
      R.LinkBusy += static_cast<double>(S.LinkBusyCycles) / N;
    }
    Rows.push_back(std::move(R));
  }
  markPareto(Rows);

  //===--------------------------------------------------------------------===//
  // Report
  //===--------------------------------------------------------------------===//

  std::unique_ptr<OutputSink> Sink = Format.makeSink();
  Sink->begin("placement-opt: joint MC-placement x layout search",
              "MC placement is a first-order lever next to the paper's "
              "layout transformation (EXPERIMENTS.md, Placement "
              "methodology)",
              Opt.Base.summary());
  Sink->meta("seed", formatString("%llu",
                                  static_cast<unsigned long long>(Opt.Seed)));
  Sink->meta("mode", std::string("\"") +
                         (Exhaustive ? "exhaustive" : "annealing") + "\"");
  Sink->meta("candidates_evaluated",
             formatString("%llu",
                          static_cast<unsigned long long>(Evaluated)));
  Sink->meta("search_energy",
             "\"avg off-chip latency, optimized layout, apps: " +
                 [&] {
                   std::string S;
                   for (const std::string &A : Opt.SearchApps)
                     S += (S.empty() ? "" : ",") + A;
                   return S;
                 }() +
                 "\"");
  Sink->columns({{"placement", 34},
                 {"layout", 10},
                 {"offchip-lat", 12},
                 {"hops", 8},
                 {"link-busy", 14},
                 {"pareto", 7}});
  for (const TableRow &R : Rows)
    Sink->row({R.Placement, R.Layout,
               formatString("%.2f", R.OffChipLatency),
               formatString("%.2f", R.Hops),
               formatString("%.0f", R.LinkBusy),
               R.Pareto ? "yes" : "no"});

  // The headline: did the search find a placement the built-ins miss?
  double BestBuiltIn = 0.0;
  std::string BestBuiltInName;
  for (const BuiltIn &B : BuiltIns)
    if (B.Feasible &&
        (BestBuiltInName.empty() || B.Energy < BestBuiltIn)) {
      BestBuiltIn = B.Energy;
      BestBuiltInName = enumName(B.Kind);
    }
  Sink->note("");
  if (BestBuiltInName.empty())
    Sink->note("no built-in placement fits this geometry; searched "
               "placement reported alone");
  else if (BestEnergy < BestBuiltIn)
    Sink->note(formatString(
        "search beats the best built-in (%s) on search energy: %.2f vs "
        "%.2f (-%.1f%%)",
        BestBuiltInName.c_str(), BestEnergy, BestBuiltIn,
        100.0 * (BestBuiltIn - BestEnergy) / BestBuiltIn));
  else
    Sink->note(formatString(
        "search matches but does not beat the best built-in (%s): %.2f vs "
        "%.2f",
        BestBuiltInName.c_str(), BestEnergy, BestBuiltIn));
  Sink->end();
  return 0;
}
