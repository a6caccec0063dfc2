//===- bench/perf_hotpath.cpp - simulator wall-clock benchmark ------------===//
///
/// The BENCH_perf trajectory: wall-clock throughput of fixed (app, config)
/// simulations covering the simulator's hot paths — the page-interleaved
/// fig03 runs (stream generation + private-L2 + directory + DRAM), the
/// transformed-layout fig14 run (customized-layout address cursors), and the
/// fig25 co-run (cache-line interleaving + multiprogrammed contention).
///
/// Timing per row is best/median/p95 over --repeats repetitions with phase
/// timers off (honest numbers), then one more run
/// with MachineConfig::CollectPhaseTimes attributes the time to stream
/// generation, network, and DRAM (phase columns are corrected for the
/// calibrated clock-read overhead; see support/HostClock.h). The report
/// goes through the JSON sink; commit it as BENCH_perf.json. Compare
/// against a baseline by building this bench at the baseline commit and
/// diffing the `seconds` column (see EXPERIMENTS.md, "Performance
/// methodology").
///
//===----------------------------------------------------------------------===//

#include "api/Json.h"
#include "harness/BenchSuite.h"
#include "harness/Experiment.h"
#include "support/Format.h"
#include "support/HostClock.h"
#include "workloads/AppModel.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace offchip;

namespace {

struct Workload {
  std::string Name;
  /// Runs the simulation once; \p Timed enables the phase timers.
  std::function<SimResult(bool)> Run;
};

struct Measurement {
  double BestSeconds = 1e100;
  double MedianSeconds = 0.0;
  double P95Seconds = 0.0;
  SimResult Result;      // from the last untimed run
  SimResult TimedResult; // from the phase-timer run
};

/// Nearest-rank percentile of an unsorted sample set.
double percentile(std::vector<double> Samples, double P) {
  std::sort(Samples.begin(), Samples.end());
  std::size_t N = Samples.size();
  std::size_t Rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(P * static_cast<double>(N))));
  return Samples[Rank - 1];
}

Measurement measure(const Workload &W, unsigned Repeats) {
  Measurement M;
  std::vector<double> Samples;
  Samples.reserve(Repeats);
  for (unsigned I = 0; I < Repeats; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    M.Result = W.Run(false);
    double S = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             T0)
                   .count();
    Samples.push_back(S);
  }
  M.BestSeconds = *std::min_element(Samples.begin(), Samples.end());
  M.MedianSeconds = percentile(Samples, 0.5);
  M.P95Seconds = percentile(Samples, 0.95);
  M.TimedResult = W.Run(true);
  return M;
}

/// Share of off-chip lines that travelled inside a coalesced burst: burst
/// lines over all lines the MCs transferred (OffChipAccesses counts each
/// burst once, as its trigger).
double coalescedPct(const SimResult &R) {
  std::uint64_t Lines =
      R.OffChipAccesses - R.BurstTransactions + R.BurstLines;
  return Lines ? 100.0 * static_cast<double>(R.BurstLines) /
                     static_cast<double>(Lines)
               : 0.0;
}

/// A contiguous record sweep: three arrays of 64-byte records (one record
/// per cache line) read/read/written in one pass, so nearly every access
/// opens a fresh line and the off-chip path dominates the host's work —
/// the shape burst coalescing targets (a database scan or packet-buffer
/// sweep, as opposed to the stencil reuse of the fig03 apps).
AppModel makeRecordSweep(double Scale) {
  AppModel M("recsweep");
  AffineProgram &P = M.Program;
  std::int64_t N = std::max<std::int64_t>(
      4096, static_cast<std::int64_t>(400000.0 * Scale));
  ArrayId In = P.addArray({"recs_in", {N}, 64});
  ArrayId Aux = P.addArray({"recs_aux", {N}, 64});
  ArrayId Out = P.addArray({"recs_out", {N}, 64});
  IntMatrix I1(1, 1);
  I1.at(0, 0) = 1;
  LoopNest Sweep("sweep", IterationSpace({0}, {N}), 0);
  Sweep.addRef(AffineRef(In, I1, {0}, false));
  Sweep.addRef(AffineRef(Aux, I1, {0}, false));
  Sweep.addRef(AffineRef(Out, I1, {0}, true));
  P.addNest(std::move(Sweep));
  M.ComputeGapCycles = 4;
  M.MemDemandPerCore = 0.9;
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Repeats = 3;
  double Scale = 1.0;
  std::string OutPath;
  OptionsParser Parser(
      "bench_perf_hotpath",
      "Wall-clock throughput of fixed simulations (the BENCH_perf numbers)");
  Parser.value("--repeats", &Repeats,
               "untimed repetitions per row; best/median/p95 (default 3)");
  Parser.value("--out", &OutPath,
               "write the JSON report to this file instead of stdout");
  Parser.value("--scale", &Scale, DoubleRange::Positive,
               "app size scale factor (default 1.0; the ctest smoke uses "
               "0.25)");
  if (std::optional<int> Ec = Parser.parseArgs(Argc, Argv))
    return *Ec;
  if (Repeats == 0)
    Repeats = 1;
  // Run the one-time clock calibration now so it is not charged to the
  // first timed workload.
  (void)clockCalibration();

  MachineConfig PageCfg = MachineConfig::scaledDefault();
  PageCfg.Granularity = InterleaveGranularity::Page;
  MachineConfig LineCfg = MachineConfig::scaledDefault();
  ClusterMapping MPage = makeM1Mapping(PageCfg);
  ClusterMapping MLine = makeM1Mapping(LineCfg);

  AppModel Wupwise = buildApp("wupwise", Scale);
  AppModel Swim = buildApp("swim", Scale);
  AppModel Mgrid = buildApp("mgrid", Scale);
  AppModel Records = makeRecordSweep(Scale);

  // The fig25 swim+mgrid co-run: both apps share every node, cache-line
  // interleaving (the multiprogrammed contention case).
  auto CoRun = [&](bool Burst) {
    return [&, Burst](bool Timed) {
      MachineConfig C = LineCfg;
      C.CollectPhaseTimes = Timed;
      C.Burst.Enabled = Burst;
      std::vector<unsigned> AllNodes;
      for (unsigned T = 0; T < C.numNodes(); ++T)
        AllNodes.push_back(MLine.threadToNode(T));
      LayoutPlan P1 = LayoutTransformer::originalPlan(Swim.Program);
      LayoutPlan P2 = LayoutTransformer::originalPlan(Mgrid.Program);
      AppInstance A1, A2;
      A1.Program = &Swim.Program;
      A1.Plan = &P1;
      A1.Nodes = AllNodes;
      A1.ComputeGapCycles = Swim.ComputeGapCycles;
      A2.Program = &Mgrid.Program;
      A2.Plan = &P2;
      A2.Nodes = AllNodes;
      A2.ComputeGapCycles = Mgrid.ComputeGapCycles;
      return runSimulation({A1, A2}, C, MLine, nullptr);
    };
  };

  auto Variant = [&](const AppModel &App, RunVariant V, bool Traced = false,
                     bool Burst = false) {
    return [&App, &PageCfg, &MPage, V, Traced, Burst](bool Timed) {
      MachineConfig C = PageCfg;
      C.CollectPhaseTimes = Timed;
      // The -traced row: event collection on, in-memory sink only (no
      // export I/O), so the delta vs the untraced row is the pure
      // instrumentation overhead.
      C.Trace.Enabled = Traced;
      C.Burst.Enabled = Burst;
      return runVariant(App, C, MPage, V);
    };
  };

  // Every base workload gets a burst=on twin (except the -traced row, whose
  // point is the instrumentation delta): fewer simulated DRAM/NoC events
  // per line moved, so the twin's macc_per_s is the coalescer's win.
  std::vector<Workload> Workloads = {
      {"fig03-wupwise", Variant(Wupwise, RunVariant::Original)},
      {"fig03-wupwise+burst",
       Variant(Wupwise, RunVariant::Original, false, true)},
      {"fig03-swim", Variant(Swim, RunVariant::Original)},
      {"fig03-swim+burst", Variant(Swim, RunVariant::Original, false, true)},
      {"fig03-swim-traced", Variant(Swim, RunVariant::Original, true)},
      {"fig14-swim-opt", Variant(Swim, RunVariant::Optimized)},
      {"fig14-swim-opt+burst",
       Variant(Swim, RunVariant::Optimized, false, true)},
      {"fig25-swim+mgrid", CoRun(false)},
      {"fig25-swim+mgrid+burst", CoRun(true)},
      {"stream-records", Variant(Records, RunVariant::Original)},
      {"stream-records+burst",
       Variant(Records, RunVariant::Original, false, true)},
  };

  unsigned HostCores = std::thread::hardware_concurrency();
  std::string CpuModel = hostCpuModel();

  std::string Capture;
  std::unique_ptr<OutputSink> Sink = makeJsonSink(&Capture);
  Sink->begin("perf_hotpath",
              "simulator wall-clock throughput on fixed workloads "
              "(higher Macc/s is better; timings are host wall-clock)",
              PageCfg.summary());
  // Machine-readable provenance: which host produced these numbers.
  // Comparisons across BENCH_perf.json revisions are only meaningful
  // between reports with compatible host fields.
  Sink->meta("host_cores", formatString("%u", HostCores));
  std::string QuotedModel;
  JsonWriter(QuotedModel).value(CpuModel);
  Sink->meta("cpu_model", QuotedModel);
  Sink->columns({{"workload", 22},
                 {"seconds", 9},
                 {"median_s", 9},
                 {"p95_s", 9},
                 {"repeats", 7},
                 {"macc_per_s", 11},
                 {"coalesced_pct", 13},
                 {"accesses", 10},
                 {"exec_cycles", 12},
                 {"stream_s", 9},
                 {"network_s", 10},
                 {"dram_s", 8},
                 {"timed_total_s", 13}});

  for (const Workload &W : Workloads) {
    std::fprintf(stderr, "running %s (%u repeats)...\n", W.Name.c_str(),
                 Repeats);
    Measurement M = measure(W, Repeats);
    double Macc =
        static_cast<double>(M.Result.TotalAccesses) / M.BestSeconds / 1e6;
    const PhaseTimes &P = M.TimedResult.Phases;
    Sink->row({W.Name, formatString("%.3f", M.BestSeconds),
               formatString("%.3f", M.MedianSeconds),
               formatString("%.3f", M.P95Seconds),
               formatString("%u", Repeats), formatString("%.2f", Macc),
               formatString("%.1f", coalescedPct(M.Result)),
               formatString("%llu",
                            (unsigned long long)M.Result.TotalAccesses),
               formatString("%llu",
                            (unsigned long long)M.Result.ExecutionCycles),
               formatString("%.3f", P.StreamGenSeconds),
               formatString("%.3f", P.NetworkSeconds),
               formatString("%.3f", P.DramSeconds),
               formatString("%.3f", P.TotalSeconds)});
    std::fprintf(stderr, "  %.3f s  %.2f Macc/s\n", M.BestSeconds, Macc);
  }
  Sink->note(formatString(
      "scale=%.2f repeats=%u host_cores=%u; seconds/macc_per_s use the best "
      "repeat, median_s/p95_s the nearest-rank percentiles; phase columns "
      "come from one extra run with CollectPhaseTimes enabled, corrected "
      "for clock-read overhead by the support/HostClock calibration; the "
      "-traced row repeats its base workload with --trace collection into "
      "the in-memory sink (no file export), so its slowdown vs the untraced "
      "row is the tracing overhead; +burst rows rerun their base workload "
      "with --burst-coalesce on, and coalesced_pct is the share of off-chip "
      "lines that travelled inside a coalesced transaction",
      Scale, Repeats, HostCores));
  Sink->end();

  if (OutPath.empty()) {
    std::fputs(Capture.c_str(), stdout);
  } else {
    std::ofstream Out(OutPath, std::ios::trunc);
    if (!Out) {
      std::fprintf(stderr, "cannot open %s\n", OutPath.c_str());
      return 1;
    }
    Out << Capture;
    std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
  }
  return 0;
}
