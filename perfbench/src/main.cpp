//===- perfbench/src/main.cpp - The benchmark driver ----------------------===//
///
/// Runs one workload for a fixed window and prints every metric by name,
/// with its unit and sample count, then one JSON line:
///
///   perfbench --workload sim-original --seed 1 --seconds 20 --trace 0
///             --serve-bin <offchip-serve> --work-dir <dir>
///
/// --trace 0 is the gated run (end-to-end metrics); --trace 1 is the traced
/// run (per-layer metrics; spans are written to
/// <dir>/spans-<workload>-<seed>.json).
/// Exits 1 if any output failed its check, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

using namespace perfbench;

namespace {

/// The layers a traced run attributes self time to, named after the
/// repository's modules.
constexpr const char *Layers[] = {"workloads", "core", "sim", "cache",
                                  "noc",       "dram", "vm",  "api"};

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "sim-original|sim-optimized|serve-mix --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --work-dir DIR\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      Opts.Workload = V;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(V.c_str(), &End);
    else if (Flag == "--trace" && (V == "0" || V == "1"))
      Opts.Trace = V == "1";
    else if (Flag == "--serve-bin")
      Opts.ServeBin = V;
    else if (Flag == "--work-dir")
      Opts.WorkDir = V;
    else
      return usage(("unknown flag " + Flag).c_str());
    if (End && *End != '\0')
      return usage(("bad number for " + Flag).c_str());
  }
  if (Opts.Seconds <= 0 || Opts.ServeBin.empty() || Opts.WorkDir.empty())
    return usage("--seconds, --serve-bin and --work-dir are required");

  if (Opts.Trace)
    trace::enable();
  double ChaseBefore = l3ChaseNs();
  RunOutcome Out;
  if (Opts.Workload == "sim-original")
    Out = runSimWorkload(Opts, /*Optimized=*/false);
  else if (Opts.Workload == "sim-optimized")
    Out = runSimWorkload(Opts, /*Optimized=*/true);
  else if (Opts.Workload == "serve-mix")
    Out = runServeWorkload(Opts);
  else
    return usage(("unknown workload " + Opts.Workload).c_str());
  double ChaseAfter = l3ChaseNs();

  Report &M = Out.Metrics;
  if (Opts.Trace) {
    std::map<std::string, double> Self = trace::selfSecondsByLayer();
    for (const char *L : Layers)
      M.add(std::string("self.") + L + "_s", Self[L], "s");
    M.add("host.l3_chase_ns", (ChaseBefore + ChaseAfter) / 2, "ns", 2);
    std::string Path = Opts.WorkDir + "/spans-" + Opts.Workload + "-" +
                       std::to_string(Opts.Seed) + ".json";
    if (!trace::write(Path)) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      Out.Correct = false;
    }
  }
  for (const Metric &X : M.metrics())
    if (!std::isfinite(X.Value)) {
      std::fprintf(stderr, "error: %s is not finite\n", X.Name.c_str());
      Out.Correct = false;
    }
  bool Correct = Out.Correct && Out.Failed == 0 && Out.Attempted > 0;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  std::printf("host: nproc=%u cpu=\"%s\" host.l3_chase_ns before=%.2f "
              "after=%.2f (not gated)\n",
              hostCores(), cpuModel().c_str(), ChaseBefore, ChaseAfter);
  std::printf("note: exec_mcycles, offchip_lat_cyc and the modeled counts are "
              "simulated cycles; the model is unvalidated against hardware\n");
  if (Opts.Trace)
    std::printf("trace: %zu spans\n", trace::spans().size());
  std::printf("outputs: attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed),
              Correct ? "true" : "false");
  for (const Metric &X : M.metrics())
    std::printf("  %-26s %16.6f %-9s n=%zu\n", X.Name.c_str(), X.Value,
                X.Unit.c_str(), X.Samples);

  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  for (std::size_t I = 0; I < M.metrics().size(); ++I) {
    const Metric &X = M.metrics()[I];
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g",
                  std::isfinite(X.Value) ? X.Value : 0.0);
    Json += (I ? ", \"" : "\"") + X.Name + "\": {\"value\": " + Num +
            ", \"unit\": \"" + X.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
