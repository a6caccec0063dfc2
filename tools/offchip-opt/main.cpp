//===- tools/offchip-opt/main.cpp - command-line driver --------------------===//
///
/// The library's front door as a tool: reads an affine program in the
/// textual format (affine/ProgramText.h), runs the layout pass against a
/// configurable machine, and reports what a user of the paper's compiler
/// would want to know — per-array decisions, Table 2-style coverage, the
/// transformed source (Figure 9c), and optionally an original-vs-optimized
/// simulation.
///
/// The work happens through the service API (api/Execute.h): this tool
/// builds the same SimRequest a network client of offchip-serve would
/// send, and renders the SimResponse — the CLI and the daemon share one
/// validated execution path.
///
/// Usage:
///   offchip-opt [options] <program.txt>
///   offchip-opt --demo                     # run the built-in Figure 9 demo
///
//===----------------------------------------------------------------------===//

#include "api/Execute.h"
#include "sim/Report.h"
#include "support/Options.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace offchip;

namespace {

const char *Figure9Demo = R"(
# Figure 9(a): transposed stencil, outer loop parallelized.
program figure9
array z dims 256 256 elem 8

nest stencil bounds 0:256 1:255 parallel 0 repeat 2
  read  z [ i1-1, i0 ]
  read  z [ i1, i0 ]
  write z [ i1+1, i0 ]
end
)";

} // namespace

int main(int Argc, char **Argv) {
  SimRequest Request;
  Request.Kind = RequestKind::Optimize;
  MachineConfig &Config = Request.Config;
  unsigned Jobs = 1;
  bool EmitCode = false, Simulate = false, Csv = false, Demo = false;
  bool Trace = false;
  std::string TraceOut = "trace";

  OptionsParser Options("offchip-opt",
                        "layout pass driver for textual affine programs");
  Options.positionalHelp("<program.txt>");
  Options.custom("--mesh", "<X>x<Y>",
                 [&](const std::string &V) {
                   unsigned X = 0, Y = 0;
                   if (std::sscanf(V.c_str(), "%ux%u", &X, &Y) != 2 ||
                       X == 0 || Y == 0)
                     return false;
                   Config.MeshX = X;
                   Config.MeshY = Y;
                   return true;
                 },
                 "mesh size (default 8x8)");
  Options.value("--mcs", &Config.NumMCs, "memory controllers (default 4)");
  // Flag-level mistakes get the same structured field/value/constraint/fix
  // diagnostics validate() produces: the lambdas record one and fail the
  // parse, and the error path below prefers it over the generic message.
  std::vector<ConfigDiagnostic> FlagDiags;
  Options.custom("--placement", "<kind>",
                 [&](const std::string &V) {
                   if (std::optional<ConfigDiagnostic> D =
                           parsePlacementOption(V, &Config.Placement)) {
                     FlagDiags.push_back(std::move(*D));
                     return false;
                   }
                   return true;
                 },
                 "MC placement kind: " + enumNameList<MCPlacementKind>() +
                     " (default corners)");
  Options.custom("--mc-nodes", "<n0,n1,...>",
                 [&](const std::string &V) {
                   if (std::optional<ConfigDiagnostic> D =
                           parseMCNodeListOption(V, &Config.MCNodes)) {
                     FlagDiags.push_back(std::move(*D));
                     return false;
                   }
                   Config.Placement = MCPlacementKind::Explicit;
                   return true;
                 },
                 "explicit MC node ids, one per MC in interleave order "
                 "(implies --placement explicit)");
  Options.value("--mcs-per-cluster", &Request.MCsPerCluster,
                "MCs per cluster, mapping M2 style (default 1)");
  Options.flag("--shared-l2", &Config.SharedL2,
               "SNUCA shared L2 instead of private slices");
  bool Page = false;
  Options.flag("--page", &Page, "page interleaving (default cache-line)");
  Options.flag("--emit-code", &EmitCode,
               "print the transformed program source");
  Options.flag("--simulate", &Simulate,
               "run original vs optimized on the scaled machine");
  Options.value("--jobs", &Jobs,
                "worker threads for --simulate (0 = all cores)");
  Options.flag("--burst-coalesce", &Config.Burst.Enabled,
               "coalesce runs of adjacent off-chip lines into wide DRAM "
               "transactions (default off)");
  Options.custom("--coherence", "<msi|mesi>",
                 [&](const std::string &V) {
                   return parseCoherenceOption(V, &Config.Coherence.Protocol);
                 },
                 "model an invalidation-based coherence protocol "
                 "(default off)");
  Options.custom("--sparse-dir", "<N>",
                 [&](const std::string &V) {
                   unsigned N = 0;
                   if (std::sscanf(V.c_str(), "%u", &N) != 1 || N == 0)
                     return false;
                   Config.Coherence.SparseDirectory = true;
                   Config.Coherence.SparseEntries = N;
                   return true;
                 },
                 "bound the coherence directory to N tracked lines "
                 "(default unbounded; needs --coherence)");
  Options.flag("--csv", &Csv, "print simulation results as CSV");
  Options.flag("--trace", &Trace,
               "with --simulate, write per-request traces "
               "(<prefix>-original/-optimized .trace.json/.series.csv)");
  Options.value("--trace-out", &TraceOut,
                "output path prefix for --trace files (default \"trace\")");
  Options.value("--trace-sample-cycles", &Config.Trace.SampleCycles,
                "bucket width of the traced link/MC time series, in cycles");
  Options.flag("--demo", &Demo, "run the built-in Figure 9 demo");

  std::string Err;
  bool WantedHelp = false;
  if (!Options.parse(Argc, Argv, &Err, &WantedHelp)) {
    if (WantedHelp) {
      std::fputs(Err.c_str(), stdout);
      return 0;
    }
    if (!FlagDiags.empty()) {
      std::fprintf(stderr, "%s\n", renderDiagnostics(FlagDiags).c_str());
      return 2;
    }
    std::fprintf(stderr, "error: %s\n%s", Err.c_str(),
                 Options.helpText().c_str());
    return 2;
  }
  if (Page)
    Config.Granularity = InterleaveGranularity::Page;
  if (Config.Coherence.SparseDirectory && !Config.Coherence.enabled()) {
    std::fprintf(stderr, "error: --sparse-dir requires --coherence\n");
    return 2;
  }
  if (Options.positional().size() > 1 ||
      (!Demo && Options.positional().empty())) {
    std::fprintf(stderr, "error: expected one <program.txt>\n%s",
                 Options.helpText().c_str());
    return 2;
  }

  // Reject impossible machines with structured diagnostics while the
  // mistake is still a command-line matter — before touching the program
  // file, exactly as this tool always has.
  if (std::vector<ConfigDiagnostic> Diags = Config.validate();
      !Diags.empty()) {
    std::fprintf(stderr, "%s\n", renderDiagnostics(Diags).c_str());
    return 2;
  }

  if (Demo) {
    Request.Workload.ProgramText = Figure9Demo;
  } else {
    const std::string &Path = Options.positional().front();
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Request.Workload.ProgramText = SS.str();
  }

  if (Simulate) {
    Request.Kind = RequestKind::Simulate;
    if (Trace)
      Request.TracePrefix = TraceOut;
  }

  SimResponse Resp = executeRequest(Request, Jobs);
  if (!Resp.ok()) {
    if (!Resp.Diagnostics.empty())
      std::fprintf(stderr, "%s\n", renderDiagnostics(Resp.Diagnostics).c_str());
    else
      std::fprintf(stderr, "error: %s\n", Resp.ErrorText.c_str());
    return 1;
  }
  const PlanSummary &Plan = Resp.Plan;

  std::printf("program:  %s\n", Plan.ProgramName.c_str());
  std::printf("machine:  %s\n", Config.summary().c_str());
  std::printf("mapping:  %u clusters of %ux%u cores, %u MC(s) each\n\n",
              Plan.NumClusters, Plan.CoresPerClusterX, Plan.CoresPerClusterY,
              Plan.MCsPerCluster);

  std::printf("%-16s %-10s %-22s %s\n", "array", "decision", "U", "note");
  for (const PlanArrayRow &Row : Plan.Arrays)
    std::printf("%-16s %-10s %-22s %s\n", Row.Name.c_str(),
                Row.Optimized ? "optimized" : "kept", Row.U.c_str(),
                Row.Note.c_str());
  std::printf("\narrays optimized: %.0f%%, references satisfied: %.0f%%\n",
              100.0 * Plan.ArraysOptimizedFraction,
              100.0 * Plan.RefsSatisfiedFraction);

  if (EmitCode)
    std::printf("\n==== transformed source ====\n%s\n",
                Plan.TransformedSource.c_str());

  if (Simulate) {
    const SimResult &Base = *Resp.Original;
    const SimResult &Opt = *Resp.Optimized;
    if (Csv) {
      std::printf("\n%s",
                  renderCsv({{"original", &Base}, {"optimized", &Opt}})
                      .c_str());
    } else {
      std::printf("\n==== original ====\n%s", renderSummary(Base).c_str());
      std::printf("\n==== optimized ====\n%s", renderSummary(Opt).c_str());
      SavingsSummary S = summarizeSavings(Base, Opt);
      std::printf("\nsavings: exec %.1f%%, on-chip net %.1f%%, off-chip net "
                  "%.1f%%, memory %.1f%%\n",
                  100.0 * S.ExecutionTime, 100.0 * S.OnChipNetLatency,
                  100.0 * S.OffChipNetLatency, 100.0 * S.MemLatency);
    }
  }
  return 0;
}
