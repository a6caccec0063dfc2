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
  std::string TraceOut = "trace";

  OptionsParser Options("offchip-opt",
                        "layout pass driver for textual affine programs");
  Options.positionalHelp("<program.txt>");
  addMeshFlags(Options, Config);
  addMemoryFlags(Options, Config);
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
                "with --simulate, 1 runs the original and optimized "
                "variants one after the other; any other value runs them "
                "side by side (default 1)");
  Options.flag("--csv", &Csv, "print simulation results as CSV");
  addTraceFlags(Options, Config, &TraceOut,
                "with --simulate, write per-request traces "
                "(<prefix>-original/-optimized .trace.json/.series.csv)");
  Options.flag("--demo", &Demo, "run the built-in Figure 9 demo");

  if (std::optional<int> Ec = Options.parseArgs(Argc, Argv))
    return *Ec;
  if (Page)
    Config.Granularity = InterleaveGranularity::Page;
  // Reject impossible machines with structured diagnostics while the
  // mistake is still a command-line matter — before touching the program
  // file.
  if (std::optional<int> Ec = checkMachineFlags(Config))
    return *Ec;
  if (Options.positional().size() > 1 ||
      (!Demo && Options.positional().empty())) {
    std::fprintf(stderr, "error: expected one <program.txt>\n%s",
                 Options.helpText().c_str());
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

  if (Simulate)
    Request.Kind = RequestKind::Simulate;
  if (!Config.Trace.Enabled)
    TraceOut.clear();

  SimResponse Resp = executeRequest(Request, Jobs, TraceOut);
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
