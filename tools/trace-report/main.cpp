//===- tools/trace-report/main.cpp - trace time-series summarizer ---------===//
///
/// Reads the compact time-series CSV dumps the tracing subsystem writes
/// (--trace on any bench or offchip-opt --simulate) and prints the summary
/// tables: the per-link utilization heatmap, per-MC queue-depth percentiles,
/// and the requester->MC distance histogram that cross-checks the paper's
/// Figure 13/15 aggregates.
///
/// Usage:
///   trace-report <run.series.csv> [more.series.csv ...]
///
//===----------------------------------------------------------------------===//

#include "support/Options.h"
#include "trace/TimeSeries.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace offchip;

int main(int Argc, char **Argv) {
  OptionsParser Options("trace-report",
                        "summarizes --trace time-series dumps (link "
                        "utilization, MC queue depth, request distances)");
  Options.positionalHelp("<run.series.csv>...");

  if (std::optional<int> Ec = Options.parseArgs(Argc, Argv))
    return *Ec;
  if (Options.positional().empty()) {
    std::fprintf(stderr, "error: expected at least one <run.series.csv>\n%s",
                 Options.helpText().c_str());
    return 2;
  }

  for (const std::string &Path : Options.positional()) {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();

    TraceData D;
    std::string Err;
    if (!parseTimeSeriesCsv(SS.str(), D, &Err)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
      return 1;
    }
    std::printf("==== %s ====\n%s\n", Path.c_str(),
                renderTraceReport(D).c_str());
  }
  return 0;
}
