//===- harness/BenchSuite.h - Bench harness front-end -----------*- C++ -*-===//
///
/// \file
/// The redesigned bench harness API. A BenchSuite owns everything a figure
/// reproduction needs — the machine config, the cluster mappings, the app
/// models, a parallel ExperimentRunner, and an output sink — and replaces
/// the copy-pasted loop/printf scaffolding every bench binary used to
/// carry.
///
/// Benches follow a submit-then-emit structure:
///
///   BenchSuite Suite("Figure N: ...", "claim", Config);
///   if (auto Ec = Suite.parseArgs(Argc, Argv)) return *Ec;   // --jobs/--csv
///   // 1. submit every simulation up front (fans across cores)
///   for (const std::string &Name : Suite.apps()) {
///     auto App = Suite.app(Name);
///     Rows.push_back({Name, Suite.run(App, RunVariant::Original),
///                           Suite.run(App, RunVariant::Optimized)});
///   }
///   // 2. emit rows serially in submission order (deterministic output)
///   Suite.header();
///   Suite.savingsColumns();
///   for (auto &R : Rows)
///     Suite.savingsRow(R.Name, summarizeSavings(R.Base.get(), R.Opt.get()));
///   Suite.savingsAverage();
///
/// Because rows are always emitted on the calling thread in submission
/// order, and every simulation job is self-contained (see Runner.h), the
/// report is byte-identical for any --jobs value.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_HARNESS_BENCHSUITE_H
#define OFFCHIP_HARNESS_BENCHSUITE_H

#include "harness/Runner.h"
#include "support/Options.h"

#include <map>
#include <memory>
#include <optional>

namespace offchip {

//===----------------------------------------------------------------------===//
// Output sinks
//===----------------------------------------------------------------------===//

/// One table column: name plus the display width the text sink pads to.
struct BenchColumn {
  std::string Name;
  unsigned Width = 10;
};

/// Receives the structured pieces of a bench report. The text sink renders
/// the classic aligned tables; CSV/JSON render machine-readable variants of
/// the same rows.
class OutputSink {
public:
  virtual ~OutputSink() = default;

  /// Report banner: experiment id, what it reproduces, machine summary.
  virtual void begin(const std::string &Id, const std::string &Claim,
                     const std::string &Machine) = 0;
  /// Declares the columns of the (next) table.
  virtual void columns(const std::vector<BenchColumn> &Cols) = 0;
  /// One table row; may carry fewer cells than there are columns (e.g.
  /// sparse AVERAGE rows).
  virtual void row(const std::vector<std::string> &Cells) = 0;
  /// Free-form commentary (maps, footers); one trailing newline is added.
  /// May contain embedded newlines. An empty string is a blank line.
  virtual void note(const std::string &Text) = 0;
  /// Attaches one machine-readable key/value pair to the report header.
  /// \p RawJson must already be valid JSON — a bare number, true/false, or
  /// a quoted string (api/Json.h's JsonWriter::value quotes safely). The
  /// JSON sink emits it as a top-level field before "rows"; the text and
  /// CSV sinks render it as a "key = value" note line.
  virtual void meta(const std::string &Key, const std::string &RawJson);
  /// Flushes anything buffered (JSON emits here).
  virtual void end() {}
};

/// Renders the classic aligned-text report. With \p Capture non-null all
/// output is appended to the string instead of stdout (used by the
/// determinism tests).
std::unique_ptr<OutputSink> makeTableSink(std::string *Capture = nullptr);

/// Comma-separated rows; banner and notes become '#' comment lines.
std::unique_ptr<OutputSink> makeCsvSink(std::string *Capture = nullptr);

/// One JSON object with id/claim/machine/columns/rows/notes, emitted on
/// end().
std::unique_ptr<OutputSink> makeJsonSink(std::string *Capture = nullptr);

//===----------------------------------------------------------------------===//
// Shared report and app-list flags
//===----------------------------------------------------------------------===//

/// The --csv/--json pair every report-writing binary takes.
struct ReportFormat {
  bool Csv = false;
  bool Json = false;

  void addFlags(OptionsParser &P);
  /// The two are mutually exclusive: prints the error and \returns 2 when
  /// both were given.
  std::optional<int> check() const;
  /// The chosen sink on stdout (aligned tables by default).
  std::unique_ptr<OutputSink> makeSink() const;
};

/// Registers \p Flag as a comma-separated app list ("wupwise,swim") into
/// \p Out, checked against appNames(); empty items are skipped.
/// An unknown app or an empty selection fails with an error line naming
/// the flag.
void addAppListFlag(OptionsParser &P, const std::string &Flag,
                    std::vector<std::string> *Out, const std::string &Help);

//===----------------------------------------------------------------------===//
// BenchSuite
//===----------------------------------------------------------------------===//

class BenchSuite {
public:
  /// \param Id     experiment banner line ("Figure 14: ...")
  /// \param Claim  the paper claim being reproduced
  /// \param Config the machine the sweep runs on (copied; mutate via
  ///               config() before the first run)
  BenchSuite(std::string Id, std::string Claim, MachineConfig Config);
  ~BenchSuite();

  BenchSuite(const BenchSuite &) = delete;
  BenchSuite &operator=(const BenchSuite &) = delete;

  //===--------------------------------------------------------------------===//
  // CLI
  //===--------------------------------------------------------------------===//

  /// Registry for extra per-bench flags; register before parseArgs().
  OptionsParser &options() { return Parser; }

  /// Parses the common bench flag set: --jobs N, the memory-system flags
  /// (sim/MachineConfig.h addMemoryFlags), the tracing flags plus
  /// --trace-max-events, --csv/--json, --apps a,b,c and --help, then
  /// checks the resulting machine. \returns an exit code when the process
  /// should stop (bad flags or machine: 2, --help: 0), std::nullopt to
  /// continue.
  ///
  /// With --trace, every submitted simulation writes a Chrome trace and a
  /// time-series CSV to "<prefix>.run<K>.trace.json" / ".series.csv",
  /// where K counts submissions in order (deterministic for any --jobs).
  /// Tracing writes nothing to the report sink, so stdout stays
  /// byte-identical to an untraced run.
  std::optional<int> parseArgs(int Argc, char **Argv);

  //===--------------------------------------------------------------------===//
  // Configuration
  //===--------------------------------------------------------------------===//

  MachineConfig &config() { return Config; }
  const MachineConfig &config() const { return Config; }

  /// Overrides the worker count (0 = hardware threads). Only effective
  /// before the first submission.
  BenchSuite &jobs(unsigned N);
  /// Resolved parallelism once the runner exists; the pending setting
  /// otherwise.
  unsigned jobsResolved() const;

  /// Replaces the output sink (default: text tables on stdout).
  BenchSuite &sink(std::unique_ptr<OutputSink> S);

  //===--------------------------------------------------------------------===//
  // Apps and mappings
  //===--------------------------------------------------------------------===//

  /// The app names this sweep covers: all 13 paper apps, or the --apps
  /// subset.
  const std::vector<std::string> &apps() const { return AppFilter; }

  /// Builds (and caches) the named app model; the returned model is shared
  /// immutably with every job that uses it.
  std::shared_ptr<const AppModel> app(const std::string &Name,
                                      double SizeScale = 1.0);

  /// The M1 mapping (Figure 8a) for the suite config, built once.
  const ClusterMapping &m1();
  /// The M2-style mapping (Figure 8b) for the suite config, built once per
  /// \p MCsPerCluster.
  const ClusterMapping &m2(unsigned MCsPerCluster = 2);

  //===--------------------------------------------------------------------===//
  // Scheduling
  //===--------------------------------------------------------------------===//

  /// Schedules a variant run on the suite config and M1 mapping.
  SimFuture run(std::shared_ptr<const AppModel> App, RunVariant Variant);
  /// Same, with an explicit mapping (suite config).
  SimFuture run(std::shared_ptr<const AppModel> App,
                const ClusterMapping &Mapping, RunVariant Variant);
  /// Fully explicit: per-row machine configs (fig 19/20/21 style sweeps).
  SimFuture run(std::shared_ptr<const AppModel> App, const MachineConfig &C,
                const ClusterMapping &Mapping, RunVariant Variant);
  /// Schedules an arbitrary self-contained simulation thunk.
  SimFuture runCustom(std::function<SimResult()> Fn);

  //===--------------------------------------------------------------------===//
  // Output
  //===--------------------------------------------------------------------===//

  /// Emits the report banner.
  void header();
  /// Declares table columns.
  void columns(std::vector<BenchColumn> Cols);
  /// Emits one row.
  void row(std::vector<std::string> Cells);
  /// Emits free-form text (one trailing newline added; "" = blank line).
  void note(const std::string &Text);

  /// Declares the standard four-savings-metric columns (app, onchip-net,
  /// offchip-net, mem-lat, exec) plus optional extra columns.
  void savingsColumns(std::vector<BenchColumn> Extra = {},
                      const std::string &FirstColumn = "app");
  /// Emits one savings row (plus optional extra cells) and accumulates it
  /// for savingsAverage().
  void savingsRow(const std::string &Name, const SavingsSummary &S,
                  std::vector<std::string> Extra = {});
  /// Emits the AVERAGE row over every savingsRow() since the last
  /// savingsColumns().
  void savingsAverage();

  /// Flushes the sink; called by the destructor if not called explicitly.
  void finish();

private:
  ExperimentRunner &runner();
  std::vector<std::string> savingsCells(const SavingsSummary &S) const;

  std::string Id;
  std::string Claim;
  MachineConfig Config;
  OptionsParser Parser;

  unsigned JobsSetting = 0; // 0 = hardware threads
  std::string TraceOutPrefix = "trace";
  unsigned TraceMaxEvents = 0; // 0 = TraceConfig default
  unsigned TraceRunCounter = 0;
  ReportFormat Format;
  std::vector<std::string> AppFilter;

  std::unique_ptr<OutputSink> Sink;
  std::unique_ptr<ExperimentRunner> Runner;

  std::map<std::pair<std::string, double>, std::shared_ptr<const AppModel>>
      AppCache;
  std::unique_ptr<ClusterMapping> M1;
  std::map<unsigned, std::unique_ptr<ClusterMapping>> M2ByK;

  std::vector<SavingsSummary> AccumulatedSavings;
  bool Finished = false;
};

} // namespace offchip

#endif // OFFCHIP_HARNESS_BENCHSUITE_H
