//===- harness/BenchSuite.cpp ---------------------------------------------===//

#include "harness/BenchSuite.h"

#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>

using namespace offchip;

//===----------------------------------------------------------------------===//
// Sinks
//===----------------------------------------------------------------------===//

namespace {

/// Shared plumbing: append to a capture string when given one, stdout
/// otherwise.
class SinkBase : public OutputSink {
protected:
  explicit SinkBase(std::string *Capture) : Capture(Capture) {}

  void emit(const std::string &Text) {
    if (Capture)
      *Capture += Text;
    else
      std::fputs(Text.c_str(), stdout);
  }

private:
  std::string *Capture;
};

class TableSink final : public SinkBase {
public:
  explicit TableSink(std::string *Capture) : SinkBase(Capture) {}

  void begin(const std::string &Id, const std::string &Claim,
             const std::string &Machine) override {
    emit("=== " + Id + " ===\n");
    emit("reproduces: " + Claim + "\n");
    emit("machine:    " + Machine + "\n\n");
  }

  void columns(const std::vector<BenchColumn> &Cols) override {
    Widths.clear();
    std::vector<std::string> Names;
    for (const BenchColumn &C : Cols) {
      Widths.push_back(C.Width);
      Names.push_back(C.Name);
    }
    row(Names);
  }

  void row(const std::vector<std::string> &Cells) override {
    std::string Line;
    for (std::size_t I = 0; I < Cells.size(); ++I) {
      if (I != 0)
        Line += " ";
      unsigned W = I < Widths.size() ? Widths[I] : 0;
      Line += I == 0 ? padRight(Cells[I], W) : padLeft(Cells[I], W);
    }
    emit(Line + "\n");
  }

  void note(const std::string &Text) override { emit(Text + "\n"); }

private:
  std::vector<unsigned> Widths;
};

std::string csvQuote(const std::string &Cell) {
  if (Cell.find_first_of(",\"\n") == std::string::npos)
    return Cell;
  std::string Out = "\"";
  for (char C : Cell) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  return Out + "\"";
}

class CsvSink final : public SinkBase {
public:
  explicit CsvSink(std::string *Capture) : SinkBase(Capture) {}

  void begin(const std::string &Id, const std::string &Claim,
             const std::string &Machine) override {
    emit("# " + Id + "\n# reproduces: " + Claim + "\n# machine: " + Machine +
         "\n");
  }

  void columns(const std::vector<BenchColumn> &Cols) override {
    std::vector<std::string> Names;
    for (const BenchColumn &C : Cols)
      Names.push_back(C.Name);
    row(Names);
  }

  void row(const std::vector<std::string> &Cells) override {
    std::string Line;
    for (std::size_t I = 0; I < Cells.size(); ++I) {
      if (I != 0)
        Line += ",";
      Line += csvQuote(Cells[I]);
    }
    emit(Line + "\n");
  }

  void note(const std::string &Text) override {
    // Comment out every line so the file stays parseable.
    std::string Out = "# ";
    for (char C : Text) {
      Out += C;
      if (C == '\n')
        Out += "# ";
    }
    emit(Out + "\n");
  }
};

std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x",
                            static_cast<unsigned>(
                                static_cast<unsigned char>(C)));
      else
        Out += C;
    }
  }
  return Out + "\"";
}

class JsonSink final : public SinkBase {
public:
  explicit JsonSink(std::string *Capture) : SinkBase(Capture) {}

  void begin(const std::string &Id, const std::string &Claim,
             const std::string &Machine) override {
    Head = "  \"id\": " + jsonQuote(Id) + ",\n  \"claim\": " +
           jsonQuote(Claim) + ",\n  \"machine\": " + jsonQuote(Machine) +
           ",\n";
  }

  void columns(const std::vector<BenchColumn> &Cols) override {
    Columns.clear();
    for (const BenchColumn &C : Cols)
      Columns.push_back(C.Name);
  }

  void row(const std::vector<std::string> &Cells) override {
    std::string Obj = "    {";
    for (std::size_t I = 0; I < Cells.size(); ++I) {
      if (I != 0)
        Obj += ", ";
      std::string Key =
          I < Columns.size() ? Columns[I] : formatString("col%u",
                                                         unsigned(I));
      Obj += jsonQuote(Key) + ": " + jsonQuote(Cells[I]);
    }
    Rows.push_back(Obj + "}");
  }

  void note(const std::string &Text) override {
    if (!Text.empty())
      Notes.push_back(jsonQuote(Text));
  }

  // Header metadata becomes a real top-level field, appended right after
  // id/claim/machine so readers can pick it up without scanning notes.
  void meta(const std::string &Key, const std::string &RawJson) override {
    Head += "  " + jsonQuote(Key) + ": " + RawJson + ",\n";
  }

  void end() override {
    std::string Out = "{\n" + Head + "  \"rows\": [\n";
    for (std::size_t I = 0; I < Rows.size(); ++I)
      Out += Rows[I] + (I + 1 < Rows.size() ? ",\n" : "\n");
    Out += "  ],\n  \"notes\": [";
    for (std::size_t I = 0; I < Notes.size(); ++I)
      Out += (I == 0 ? "" : ", ") + Notes[I];
    Out += "]\n}\n";
    emit(Out);
  }

private:
  std::string Head;
  std::vector<std::string> Columns;
  std::vector<std::string> Rows;
  std::vector<std::string> Notes;
};

} // namespace

// Default rendering of header metadata: a "key = value" note line, which
// the text sink prints verbatim and the CSV sink turns into a '#' comment.
// The JSON sink overrides this to emit a real top-level field.
void OutputSink::meta(const std::string &Key, const std::string &RawJson) {
  note(Key + " = " + RawJson);
}

std::unique_ptr<OutputSink> offchip::makeTableSink(std::string *Capture) {
  return std::make_unique<TableSink>(Capture);
}

std::unique_ptr<OutputSink> offchip::makeCsvSink(std::string *Capture) {
  return std::make_unique<CsvSink>(Capture);
}

std::unique_ptr<OutputSink> offchip::makeJsonSink(std::string *Capture) {
  return std::make_unique<JsonSink>(Capture);
}

//===----------------------------------------------------------------------===//
// BenchSuite
//===----------------------------------------------------------------------===//

void offchip::addAppListFlag(OptionsParser &P, const std::string &Flag,
                             std::vector<std::string> *Out,
                             const std::string &Help) {
  P.custom(Flag, "<a,b,c>",
           [Flag, Out](const std::string &V, std::string *Message) {
             const std::vector<std::string> &Known = appNames();
             std::vector<std::string> Parsed;
             for (std::string &Name : splitList(V)) {
               if (Name.empty())
                 continue;
               if (std::find(Known.begin(), Known.end(), Name) ==
                   Known.end()) {
                 *Message = "error: unknown app '" + Name + "' in " + Flag;
                 return false;
               }
               Parsed.push_back(std::move(Name));
             }
             if (Parsed.empty()) {
               *Message = "error: " + Flag + " selected no apps";
               return false;
             }
             *Out = std::move(Parsed);
             return true;
           },
           Help);
}

void ReportFormat::addFlags(OptionsParser &P) {
  P.flag("--csv", &Csv, "emit CSV instead of aligned tables");
  P.flag("--json", &Json, "emit a JSON report");
}

std::optional<int> ReportFormat::check() const {
  if (!(Csv && Json))
    return std::nullopt;
  std::fprintf(stderr, "error: --csv and --json are mutually exclusive\n");
  return 2;
}

std::unique_ptr<OutputSink> ReportFormat::makeSink() const {
  return Csv ? makeCsvSink() : Json ? makeJsonSink() : makeTableSink();
}

BenchSuite::BenchSuite(std::string IdText, std::string ClaimText,
                       MachineConfig MachineCfg)
    : Id(std::move(IdText)), Claim(std::move(ClaimText)),
      Config(std::move(MachineCfg)),
      Parser("bench", "Reproduces: " + Claim),
      AppFilter(appNames()) {
  Parser.value("--jobs", &JobsSetting,
               "parallel simulation jobs (default: one per hardware thread)");
  addMemoryFlags(Parser, Config);
  addTraceFlags(Parser, Config, &TraceOutPrefix,
                "record a per-request trace for every simulation (writes "
                "<prefix>.run<K>.trace.json and .series.csv; see "
                "--trace-out)");
  Parser.value("--trace-max-events", &TraceMaxEvents,
               "per-node trace event ring capacity (oldest dropped)");
  Format.addFlags(Parser);
  addAppListFlag(Parser, "--apps", &AppFilter,
                 "comma-separated subset of apps to sweep (registered: " +
                     appNameList() + ")");
}

BenchSuite::~BenchSuite() { finish(); }

std::optional<int> BenchSuite::parseArgs(int Argc, char **Argv) {
  if (std::optional<int> Ec = Parser.parseArgs(Argc, Argv))
    return Ec;
  if (std::optional<int> Ec = Format.check())
    return Ec;
  if (TraceMaxEvents != 0)
    Config.Trace.MaxEventsPerNode = TraceMaxEvents;
  if (std::optional<int> Ec = checkMachineFlags(Config))
    return Ec;
  Sink = Format.makeSink();
  return std::nullopt;
}

BenchSuite &BenchSuite::jobs(unsigned N) {
  if (Runner)
    reportFatalError("BenchSuite::jobs after the first submission");
  JobsSetting = N;
  return *this;
}

unsigned BenchSuite::jobsResolved() const {
  return Runner ? Runner->jobs() : JobsSetting;
}

BenchSuite &BenchSuite::sink(std::unique_ptr<OutputSink> S) {
  Sink = std::move(S);
  return *this;
}

std::shared_ptr<const AppModel> BenchSuite::app(const std::string &Name,
                                                double SizeScale) {
  auto Key = std::make_pair(Name, SizeScale);
  auto It = AppCache.find(Key);
  if (It != AppCache.end())
    return It->second;
  auto Model = std::make_shared<const AppModel>(buildApp(Name, SizeScale));
  AppCache.emplace(Key, Model);
  return Model;
}

const ClusterMapping &BenchSuite::m1() {
  if (!M1)
    M1 = std::make_unique<ClusterMapping>(makeM1Mapping(Config));
  return *M1;
}

const ClusterMapping &BenchSuite::m2(unsigned MCsPerCluster) {
  auto It = M2ByK.find(MCsPerCluster);
  if (It == M2ByK.end())
    It = M2ByK
             .emplace(MCsPerCluster,
                      std::make_unique<ClusterMapping>(
                          makeM2Mapping(Config, MCsPerCluster)))
             .first;
  return *It->second;
}

ExperimentRunner &BenchSuite::runner() {
  if (!Runner)
    Runner = std::make_unique<ExperimentRunner>(JobsSetting);
  return *Runner;
}

SimFuture BenchSuite::run(std::shared_ptr<const AppModel> App,
                          RunVariant Variant) {
  return run(std::move(App), Config, m1(), Variant);
}

SimFuture BenchSuite::run(std::shared_ptr<const AppModel> App,
                          const ClusterMapping &Mapping, RunVariant Variant) {
  return run(std::move(App), Config, Mapping, Variant);
}

SimFuture BenchSuite::run(std::shared_ptr<const AppModel> App,
                          const MachineConfig &C,
                          const ClusterMapping &Mapping, RunVariant Variant) {
  SimJob Job{std::move(App), C, Mapping, Variant};
  if (Config.Trace.Enabled) {
    // Stamp the suite's tracing settings onto the job with per-submission
    // output paths: K counts submissions in program order, so file names
    // are deterministic for any --jobs value.
    unsigned K = TraceRunCounter++;
    Job.Config.Trace = Config.Trace;
    Job.Config.Trace.ChromeOutPath =
        formatString("%s.run%u.trace.json", TraceOutPrefix.c_str(), K);
    Job.Config.Trace.SeriesOutPath =
        formatString("%s.run%u.series.csv", TraceOutPrefix.c_str(), K);
  }
  return runner().submit(std::move(Job));
}

SimFuture BenchSuite::runCustom(std::function<SimResult()> Fn) {
  return runner().submit(std::move(Fn));
}

void BenchSuite::header() {
  if (!Sink)
    Sink = makeTableSink();
  Sink->begin(Id, Claim, Config.summary());
}

void BenchSuite::columns(std::vector<BenchColumn> Cols) {
  if (!Sink)
    reportFatalError("BenchSuite: emit header() before columns()");
  Sink->columns(Cols);
}

void BenchSuite::row(std::vector<std::string> Cells) {
  if (!Sink)
    reportFatalError("BenchSuite: emit header() before row()");
  Sink->row(Cells);
}

void BenchSuite::note(const std::string &Text) {
  if (!Sink)
    reportFatalError("BenchSuite: emit header() before note()");
  Sink->note(Text);
}

void BenchSuite::savingsColumns(std::vector<BenchColumn> Extra,
                                const std::string &FirstColumn) {
  std::vector<BenchColumn> Cols = {{FirstColumn, 12},
                                   {"onchip-net", 12},
                                   {"offchip-net", 13},
                                   {"mem-lat", 11},
                                   {"exec", 10}};
  for (BenchColumn &C : Extra)
    Cols.push_back(std::move(C));
  AccumulatedSavings.clear();
  columns(std::move(Cols));
}

std::vector<std::string>
BenchSuite::savingsCells(const SavingsSummary &S) const {
  return {formatPercent(S.OnChipNetLatency),
          formatPercent(S.OffChipNetLatency), formatPercent(S.MemLatency),
          formatPercent(S.ExecutionTime)};
}

void BenchSuite::savingsRow(const std::string &Name, const SavingsSummary &S,
                            std::vector<std::string> Extra) {
  std::vector<std::string> Cells = {Name};
  for (std::string &Cell : savingsCells(S))
    Cells.push_back(std::move(Cell));
  for (std::string &Cell : Extra)
    Cells.push_back(std::move(Cell));
  AccumulatedSavings.push_back(S);
  row(std::move(Cells));
}

void BenchSuite::savingsAverage() {
  if (AccumulatedSavings.empty())
    return;
  std::vector<std::string> Cells = {"AVERAGE"};
  for (std::string &Cell : savingsCells(averageSavings(AccumulatedSavings)))
    Cells.push_back(std::move(Cell));
  row(std::move(Cells));
}

void BenchSuite::finish() {
  if (Finished)
    return;
  Finished = true;
  if (Sink)
    Sink->end();
}
