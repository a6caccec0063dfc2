//===- tests/benchsuite_test.cpp - BenchSuite + determinism tests ---------===//
///
/// The load-bearing property of the redesigned harness: a bench's report is
/// byte-identical whatever --jobs is, because rows are emitted serially in
/// submission order no matter which worker finished first.
///
//===----------------------------------------------------------------------===//

#include "harness/BenchSuite.h"

#include "gtest/gtest.h"

using namespace offchip;

namespace {

/// A miniature fig14-style sweep on a 4x4 mesh with down-scaled apps,
/// rendered into a capture string.
std::string runSweep(unsigned Jobs) {
  MachineConfig Config = MachineConfig::scaledDefault();
  Config.MeshX = 4;
  Config.MeshY = 4;
  std::string Out;
  BenchSuite Suite("determinism check", "output independent of --jobs",
                   Config);
  Suite.jobs(Jobs).sink(makeTableSink(&Out));

  struct Row {
    std::string Name;
    SimFuture Base, Opt;
  };
  std::vector<Row> Rows;
  for (const std::string &Name : {std::string("wupwise"),
                                  std::string("swim"),
                                  std::string("fma3d")}) {
    auto App = Suite.app(Name, 0.5);
    Rows.push_back({Name, Suite.run(App, RunVariant::Original),
                    Suite.run(App, RunVariant::Optimized)});
  }
  Suite.header();
  Suite.savingsColumns();
  for (Row &R : Rows)
    Suite.savingsRow(R.Name, summarizeSavings(R.Base.get(), R.Opt.get()));
  Suite.savingsAverage();
  Suite.finish();
  return Out;
}

} // namespace

TEST(BenchSuiteTest, OutputIsIndependentOfJobCount) {
  std::string Serial = runSweep(1);
  ASSERT_FALSE(Serial.empty());
  EXPECT_NE(Serial.find("AVERAGE"), std::string::npos);
  EXPECT_EQ(Serial, runSweep(8));
}

TEST(BenchSuiteTest, ParseArgsFiltersApps) {
  BenchSuite Suite("t", "c", MachineConfig::scaledDefault());
  const char *Argv[] = {"bench", "--apps", "wupwise,swim", "--jobs", "2"};
  EXPECT_EQ(Suite.parseArgs(5, const_cast<char **>(Argv)), std::nullopt);
  ASSERT_EQ(Suite.apps().size(), 2u);
  EXPECT_EQ(Suite.apps()[0], "wupwise");
  EXPECT_EQ(Suite.apps()[1], "swim");
  EXPECT_EQ(Suite.jobsResolved(), 2u);
}

TEST(BenchSuiteTest, ParseArgsRejectsUnknownApp) {
  BenchSuite Suite("t", "c", MachineConfig::scaledDefault());
  const char *Argv[] = {"bench", "--apps", "nosuchapp"};
  EXPECT_EQ(Suite.parseArgs(3, const_cast<char **>(Argv)),
            std::optional<int>(2));
}

TEST(BenchSuiteTest, ParseArgsAcceptsPlacementFlags) {
  BenchSuite Suite("t", "c", MachineConfig::scaledDefault());
  const char *Argv[] = {"bench", "--placement", "top_bottom_spread"};
  EXPECT_EQ(Suite.parseArgs(3, const_cast<char **>(Argv)), std::nullopt);
  EXPECT_EQ(Suite.config().Placement, MCPlacementKind::TopBottomSpread);

  BenchSuite Nodes("t", "c", MachineConfig::scaledDefault());
  const char *Argv2[] = {"bench", "--mc-nodes", "0,7,56,63"};
  EXPECT_EQ(Nodes.parseArgs(3, const_cast<char **>(Argv2)), std::nullopt);
  EXPECT_EQ(Nodes.config().Placement, MCPlacementKind::Explicit);
  EXPECT_EQ(Nodes.config().MCNodes, (std::vector<unsigned>{0, 7, 56, 63}));
}

TEST(BenchSuiteTest, ParseArgsRejectsBadPlacementWithDiagnostic) {
  // The structured diagnostic path: exit code 2, not a crash and not the
  // generic usage error.
  BenchSuite Suite("t", "c", MachineConfig::scaledDefault());
  const char *Argv[] = {"bench", "--placement", "middle"};
  EXPECT_EQ(Suite.parseArgs(3, const_cast<char **>(Argv)),
            std::optional<int>(2));

  BenchSuite Nodes("t", "c", MachineConfig::scaledDefault());
  const char *Argv2[] = {"bench", "--mc-nodes", "0,,7"};
  EXPECT_EQ(Nodes.parseArgs(3, const_cast<char **>(Argv2)),
            std::optional<int>(2));

  // A node list under a built-in kind is caught by the final validate()
  // gate (contradiction diagnostic), same exit code.
  BenchSuite Mixed("t", "c", MachineConfig::scaledDefault());
  const char *Argv3[] = {"bench", "--mc-nodes", "0,7,56,63", "--placement",
                         "corners"};
  EXPECT_EQ(Mixed.parseArgs(5, const_cast<char **>(Argv3)),
            std::optional<int>(2));
}

TEST(BenchSuiteTest, AppListNamesTheFlagInItsErrors) {
  std::vector<std::string> Apps = {"keep"};
  OptionsParser P("tool", "overview");
  addAppListFlag(P, "--search-apps", &Apps, "apps");
  const char *Ok[] = {"tool", "--search-apps", ",swim,,mgrid,"};
  std::string Err;
  EXPECT_TRUE(P.parse(3, const_cast<char **>(Ok), &Err));
  EXPECT_EQ(Apps, (std::vector<std::string>{"swim", "mgrid"}));

  Apps = {"keep"};
  const char *Unknown[] = {"tool", "--search-apps", "swim,nosuchapp"};
  EXPECT_FALSE(P.parse(3, const_cast<char **>(Unknown), &Err));
  EXPECT_EQ(Err, "error: unknown app 'nosuchapp' in --search-apps");
  const char *Empty[] = {"tool", "--search-apps", ","};
  EXPECT_FALSE(P.parse(3, const_cast<char **>(Empty), &Err));
  EXPECT_EQ(Err, "error: --search-apps selected no apps");
  EXPECT_EQ(Apps, (std::vector<std::string>{"keep"}));
}

TEST(BenchSuiteTest, ParseArgsRejectsZeroSparseDir) {
  // 0 used to mean "unbounded" here while offchip-opt rejected it; one rule
  // now: N >= 1 everywhere.
  BenchSuite Suite("t", "c", MachineConfig::scaledDefault());
  const char *Argv[] = {"bench", "--coherence", "msi", "--sparse-dir", "0"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(Suite.parseArgs(5, const_cast<char **>(Argv)),
            std::optional<int>(2));
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "invalid value '0' for option '--sparse-dir'"),
            std::string::npos);
}

TEST(BenchSuiteTest, ParseArgsRejectsCsvPlusJson) {
  BenchSuite Suite("t", "c", MachineConfig::scaledDefault());
  const char *Argv[] = {"bench", "--csv", "--json"};
  EXPECT_EQ(Suite.parseArgs(3, const_cast<char **>(Argv)),
            std::optional<int>(2));
}

TEST(BenchSuiteTest, DefaultsCoverAllApps) {
  BenchSuite Suite("t", "c", MachineConfig::scaledDefault());
  EXPECT_EQ(Suite.apps(), appNames());
}

TEST(BenchSuiteTest, AppModelsAreCachedPerScale) {
  BenchSuite Suite("t", "c", MachineConfig::scaledDefault());
  EXPECT_EQ(Suite.app("swim"), Suite.app("swim"));
  EXPECT_NE(Suite.app("swim"), Suite.app("swim", 0.5));
}

TEST(BenchSuiteTest, TableSinkAlignsColumns) {
  std::string Out;
  auto Sink = makeTableSink(&Out);
  Sink->begin("id", "claim", "machine");
  Sink->columns({{"app", 12}, {"exec", 10}});
  Sink->row({"swim", "12.3%"});
  Sink->end();
  EXPECT_NE(Out.find("=== id ===\n"), std::string::npos);
  EXPECT_NE(Out.find("machine:    machine\n"), std::string::npos);
  // First column left-aligned to 12, second right-aligned to 10.
  EXPECT_NE(Out.find("app                exec\n"), std::string::npos);
  EXPECT_NE(Out.find("swim              12.3%\n"), std::string::npos);
}

TEST(BenchSuiteTest, CsvSinkQuotesAndComments) {
  std::string Out;
  auto Sink = makeCsvSink(&Out);
  Sink->begin("id", "claim", "machine");
  Sink->columns({{"app", 12}, {"note", 10}});
  Sink->row({"swim", "has,comma"});
  Sink->note("footer");
  Sink->end();
  EXPECT_NE(Out.find("# id\n"), std::string::npos);
  EXPECT_NE(Out.find("app,note\n"), std::string::npos);
  EXPECT_NE(Out.find("swim,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(Out.find("# footer\n"), std::string::npos);
}

TEST(BenchSuiteTest, JsonSinkEmitsOnEnd) {
  std::string Out;
  auto Sink = makeJsonSink(&Out);
  Sink->begin("id", "say \"hi\"", "machine");
  Sink->columns({{"app", 12}, {"exec", 10}});
  Sink->row({"swim", "12.3%"});
  EXPECT_TRUE(Out.empty()); // buffered until end()
  Sink->end();
  EXPECT_NE(Out.find("\"id\": \"id\""), std::string::npos);
  EXPECT_NE(Out.find("\"claim\": \"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(Out.find("{\"app\": \"swim\", \"exec\": \"12.3%\"}"),
            std::string::npos);
}
