//===- tests/report_test.cpp - result rendering tests ----------------------===//

#include "sim/Report.h"

#include "harness/Experiment.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace offchip;

namespace {

SimResult sample() {
  SimResult R;
  R.ExecutionCycles = 1234;
  R.TotalAccesses = 100;
  R.L1Hits = 70;
  R.LocalL2Hits = 15;
  R.RemoteL2Hits = 5;
  R.OffChipAccesses = 10;
  R.OnChipNetLatency.addSample(40);
  R.OffChipNetLatency.addSample(80);
  R.MemLatency.addSample(60);
  return R;
}

unsigned countLines(const std::string &S) {
  unsigned N = 0;
  for (char C : S)
    if (C == '\n')
      ++N;
  return N;
}

} // namespace

TEST(Report, SummaryContainsTheHeadlineNumbers) {
  std::string S = renderSummary(sample());
  EXPECT_NE(S.find("1234"), std::string::npos);
  EXPECT_NE(S.find("70.0%"), std::string::npos);  // L1 hits
  EXPECT_NE(S.find("10.0%"), std::string::npos);  // off-chip share
  EXPECT_NE(S.find("80.0"), std::string::npos);   // off-chip latency
}

TEST(Report, CsvShapeAndValues) {
  SimResult R = sample();
  std::string Csv = renderCsv({{"run1", &R}, {"run2", &R}});
  EXPECT_EQ(countLines(Csv), 3u); // header + 2 rows
  std::istringstream In(Csv);
  std::string Header, Row;
  std::getline(In, Header);
  EXPECT_EQ(Header.substr(0, 5), "name,");
  std::getline(In, Row);
  EXPECT_EQ(Row.substr(0, 10), "run1,1234,");
  EXPECT_NE(Row.find("0.100000"), std::string::npos); // off-chip fraction
}

TEST(Report, EndToEndWithARealRun) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.MeshX = 4;
  C.MeshY = 4;
  ClusterMapping M = makeM1Mapping(C);
  AppModel App = buildApp("wupwise", 0.25);
  SimResult R = runVariant(App, C, M, RunVariant::Original);
  std::string Summary = renderSummary(R);
  EXPECT_NE(Summary.find("execution cycles"), std::string::npos);
  std::string Csv = renderCsv({{"wupwise", &R}});
  EXPECT_EQ(countLines(Csv), 2u);
}
