//===- tests/options_test.cpp - OptionsParser and machine-flag tests -------===//

#include "sim/MachineConfig.h"
#include "support/Options.h"

#include "gtest/gtest.h"

#include <cstdio>

using namespace offchip;

namespace {

bool parse(OptionsParser &P, std::vector<const char *> Args,
           std::string *Err = nullptr, bool *WantedHelp = nullptr) {
  Args.insert(Args.begin(), "tool");
  return P.parse(static_cast<int>(Args.size()),
                 const_cast<char **>(Args.data()), Err, WantedHelp);
}

} // namespace

TEST(OptionsTest, FlagsAndValues) {
  OptionsParser P("tool", "overview");
  bool Flag = false;
  unsigned N = 0;
  std::string S;
  P.flag("--flag", &Flag, "a switch");
  P.value("--n", &N, "a number");
  P.value("--s", &S, "a string");
  EXPECT_TRUE(parse(P, {"--flag", "--n", "12", "--s", "hello", "pos.txt"}));
  EXPECT_TRUE(Flag);
  EXPECT_EQ(N, 12u);
  EXPECT_EQ(S, "hello");
  ASSERT_EQ(P.positional().size(), 1u);
  EXPECT_EQ(P.positional()[0], "pos.txt");
}

TEST(OptionsTest, RejectsUnknownOption) {
  OptionsParser P("tool", "overview");
  std::string Err;
  EXPECT_FALSE(parse(P, {"--nope"}, &Err));
  EXPECT_NE(Err.find("--nope"), std::string::npos);
}

TEST(OptionsTest, RejectsMissingValue) {
  OptionsParser P("tool", "overview");
  unsigned N = 0;
  P.value("--n", &N, "a number");
  std::string Err;
  EXPECT_FALSE(parse(P, {"--n"}, &Err));
  EXPECT_NE(Err.find("requires a value"), std::string::npos);
}

TEST(OptionsTest, RejectsNonNumericValue) {
  OptionsParser P("tool", "overview");
  unsigned N = 0;
  P.value("--n", &N, "a number");
  std::string Err;
  EXPECT_FALSE(parse(P, {"--n", "12abc"}, &Err));
  EXPECT_NE(Err.find("invalid value"), std::string::npos);
}

TEST(OptionsTest, UnsignedParsingIsDigitsOnly) {
  // strtoul would silently accept all of these (wrapping "-1" to 2^32-1,
  // ignoring leading whitespace, stopping at trailing garbage); the parser
  // must reject every one with a diagnostic naming the value.
  const char *BadValues[] = {"-1", "4294967296", " 5", "5 ", "5x", "+5",
                             "0x10", ""};
  for (const char *Bad : BadValues) {
    OptionsParser P("tool", "overview");
    unsigned N = 123;
    P.value("--n", &N, "a number");
    std::string Err;
    EXPECT_FALSE(parse(P, {"--n", Bad}, &Err)) << "accepted '" << Bad << "'";
    EXPECT_NE(Err.find("invalid value"), std::string::npos) << Bad;
    EXPECT_EQ(N, 123u) << "wrote through on rejected '" << Bad << "'";
  }
}

TEST(OptionsTest, UnsignedParsingAcceptsFullRange) {
  OptionsParser P("tool", "overview");
  unsigned N = 0;
  P.value("--n", &N, "a number");
  EXPECT_TRUE(parse(P, {"--n", "4294967295"}));
  EXPECT_EQ(N, 4294967295u);
  EXPECT_TRUE(parse(P, {"--n", "0"}));
  EXPECT_EQ(N, 0u);
}

TEST(OptionsTest, CustomParserCanReject) {
  OptionsParser P("tool", "overview");
  unsigned X = 0, Y = 0;
  P.custom("--mesh", "<X>x<Y>",
           [&](const std::string &V, std::string *) {
             return std::sscanf(V.c_str(), "%ux%u", &X, &Y) == 2;
           },
           "mesh size");
  EXPECT_TRUE(parse(P, {"--mesh", "8x4"}));
  EXPECT_EQ(X, 8u);
  EXPECT_EQ(Y, 4u);
  EXPECT_FALSE(parse(P, {"--mesh", "garbage"}));
}

TEST(OptionsTest, HelpIsBuiltIn) {
  OptionsParser P("tool", "overview");
  bool Flag = false;
  P.flag("--flag", &Flag, "a switch");
  std::string Err;
  bool WantedHelp = false;
  EXPECT_FALSE(parse(P, {"--help"}, &Err, &WantedHelp));
  EXPECT_TRUE(WantedHelp);
  EXPECT_NE(Err.find("usage: tool"), std::string::npos);
  EXPECT_NE(Err.find("--flag"), std::string::npos);
}

TEST(OptionsTest, CustomMessageReplacesGenericError) {
  OptionsParser P("tool", "overview");
  P.custom("--kind", "<k>",
           [](const std::string &V, std::string *Message) {
             *Message = "bad kind '" + V + "': try 'a'";
             return false;
           },
           "a kind");
  std::string Err;
  EXPECT_FALSE(parse(P, {"--kind", "z"}, &Err));
  EXPECT_EQ(Err, "bad kind 'z': try 'a'");
}

TEST(OptionsTest, Uint64ParsingIsDigitsOnlyAndOverflowChecked) {
  OptionsParser P("tool", "overview");
  std::uint64_t N = 7;
  P.value("--n", &N, "a number");
  EXPECT_TRUE(parse(P, {"--n", "18446744073709551615"}));
  EXPECT_EQ(N, 18446744073709551615ull);
  for (const char *Bad : {"18446744073709551616", "99999999999999999999",
                          "-1", "+1", " 1", "1x", ""}) {
    N = 7;
    std::string Err;
    EXPECT_FALSE(parse(P, {"--n", Bad}, &Err)) << "accepted '" << Bad << "'";
    EXPECT_NE(Err.find("invalid value"), std::string::npos) << Bad;
    EXPECT_EQ(N, 7u) << "wrote through on rejected '" << Bad << "'";
  }
}

TEST(OptionsTest, DoubleParsingIsFiniteWholeTokenInRange) {
  OptionsParser P("tool", "overview");
  double Scale = 9.0, Ratio = 9.0;
  P.value("--scale", &Scale, DoubleRange::Positive, "a scale");
  P.value("--ratio", &Ratio, DoubleRange::UnitInterval, "a ratio");
  EXPECT_TRUE(parse(P, {"--scale", "0.25", "--ratio", "1"}));
  EXPECT_EQ(Scale, 0.25);
  EXPECT_EQ(Ratio, 1.0);
  EXPECT_TRUE(parse(P, {"--scale", "2e3", "--ratio", "0"}));
  EXPECT_EQ(Scale, 2000.0);
  EXPECT_EQ(Ratio, 0.0);

  for (const char *Bad : {"nan", "inf", "-inf", "1e400", "1x", "0.5 ", " 0.5",
                          "0x1p-2", "-0.5", "0", ""}) {
    Scale = 9.0;
    EXPECT_FALSE(parse(P, {"--scale", Bad})) << "scale accepted '" << Bad
                                             << "'";
    EXPECT_EQ(Scale, 9.0) << Bad;
  }
  for (const char *Bad : {"nan", "1.5", "-0.1", "2", "0.5junk"}) {
    Ratio = 9.0;
    EXPECT_FALSE(parse(P, {"--ratio", Bad})) << "ratio accepted '" << Bad
                                             << "'";
    EXPECT_EQ(Ratio, 9.0) << Bad;
  }
}

TEST(OptionsTest, UnsignedListRejectsEmptyAndMalformedItems) {
  std::vector<unsigned> L;
  EXPECT_EQ(parseUnsignedList("1,2,4294967295", &L), DigitsError::Ok);
  EXPECT_EQ(L, (std::vector<unsigned>{1, 2, 4294967295u}));

  struct Case {
    const char *Text;
    DigitsError Why;
    const char *Item;
  };
  for (const Case &C : {Case{"", DigitsError::Empty, ""},
                        Case{",", DigitsError::Empty, ""},
                        Case{"1,,2", DigitsError::Empty, ""},
                        Case{"1,2,", DigitsError::Empty, ""},
                        Case{"1,abc", DigitsError::NotDigits, "abc"},
                        Case{"-1", DigitsError::NotDigits, "-1"},
                        Case{"1, 2", DigitsError::NotDigits, " 2"},
                        Case{"4294967296", DigitsError::Overflow,
                             "4294967296"}}) {
    std::vector<unsigned> Untouched = {42};
    std::string Item = "unset";
    EXPECT_EQ(parseUnsignedList(C.Text, &Untouched, &Item), C.Why) << C.Text;
    EXPECT_EQ(Item, C.Item) << C.Text;
    EXPECT_EQ(Untouched, (std::vector<unsigned>{42})) << C.Text;
  }
}

namespace {

/// Runs parseArgs with stdout/stderr captured.
std::optional<int> parseArgs(OptionsParser &P, std::vector<const char *> Args,
                             std::string *Out, std::string *ErrOut) {
  Args.insert(Args.begin(), "tool");
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  std::optional<int> Ec = P.parseArgs(static_cast<int>(Args.size()),
                                      const_cast<char **>(Args.data()));
  *Out = testing::internal::GetCapturedStdout();
  *ErrOut = testing::internal::GetCapturedStderr();
  return Ec;
}

} // namespace

TEST(OptionsTest, ParseArgsExitCodes) {
  OptionsParser P("tool", "overview");
  unsigned N = 0;
  P.value("--n", &N, "a number");
  P.custom("--kind", "<k>",
           [](const std::string &, std::string *Message) {
             *Message = "structured diagnostic";
             return false;
           },
           "a kind");
  std::string Out, Err;

  EXPECT_EQ(parseArgs(P, {"--n", "3"}, &Out, &Err), std::nullopt);
  EXPECT_EQ(N, 3u);
  EXPECT_EQ(Out + Err, "");

  // --help: the help text on stdout, exit 0.
  EXPECT_EQ(parseArgs(P, {"--help"}, &Out, &Err), std::optional<int>(0));
  EXPECT_EQ(Out, P.helpText());
  EXPECT_EQ(Err, "");

  // A bad value: "error: ..." plus the help text on stderr, exit 2.
  EXPECT_EQ(parseArgs(P, {"--n", "x"}, &Out, &Err), std::optional<int>(2));
  EXPECT_EQ(Out, "");
  EXPECT_EQ(Err, "error: invalid value 'x' for option '--n'\n" +
                     P.helpText());

  // A value parser's own message is printed alone, exit 2.
  EXPECT_EQ(parseArgs(P, {"--kind", "z"}, &Out, &Err), std::optional<int>(2));
  EXPECT_EQ(Out, "");
  EXPECT_EQ(Err, "structured diagnostic\n");

  // The own-message state does not leak into the next parse.
  EXPECT_EQ(parseArgs(P, {"--nope"}, &Out, &Err), std::optional<int>(2));
  EXPECT_EQ(Err, "error: unknown option '--nope'\n" + P.helpText());
}

TEST(MachineFlags, MeshIsDigitsOnlyAndNonZero) {
  for (const char *Bad : {"-1x8", "8x-1", "0x8", "8x0", "8x8junk", "8", "x8",
                          "8x", " 8x8", "4294967296x8"}) {
    MachineConfig C;
    OptionsParser P("tool", "overview");
    addMeshFlags(P, C);
    EXPECT_FALSE(parse(P, {"--mesh", Bad})) << "accepted '" << Bad << "'";
    EXPECT_EQ(C.MeshX, 8u) << Bad;
    EXPECT_EQ(C.MeshY, 8u) << Bad;
  }
  MachineConfig C;
  OptionsParser P("tool", "overview");
  addMeshFlags(P, C);
  EXPECT_TRUE(parse(P, {"--mesh", "4x16", "--mcs", "2"}));
  EXPECT_EQ(C.MeshX, 4u);
  EXPECT_EQ(C.MeshY, 16u);
  EXPECT_EQ(C.NumMCs, 2u);
}

TEST(MachineFlags, SparseDirAndSampleCyclesAreAtLeastOne) {
  for (const char *Flag : {"--sparse-dir", "--trace-sample-cycles"})
    for (const char *Bad : {"0", "-1", "5x", ""}) {
      MachineConfig C;
      std::string Prefix;
      OptionsParser P("tool", "overview");
      addMemoryFlags(P, C);
      addTraceFlags(P, C, &Prefix, "trace");
      EXPECT_FALSE(parse(P, {Flag, Bad})) << Flag << " accepted '" << Bad
                                          << "'";
      EXPECT_FALSE(C.Coherence.SparseDirectory);
    }
  MachineConfig C;
  std::string Prefix;
  OptionsParser P("tool", "overview");
  addMemoryFlags(P, C);
  addTraceFlags(P, C, &Prefix, "trace");
  EXPECT_TRUE(parse(P, {"--coherence", "msi", "--sparse-dir", "16", "--trace",
                        "--trace-out", "t", "--trace-sample-cycles", "1"}));
  EXPECT_TRUE(C.Coherence.SparseDirectory);
  EXPECT_EQ(C.Coherence.SparseEntries, 16u);
  EXPECT_TRUE(C.Trace.Enabled);
  EXPECT_EQ(C.Trace.SampleCycles, 1u);
  EXPECT_EQ(Prefix, "t");
}

TEST(MachineFlags, PostParseStepChecksCrossFlagRulesThenValidate) {
  MachineConfig C = MachineConfig::scaledDefault();
  EXPECT_EQ(checkMachineFlags(C), std::nullopt);

  testing::internal::CaptureStderr();
  C.Coherence.SparseDirectory = true;
  EXPECT_EQ(checkMachineFlags(C), std::optional<int>(2));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: --sparse-dir requires --coherence\n");

  testing::internal::CaptureStderr();
  C = MachineConfig::scaledDefault();
  C.MeshX = 1;
  EXPECT_EQ(checkMachineFlags(C), std::optional<int>(2));
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "invalid machine config: MeshX"),
            std::string::npos);
}
