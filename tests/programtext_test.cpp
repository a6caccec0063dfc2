//===- tests/programtext_test.cpp - textual format tests --------------------===//

#include "affine/ProgramText.h"

#include "core/LayoutTransformer.h"
#include "harness/Experiment.h"

#include "TestOracles.h"

#include <gtest/gtest.h>

using namespace offchip;

namespace {

const char *StencilText = R"(
# Figure 9a as text: transposed stencil, outer loop parallel.
program fig9
array z dims 128 128 elem 8

nest stencil bounds 0:128 1:127 parallel 0
  read  z [ i1-1, i0 ]
  read  z [ i1, i0 ]
  write z [ i1+1, i0 ]
end
)";

} // namespace

TEST(ProgramText, ParsesTheStencil) {
  std::string Err;
  auto P = parseProgramText(StencilText, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_EQ(P->name(), "fig9");
  ASSERT_EQ(P->numArrays(), 1u);
  EXPECT_EQ(P->array(0).Dims, (IntVector{128, 128}));
  ASSERT_EQ(P->nests().size(), 1u);
  const LoopNest &N = P->nests()[0];
  EXPECT_EQ(N.partitionDim(), 0u);
  EXPECT_EQ(N.space().lower(1), 1);
  EXPECT_EQ(N.space().upper(1), 127);
  ASSERT_EQ(N.refs().size(), 3u);
  // z[i1-1][i0]: access [[0,1],[1,0]], offset (-1, 0).
  EXPECT_EQ(N.refs()[0].accessMatrix(),
            IntMatrix::fromRows({{0, 1}, {1, 0}}));
  EXPECT_EQ(N.refs()[0].offset(), (IntVector{-1, 0}));
  EXPECT_FALSE(N.refs()[0].isWrite());
  EXPECT_TRUE(N.refs()[2].isWrite());
}

TEST(ProgramText, ParsedProgramOptimizesLikeTheHandBuiltOne) {
  auto P = parseProgramText(StencilText);
  ASSERT_TRUE(P.has_value());
  MachineConfig C = MachineConfig::scaledDefault();
  ClusterMapping M = makeM1Mapping(C);
  LayoutTransformer Pass(M, C.layoutOptions());
  LayoutPlan Plan = Pass.run(*P);
  ASSERT_TRUE(Plan.PerArray[0].Optimized);
  // The transposed accesses must produce the dimension-swapping U.
  EXPECT_EQ(Plan.PerArray[0].U, IntMatrix::fromRows({{0, 1}, {1, 0}}));
}

TEST(ProgramText, GatherAndGenerators) {
  const char *Text = R"(
program gather
array x dims 256 elem 8
array idx dims 32 8 elem 8
index idx nearby 16 42 for x

nest spmv bounds 0:32 0:8 parallel 0
  gather-read x via idx [ i0, i1 ]
end
)";
  std::string Err;
  auto P = parseProgramText(Text, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  const IndexValues *Values = P->indexArrayValues(1);
  ASSERT_NE(Values, nullptr);
  EXPECT_EQ(Values->size(), 256u);
  std::vector<std::int64_t> Read;
  for (std::uint64_t N = 0; N < Values->size(); ++N)
    Read.push_back(Values->at(N));
  EXPECT_EQ(Read, oracle::makeNearbyIndices(256, 256, 16, 42));
  ASSERT_EQ(P->nests()[0].indexedRefs().size(), 1u);
  EXPECT_EQ(P->nests()[0].indexedRefs()[0].DataArray, 0u);
  EXPECT_EQ(P->nests()[0].indexedRefs()[0].IndexArray, 1u);
}

TEST(ProgramText, InlineValues) {
  const char *Text = R"(
program vals
array x dims 64 elem 8
array idx dims 4 elem 8
index idx values 3 1 4 1

nest n bounds 0:4 parallel 0
  gather-write x via idx [ i0 ]
end
)";
  auto P = parseProgramText(Text);
  ASSERT_TRUE(P.has_value());
  const IndexValues *Values = P->indexArrayValues(1);
  ASSERT_NE(Values, nullptr);
  ASSERT_EQ(Values->size(), 4u);
  std::vector<std::int64_t> Read;
  for (std::uint64_t N = 0; N < Values->size(); ++N)
    Read.push_back(Values->at(N));
  EXPECT_EQ(Read, (std::vector<std::int64_t>{3, 1, 4, 1}));
  EXPECT_TRUE(P->nests()[0].indexedRefs()[0].IsWrite);
}

TEST(ProgramText, InlineIndexValuesStayInsideTheGatheredArray) {
  // Inline values are checked like the generators draw: each one must be a
  // row, [0, Dims[0]), of every data array gathered via the index array.
  auto Parse = [](const char *Values, std::string *Err) {
    return parseProgramText(std::string("program vals\n"
                                        "array x dims 64 elem 8\n"
                                        "array y dims 8 2 elem 8\n"
                                        "array idx dims 4 elem 8\n"
                                        "index idx values ") +
                                Values +
                                "\nnest n bounds 0:4 parallel 0\n"
                                "  gather-read x via idx [ i0 ]\n"
                                "  gather-write y via idx [ i0 ]\n"
                                "end\n",
                            Err);
  };
  std::string Err;
  EXPECT_TRUE(Parse("0 7 3 1", &Err).has_value()) << Err;
  struct {
    const char *Values, *Message;
  } Bad[] = {
      {"100000 1 -5 3", "line 5: index value 100000 is outside 'x' (0..63), "
                        "which is gathered via 'idx'"},
      {"1 2 -5 3", "line 5: index value -5 is outside 'x' (0..63), which is "
                   "gathered via 'idx'"},
      {"0 8 3 1", "line 5: index value 8 is outside 'y' (0..7), which is "
                  "gathered via 'idx'"},
  };
  for (const auto &Case : Bad) {
    EXPECT_FALSE(Parse(Case.Values, &Err).has_value()) << Case.Values;
    EXPECT_EQ(Err, Case.Message) << Case.Values;
  }
  // An index array that no gather reads through keeps any values.
  EXPECT_TRUE(parseProgramText("program p\narray idx dims 2 elem 8\n"
                               "index idx values -1 99\n",
                               &Err)
                  .has_value())
      << Err;
}

TEST(ProgramText, GeneratedIndicesStayInsideTheGatheredArray) {
  // A generated index array draws rows [0, Dims[0]) of its 'for' array, so
  // every array gathered through it needs at least that many rows.
  auto Parse = [](const char *Gen, const char *Gathered, std::string *Err) {
    return parseProgramText(std::string("program gen\n"
                                        "array x dims 1000 elem 8\n"
                                        "array y dims 10 elem 8\n"
                                        "array z dims 1000 3 elem 8\n"
                                        "array idx dims 4 elem 8\n"
                                        "index idx ") +
                                Gen +
                                "\nnest n bounds 0:4 parallel 0\n"
                                "  gather-read " +
                                Gathered +
                                " via idx [ i0 ]\n"
                                "end\n",
                            Err);
  };
  std::string Err;
  EXPECT_TRUE(Parse("nearby 4 1 for x", "x", &Err).has_value()) << Err;
  EXPECT_TRUE(Parse("random 7 for x", "z", &Err).has_value()) << Err;
  EXPECT_TRUE(Parse("nearby 4 1 for y", "x", &Err).has_value()) << Err;
  const char *Message = "line 6: index 'idx' draws rows 0..999 of 'x', but "
                        "'y' (0..9), which is gathered via 'idx', has fewer";
  EXPECT_FALSE(Parse("nearby 4 1 for x", "y", &Err).has_value());
  EXPECT_EQ(Err, Message);
  EXPECT_FALSE(Parse("random 7 for x", "y", &Err).has_value());
  EXPECT_EQ(Err, Message);
}

TEST(ProgramText, RoundTripPreservesStructure) {
  auto P = parseProgramText(StencilText);
  ASSERT_TRUE(P.has_value());
  std::string Printed = oracle::programText(*P);
  std::string Err;
  auto Q = parseProgramText(Printed, &Err);
  ASSERT_TRUE(Q.has_value()) << Err << "\n" << Printed;
  ASSERT_EQ(Q->numArrays(), P->numArrays());
  ASSERT_EQ(Q->nests().size(), P->nests().size());
  for (std::size_t I = 0; I < P->nests().size(); ++I) {
    const LoopNest &A = P->nests()[I], &B = Q->nests()[I];
    EXPECT_EQ(A.name(), B.name());
    EXPECT_EQ(A.partitionDim(), B.partitionDim());
    EXPECT_EQ(A.repeatCount(), B.repeatCount());
    ASSERT_EQ(A.refs().size(), B.refs().size());
    for (std::size_t R = 0; R < A.refs().size(); ++R) {
      EXPECT_EQ(A.refs()[R].accessMatrix(), B.refs()[R].accessMatrix());
      EXPECT_EQ(A.refs()[R].offset(), B.refs()[R].offset());
      EXPECT_EQ(A.refs()[R].isWrite(), B.refs()[R].isWrite());
    }
  }
}

TEST(ProgramText, RoundTripsEveryAppModelStructure) {
  // Property: printing and reparsing each application model preserves its
  // affine structure (index contents of large arrays are intentionally not
  // serialized).
  for (const std::string &Name : appNames()) {
    AppModel App = buildApp(Name, 0.25);
    std::string Printed = oracle::programText(App.Program);
    std::string Err;
    auto Q = parseProgramText(Printed, &Err);
    ASSERT_TRUE(Q.has_value()) << Name << ": " << Err;
    ASSERT_EQ(Q->numArrays(), App.Program.numArrays()) << Name;
    ASSERT_EQ(Q->nests().size(), App.Program.nests().size()) << Name;
    for (std::size_t I = 0; I < Q->nests().size(); ++I) {
      const LoopNest &A = App.Program.nests()[I], &B = Q->nests()[I];
      EXPECT_EQ(A.refs().size(), B.refs().size()) << Name;
      EXPECT_EQ(A.indexedRefs().size(), B.indexedRefs().size()) << Name;
      EXPECT_EQ(A.dynamicWeight(), B.dynamicWeight()) << Name;
      for (std::size_t R = 0; R < A.refs().size(); ++R)
        EXPECT_EQ(A.refs()[R].accessMatrix(), B.refs()[R].accessMatrix())
            << Name;
    }
  }
}

TEST(ProgramText, ErrorsCarryLineNumbers) {
  std::string Err;
  EXPECT_FALSE(parseProgramText("array x dims 8 elem 8\n", &Err).has_value());
  EXPECT_NE(Err.find("line 1"), std::string::npos);

  EXPECT_FALSE(parseProgramText("program p\nnest n bounds 0:4 parallel 3\nend\n",
                                &Err)
                   .has_value());
  EXPECT_NE(Err.find("line 2"), std::string::npos);

  EXPECT_FALSE(
      parseProgramText("program p\narray a dims 4 elem 8\n"
                       "nest n bounds 0:4 parallel 0\n  read b [ i0 ]\nend\n",
                       &Err)
          .has_value());
  EXPECT_NE(Err.find("unknown array"), std::string::npos);

  EXPECT_FALSE(parseProgramText(
                   "program p\narray a dims 4 4 elem 8\n"
                   "nest n bounds 0:4 parallel 0\n  read a [ i0 ]\nend\n",
                   &Err)
                   .has_value());
  EXPECT_NE(Err.find("rank"), std::string::npos);

  EXPECT_FALSE(parseProgramText(
                   "program p\narray a dims 4 elem 8\n"
                   "nest n bounds 0:4 parallel 0\n  read a [ i9 ]\nend\n",
                   &Err)
                   .has_value());
  EXPECT_NE(Err.find("malformed expression"), std::string::npos);
}

TEST(ProgramText, NumbersAreWholeTokensInRange) {
  // Each bad number, oversized array or malformed nest tail fails its own
  // line with the parser's message; none throws, and none is wrapped,
  // truncated or ignored into an accepted value.
  const std::pair<const char *, const char *> Bad[] = {
      {"array a dims abc elem 8",
       "line 2: array dimensions must be integers >= 1, got 'abc'"},
      {"array a dims 99999999999999999999 elem 8",
       "line 2: array dimensions must be integers >= 1, got "
       "'99999999999999999999'"},
      {"array a dims 0 elem 8",
       "line 2: array dimensions must be integers >= 1, got '0'"},
      {"array a dims 64 elem -8",
       "line 2: the element size must be an integer >= 1, got '-8'"},
      {"array a dims 64 elem 0",
       "line 2: the element size must be an integer >= 1, got '0'"},
      {"array a dims 64 elem 8x",
       "line 2: the element size must be an integer >= 1, got '8x'"},
      {"nest n bounds 0:64x parallel 0",
       "line 2: bound ends must be integers, got '0:64x'"},
      {"nest n bounds 0:64 parallel -1",
       "line 2: the parallel dimension must be an unsigned integer, got "
       "'-1'"},
      {"nest n bounds 0:64 parallel 0 repeat 0",
       "line 2: the repeat count must be an integer >= 1, got '0'"},
      {"index x random -1 for a",
       "line 2: the seed must be an unsigned integer, got '-1'"},
      {"index x nearby -4 1 for a",
       "line 2: the window must be an integer >= 0, got '-4'"},
      {"index x values 1 two 3",
       "line 2: index values must be integers, got 'two'"},
      {"array a dims 4294967296 4294967296 elem 8",
       "line 2: array 'a' overflows 64 bits"},
      {"array a dims 4294967296 4294967295 elem 8",
       "line 2: array 'a' overflows 64 bits"},
      {"nest n bounds 10:2 parallel 0",
       "line 2: a bound <lo>:<hi> needs hi > lo, got '10:2'"},
      {"nest n bounds 0:8 4:4 parallel 0",
       "line 2: a bound <lo>:<hi> needs hi > lo, got '4:4'"},
      {"nest n bounds 0:64 parallel 0 bogus 7",
       "line 2: expected at most 'repeat <n>' after 'parallel <dim>'"},
      {"nest n bounds 0:64 parallel 0 repeat",
       "line 2: expected at most 'repeat <n>' after 'parallel <dim>'"},
      {"nest n bounds 0:64 parallel 0 repeat 2 repeat 3",
       "line 2: expected at most 'repeat <n>' after 'parallel <dim>'"},
  };
  for (const auto &[Line, Message] : Bad) {
    std::string Err;
    EXPECT_FALSE(parseProgramText(std::string("program p\n") + Line + "\n",
                                  &Err)
                     .has_value())
        << Line;
    EXPECT_EQ(Err, Message) << Line;
  }

  // A subscript constant too large for 64 bits is a malformed expression.
  std::string Err;
  EXPECT_FALSE(parseProgramText("program p\narray a dims 4 elem 8\n"
                                "nest n bounds 0:4 parallel 0\n"
                                "  read a [ i0+99999999999999999999 ]\nend\n",
                                &Err)
                   .has_value());
  EXPECT_EQ(Err.rfind("line 4: malformed expression", 0), 0u) << Err;

  // Negative bounds and offsets, a trailing repeat, and the largest arrays
  // that fit stay legal.
  auto P = parseProgramText("program p\narray a dims 8 elem 4\n"
                            "nest n bounds -2:6 parallel 0 repeat 2\n"
                            "  read a [ i0+2 ]\nend\n");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->nests()[0].repeatCount(), 2u);
  EXPECT_TRUE(parseProgramText("program p\n"
                               "array a dims 4294967296 4294967295 elem 1\n"
                               "array b dims 2305843009213693951 elem 8\n")
                  .has_value());
}

TEST(ProgramText, SubscriptsStayInsideTheirArrays) {
  // Every subscript is checked at the corners of its nest's bounds box;
  // gathers check the index array they read.
  auto Parse = [](const char *Nest, const char *Ref, std::string *Err) {
    return parseProgramText(
        std::string("program p\narray a dims 64 8 elem 8\n"
                    "array idx dims 4 elem 8\nnest n bounds ") +
            Nest + " parallel 0\n  " + Ref + "\nend\n",
        Err);
  };
  std::string Err;
  for (const auto &[Nest, Ref] :
       std::initializer_list<std::pair<const char *, const char *>>{
           {"0:64 0:8", "read a [ i0, i1 ]"},
           {"0:64 0:8", "write a [ 63-i0, 7-i1 ]"},
           {"1:64 0:8", "read a [ i0-1, i1 ]"},
           {"0:32 0:4", "read a [ 2*i0+1, 2*i1 ]"},
           {"0:4", "gather-read a via idx [ i0 ]"}})
    EXPECT_TRUE(Parse(Nest, Ref, &Err).has_value()) << Ref << ": " << Err;

  struct {
    const char *Nest, *Ref, *Message;
  } Bad[] = {
      {"0:64 0:8", "read a [ i0+100000, i1 ]",
       "line 5: subscript 'i0+100000' spans 100000..100063 over the nest's "
       "bounds, outside 'a' (0..63)"},
      {"0:64 0:8", "read a [ i0, i1+1 ]",
       "line 5: subscript 'i1+1' spans 1..8 over the nest's bounds, outside "
       "'a' (0..7)"},
      {"0:64 0:8", "write a [ i0-1, i1 ]",
       "line 5: subscript 'i0-1' spans -1..62 over the nest's bounds, "
       "outside 'a' (0..63)"},
      {"0:64 0:8", "read a [ i0, i0-i1 ]",
       "line 5: subscript 'i0-i1' spans -7..63 over the nest's bounds, "
       "outside 'a' (0..7)"},
      {"0:5", "gather-write a via idx [ i0 ]",
       "line 5: subscript 'i0' spans 0..4 over the nest's bounds, outside "
       "'idx' (0..3)"},
      {"0:64 0:8", "read a [ 4611686018427387904*i0, i1 ]",
       "line 5: subscript '4611686018427387904*i0' overflows 64 bits over "
       "the nest's bounds"},
      // Sums that wrap to an in-range value must not slip past the check.
      {"0:64 0:8", "read a [ i0+9223372036854775807+9223372036854775807+2, i1 ]",
       "line 5: malformed expression "
       "'i0+9223372036854775807+9223372036854775807+2'"},
      {"0:64 0:8",
       "read a [ 9223372036854775807*i0+9223372036854775807*i0+2*i0+i0, i1 ]",
       "line 5: malformed expression "
       "'9223372036854775807*i0+9223372036854775807*i0+2*i0+i0'"},
  };
  for (const auto &Case : Bad) {
    EXPECT_FALSE(Parse(Case.Nest, Case.Ref, &Err).has_value()) << Case.Ref;
    EXPECT_EQ(Err, Case.Message) << Case.Ref;
  }
}

TEST(ProgramText, ParsesNegativeAndScaledCoefficients) {
  const char *Text = R"(
program coeffs
array a dims 64 1024 elem 8
nest n bounds 0:16 1:16 parallel 0
  read a [ 2*i0+1, 32*i1-i0 ]
end
)";
  auto P = parseProgramText(Text);
  ASSERT_TRUE(P.has_value());
  const AffineRef &R = P->nests()[0].refs()[0];
  EXPECT_EQ(R.accessMatrix(), IntMatrix::fromRows({{2, 0}, {-1, 32}}));
  EXPECT_EQ(R.offset(), (IntVector{1, 0}));
}
