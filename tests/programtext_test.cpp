//===- tests/programtext_test.cpp - textual format tests --------------------===//

#include "affine/ProgramText.h"

#include "core/LayoutTransformer.h"
#include "harness/Experiment.h"

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
  const std::vector<std::int64_t> *Values = P->indexArrayValues(1);
  ASSERT_NE(Values, nullptr);
  EXPECT_EQ(Values->size(), 256u);
  EXPECT_EQ(*Values, makeNearbyIndices(256, 256, 16, 42));
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
  EXPECT_EQ(*P->indexArrayValues(1), (std::vector<std::int64_t>{3, 1, 4, 1}));
  EXPECT_TRUE(P->nests()[0].indexedRefs()[0].IsWrite);
}

TEST(ProgramText, RoundTripPreservesStructure) {
  auto P = parseProgramText(StencilText);
  ASSERT_TRUE(P.has_value());
  std::string Printed = printProgramText(*P);
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
    std::string Printed = printProgramText(App.Program);
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
  // Each bad number fails its own line with the parser's message; none
  // throws, and none is wrapped or truncated into an accepted value.
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

  // Negative bounds and offsets stay legal.
  EXPECT_TRUE(parseProgramText("program p\narray a dims 8 elem 4\n"
                               "nest n bounds -2:6 parallel 0 repeat 2\n"
                               "  read a [ i0+2 ]\nend\n")
                  .has_value());
}

TEST(ProgramText, ParsesNegativeAndScaledCoefficients) {
  const char *Text = R"(
program coeffs
array a dims 64 1024 elem 8
nest n bounds 0:16 0:16 parallel 0
  read a [ 2*i0+1, 32*i1-i0 ]
end
)";
  auto P = parseProgramText(Text);
  ASSERT_TRUE(P.has_value());
  const AffineRef &R = P->nests()[0].refs()[0];
  EXPECT_EQ(R.accessMatrix(), IntMatrix::fromRows({{2, 0}, {-1, 32}}));
  EXPECT_EQ(R.offset(), (IntVector{1, 0}));
}
