//===- tests/codegen_test.cpp - transformed-source emission tests ----------===//
///
/// The emitted index expressions (Figure 9c style) must be semantically
/// exact: this file evaluates them with a small recursive-descent
/// interpreter and compares against DataLayout::elementOffset for sampled
/// iterations.
///
//===----------------------------------------------------------------------===//

#include "core/CodeGen.h"
#include "core/DataLayout.h"
#include "harness/Experiment.h"
#include "support/Format.h"

#include "TestOracles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>

using namespace offchip;

namespace {

/// Minimal integer expression evaluator: numbers, variables (i0, i1, ...),
/// table indexing name[expr], parentheses, and left-associative
/// + - * / % with C precedence.
class ExprEval {
public:
  ExprEval(const std::string &Src,
           const std::map<std::string, std::int64_t> &Vars,
           const std::map<std::string, std::vector<std::int64_t>> &Tables)
      : Src(Src), Vars(Vars), Tables(Tables) {}

  std::int64_t run() {
    std::int64_t V = parseAddSub();
    skipWs();
    EXPECT_EQ(Pos, Src.size()) << "trailing junk in: " << Src;
    return V;
  }

private:
  void skipWs() {
    while (Pos < Src.size() && std::isspace(static_cast<unsigned char>(
                                   Src[Pos])))
      ++Pos;
  }
  bool eat(char C) {
    skipWs();
    if (Pos < Src.size() && Src[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  std::int64_t parseAddSub() {
    std::int64_t V = parseMulDiv();
    for (;;) {
      if (eat('+'))
        V += parseMulDiv();
      else if (eat('-'))
        V -= parseMulDiv();
      else
        return V;
    }
  }

  std::int64_t parseMulDiv() {
    std::int64_t V = parseUnary();
    for (;;) {
      if (eat('*'))
        V *= parseUnary();
      else if (eat('/')) {
        std::int64_t D = parseUnary();
        EXPECT_NE(D, 0);
        V /= D;
      } else if (eat('%')) {
        std::int64_t D = parseUnary();
        EXPECT_NE(D, 0);
        V %= D;
      } else
        return V;
    }
  }

  std::int64_t parseUnary() {
    if (eat('-'))
      return -parseUnary();
    return parsePrimary();
  }

  std::int64_t parsePrimary() {
    skipWs();
    if (eat('(')) {
      std::int64_t V = parseAddSub();
      EXPECT_TRUE(eat(')')) << "missing ) in: " << Src;
      return V;
    }
    if (Pos < Src.size() &&
        (std::isalpha(static_cast<unsigned char>(Src[Pos])) ||
         Src[Pos] == '_')) {
      std::size_t Start = Pos;
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_'))
        ++Pos;
      std::string Name = Src.substr(Start, Pos - Start);
      if (Name == "min" || Name == "max") {
        EXPECT_TRUE(eat('('));
        std::int64_t A = parseAddSub();
        EXPECT_TRUE(eat(','));
        std::int64_t Bv = parseAddSub();
        EXPECT_TRUE(eat(')'));
        return Name == "min" ? std::min(A, Bv) : std::max(A, Bv);
      }
      if (eat('[')) {
        std::int64_t Idx = parseAddSub();
        EXPECT_TRUE(eat(']'));
        auto It = Tables.find(Name);
        EXPECT_NE(It, Tables.end()) << "unknown table " << Name;
        EXPECT_GE(Idx, 0);
        EXPECT_LT(static_cast<std::size_t>(Idx), It->second.size());
        return It->second[static_cast<std::size_t>(Idx)];
      }
      auto It = Vars.find(Name);
      EXPECT_NE(It, Vars.end()) << "unknown variable " << Name;
      return It == Vars.end() ? 0 : It->second;
    }
    std::size_t Start = Pos;
    while (Pos < Src.size() &&
           std::isdigit(static_cast<unsigned char>(Src[Pos])))
      ++Pos;
    EXPECT_GT(Pos, Start) << "expected number at " << Start << " in " << Src;
    return std::stoll(Src.substr(Start, Pos - Start));
  }

  const std::string &Src;
  const std::map<std::string, std::int64_t> &Vars;
  const std::map<std::string, std::vector<std::int64_t>> &Tables;
  std::size_t Pos = 0;
};

/// Checks that the emitted expression for \p Ref equals Layout offsets over
/// a sampled sweep of the iteration space.
void expectExprMatchesLayout(const AffineRef &Ref,
                             const ArrayLayoutResult &Result,
                             const std::string &ArrayName,
                             const IterationSpace &Space,
                             std::int64_t Stride = 7) {
  EmittedExpr E =
      emitReferenceOffset(Ref, Result, ArrayName, Space.depth());
  IntVector Iter = Space.firstIteration();
  std::int64_t Count = 0;
  bool More = !Space.isEmpty();
  while (More) {
    if (Count % Stride == 0) {
      std::map<std::string, std::int64_t> Vars;
      for (unsigned D = 0; D < Space.depth(); ++D)
        Vars[formatString("i%u", D)] = Iter[D];
      std::int64_t Got = ExprEval(E.Expr, Vars, E.Tables).run();
      std::uint64_t Want =
          Result.Layout->elementOffset(oracle::evaluate(Ref, Iter));
      ASSERT_EQ(static_cast<std::uint64_t>(Got), Want)
          << "iter mismatch for " << E.Expr;
    }
    ++Count;
    More = Space.nextIteration(Iter);
  }
  EXPECT_GT(Count, 0);
}

ClusterMapping mapping() {
  Mesh M(8, 8);
  return ClusterMapping::makeLocalityMapping(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2, 1);
}

} // namespace

TEST(CodeGen, RowMajorExpression) {
  ArrayDecl Decl{"a", {16, 32}, 8};
  ArrayLayoutResult R;
  R.Layout = std::make_unique<RowMajorLayout>(Decl);
  R.U = IntMatrix::identity(2);
  AffineRef Ref(0, IntMatrix::identity(2), {1, 2}, false);
  IterationSpace Space({0, 0}, {15, 30});
  expectExprMatchesLayout(Ref, R, "a", Space, 3);
}

TEST(CodeGen, PrivateLayoutIdentityU) {
  ClusterMapping M = mapping();
  ArrayDecl Decl{"z", {128, 128}, 8};
  ArrayLayoutResult R;
  R.U = IntMatrix::identity(2);
  R.Layout = std::make_unique<PrivateL2Layout>(Decl, R.U, M, 32);
  R.Optimized = true;
  AffineRef Ref(0, IntMatrix::identity(2), {0, 0}, false);
  IterationSpace Space({0, 0}, {128, 128});
  expectExprMatchesLayout(Ref, R, "z", Space, 13);
}

TEST(CodeGen, PrivateLayoutTransposedU) {
  // The paper's running example: Z[j][i] with U swapping dimensions.
  ClusterMapping M = mapping();
  ArrayDecl Decl{"z", {128, 128}, 8};
  ArrayLayoutResult R;
  R.U = IntMatrix::fromRows({{0, 1}, {1, 0}});
  R.Layout = std::make_unique<PrivateL2Layout>(Decl, R.U, M, 32);
  R.Optimized = true;
  AffineRef Ref(0, IntMatrix::fromRows({{0, 1}, {1, 0}}), {-1, 0}, false);
  IterationSpace Space({0, 1}, {128, 128});
  expectExprMatchesLayout(Ref, R, "z", Space, 17);
}

TEST(CodeGen, SharedLayoutExpression) {
  ClusterMapping M = mapping();
  ArrayDecl Decl{"s", {128, 64}, 8};
  ArrayLayoutResult R;
  R.U = IntMatrix::identity(2);
  R.Layout = std::make_unique<SharedL2Layout>(Decl, R.U, M, 32, true);
  R.Optimized = true;
  AffineRef Ref(0, IntMatrix::identity(2), {0, 0}, true);
  IterationSpace Space({0, 0}, {128, 64});
  expectExprMatchesLayout(Ref, R, "s", Space, 11);
}

TEST(CodeGen, OneDimensionalPrivateLayout) {
  ClusterMapping M = mapping();
  ArrayDecl Decl{"v", {8192}, 8};
  ArrayLayoutResult R;
  R.U = IntMatrix::identity(1);
  R.Layout = std::make_unique<PrivateL2Layout>(Decl, R.U, M, 32);
  R.Optimized = true;
  IntMatrix A(1, 1);
  A.at(0, 0) = 1;
  AffineRef Ref(0, A, {0}, false);
  IterationSpace Space({0}, {8192});
  expectExprMatchesLayout(Ref, R, "v", Space, 101);
}

TEST(CodeGen, WholeProgramEmission) {
  ClusterMapping M = mapping();
  MachineConfig C = MachineConfig::scaledDefault();
  AppModel App = buildApp("swim", 0.25);
  LayoutTransformer Pass(M, C.layoutOptions());
  LayoutPlan Plan = Pass.run(App.Program);
  std::string Src = emitProgram(App.Program, Plan);
  // Structure: tables, nests, parallel annotations, loads and stores.
  EXPECT_NE(Src.find("_seq["), std::string::npos);
  EXPECT_NE(Src.find("// parallel"), std::string::npos);
  EXPECT_NE(Src.find("for (long i0"), std::string::npos);
  EXPECT_NE(Src.find("store "), std::string::npos);
  EXPECT_NE(Src.find("load  "), std::string::npos);
  // Every nest appears.
  for (const LoopNest &Nest : App.Program.nests())
    EXPECT_NE(Src.find("// nest " + Nest.name()), std::string::npos)
        << Nest.name();
}

TEST(CodeGen, EmittedExpressionsForAllAppsEvaluate) {
  // Property: for every optimized affine reference of every app, the
  // emitted expression matches the layout on the first iterations of its
  // nest.
  ClusterMapping M = mapping();
  MachineConfig C = MachineConfig::scaledDefault();
  for (const std::string &Name : appNames()) {
    AppModel App = buildApp(Name, 0.25);
    LayoutTransformer Pass(M, C.layoutOptions());
    LayoutPlan Plan = Pass.run(App.Program);
    for (const LoopNest &Nest : App.Program.nests()) {
      for (const AffineRef &Ref : Nest.refs()) {
        const ArrayLayoutResult &R = Plan.PerArray[Ref.arrayId()];
        EmittedExpr E = emitReferenceOffset(
            Ref, R, App.Program.array(Ref.arrayId()).Name, Nest.space().depth());
        // Sample a handful of iterations.
        IntVector Iter = Nest.space().firstIteration();
        for (int I = 0; I < 40 && !Nest.space().isEmpty(); ++I) {
          std::map<std::string, std::int64_t> Vars;
          for (unsigned D = 0; D < Nest.space().depth(); ++D)
            Vars[formatString("i%u", D)] = Iter[D];
          std::int64_t Got = ExprEval(E.Expr, Vars, E.Tables).run();
          ASSERT_EQ(static_cast<std::uint64_t>(Got),
                    R.Layout->elementOffset(oracle::evaluate(Ref, Iter)))
              << Name << "/" << Nest.name();
          if (!Nest.space().nextIteration(Iter))
            break;
        }
      }
    }
  }
}
