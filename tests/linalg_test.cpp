//===- tests/linalg_test.cpp - integer linear algebra unit tests ----------===//

#include "linalg/IntLinAlg.h"
#include "linalg/IntMatrix.h"

#include "TestOracles.h"
#include "support/MathUtil.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace offchip;

namespace {

IntMatrix m22(std::int64_t A, std::int64_t B, std::int64_t C,
              std::int64_t D) {
  return IntMatrix::fromRows({{A, B}, {C, D}});
}

} // namespace

TEST(IntMatrix, BasicAccessors) {
  IntMatrix M(2, 3);
  EXPECT_EQ(M.numRows(), 2u);
  EXPECT_EQ(M.numCols(), 3u);
  M.at(1, 2) = 7;
  EXPECT_EQ(M.at(1, 2), 7);
  EXPECT_EQ(M.row(1), (IntVector{0, 0, 7}));
  EXPECT_EQ(M.column(2), (IntVector{0, 7}));
}

TEST(IntMatrix, IdentityAndMultiply) {
  IntMatrix I = IntMatrix::identity(3);
  IntMatrix M = IntMatrix::fromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  EXPECT_EQ(I.multiply(M), M);
  EXPECT_EQ(M.multiply(I), M);
}

TEST(IntMatrix, TransposeInvolution) {
  IntMatrix M = IntMatrix::fromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(M.transpose().transpose(), M);
  EXPECT_EQ(M.transpose().numRows(), 3u);
}

TEST(IntMatrix, Apply) {
  IntMatrix M = m22(1, 0, 0, 2);
  EXPECT_EQ(M.apply({3, 4}), (IntVector{3, 8}));
}

TEST(IntMatrix, WithColumnRemoved) {
  IntMatrix M = IntMatrix::fromRows({{1, 2, 3}, {4, 5, 6}});
  IntMatrix B = M.withColumnRemoved(1);
  EXPECT_EQ(B, IntMatrix::fromRows({{1, 3}, {4, 6}}));
}

TEST(IntMatrix, PaperExampleReference) {
  // Section 5.1: A[i1][2*i2+1] at i=(1,2) touches (1,5).
  IntMatrix A = m22(1, 0, 0, 2);
  IntVector R = A.apply({1, 2});
  R[1] += 1;
  EXPECT_EQ(R, (IntVector{1, 5}));
}

TEST(VectorOps, DotAndZero) {
  EXPECT_EQ(dot({1, 2, 3}, {4, 5, 6}), 32);
  EXPECT_TRUE(isZeroVector({0, 0}));
  EXPECT_FALSE(isZeroVector({0, 1}));
  EXPECT_TRUE(isZeroVector({}));
}

TEST(VectorOps, NormalizePrimitive) {
  EXPECT_EQ(normalizePrimitive({2, 4, 6}), (IntVector{1, 2, 3}));
  EXPECT_EQ(normalizePrimitive({-2, 4}), (IntVector{1, -2}));
  EXPECT_EQ(normalizePrimitive({0, 0}), (IntVector{0, 0}));
  EXPECT_EQ(normalizePrimitive({0, -5}), (IntVector{0, 1}));
}

// The rank oracle the nullspace sweep below checks against.
TEST(Rank, FullAndDeficient) {
  EXPECT_EQ(oracle::rank(IntMatrix::identity(3)), 3u);
  EXPECT_EQ(oracle::rank(m22(1, 2, 2, 4)), 1u);
  EXPECT_EQ(oracle::rank(IntMatrix(2, 2)), 0u);
  EXPECT_EQ(oracle::rank(IntMatrix::fromRows({{1, 2, 3}, {4, 5, 6}})), 2u);
}

TEST(Determinant, KnownValues) {
  EXPECT_EQ(determinant(IntMatrix::identity(4)), 1);
  EXPECT_EQ(determinant(m22(2, 0, 0, 3)), 6);
  EXPECT_EQ(determinant(m22(0, 1, 1, 0)), -1);
  EXPECT_EQ(determinant(m22(1, 2, 2, 4)), 0);
  EXPECT_EQ(determinant(IntMatrix::fromRows(
                {{2, -3, 1}, {2, 0, -1}, {1, 4, 5}})),
            49);
}

TEST(Unimodular, Detection) {
  EXPECT_TRUE(isUnimodular(IntMatrix::identity(3)));
  EXPECT_TRUE(isUnimodular(m22(0, 1, 1, 0)));
  EXPECT_FALSE(isUnimodular(m22(2, 0, 0, 1)));
  EXPECT_FALSE(isUnimodular(IntMatrix::fromRows({{1, 2, 3}, {4, 5, 6}})));
}

TEST(Nullspace, FullColumnRankIsEmpty) {
  EXPECT_TRUE(nullspaceBasis(IntMatrix::identity(3)).empty());
}

TEST(Nullspace, BasisVectorsAnnihilate) {
  IntMatrix M = IntMatrix::fromRows({{1, 2, 3}, {2, 4, 6}});
  std::vector<IntVector> Basis = nullspaceBasis(M);
  EXPECT_EQ(Basis.size(), 2u); // rank 1 in a 3-dim domain
  for (const IntVector &V : Basis) {
    EXPECT_FALSE(isZeroVector(V));
    IntVector R = M.apply(V);
    EXPECT_TRUE(isZeroVector(R)) << "basis vector not in kernel";
  }
}

TEST(Nullspace, ZeroMatrixGivesFullBasis) {
  IntMatrix Z(0, 3); // no constraints
  std::vector<IntVector> Basis = nullspaceBasis(Z);
  EXPECT_EQ(Basis.size(), 3u);
}

TEST(Nullspace, PaperExampleZTransposed) {
  // Z[j][i] with i partitioned: B = A without column u, B^T g = 0 must give
  // g = (0, 1) (the second data dimension tracks the partitioned iterator).
  IntMatrix A = m22(0, 1, 1, 0); // a = (j, i) over iter (i, j)
  IntMatrix B = A.withColumnRemoved(0);
  std::vector<IntVector> Basis = nullspaceBasis(B.transpose());
  ASSERT_EQ(Basis.size(), 1u);
  EXPECT_EQ(Basis[0], (IntVector{0, 1}));
}

TEST(Hermite, TransformationIsConsistent) {
  IntMatrix M = IntMatrix::fromRows({{4, 6}, {2, 2}});
  HermiteResult HR = hermiteNormalForm(M);
  EXPECT_EQ(HR.T.multiply(M), HR.H);
  EXPECT_TRUE(isUnimodular(HR.T));
  // Upper echelon with positive pivots.
  EXPECT_GT(HR.H.at(0, 0), 0);
  EXPECT_EQ(HR.H.at(1, 0), 0);
}

TEST(Hermite, OfUnimodularIsIdentity) {
  IntMatrix U = IntMatrix::fromRows({{1, 3}, {2, 7}}); // det 1
  HermiteResult HR = hermiteNormalForm(U);
  EXPECT_EQ(HR.H, IntMatrix::identity(2));
}

TEST(Completion, RowPlacedAndUnimodular) {
  std::optional<IntMatrix> U = completeToUnimodularRow({2, 3, 5}, 0);
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->row(0), (IntVector{2, 3, 5}));
  EXPECT_TRUE(isUnimodular(*U));
}

TEST(Completion, NonUnitTargetRow) {
  std::optional<IntMatrix> U = completeToUnimodularRow({0, 1}, 1);
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->row(1), (IntVector{0, 1}));
  EXPECT_TRUE(isUnimodular(*U));
}

TEST(Completion, PreservesSign) {
  std::optional<IntMatrix> U = completeToUnimodularRow({0, -1}, 0);
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->row(0), (IntVector{0, -1}));
  EXPECT_TRUE(isUnimodular(*U));
}

TEST(Completion, ReducesToGcd) {
  std::optional<IntMatrix> U = completeToUnimodularRow({4, 6}, 0);
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->row(0), (IntVector{2, 3}));
  EXPECT_TRUE(isUnimodular(*U));
}

TEST(Completion, ZeroVectorFails) {
  EXPECT_FALSE(completeToUnimodularRow({0, 0, 0}, 0).has_value());
}

// Property sweep: random primitive vectors complete to unimodular matrices
// with the requested row.
class CompletionProperty : public ::testing::TestWithParam<int> {};

TEST_P(CompletionProperty, RandomVectors) {
  SplitMix64 Rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  unsigned N = 2 + static_cast<unsigned>(Rng.nextBelow(3)); // 2..4
  IntVector G(N);
  bool AllZero = true;
  for (auto &X : G) {
    X = static_cast<std::int64_t>(Rng.nextBelow(21)) - 10;
    if (X != 0)
      AllZero = false;
  }
  if (AllZero)
    G[0] = 1;
  unsigned V = static_cast<unsigned>(Rng.nextBelow(N));
  std::optional<IntMatrix> U = completeToUnimodularRow(G, V);
  ASSERT_TRUE(U.has_value());
  EXPECT_TRUE(isUnimodular(*U));
  // Row V must be parallel to G with the same orientation.
  IntVector Row = U->row(V);
  std::int64_t D = dot(Row, G);
  EXPECT_GT(D, 0);
  // ...and primitive times gcd reproduces G: check cross-consistency for
  // 2D by determinant, generally by proportionality of entries.
  std::int64_t Gg = 0, Gr = 0;
  for (auto X : G)
    Gg = gcd64(Gg, X);
  for (auto X : Row)
    Gr = gcd64(Gr, X);
  EXPECT_EQ(Gr, 1);
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Row[I] * Gg, G[I]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompletionProperty, ::testing::Range(0, 50));

// Property sweep: nullspace bases of random matrices annihilate and have the
// right dimension (cross-checked against the rank oracle).
class NullspaceProperty : public ::testing::TestWithParam<int> {};

TEST_P(NullspaceProperty, RandomMatrices) {
  SplitMix64 Rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  unsigned Rows = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  unsigned Cols = 1 + static_cast<unsigned>(Rng.nextBelow(4));
  IntMatrix M(Rows, Cols);
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned C = 0; C < Cols; ++C)
      M.at(R, C) = static_cast<std::int64_t>(Rng.nextBelow(9)) - 4;
  std::vector<IntVector> Basis = nullspaceBasis(M);
  EXPECT_EQ(Basis.size(), Cols - oracle::rank(M));
  for (const IntVector &V : Basis) {
    EXPECT_FALSE(isZeroVector(V));
    EXPECT_TRUE(isZeroVector(M.apply(V)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NullspaceProperty, ::testing::Range(0, 80));
