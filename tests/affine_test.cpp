//===- tests/affine_test.cpp - affine IR unit tests ------------------------===//

#include "affine/AffineProgram.h"
#include "affine/IndexProfile.h"
#include "affine/IterationSpace.h"

#include "workloads/AppModel.h"

#include <gtest/gtest.h>

using namespace offchip;

TEST(ArrayDecl, LinearizeDelinearizeRoundTrip) {
  ArrayDecl D{"a", {4, 5, 6}, 8};
  EXPECT_EQ(D.rank(), 3u);
  EXPECT_EQ(D.numElements(), 120u);
  EXPECT_EQ(D.sizeInBytes(), 960u);
  for (std::uint64_t Off = 0; Off < D.numElements(); ++Off)
    EXPECT_EQ(D.linearize(D.delinearize(Off)), Off);
  EXPECT_EQ(D.linearize({1, 2, 3}), 1u * 30 + 2 * 6 + 3);
}

TEST(ArrayDecl, Contains) {
  ArrayDecl D{"a", {4, 5}, 8};
  EXPECT_TRUE(D.contains({0, 0}));
  EXPECT_TRUE(D.contains({3, 4}));
  EXPECT_FALSE(D.contains({4, 0}));
  EXPECT_FALSE(D.contains({0, -1}));
  EXPECT_FALSE(D.contains({0}));
}

TEST(AffineRef, EvaluateAndTransform) {
  IntMatrix A = IntMatrix::fromRows({{0, 1}, {1, 0}});
  AffineRef R(0, A, {1, -1}, false);
  EXPECT_EQ(R.evaluate({3, 5}), (IntVector{6, 2}));

  IntMatrix U = IntMatrix::fromRows({{0, 1}, {1, 0}});
  AffineRef RT = R.transformed(U);
  // U swaps the data dimensions.
  EXPECT_EQ(RT.evaluate({3, 5}), (IntVector{2, 6}));
}

TEST(AffineRef, PartitionSubmatrix) {
  // B of Section 5.2: the access matrix without the partition column.
  IntMatrix A = IntMatrix::fromRows({{0, 1}, {1, 0}});
  AffineRef R(0, A, {0, 0}, false);
  IntMatrix B = R.accessMatrix().withColumnRemoved(0);
  EXPECT_EQ(B, IntMatrix::fromRows({{1}, {0}}));
}

TEST(IterationSpace, TripCountAndEmptiness) {
  IterationSpace S({0, 2}, {4, 6});
  EXPECT_EQ(S.tripCount(), 16u);
  EXPECT_FALSE(S.isEmpty());
  IterationSpace E({0, 5}, {4, 5});
  EXPECT_TRUE(E.isEmpty());
}

TEST(IterationSpace, LexicographicIteration) {
  IterationSpace S({0, 0}, {2, 3});
  IntVector I = S.firstIteration();
  std::vector<IntVector> Seen;
  do {
    Seen.push_back(I);
  } while (S.nextIteration(I));
  ASSERT_EQ(Seen.size(), 6u);
  EXPECT_EQ(Seen.front(), (IntVector{0, 0}));
  EXPECT_EQ(Seen[1], (IntVector{0, 1}));
  EXPECT_EQ(Seen[2], (IntVector{0, 2}));
  EXPECT_EQ(Seen[3], (IntVector{1, 0}));
  EXPECT_EQ(Seen.back(), (IntVector{1, 2}));
}

TEST(IterationSpace, Restricted) {
  IterationSpace S({0, 0}, {10, 10});
  IterationSpace R = S.restricted(0, 3, 7);
  EXPECT_EQ(R.lower(0), 3);
  EXPECT_EQ(R.upper(0), 7);
  EXPECT_EQ(R.tripCount(), 40u);
  // Restriction outside bounds clamps to empty.
  EXPECT_TRUE(S.restricted(0, 12, 20).isEmpty());
}

TEST(Chunking, OpenMPStaticStyle) {
  IterationSpace S({0, 0}, {10, 5});
  // 10 iterations over 4 threads: chunks of 3,3,3,1.
  IterationChunk C0 = chunkForThread(S, 0, 0, 4);
  IterationChunk C3 = chunkForThread(S, 0, 3, 4);
  EXPECT_EQ(C0.Begin, 0);
  EXPECT_EQ(C0.End, 3);
  EXPECT_EQ(C3.Begin, 9);
  EXPECT_EQ(C3.End, 10);
}

TEST(Chunking, CoversExactlyOnce) {
  IterationSpace S({2, 0}, {97, 3});
  std::vector<int> Hit(97, 0);
  for (unsigned T = 0; T < 8; ++T) {
    IterationChunk C = chunkForThread(S, 0, T, 8);
    for (std::int64_t I = C.Begin; I < C.End; ++I)
      ++Hit[static_cast<std::size_t>(I)];
  }
  for (std::int64_t I = 2; I < 97; ++I)
    EXPECT_EQ(Hit[static_cast<std::size_t>(I)], 1) << "iteration " << I;
}

TEST(Chunking, MoreThreadsThanIterations) {
  IterationSpace S({0}, {3});
  // Threads past the extent get empty chunks.
  EXPECT_FALSE(chunkForThread(S, 0, 0, 8).empty());
  EXPECT_TRUE(chunkForThread(S, 0, 5, 8).empty());
}

TEST(LoopNest, WeightsAndRepeats) {
  LoopNest N("n", IterationSpace({0, 0}, {10, 10}), 0);
  EXPECT_EQ(N.tripCount(), 100u);
  N.setRepeatCount(3);
  EXPECT_EQ(N.dynamicWeight(), 300u);
  N.setRepeatCount(0); // clamps to 1
  EXPECT_EQ(N.repeatCount(), 1u);
}

TEST(AffineProgram, AccessKindQueries) {
  AffineProgram P("t");
  ArrayId A = P.addArray({"a", {100}, 8});
  ArrayId Idx = P.addArray({"idx", {50}, 8});
  ArrayId Unused = P.addArray({"unused", {10}, 8});
  LoopNest N("n", IterationSpace({0}, {50}), 0);
  IntMatrix M(1, 1);
  M.at(0, 0) = 1;
  N.addIndexedRef({A, Idx, AffineRef(Idx, M, {0}, false), false});
  P.addNest(std::move(N));
  P.setIndexArrayValues(Idx, std::vector<std::int64_t>(50, 0));

  EXPECT_TRUE(P.isIndexedlyAccessed(A));
  EXPECT_FALSE(P.isAffinelyAccessed(A));
  EXPECT_FALSE(P.isIndexedlyAccessed(Unused));
  EXPECT_NE(P.indexArrayValues(Idx), nullptr);
  EXPECT_EQ(P.indexArrayValues(A), nullptr);
}

//===----------------------------------------------------------------------===//
// Index-profile approximation (Section 5.4)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a 1-deep nest reading Data[Index[i]] over [0, N).
AffineProgram makeIndexedProgram(std::int64_t N,
                                 std::vector<std::int64_t> Values,
                                 ArrayId *DataOut, unsigned *NestOut) {
  AffineProgram P("idx");
  ArrayId Data = P.addArray({"data", {N}, 8});
  ArrayId Idx = P.addArray({"idx", {N}, 8});
  P.setIndexArrayValues(Idx, std::move(Values));
  LoopNest Nest("n", IterationSpace({0}, {N}), 0);
  IntMatrix M(1, 1);
  M.at(0, 0) = 1;
  Nest.addIndexedRef({Data, Idx, AffineRef(Idx, M, {0}, false), false});
  P.addNest(std::move(Nest));
  if (DataOut)
    *DataOut = Data;
  if (NestOut)
    *NestOut = 0;
  return P;
}

} // namespace

TEST(IndexProfile, PerfectlyAffineIndicesFitExactly) {
  const std::int64_t N = 1024;
  std::vector<std::int64_t> V(N);
  for (std::int64_t I = 0; I < N; ++I)
    V[static_cast<std::size_t>(I)] = I; // identity gather
  AffineProgram P = makeIndexedProgram(N, V, nullptr, nullptr);
  const LoopNest &Nest = P.nests()[0];
  auto A = approximateIndexedRef(P, Nest, Nest.indexedRefs()[0]);
  ASSERT_TRUE(A.has_value());
  EXPECT_LT(A->ErrorFraction, 1e-6);
  EXPECT_EQ(A->Approx.accessMatrix().at(0, 0), 1);
}

TEST(IndexProfile, WindowedIndicesHaveSmallError) {
  const std::int64_t N = 4096;
  auto V = makeNearbyIndices(static_cast<std::uint64_t>(N), N, 64, 99);
  AffineProgram P = makeIndexedProgram(N, V, nullptr, nullptr);
  const LoopNest &Nest = P.nests()[0];
  auto A = approximateIndexedRef(P, Nest, Nest.indexedRefs()[0]);
  ASSERT_TRUE(A.has_value());
  EXPECT_LT(A->ErrorFraction, 0.10);
}

TEST(IndexProfile, RandomIndicesExceedThreshold) {
  const std::int64_t N = 4096;
  auto V = makeRandomIndices(static_cast<std::uint64_t>(N), N, 1234);
  AffineProgram P = makeIndexedProgram(N, V, nullptr, nullptr);
  const LoopNest &Nest = P.nests()[0];
  auto A = approximateIndexedRef(P, Nest, Nest.indexedRefs()[0]);
  ASSERT_TRUE(A.has_value());
  // Uniform random over the array scores ~1.0 under the normalization:
  // far beyond the 30% skip bound.
  EXPECT_GT(A->ErrorFraction, 0.80);
}

TEST(IndexProfile, MissingContentsReturnNullopt) {
  AffineProgram P("no-values");
  ArrayId Data = P.addArray({"data", {64}, 8});
  ArrayId Idx = P.addArray({"idx", {64}, 8});
  LoopNest Nest("n", IterationSpace({0}, {64}), 0);
  IntMatrix M(1, 1);
  M.at(0, 0) = 1;
  IndexedRef R{Data, Idx, AffineRef(Idx, M, {0}, false), false};
  Nest.addIndexedRef(R);
  LoopNest &Added = P.addNest(std::move(Nest));
  EXPECT_FALSE(
      approximateIndexedRef(P, Added, Added.indexedRefs()[0]).has_value());
}
