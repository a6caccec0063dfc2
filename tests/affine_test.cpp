//===- tests/affine_test.cpp - affine IR unit tests ------------------------===//

#include "affine/AffineProgram.h"
#include "affine/IndexProfile.h"
#include "affine/IterationSpace.h"

#include "workloads/AppModel.h"

#include "TestOracles.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

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
  EXPECT_EQ(oracle::evaluate(R, {3, 5}), (IntVector{6, 2}));

  IntMatrix U = IntMatrix::fromRows({{0, 1}, {1, 0}});
  AffineRef RT = R.transformed(U);
  // U swaps the data dimensions.
  EXPECT_EQ(oracle::evaluate(RT, {3, 5}), (IntVector{2, 6}));
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
AffineProgram makeIndexedProgram(std::int64_t N, IndexValues Values,
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
  AffineProgram P = makeIndexedProgram(
      N, IndexValues::nearby(static_cast<std::uint64_t>(N), N, 64, 99),
      nullptr, nullptr);
  const LoopNest &Nest = P.nests()[0];
  auto A = approximateIndexedRef(P, Nest, Nest.indexedRefs()[0]);
  ASSERT_TRUE(A.has_value());
  EXPECT_LT(A->ErrorFraction, 0.10);
}

TEST(IndexProfile, RandomIndicesExceedThreshold) {
  const std::int64_t N = 4096;
  AffineProgram P = makeIndexedProgram(
      N, IndexValues::random(static_cast<std::uint64_t>(N), N, 1234), nullptr,
      nullptr);
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

//===----------------------------------------------------------------------===//
// Byte identity against the full-walk oracles
//===----------------------------------------------------------------------===//

namespace {

/// Bit-for-bit equality of two profile fits: the error as a double's
/// bytes, the rounded reference and the sample count.
void expectSameFit(const std::optional<IndexApproximation> &Got,
                   const std::optional<IndexApproximation> &Want,
                   const std::string &What) {
  ASSERT_EQ(Got.has_value(), Want.has_value()) << What;
  if (!Got)
    return;
  EXPECT_EQ(std::memcmp(&Got->ErrorFraction, &Want->ErrorFraction,
                        sizeof(double)),
            0)
      << What << ": " << Got->ErrorFraction << " vs " << Want->ErrorFraction;
  EXPECT_EQ(Got->Approx.accessMatrix(), Want->Approx.accessMatrix()) << What;
  EXPECT_EQ(Got->Approx.offset(), Want->Approx.offset()) << What;
  EXPECT_EQ(Got->Approx.arrayId(), Want->Approx.arrayId()) << What;
  EXPECT_EQ(Got->Approx.isWrite(), Want->Approx.isWrite()) << What;
  EXPECT_EQ(Got->Samples, Want->Samples) << What;
}

std::vector<std::int64_t> readAll(const IndexValues &V) {
  std::vector<std::int64_t> Out;
  for (std::uint64_t N = 0; N < V.size(); ++N)
    Out.push_back(V.at(N));
  return Out;
}

} // namespace

TEST(IndexValues, GeneratedEntriesMatchSequentialGenerators) {
  struct Case {
    std::uint64_t Count;
    std::int64_t Extent, Window;
  };
  std::vector<Case> Cases = {
      {0, 10, 3},     {1, 10, 3},   {1, 1, 0},      {2, 1, 5},
      {100, 1, 0},    {100, 1, 7},  {257, 1000, 0}, {300, 40, 40},
      {300, 40, 500}, {64, 64, 64}, {1000, 3, 1},   {4096, 1 << 20, 384},
  };
  SplitMix64 Rng(2024);
  for (int I = 0; I < 40; ++I) {
    std::int64_t Extent = 1 + static_cast<std::int64_t>(Rng.nextBelow(
                                  I % 2 ? 50 : std::uint64_t{1} << 40));
    std::uint64_t Window =
        Rng.nextBelow(2 * static_cast<std::uint64_t>(Extent));
    Cases.push_back(
        {Rng.nextBelow(3000), Extent, static_cast<std::int64_t>(Window)});
  }
  for (const Case &C : Cases) {
    for (std::uint64_t Seed : {std::uint64_t{0}, std::uint64_t{42},
                               ~std::uint64_t{0}, Rng.next()}) {
      std::string What = formatString(
          "count %llu extent %lld window %lld seed %llu",
          static_cast<unsigned long long>(C.Count),
          static_cast<long long>(C.Extent), static_cast<long long>(C.Window),
          static_cast<unsigned long long>(Seed));
      IndexValues Near =
          IndexValues::nearby(C.Count, C.Extent, C.Window, Seed);
      ASSERT_EQ(Near.size(), C.Count) << What;
      EXPECT_EQ(readAll(Near),
                oracle::makeNearbyIndices(C.Count, C.Extent, C.Window, Seed))
          << "nearby " << What;
      IndexValues Rand = IndexValues::random(C.Count, C.Extent, Seed);
      ASSERT_EQ(Rand.size(), C.Count) << What;
      EXPECT_EQ(readAll(Rand),
                oracle::makeRandomIndices(C.Count, C.Extent, Seed))
          << "random " << What;
    }
  }
}

TEST(IndexValues, NearbyRampDoesNotWrapPast64Bits) {
  // Count * Extent passes 2^64 here; each ramp below is exact in shifts.
  struct Case {
    std::uint64_t Count;
    std::int64_t Extent;
    std::int64_t (*Ramp)(std::uint64_t);
  };
  const Case Cases[] = {
      {std::uint64_t{1} << 40, std::int64_t{1} << 40,
       [](std::uint64_t N) { return static_cast<std::int64_t>(N); }},
      {std::uint64_t{1} << 41, std::int64_t{1} << 40,
       [](std::uint64_t N) { return static_cast<std::int64_t>(N >> 1); }},
      {std::uint64_t{1} << 40, std::int64_t{1} << 62,
       [](std::uint64_t N) { return static_cast<std::int64_t>(N << 22); }},
  };
  const std::int64_t W = 1000;
  SplitMix64 Rng(7);
  for (const Case &C : Cases) {
    IndexValues V = IndexValues::nearby(C.Count, C.Extent, W, 99);
    std::vector<std::uint64_t> Points = {0, 1, C.Count / 2, C.Count - 2,
                                         C.Count - 1};
    for (int I = 0; I < 2000; ++I)
      Points.push_back(Rng.nextBelow(C.Count));
    for (std::uint64_t N : Points) {
      std::int64_t Got = V.at(N);
      EXPECT_GE(Got, 0) << N;
      EXPECT_LT(Got, C.Extent) << N;
      EXPECT_LE(std::llabs(Got - C.Ramp(N)), W)
          << "entry " << N << " of " << C.Count;
    }
  }
}

TEST(IndexProfile, SampleJumpsMatchTheFullWalkOnGatherApps) {
  for (const char *Name : {"gafort", "fma3d", "ammp", "hpccg", "minimd"}) {
    for (double Scale : {0.1, 0.5, 1.0, 2.0}) {
      AppModel App = buildApp(Name, Scale);
      unsigned Refs = 0;
      for (const LoopNest &Nest : App.Program.nests())
        for (const IndexedRef &Ref : Nest.indexedRefs()) {
          ++Refs;
          expectSameFit(
              approximateIndexedRef(App.Program, Nest, Ref),
              oracle::approximateIndexedRefFullWalk(App.Program, Nest, Ref),
              formatString("%s@%g/%s", Name, Scale, Nest.name().c_str()));
        }
      EXPECT_GT(Refs, 0u) << Name;
    }
  }
}

TEST(IndexProfile, SampleJumpsMatchTheFullWalkOnRandomNests) {
  SplitMix64 Rng(0x5eed);
  auto Between = [&](std::int64_t Lo, std::int64_t Hi) {
    return Lo + static_cast<std::int64_t>(
                    Rng.nextBelow(static_cast<std::uint64_t>(Hi - Lo + 1)));
  };
  unsigned Fits = 0, Partial = 0;
  for (int Case = 0; Case < 150; ++Case) {
    // A rectangular nest of depth 1-4 with nonzero lower bounds, kept small
    // enough for the oracle's walk.
    unsigned Depth = static_cast<unsigned>(Between(1, 4));
    const std::int64_t MaxExtent[] = {0, 10000, 140, 25, 12};
    IntVector Lower(Depth), Upper(Depth);
    for (unsigned L = 0; L < Depth; ++L) {
      Lower[L] = Between(-5, 7);
      Upper[L] = Lower[L] + Between(1, MaxExtent[Depth]);
    }
    IterationSpace Space(Lower, Upper);

    // The index reference: random coefficients, and index dims that cut
    // through the range it covers, so part of the space reads outside.
    unsigned Rank = static_cast<unsigned>(Between(1, 2));
    IntMatrix A(Rank, Depth);
    IntVector O(Rank);
    IntVector Dims(Rank);
    for (unsigned R = 0; R < Rank; ++R) {
      std::int64_t Hi = 0;
      for (unsigned L = 0; L < Depth; ++L) {
        A.at(R, L) = Between(-1, 2);
        Hi += std::max(A.at(R, L) * Lower[L], A.at(R, L) * (Upper[L] - 1));
      }
      O[R] = Between(-3, 3);
      Dims[R] =
          std::max<std::int64_t>(1, (Hi + O[R] + 1) * Between(5, 12) / 10);
    }

    AffineProgram P("random");
    std::int64_t DataExtent = Between(1, 5000);
    // Every 25th data array has rank 2, which the profile declines.
    IntVector DataDims = {DataExtent};
    if (Case % 25 == 0)
      DataDims.push_back(2);
    ArrayId Data = P.addArray({"data", DataDims, 8});
    ArrayId Idx = P.addArray({"idx", Dims, 8});
    std::uint64_t Count = P.array(Idx).numElements();
    std::uint64_t Seed = Rng.next();
    switch (Case % 4) {
    case 0:
      P.setIndexArrayValues(Idx, IndexValues::random(Count, DataExtent, Seed));
      break;
    case 1: {
      // Inline values, sometimes fewer than the array holds.
      std::vector<std::int64_t> V(Case % 8 == 1 ? Count / 2 + 1 : Count);
      for (std::int64_t &X : V)
        X = Between(0, DataExtent - 1);
      P.setIndexArrayValues(Idx, std::move(V));
      break;
    }
    default:
      P.setIndexArrayValues(
          Idx, IndexValues::nearby(Count, DataExtent, Between(0, 64), Seed));
    }
    LoopNest Nest("n", Space, 0);
    Nest.addIndexedRef(
        {Data, Idx, AffineRef(Idx, A, O, false), Case % 3 == 0});
    P.addNest(std::move(Nest));
    const LoopNest &N = P.nests()[0];
    const IndexedRef &Ref = N.indexedRefs()[0];

    std::uint64_t Trip = Space.tripCount();
    for (std::uint64_t Max : {std::uint64_t{7}, std::uint64_t{8}, Trip - 1,
                              Trip, Trip + 1, Trip / 3 + 1,
                              std::uint64_t{4096}}) {
      if (Max == 0)
        continue;
      std::optional<IndexApproximation> Want =
          oracle::approximateIndexedRefFullWalk(P, N, Ref, Max);
      expectSameFit(approximateIndexedRef(P, N, Ref, Max), Want,
                    formatString("case %d max %llu", Case,
                                 static_cast<unsigned long long>(Max)));
      if (!Want)
        continue;
      ++Fits;
      std::uint64_t Stride = Trip <= Max ? 1 : (Trip / Max) | 1;
      Partial += Want->Samples < (Trip - 1) / Stride + 1;
    }
  }
  // The cases exercise real fits, some with samples lost outside the index
  // array.
  EXPECT_GT(Fits, 300u);
  EXPECT_GT(Partial, 50u);
}
