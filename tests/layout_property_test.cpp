//===- tests/layout_property_test.cpp - layout property sweeps -------------===//
///
/// Parameterized sweeps over machine geometries, interleave units, MC-group
/// sizes, transformations and phases, pinning the two invariants every
/// customized layout must satisfy:
///   1. bijectivity — distinct elements get distinct offsets within the
///      allocation;
///   2. MC correctness — each element's interleave unit lands on an MC of
///      the owning cluster's group (private), or its line lands on the
///      host bank the layout claims (shared);
/// and the affine-run contract the access stream's cursors rely on:
///   3. runAlong — from a box point T, the offset moves by the reported
///      delta for every reported step k with T + k*dT still in the box.
///
//===----------------------------------------------------------------------===//

#include "core/DataLayout.h"
#include "harness/Experiment.h"
#include "linalg/IntLinAlg.h"
#include "support/Random.h"
#include "workloads/AppModel.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

using namespace offchip;

namespace {

struct Geometry {
  unsigned MeshX, MeshY;
  unsigned NumMCs;
  unsigned K;
  MCPlacementKind Placement;
};

ClusterMapping makeMapping(const Geometry &G) {
  Mesh M(G.MeshX, G.MeshY);
  unsigned Groups = G.NumMCs / G.K;
  // Squarest grid of `Groups` clusters dividing the mesh.
  unsigned CX = 1, CY = Groups;
  for (unsigned X = 1; X <= Groups; ++X) {
    if (Groups % X != 0)
      continue;
    unsigned Y = Groups / X;
    if (G.MeshX % X == 0 && G.MeshY % Y == 0) {
      CX = X;
      CY = Y;
    }
  }
  return ClusterMapping::makeLocalityMapping(
      M, placeMemoryControllers(M, G.NumMCs, G.Placement), CX, CY, G.K);
}

} // namespace

//===----------------------------------------------------------------------===//
// Private layout sweep
//===----------------------------------------------------------------------===//

using PrivateParam = std::tuple<int /*geometry*/, int /*shape*/, int /*u*/,
                                int /*phase*/>;

class PrivateLayoutProperty
    : public ::testing::TestWithParam<PrivateParam> {};

TEST_P(PrivateLayoutProperty, BijectiveAndMCCorrect) {
  auto [GeoIdx, ShapeIdx, UIdx, PhaseIdx] = GetParam();

  const Geometry Geos[] = {
      {8, 8, 4, 1, MCPlacementKind::Corners},
      {8, 8, 4, 2, MCPlacementKind::Corners},
      {4, 4, 4, 1, MCPlacementKind::Corners},
      {4, 8, 4, 1, MCPlacementKind::Corners},
      {8, 8, 8, 1, MCPlacementKind::TopBottomSpread},
      // All four MCs in one group: a single cluster sequence, the largest
      // k*p run (every unit of a run on a different MC).
      {8, 8, 4, 4, MCPlacementKind::Corners},
      // Two corner MCs: the placement-spread edge case that used to divide
      // by zero before the validate()/placement sweep.
      {4, 4, 2, 1, MCPlacementKind::Corners},
  };
  const Geometry &G = Geos[GeoIdx];
  ClusterMapping Mapping = makeMapping(G);

  ArrayDecl Decl{"a", {}, 8};
  switch (ShapeIdx) {
  case 0:
    Decl.Dims = {96, 64};
    break;
  case 1:
    Decl.Dims = {61, 37}; // deliberately non-divisible extents
    break;
  case 2:
    Decl.Dims = {40, 12, 20};
    break;
  default:
    Decl.Dims = {4000};
    break;
  }

  IntMatrix U;
  unsigned Rank = Decl.rank();
  if (UIdx == 0 || Rank == 1) {
    U = IntMatrix::identity(Rank);
  } else if (UIdx == 1 && Rank == 2) {
    U = IntMatrix::fromRows({{0, 1}, {1, 0}});
  } else if (Rank == 3) {
    U = IntMatrix::fromRows({{0, 0, 1}, {0, 1, 0}, {1, 0, 0}});
  } else {
    // Skew: still unimodular.
    U = IntMatrix::fromRows({{1, 1}, {0, 1}});
  }
  ASSERT_TRUE(isUnimodular(U));

  std::int64_t Phase = PhaseIdx == 0 ? 0 : (PhaseIdx == 1 ? 1 : -2);

  PrivateL2Layout L(Decl, U, Mapping, /*ElementsPerUnit=*/32, Phase);

  std::set<std::uint64_t> Seen;
  IntVector V(Rank, 0);
  std::uint64_t Count = 0;
  // Full sweep for small arrays, sampled for large ones.
  std::uint64_t Step = Decl.numElements() > 30000 ? 7 : 1;
  for (std::uint64_t Flat = 0; Flat < Decl.numElements(); Flat += Step) {
    V = Decl.delinearize(Flat);
    std::uint64_t Off = L.elementOffset(V);
    ASSERT_LT(Off, L.sizeInElements());
    ASSERT_TRUE(Seen.insert(Off).second)
        << "offset collision at flat " << Flat;
    // MC correctness: the element's interleave unit lands on an MC of the
    // cluster the layout claims.
    int Desired = L.desiredMCForOffset(Off);
    ASSERT_GE(Desired, 0);
    std::uint64_t Unit = Off / 32;
    ASSERT_EQ(Unit % G.NumMCs, static_cast<std::uint64_t>(Desired));
    ++Count;
  }
  EXPECT_GT(Count, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrivateLayoutProperty,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Range(0, 4),
                       ::testing::Range(0, 2), ::testing::Range(0, 3)));

//===----------------------------------------------------------------------===//
// Padding when k*p does not divide the fast extent
//===----------------------------------------------------------------------===//

TEST(PrivateLayoutPadding, FootprintAccountsForRunRoundUpExactly) {
  // The allocation must be exactly numCores * FastExtent elements, where
  // FastExtent is the 3b-budgeted per-block fast axis rounded up to whole
  // k*p runs — the round-up is the Section 5.3 padding, and nothing else
  // may be hiding in the footprint.
  const Geometry Geos[] = {
      {8, 8, 4, 2, MCPlacementKind::Corners},
      {8, 8, 4, 4, MCPlacementKind::Corners},
      {4, 4, 2, 1, MCPlacementKind::Corners},
  };
  // 24 elements/unit models the non-power-of-two 192-byte L2 line over
  // 8-byte elements; 48 a k*p run that rarely divides the block.
  const unsigned Units[] = {24, 32, 48};
  for (const Geometry &G : Geos) {
    ClusterMapping Mapping = makeMapping(G);
    for (unsigned Unit : Units) {
      ArrayDecl Decl{"a", {61, 37}, 8}; // non-divisible extents
      PrivateL2Layout L(Decl, IntMatrix::identity(2), Mapping, Unit, 0);
      std::int64_t RunElems = static_cast<std::int64_t>(G.K) * Unit;
      ASSERT_EQ(L.runElems(), RunElems);
      std::int64_t BlockElems = 3 * L.blockSize() * 37;
      std::int64_t FastExtent =
          (BlockElems + RunElems - 1) / RunElems * RunElems;
      EXPECT_EQ(L.sizeInElements(),
                static_cast<std::uint64_t>(G.MeshX) * G.MeshY * FastExtent)
          << "geometry " << G.MeshX << "x" << G.MeshY << " k=" << G.K
          << " unit=" << Unit;
      EXPECT_GE(L.sizeInElements(), Decl.numElements());
    }
  }
}

TEST(PrivateLayoutPadding, PadHolesNeverAliasAnotherMCsRegion) {
  // The compiler-guided page-hint pass (sim/AddressMap.cpp) consults
  // desiredMCForOffset for *every* page of the padded allocation, pad holes
  // included. Every offset — addressed or pad — must claim an MC of the
  // run's own cluster group, cycling its k units over exactly that group.
  const Geometry G = {8, 8, 4, 2, MCPlacementKind::Corners};
  ClusterMapping Mapping = makeMapping(G);
  for (unsigned Unit : {24u, 32u}) {
    ArrayDecl Decl{"a", {61, 37}, 8};
    PrivateL2Layout L(Decl, IntMatrix::identity(2), Mapping, Unit, 0);
    std::int64_t RunElems = L.runElems();
    for (std::uint64_t Off = 0; Off < L.sizeInElements(); Off += 7) {
      int Desired = L.desiredMCForOffset(Off);
      ASSERT_GE(Desired, 0);
      ASSERT_LT(Desired, static_cast<int>(G.NumMCs));
      // Within a run, the group is constant and unit j takes MC group*k+j.
      std::uint64_t RunStart =
          Off / RunElems * static_cast<std::uint64_t>(RunElems);
      int GroupBase = L.desiredMCForOffset(RunStart);
      std::uint64_t J = (Off % RunElems) / Unit;
      ASSERT_EQ(static_cast<std::uint64_t>(Desired),
                static_cast<std::uint64_t>(GroupBase) + J)
          << "offset " << Off;
    }
  }
}

//===----------------------------------------------------------------------===//
// Shared layout sweep
//===----------------------------------------------------------------------===//

class SharedLayoutProperty : public ::testing::TestWithParam<int> {};

TEST_P(SharedLayoutProperty, BijectiveAndBankCorrect) {
  int Case = GetParam();
  Mesh M(8, 8);
  ClusterMapping Mapping = ClusterMapping::makeLocalityMapping(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2, 1);

  ArrayDecl Decl{"a", {}, 8};
  IntMatrix U;
  bool Delta = (Case & 1) != 0;
  std::int64_t Phase = (Case & 2) != 0 ? 1 : 0;
  if (Case < 4) {
    Decl.Dims = {128, 48};
    U = IntMatrix::identity(2);
  } else {
    Decl.Dims = {96, 96};
    U = IntMatrix::fromRows({{0, 1}, {1, 0}});
  }

  SharedL2Layout L(Decl, U, Mapping, /*ElementsPerUnit=*/32, Delta, Phase);

  std::set<std::uint64_t> Seen;
  for (std::uint64_t Flat = 0; Flat < Decl.numElements(); ++Flat) {
    IntVector V = Decl.delinearize(Flat);
    std::uint64_t Off = L.elementOffset(V);
    ASSERT_LT(Off, L.sizeInElements());
    ASSERT_TRUE(Seen.insert(Off).second);
    // The hardware bank decode must agree with the layout's claimed bank.
    ASSERT_EQ((Off / 32) % 64, L.homeBankForDataVec(V));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SharedLayoutProperty, ::testing::Range(0, 8));

//===----------------------------------------------------------------------===//
// Phase alignment effectiveness
//===----------------------------------------------------------------------===//

TEST(LayoutPhase, CenterOffsetStaysInOwnBlock) {
  // With phase = +1 (a stencil's center offset), elements t0 = t*b + 1 ...
  // (t+1)*b must all claim thread t's cluster.
  Mesh M(8, 8);
  ClusterMapping Mapping = ClusterMapping::makeLocalityMapping(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2, 1);
  ArrayDecl Decl{"a", {128, 64}, 8};
  PrivateL2Layout L(Decl, IntMatrix::identity(2), Mapping, 32, /*Phase=*/1);
  std::int64_t B = L.blockSize();
  for (unsigned T = 0; T < 64; ++T) {
    unsigned WantMC =
        Mapping.clusterMCs(Mapping.clusterOfNode(Mapping.threadToNode(T)))[0];
    // Sample the phase-aligned interior of thread T's region.
    for (std::int64_t D0 = T * B + 1; D0 < (T + 1) * B + 1 && D0 < 128;
         D0 += 1) {
      std::uint64_t Off = L.elementOffset({D0, 5});
      ASSERT_EQ(L.desiredMCForOffset(Off), static_cast<int>(WantMC))
          << "row " << D0 << " thread " << T;
    }
  }
}

TEST(LayoutPhase, WithoutPhaseTheCenterSpills) {
  // Control: phase 0 with the same sampling crosses blocks at row t*b,
  // demonstrating why the phase matters.
  Mesh M(8, 8);
  ClusterMapping Mapping = ClusterMapping::makeLocalityMapping(
      M, placeMemoryControllers(M, 4, MCPlacementKind::Corners), 2, 2, 1);
  ArrayDecl Decl{"a", {128, 64}, 8};
  PrivateL2Layout L(Decl, IntMatrix::identity(2), Mapping, 32, /*Phase=*/0);
  std::int64_t B = L.blockSize();
  unsigned Mismatches = 0;
  for (unsigned T = 0; T + 1 < 64; ++T) {
    unsigned WantMC =
        Mapping.clusterMCs(Mapping.clusterOfNode(Mapping.threadToNode(T)))[0];
    std::uint64_t Off = L.elementOffset({(T + 1) * B, 5}); // last row+1
    if (L.desiredMCForOffset(Off) != static_cast<int>(WantMC))
      ++Mismatches;
  }
  EXPECT_GT(Mismatches, 0u);
}

//===----------------------------------------------------------------------===//
// Affine-run contract (DataLayout::runAlong)
//===----------------------------------------------------------------------===//

namespace {

/// The machines the contract is checked on.
enum class RunMachine { ScaledDefault, ThreeMCs, NonSquare };

/// Which layout the layout pass builds.
enum class RunOrg { Private, SharedSkip, SharedNoSkip };

MachineConfig runMachine(RunMachine Kind, InterleaveGranularity G,
                         RunOrg Org) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Granularity = G;
  C.SharedL2 = Org != RunOrg::Private;
  switch (Kind) {
  case RunMachine::ScaledDefault:
    break;
  case RunMachine::ThreeMCs:
    C.MeshX = 6;
    C.NumMCs = 3;
    C.Placement = MCPlacementKind::Explicit;
    C.MCNodes = {1, 45, 4};
    break;
  case RunMachine::NonSquare:
    C.MeshX = 4;
    break;
  }
  return C;
}

bool inBox(const UnimodularBox &Box, const IntVector &T) {
  for (unsigned D = 0; D < Box.rank(); ++D)
    if (T[D] < 0 || T[D] >= Box.extent(D))
      return false;
  return true;
}

/// Checks the contract from \p T along \p DT. \returns the steps checked.
std::uint64_t checkRun(const DataLayout &L, const IntVector &T,
                       const IntVector &DT) {
  const UnimodularBox &Box = L.box();
  AffineRun Run = L.runAlong(T, DT);
  std::uint64_t Base = L.offsetInBox(T);
  IntVector P = T;
  std::uint64_t K = 0;
  while (K < Run.Steps) {
    for (unsigned D = 0; D < Box.rank(); ++D)
      P[D] += DT[D];
    if (!inBox(Box, P))
      break; // the box is convex: the walk never re-enters it
    ++K;
    std::uint64_t Want = Base + K * static_cast<std::uint64_t>(Run.Delta);
    EXPECT_EQ(L.offsetInBox(P), Want)
        << "step " << K << " of " << Run.Steps << " from T[0]=" << T[0]
        << " along DT[0]=" << DT[0];
    if (::testing::Test::HasFailure() || isZeroVector(DT))
      break;
  }
  return K;
}

} // namespace

class LayoutRunContract
    : public ::testing::TestWithParam<
          std::tuple<RunMachine, InterleaveGranularity, RunOrg>> {};

TEST_P(LayoutRunContract, OffsetIsAffineWithinReportedRun) {
  auto [Kind, Granularity, Org] = GetParam();
  MachineConfig C = runMachine(Kind, Granularity, Org);
  ClusterMapping Mapping = makeM1Mapping(C);
  LayoutOptions Options = C.layoutOptions();
  Options.EnableDeltaSkip = Org != RunOrg::SharedNoSkip;
  SplitMix64 Rng(0x5eed + static_cast<unsigned>(Kind) * 10 +
                 static_cast<unsigned>(Org));
  std::uint64_t Checked = 0, Customized = 0;
  for (const std::string &Name : appNames()) {
    AppModel App = buildApp(Name, 0.25);
    LayoutPlan Plan = LayoutTransformer(Mapping, Options).run(App.Program);
    for (ArrayId Id = 0; Id < App.Program.numArrays(); ++Id) {
      const ArrayLayoutResult &R = Plan.PerArray[Id];
      RowMajorLayout RowMajor(App.Program.array(Id));
      // Step vectors: the U*A columns of the array's references (the
      // cursors' actual steps), then random vectors in [-2, 2].
      std::vector<IntVector> Steps;
      for (const LoopNest &Nest : App.Program.nests())
        for (const AffineRef &Ref : Nest.refs())
          if (Ref.arrayId() == Id) {
            IntMatrix UA = R.U.multiply(Ref.accessMatrix());
            for (unsigned Col = 0; Col < UA.numCols(); ++Col)
              Steps.push_back(UA.column(Col));
          }
      unsigned Rank = App.Program.array(Id).rank();
      for (int I = 0; I < 4; ++I) {
        IntVector V(Rank);
        for (std::int64_t &E : V)
          E = static_cast<std::int64_t>(Rng.nextBelow(5)) - 2;
        Steps.push_back(V);
      }
      Customized += R.Layout->isTransformed() ? 1 : 0;
      const DataLayout *Layouts[] = {R.Layout.get(), &RowMajor};
      for (const DataLayout *L : Layouts) {
        const UnimodularBox &Box = L->box();
        for (const IntVector &DT : Steps)
          for (int Sample = 0; Sample < 8; ++Sample) {
            IntVector T(Rank);
            for (unsigned D = 0; D < Rank; ++D)
              T[D] = static_cast<std::int64_t>(
                  Rng.nextBelow(static_cast<std::uint64_t>(Box.extent(D))));
            Checked += checkRun(*L, T, DT);
            ASSERT_FALSE(HasFailure()) << Name << " array " << Id;
          }
      }
    }
  }
  // The layout pass customized arrays on this machine, and the runs were
  // long enough to check something.
  EXPECT_GT(Customized, 0u);
  EXPECT_GT(Checked, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutRunContract,
    ::testing::Combine(::testing::Values(RunMachine::ScaledDefault,
                                         RunMachine::ThreeMCs,
                                         RunMachine::NonSquare),
                       ::testing::Values(InterleaveGranularity::CacheLine,
                                         InterleaveGranularity::Page),
                       ::testing::Values(RunOrg::Private, RunOrg::SharedSkip,
                                         RunOrg::SharedNoSkip)));
