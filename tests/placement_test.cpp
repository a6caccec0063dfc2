//===- tests/placement_test.cpp - MC placement correctness ----------------===//
///
/// The placement bugfix sweep: exact node lists for the built-in placements
/// on even and odd meshes, the Corners 2-MC degenerate-spread fix,
/// nearestMC tie-breaking pins, a property sweep over every supported
/// (mesh, MC count, kind) combination, and the Explicit placement's
/// validate()/validateGrouping()/flag-parsing diagnostics.
///
//===----------------------------------------------------------------------===//

#include "noc/Mesh.h"
#include "sim/MachineConfig.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace offchip;

namespace {

std::vector<unsigned> place(unsigned X, unsigned Y, unsigned MCs,
                            MCPlacementKind Kind) {
  Mesh M(X, Y);
  return placeMemoryControllers(M, MCs, Kind);
}

/// True iff some diagnostic's constraint text contains \p Needle.
bool anyConstraintContains(const std::vector<ConfigDiagnostic> &Diags,
                           const std::string &Needle) {
  for (const ConfigDiagnostic &D : Diags)
    if (D.Constraint.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Exact node lists
//===----------------------------------------------------------------------===//

TEST(Placement, EdgeMidpointsExactOdd3x3) {
  // On an odd mesh the midpoints are the true center column/row, not one
  // step off it: top (1,0), right (2,1), left (0,1), bottom (1,2).
  EXPECT_EQ(place(3, 3, 4, MCPlacementKind::EdgeMidpoints),
            (std::vector<unsigned>{1, 5, 3, 7}));
}

TEST(Placement, EdgeMidpointsExactMixed5x4) {
  // X odd, Y even: top (2,0), right (4,1), left (0,2), bottom (2,3).
  EXPECT_EQ(place(5, 4, 4, MCPlacementKind::EdgeMidpoints),
            (std::vector<unsigned>{2, 9, 10, 17}));
}

TEST(Placement, EdgeMidpointsExactMinimal2x2) {
  // The 2x2 floor: all four nodes, still duplicate-free.
  EXPECT_EQ(place(2, 2, 4, MCPlacementKind::EdgeMidpoints),
            (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(Placement, TopBottomSpreadExactOdd3x3) {
  // Half=1 centers the single column: (1,0) and (1,2).
  EXPECT_EQ(place(3, 3, 2, MCPlacementKind::TopBottomSpread),
            (std::vector<unsigned>{1, 7}));
  // Half=2 slices [0,3) at columns 0 and 2.
  EXPECT_EQ(place(3, 3, 4, MCPlacementKind::TopBottomSpread),
            (std::vector<unsigned>{0, 2, 6, 8}));
}

TEST(Placement, TopBottomSpreadExactMixed5x4) {
  // Slice centers of [0,5) with Half=2: columns 1 and 3.
  EXPECT_EQ(place(5, 4, 4, MCPlacementKind::TopBottomSpread),
            (std::vector<unsigned>{1, 3, 16, 18}));
}

TEST(Placement, TopBottomSpreadExactMinimal2x2) {
  EXPECT_EQ(place(2, 2, 2, MCPlacementKind::TopBottomSpread),
            (std::vector<unsigned>{1, 3}));
  EXPECT_EQ(place(2, 2, 4, MCPlacementKind::TopBottomSpread),
            (std::vector<unsigned>{0, 1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// The Corners 2-MC fix
//===----------------------------------------------------------------------===//

TEST(Placement, CornersTwoMCsTakeOppositeCorners) {
  // Pre-fix, the degenerate I*(X-1)/(Half-1) spread with Half=1 put both
  // MCs in column 0 (nodes 0 and 56 on 8x8). They must span the chip
  // diagonal instead.
  Mesh M(8, 8);
  std::vector<unsigned> MCs = place(8, 8, 2, MCPlacementKind::Corners);
  ASSERT_EQ(MCs.size(), 2u);
  EXPECT_EQ(MCs[0], M.nodeId({0, 0}));
  EXPECT_EQ(MCs[1], M.nodeId({7, 7}));
  EXPECT_EQ(M.manhattan(MCs[0], MCs[1]), 14u);
}

TEST(Placement, CornersTwoMCsOppositeOnSmallMeshes) {
  EXPECT_EQ(place(2, 2, 2, MCPlacementKind::Corners),
            (std::vector<unsigned>{0, 3}));
  EXPECT_EQ(place(5, 4, 2, MCPlacementKind::Corners),
            (std::vector<unsigned>{0, 19}));
}

TEST(Placement, CornersFourAndSixStillAnchorTheCorners) {
  // The non-degenerate spreads are untouched by the Half==1 special case.
  EXPECT_EQ(place(8, 8, 4, MCPlacementKind::Corners),
            (std::vector<unsigned>{0, 7, 56, 63}));
  EXPECT_EQ(place(8, 8, 6, MCPlacementKind::Corners),
            (std::vector<unsigned>{0, 3, 7, 56, 59, 63}));
}

//===----------------------------------------------------------------------===//
// nearestMC tie-breaking
//===----------------------------------------------------------------------===//

TEST(Placement, NearestMCBreaksTiesTowardLowerIndex) {
  // 2x2 with MCs on the diagonal: the two off-diagonal nodes are
  // equidistant (1 link each) and must both resolve to MC 0.
  Mesh M(2, 2);
  std::vector<unsigned> MCs = {0, 3};
  EXPECT_EQ(nearestMC(M, MCs, 1), 0u);
  EXPECT_EQ(nearestMC(M, MCs, 2), 0u);
  // The MC's own node is distance 0 — never a tie.
  EXPECT_EQ(nearestMC(M, MCs, 3), 1u);
}

TEST(Placement, NearestMCTiePinUnderTopBottomSpread) {
  // 8x8 TopBottomSpread/4: MCs at columns 2 and 6 of rows 0 and 7. Node
  // (4,0) sits exactly between the two top-edge MCs (2 links each); the
  // lower-indexed MC 0 wins, deterministically.
  Mesh M(8, 8);
  std::vector<unsigned> MCs =
      placeMemoryControllers(M, 4, MCPlacementKind::TopBottomSpread);
  ASSERT_EQ(MCs, (std::vector<unsigned>{2, 6, 58, 62}));
  EXPECT_EQ(M.manhattan(M.nodeId({4, 0}), MCs[0]),
            M.manhattan(M.nodeId({4, 0}), MCs[1]));
  EXPECT_EQ(nearestMC(M, MCs, M.nodeId({4, 0})), 0u);
  // And symmetrically on the bottom edge: MC 2 beats MC 3.
  EXPECT_EQ(nearestMC(M, MCs, M.nodeId({4, 7})), 2u);
}

//===----------------------------------------------------------------------===//
// Property sweep: every supported combination yields a sound placement
//===----------------------------------------------------------------------===//

TEST(Placement, AllSupportedCombosAreDistinctAndInBounds) {
  // MachineConfig::validate() is the oracle for "supported": any
  // (mesh, count, kind) it accepts must place exactly NumMCs distinct
  // in-bounds nodes. This is the guarantee the duplicate guard in
  // placeMemoryControllers backstops.
  unsigned Checked = 0;
  for (unsigned X = 2; X <= 8; ++X)
    for (unsigned Y = 2; Y <= 8; ++Y)
      for (unsigned MCs = 1; MCs <= 16; ++MCs)
        for (MCPlacementKind Kind :
             {MCPlacementKind::Corners, MCPlacementKind::EdgeMidpoints,
              MCPlacementKind::TopBottomSpread}) {
          MachineConfig C = MachineConfig::scaledDefault();
          C.MeshX = X;
          C.MeshY = Y;
          C.NumMCs = MCs;
          C.Placement = Kind;
          if (!C.validate().empty())
            continue;
          std::vector<unsigned> Nodes = C.placedMCNodes();
          ASSERT_EQ(Nodes.size(), MCs)
              << X << "x" << Y << " " << enumName(Kind);
          std::set<unsigned> Unique(Nodes.begin(), Nodes.end());
          EXPECT_EQ(Unique.size(), MCs)
              << X << "x" << Y << " " << enumName(Kind)
              << ": duplicate node";
          for (unsigned N : Nodes)
            EXPECT_LT(N, X * Y)
                << X << "x" << Y << " " << enumName(Kind);
          ++Checked;
        }
  // The sweep must actually cover a meaningful slice of the space, not
  // vacuously pass because validate() rejected everything.
  EXPECT_GE(Checked, 100u);
}

//===----------------------------------------------------------------------===//
// The Explicit placement kind
//===----------------------------------------------------------------------===//

TEST(Placement, PlacementNamesRoundTrip) {
  for (MCPlacementKind K :
       {MCPlacementKind::Corners, MCPlacementKind::EdgeMidpoints,
        MCPlacementKind::TopBottomSpread, MCPlacementKind::Explicit}) {
    MCPlacementKind Parsed;
    ASSERT_TRUE(enumFromName(enumName(K), &Parsed));
    EXPECT_EQ(Parsed, K);
  }
  MCPlacementKind K = MCPlacementKind::Corners;
  EXPECT_FALSE(enumFromName("Corners", &K));
  EXPECT_FALSE(enumFromName("", &K));
  EXPECT_EQ(K, MCPlacementKind::Corners); // left untouched on failure
}

TEST(Placement, PlacedMCNodesReturnsExplicitListVerbatim) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {7, 0, 63, 56}; // order is the interleave order — preserved
  EXPECT_TRUE(C.validate().empty());
  EXPECT_EQ(C.placedMCNodes(), C.MCNodes);
}

TEST(Placement, ExplicitValidateRejectsWrongCount) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {0, 7};
  std::vector<ConfigDiagnostic> Diags = C.validate();
  ASSERT_FALSE(Diags.empty());
  EXPECT_EQ(Diags[0].Field, "MCNodes");
  EXPECT_TRUE(anyConstraintContains(Diags, "exactly NumMCs"));
}

TEST(Placement, ExplicitValidateRejectsOffMeshNodes) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {0, 7, 56, 64}; // 64 is one past the 8x8 mesh
  EXPECT_TRUE(anyConstraintContains(C.validate(),
                                    "must be < MeshX*MeshY"));
}

TEST(Placement, ExplicitValidateRejectsCollidingPlacement) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {0, 7, 7, 63};
  std::vector<ConfigDiagnostic> Diags = C.validate();
  EXPECT_TRUE(anyConstraintContains(Diags, "distinct"));
  EXPECT_TRUE(anyConstraintContains(Diags, "alias"));
}

TEST(Placement, ValidateRejectsNodeListUnderBuiltInKind) {
  // A node list with --placement corners is a contradiction, not a silent
  // no-op: the user thinks the list is in effect.
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Corners;
  C.MCNodes = {0, 7, 56, 63};
  EXPECT_TRUE(anyConstraintContains(C.validate(), "only honored"));
}

//===----------------------------------------------------------------------===//
// Grouping compatibility (mapping M2 over an explicit placement)
//===----------------------------------------------------------------------===//

TEST(Placement, GroupingRejectsChipSpanningGroup) {
  // {0,63} as a contiguous interleave group spans the full 14-link
  // diagonal — as wide as the whole placement — so M2's
  // near-each-other-group assumption is violated. A structured diagnostic,
  // not a crash.
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {0, 63, 7, 56};
  EXPECT_TRUE(C.validate().empty()); // fine for ungrouped M1
  std::vector<ConfigDiagnostic> Diags = C.validateGrouping(2);
  ASSERT_FALSE(Diags.empty());
  EXPECT_EQ(Diags[0].Field, "MCNodes");
  EXPECT_TRUE(anyConstraintContains(Diags, "group"));
}

TEST(Placement, GroupingAcceptsTightGroups) {
  // The corner order {0,7,56,63} groups top pair / bottom pair: intra 7 <
  // global 14.
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {0, 7, 56, 63};
  EXPECT_TRUE(C.validateGrouping(2).empty());
}

TEST(Placement, GroupingIgnoresUngroupedAndBuiltInConfigs) {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Placement = MCPlacementKind::Explicit;
  C.MCNodes = {0, 63, 7, 56};
  EXPECT_TRUE(C.validateGrouping(1).empty()); // M1: nothing to violate
  C.Placement = MCPlacementKind::Corners;
  C.MCNodes.clear();
  EXPECT_TRUE(C.validateGrouping(2).empty()); // built-ins: by construction
}

//===----------------------------------------------------------------------===//
// Flag parsing diagnostics
//===----------------------------------------------------------------------===//

TEST(Placement, ParsePlacementOptionAcceptsEverySpelling) {
  MCPlacementKind K = MCPlacementKind::Explicit;
  EXPECT_FALSE(parsePlacementOption("corners", &K).has_value());
  EXPECT_EQ(K, MCPlacementKind::Corners);
  EXPECT_FALSE(parsePlacementOption("top_bottom_spread", &K).has_value());
  EXPECT_EQ(K, MCPlacementKind::TopBottomSpread);
}

TEST(Placement, ParsePlacementOptionDiagnosesUnknownKind) {
  MCPlacementKind K = MCPlacementKind::Corners;
  std::optional<ConfigDiagnostic> D = parsePlacementOption("middle", &K);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Field, "Placement");
  EXPECT_EQ(D->Value, "middle");
  // The diagnostic must teach the valid vocabulary.
  EXPECT_NE(D->Constraint.find("corners"), std::string::npos);
  EXPECT_NE(D->Constraint.find("top_bottom_spread"), std::string::npos);
  EXPECT_NE(D->Fix.find("--placement"), std::string::npos);
  EXPECT_EQ(parsePlacementOption("", &K)->Value, "(empty)");
}

TEST(Placement, ParseMCNodeListOptionParsesAndDiagnoses) {
  std::vector<unsigned> Nodes;
  EXPECT_FALSE(parseMCNodeListOption("0,7,56,63", &Nodes).has_value());
  EXPECT_EQ(Nodes, (std::vector<unsigned>{0, 7, 56, 63}));
  EXPECT_FALSE(parseMCNodeListOption("5", &Nodes).has_value());
  EXPECT_EQ(Nodes, (std::vector<unsigned>{5}));

  // Malformed lists: structured field/value/constraint/fix, digits only.
  for (const char *BadValue : {"", "0,,7", "0,7,", "0x7", " 0", "-1",
                               "99999999999"}) {
    std::vector<unsigned> Untouched = {42};
    std::optional<ConfigDiagnostic> D =
        parseMCNodeListOption(BadValue, &Untouched);
    ASSERT_TRUE(D.has_value()) << "'" << BadValue << "'";
    EXPECT_EQ(D->Field, "MCNodes");
    EXPECT_NE(D->Fix.find("--mc-nodes"), std::string::npos);
    EXPECT_EQ(Untouched, (std::vector<unsigned>{42}))
        << "failed parse must not clobber the output list";
  }
}
