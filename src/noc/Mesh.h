//===- noc/Mesh.h - 2D mesh topology ----------------------------*- C++ -*-===//
///
/// \file
/// The two-dimensional mesh every other component is defined against: node
/// ids, coordinates, Manhattan distances, XY routes, and memory-controller
/// placements (Figure 8a plus the alternates of Figures 26 and 27).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_NOC_MESH_H
#define OFFCHIP_NOC_MESH_H

#include "support/EnumNames.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace offchip {

/// A node position; X is the column (0 = left), Y the row (0 = top).
struct Coord {
  unsigned X = 0;
  unsigned Y = 0;

  bool operator==(const Coord &O) const { return X == O.X && Y == O.Y; }
};

/// A SizeX x SizeY mesh. Node ids are row-major: id = Y * SizeX + X.
class Mesh {
public:
  Mesh(unsigned SizeX, unsigned SizeY) : X(SizeX), Y(SizeY) {
    assert(SizeX > 0 && SizeY > 0 && "mesh must be non-empty");
  }

  unsigned sizeX() const { return X; }
  unsigned sizeY() const { return Y; }
  unsigned numNodes() const { return X * Y; }

  unsigned nodeId(Coord C) const {
    assert(C.X < X && C.Y < Y && "coordinate out of mesh");
    return C.Y * X + C.X;
  }

  Coord coordOf(unsigned Node) const {
    assert(Node < numNodes() && "node id out of mesh");
    return {Node % X, Node / X};
  }

  /// Manhattan distance in links between two nodes; the XY route has exactly
  /// this many links.
  unsigned manhattan(unsigned A, unsigned B) const;

  /// The sequence of node ids visited by dimension-ordered XY routing from
  /// \p Src to \p Dst, inclusive of both endpoints.
  std::vector<unsigned> xyRoute(unsigned Src, unsigned Dst) const;

private:
  unsigned X;
  unsigned Y;
};

/// Built-in memory controller placements evaluated by the paper.
enum class MCPlacementKind {
  /// Figure 8a / P1: one MC in each corner (requires NumMCs == 4), or for
  /// larger counts an even spread starting at the corners.
  Corners,
  /// Figure 26a / P2: the midpoint of each chip edge.
  EdgeMidpoints,
  /// Figure 26b / P3: spread along the top and bottom edges.
  TopBottomSpread,
  /// An arbitrary caller-supplied node list (MachineConfig::MCNodes); the
  /// search substrate of tools/placement-opt. Has no generator here — ask
  /// MachineConfig::placedMCNodes() for the nodes.
  Explicit,
};

/// Canonical lower-case spellings (support/EnumNames.h), shared by the CLI
/// flags and the JSON wire layer.
inline const auto &enumNames(MCPlacementKind) {
  static constexpr EnumName<MCPlacementKind> Names[] = {
      {MCPlacementKind::Corners, "corners"},
      {MCPlacementKind::EdgeMidpoints, "edge_midpoints"},
      {MCPlacementKind::TopBottomSpread, "top_bottom_spread"},
      {MCPlacementKind::Explicit, "explicit"}};
  return Names;
}

/// \returns the node ids hosting the \p NumMCs memory controllers under
/// \p Kind. MC index i is attached to the i-th returned node; the hardware
/// interleaving maps address chunk residue i to MC i. Explicit has no
/// generator and is a fatal error here; every returned list is guaranteed
/// duplicate-free (a colliding placement would silently alias two MCs'
/// traffic onto one node).
std::vector<unsigned> placeMemoryControllers(const Mesh &M, unsigned NumMCs,
                                             MCPlacementKind Kind);

/// \returns the index (into \p MCNodes) of the MC whose node is closest to
/// \p Node, breaking ties toward lower MC index.
unsigned nearestMC(const Mesh &M, const std::vector<unsigned> &MCNodes,
                   unsigned Node);

} // namespace offchip

#endif // OFFCHIP_NOC_MESH_H
