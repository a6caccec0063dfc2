//===- noc/Mesh.cpp -------------------------------------------------------===//

#include "noc/Mesh.h"

#include "support/Error.h"

#include <algorithm>
#include <cstdlib>

using namespace offchip;

unsigned Mesh::manhattan(unsigned A, unsigned B) const {
  Coord CA = coordOf(A), CB = coordOf(B);
  unsigned DX = CA.X > CB.X ? CA.X - CB.X : CB.X - CA.X;
  unsigned DY = CA.Y > CB.Y ? CA.Y - CB.Y : CB.Y - CA.Y;
  return DX + DY;
}

std::vector<unsigned> Mesh::xyRoute(unsigned Src, unsigned Dst) const {
  Coord C = coordOf(Src);
  Coord D = coordOf(Dst);
  std::vector<unsigned> Route;
  Route.reserve(manhattan(Src, Dst) + 1);
  Route.push_back(Src);
  while (C.X != D.X) {
    C.X += C.X < D.X ? 1 : -1;
    Route.push_back(nodeId(C));
  }
  while (C.Y != D.Y) {
    C.Y += C.Y < D.Y ? 1 : -1;
    Route.push_back(nodeId(C));
  }
  return Route;
}

namespace {

/// Evenly spreads \p Count positions over [0, Extent), biased to cover the
/// whole range (e.g. Count=2 over 8 gives columns 2 and 6... we use the
/// midpoint-of-slice rule: slot i sits at the center of its 1/Count slice).
unsigned sliceCenter(unsigned I, unsigned Count, unsigned Extent) {
  return (2 * I + 1) * Extent / (2 * Count);
}

} // namespace

std::vector<unsigned>
offchip::placeMemoryControllers(const Mesh &M, unsigned NumMCs,
                                MCPlacementKind Kind) {
  unsigned X = M.sizeX(), Y = M.sizeY();
  std::vector<unsigned> Nodes;
  switch (Kind) {
  case MCPlacementKind::Corners: {
    if (NumMCs == 4) {
      // Order matters: MC0 top-left, MC1 top-right, MC2 bottom-left, MC3
      // bottom-right, so that the contiguous interleave groups {0,1} and
      // {2,3} are the top and bottom MC pairs (used by mapping M2).
      Nodes = {M.nodeId({0, 0}), M.nodeId({X - 1, 0}), M.nodeId({0, Y - 1}),
               M.nodeId({X - 1, Y - 1})};
      break;
    }
    // Other counts (Figure 27): NumMCs/2 spread along the top edge and
    // NumMCs/2 along the bottom edge, corners included. With one MC per
    // edge the I*(X-1)/(Half-1) spread has no second anchor point; the two
    // MCs take opposite corners ((0,0) and (X-1,Y-1)) so a 2-MC machine
    // still spans the whole chip instead of stacking both in column 0.
    if (NumMCs % 2 != 0 || NumMCs / 2 > X)
      reportFatalError("unsupported MC count for Corners placement");
    unsigned Half = NumMCs / 2;
    auto CornerSpread = [&](unsigned I, bool BottomEdge) {
      if (Half == 1)
        return BottomEdge ? X - 1 : 0;
      return I * (X - 1) / (Half - 1);
    };
    for (unsigned I = 0; I < Half; ++I)
      Nodes.push_back(M.nodeId({CornerSpread(I, false), 0}));
    for (unsigned I = 0; I < Half; ++I)
      Nodes.push_back(M.nodeId({CornerSpread(I, true), Y - 1}));
    break;
  }
  case MCPlacementKind::EdgeMidpoints: {
    if (NumMCs != 4)
      reportFatalError("EdgeMidpoints placement requires 4 MCs");
    if (X < 2 || Y < 2)
      reportFatalError("EdgeMidpoints placement needs a mesh of at least 2x2");
    // Same top/bottom group structure as Corners: MC0/MC1 on the top half
    // (top edge middle, right edge middle), MC2/MC3 on the bottom half.
    // (X-1)/2 rather than X/2-1: identical on even meshes, but on an odd
    // mesh it is the true center column/row instead of one step off it.
    Nodes = {M.nodeId({(X - 1) / 2, 0}), M.nodeId({X - 1, (Y - 1) / 2}),
             M.nodeId({0, Y / 2}), M.nodeId({X / 2, Y - 1})};
    break;
  }
  case MCPlacementKind::TopBottomSpread: {
    if (NumMCs % 2 != 0 || NumMCs / 2 > X)
      reportFatalError("TopBottomSpread needs an even MC count");
    unsigned Half = NumMCs / 2;
    for (unsigned I = 0; I < Half; ++I)
      Nodes.push_back(M.nodeId({sliceCenter(I, Half, X), 0}));
    for (unsigned I = 0; I < Half; ++I)
      Nodes.push_back(M.nodeId({sliceCenter(I, Half, X), Y - 1}));
    break;
  }
  case MCPlacementKind::Explicit:
    reportFatalError("Explicit placement carries its own node list; use "
                     "MachineConfig::placedMCNodes()");
  }
  // Hard guard on every generated list: two MCs on one node would silently
  // alias their interleave residues' traffic, corrupting any placement
  // comparison downstream.
  for (std::size_t I = 0; I < Nodes.size(); ++I)
    for (std::size_t J = I + 1; J < Nodes.size(); ++J)
      if (Nodes[I] == Nodes[J])
        reportFatalError("MC placement generated duplicate nodes");
  return Nodes;
}

unsigned offchip::nearestMC(const Mesh &M,
                            const std::vector<unsigned> &MCNodes,
                            unsigned Node) {
  assert(!MCNodes.empty() && "no memory controllers placed");
  unsigned Best = 0;
  unsigned BestDist = M.manhattan(Node, MCNodes[0]);
  for (unsigned I = 1; I < MCNodes.size(); ++I) {
    unsigned D = M.manhattan(Node, MCNodes[I]);
    if (D < BestDist) {
      Best = I;
      BestDist = D;
    }
  }
  return Best;
}
