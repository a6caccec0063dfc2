//===- tests/TestOracles.h - Reference models for unit tests ----*- C++ -*-===//
///
/// \file
/// Small, independent reference implementations that the product code does
/// not need but the tests check it against:
///   - xyRoute: the node sequence of dimension-ordered XY routing, checked
///     against the links Network::send reserves;
///   - meanNearestMCDistance: the lower bound on a mapping's mean distance
///     to its assigned controllers;
///   - homeBank: the home L2 bank of an element under a SharedL2Layout,
///     from the block formula of Section 5.3, checked against the bank the
///     hardware decodes from the element's offset;
///   - rank: fraction-free (Bareiss) elimination, checked against the
///     dimension of nullspaceBasis;
///   - programText: a printer of the textual program format, whose output
///     the parser must read back with the same structure.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_TESTS_TESTORACLES_H
#define OFFCHIP_TESTS_TESTORACLES_H

#include "affine/AffineProgram.h"
#include "core/ClusterMapping.h"
#include "core/DataLayout.h"
#include "linalg/IntMatrix.h"
#include "noc/Mesh.h"
#include "support/Format.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <string>
#include <vector>

namespace offchip::oracle {

/// The node ids visited by XY routing from \p Src to \p Dst, inclusive of
/// both endpoints: the whole X leg first, then the Y leg.
inline std::vector<unsigned> xyRoute(const Mesh &M, unsigned Src,
                                     unsigned Dst) {
  Coord C = M.coordOf(Src);
  Coord D = M.coordOf(Dst);
  std::vector<unsigned> Route{Src};
  while (C.X != D.X) {
    C.X += C.X < D.X ? 1 : -1;
    Route.push_back(M.nodeId(C));
  }
  while (C.Y != D.Y) {
    C.Y += C.Y < D.Y ? 1 : -1;
    Route.push_back(M.nodeId(C));
  }
  return Route;
}

/// Mean Manhattan distance from each node to its nearest MC: the lower
/// bound of ClusterMapping::averageDistanceToAssignedMCs() for any mapping
/// of \p M's controllers.
inline double meanNearestMCDistance(const ClusterMapping &M) {
  const Mesh &Topology = M.mesh();
  double Sum = 0.0;
  for (unsigned Node = 0; Node < Topology.numNodes(); ++Node)
    Sum += Topology.manhattan(
        Node, M.mcNode(nearestMC(Topology, M.mcNodes(), Node)));
  return Sum / static_cast<double>(Topology.numNodes());
}

/// Home bank (== hosting node id) of \p DataVec under \p L: the block of
/// the transformed leading coordinate names the owning thread (edge
/// elements stay with the first or last block), and the owner's data lives
/// in the bank the off-chip pass chose for the owner's node.
inline unsigned homeBank(const SharedL2Layout &L, const IntVector &DataVec) {
  IntVector T = L.box().transform(DataVec);
  std::int64_t Threads = L.mapping().mesh().numNodes();
  std::int64_t Owner = std::clamp<std::int64_t>(
      floorDiv(T[0] - L.partitionPhase(), L.blockSize()), 0, Threads - 1);
  return L.hostOfOwner()[L.mapping().threadToNode(
      static_cast<unsigned>(Owner))];
}

/// Rank of \p M over the rationals, by fraction-free (Bareiss) elimination
/// so every intermediate value stays integral.
inline unsigned rank(IntMatrix M) {
  unsigned Rank = 0;
  std::int64_t Prev = 1;
  for (unsigned Col = 0; Col < M.numCols() && Rank < M.numRows(); ++Col) {
    // Find a non-zero pivot in this column at or below row Rank.
    unsigned Pivot = Rank;
    while (Pivot < M.numRows() && M.at(Pivot, Col) == 0)
      ++Pivot;
    if (Pivot == M.numRows())
      continue;
    M.swapRows(Rank, Pivot);
    for (unsigned R = Rank + 1; R < M.numRows(); ++R) {
      for (unsigned C = Col + 1; C < M.numCols(); ++C)
        M.at(R, C) = (M.at(Rank, Col) * M.at(R, C) -
                      M.at(R, Col) * M.at(Rank, C)) /
                     Prev;
      M.at(R, Col) = 0;
    }
    Prev = M.at(Rank, Col);
    ++Rank;
  }
  return Rank;
}

/// One subscript in the program format: "i0", "2*i1-3", "-i0+1", "0".
inline std::string affineText(const IntVector &Coeffs, std::int64_t Const) {
  std::string Out;
  for (std::size_t D = 0; D < Coeffs.size(); ++D) {
    std::int64_t K = Coeffs[D];
    if (K == 0)
      continue;
    if (!Out.empty() && K > 0)
      Out += "+";
    if (K == -1)
      Out += "-";
    else if (K != 1)
      Out += formatString("%lld*", static_cast<long long>(K));
    Out += formatString("i%zu", D);
  }
  if (Const != 0 || Out.empty()) {
    if (!Out.empty() && Const > 0)
      Out += "+";
    Out += formatString("%lld", static_cast<long long>(Const));
  }
  return Out;
}

/// \p Program in the textual format of affine/ProgramText.h. Index arrays
/// of up to 64 values are written inline; larger ones become a comment, so
/// their gathers read back with the same structure but no contents.
inline std::string programText(const AffineProgram &Program) {
  std::string Out = "program " + Program.name() + "\n";
  for (ArrayId Id = 0; Id < Program.numArrays(); ++Id) {
    const ArrayDecl &D = Program.array(Id);
    Out += "array " + D.Name + " dims";
    for (std::int64_t Dim : D.Dims)
      Out += formatString(" %lld", static_cast<long long>(Dim));
    Out += formatString(" elem %u\n", D.ElementBytes);
  }
  for (ArrayId Id = 0; Id < Program.numArrays(); ++Id) {
    const std::vector<std::int64_t> *Values = Program.indexArrayValues(Id);
    if (!Values)
      continue;
    if (Values->size() <= 64) {
      Out += "index " + Program.array(Id).Name + " values";
      for (std::int64_t V : *Values)
        Out += formatString(" %lld", static_cast<long long>(V));
      Out += "\n";
    } else {
      Out += "# index " + Program.array(Id).Name +
             formatString(" contents omitted (%zu values)\n", Values->size());
    }
  }
  for (const LoopNest &Nest : Program.nests()) {
    const IterationSpace &S = Nest.space();
    Out += "nest " + Nest.name() + " bounds";
    for (unsigned D = 0; D < S.depth(); ++D)
      Out += formatString(" %lld:%lld", static_cast<long long>(S.lower(D)),
                          static_cast<long long>(S.upper(D)));
    Out += formatString(" parallel %u", Nest.partitionDim());
    if (Nest.repeatCount() > 1)
      Out += formatString(" repeat %u", Nest.repeatCount());
    Out += "\n";
    auto Subscripts = [&](const AffineRef &Ref) {
      std::string T = " [ ";
      for (unsigned D = 0; D < Ref.dataRank(); ++D) {
        if (D)
          T += ", ";
        T += affineText(Ref.accessMatrix().row(D), Ref.offset()[D]);
      }
      return T + " ]";
    };
    for (const AffineRef &Ref : Nest.refs())
      Out += std::string("  ") + (Ref.isWrite() ? "write " : "read  ") +
             Program.array(Ref.arrayId()).Name + Subscripts(Ref) + "\n";
    for (const IndexedRef &IRef : Nest.indexedRefs())
      Out += std::string("  ") +
             (IRef.IsWrite ? "gather-write " : "gather-read  ") +
             Program.array(IRef.DataArray).Name + " via " +
             Program.array(IRef.IndexArray).Name +
             Subscripts(IRef.IndexAccess) + "\n";
    Out += "end\n";
  }
  return Out;
}

} // namespace offchip::oracle

#endif // OFFCHIP_TESTS_TESTORACLES_H
