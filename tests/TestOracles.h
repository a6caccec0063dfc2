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
///     the parser must read back with the same structure;
///   - makeNearbyIndices / makeRandomIndices: the index-array generators as
///     sequential SplitMix64 walks that fill a vector, checked against
///     IndexValues' per-entry closed form;
///   - evaluate: the data vector an affine reference touches at one
///     iteration, A*Iter + o, by matrix-vector product (the product code
///     steps or linearizes it instead);
///   - approximateIndexedRefFullWalk: the Section 5.4 profile as a walk over
///     every iteration of the nest that keeps each Stride-th one, checked
///     bit for bit against approximateIndexedRef's direct sample jumps.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_TESTS_TESTORACLES_H
#define OFFCHIP_TESTS_TESTORACLES_H

#include "affine/AffineProgram.h"
#include "affine/IndexProfile.h"
#include "core/ClusterMapping.h"
#include "core/DataLayout.h"
#include "linalg/IntMatrix.h"
#include "noc/Mesh.h"
#include "support/Format.h"
#include "support/MathUtil.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
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
    const IndexValues *Values = Program.indexArrayValues(Id);
    if (!Values)
      continue;
    if (Values->size() <= 64) {
      Out += "index " + Program.array(Id).Name + " values";
      for (std::uint64_t N = 0; N < Values->size(); ++N)
        Out += formatString(" %lld", static_cast<long long>(Values->at(N)));
      Out += "\n";
    } else {
      Out += "# index " + Program.array(Id).Name +
             formatString(" contents omitted (%llu values)\n",
                          static_cast<unsigned long long>(Values->size()));
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

/// The data vector \p Ref touches at iteration \p Iter: A*Iter + o.
inline IntVector evaluate(const AffineRef &Ref, const IntVector &Iter) {
  IntVector Data = Ref.accessMatrix().apply(Iter);
  for (std::size_t I = 0; I < Data.size(); ++I)
    Data[I] += Ref.offset()[I];
  return Data;
}

/// Index-array contents pointing near a linear ramp over [0, DataExtent),
/// filled by one sequential SplitMix64 stream (one draw per entry when the
/// window is non-zero). The ramp is computed in 64 bits, so it is exact
/// only while Count * DataExtent stays below 2^64.
inline std::vector<std::int64_t> makeNearbyIndices(std::uint64_t Count,
                                                   std::int64_t DataExtent,
                                                   std::int64_t Window,
                                                   std::uint64_t Seed) {
  assert(DataExtent > 0 && "empty data array");
  SplitMix64 Rng(Seed);
  std::vector<std::int64_t> Values(Count);
  for (std::uint64_t S = 0; S < Count; ++S) {
    std::int64_t Ramp = Count <= 1
                            ? 0
                            : static_cast<std::int64_t>(
                                  (S * static_cast<std::uint64_t>(DataExtent)) /
                                  Count);
    std::int64_t Jitter =
        Window == 0 ? 0
                    : static_cast<std::int64_t>(
                          Rng.nextBelow(2 * Window + 1)) -
                          Window;
    Values[S] = std::clamp<std::int64_t>(Ramp + Jitter, 0, DataExtent - 1);
  }
  return Values;
}

/// A uniformly random index array, filled by one sequential SplitMix64
/// stream.
inline std::vector<std::int64_t> makeRandomIndices(std::uint64_t Count,
                                                   std::int64_t DataExtent,
                                                   std::uint64_t Seed) {
  assert(DataExtent > 0 && "empty data array");
  SplitMix64 Rng(Seed);
  std::vector<std::int64_t> Values(Count);
  for (std::uint64_t S = 0; S < Count; ++S)
    Values[S] =
        static_cast<std::int64_t>(Rng.nextBelow(static_cast<std::uint64_t>(
            DataExtent)));
  return Values;
}

/// The normal-equation solve of the full-walk profile: Gauss-Jordan with
/// partial pivoting; zero-pivot columns are pinned to zero.
inline bool solveNormalEquations(std::vector<std::vector<double>> &N,
                                 std::vector<double> &B,
                                 std::vector<double> &X) {
  std::size_t K = B.size();
  std::vector<bool> Pinned(K, false);
  for (std::size_t Col = 0; Col < K; ++Col) {
    std::size_t Pivot = Col;
    for (std::size_t R = Col + 1; R < K; ++R)
      if (std::fabs(N[R][Col]) > std::fabs(N[Pivot][Col]))
        Pivot = R;
    if (std::fabs(N[Pivot][Col]) < 1e-9) {
      Pinned[Col] = true;
      continue;
    }
    std::swap(N[Col], N[Pivot]);
    std::swap(B[Col], B[Pivot]);
    for (std::size_t R = 0; R < K; ++R) {
      if (R == Col)
        continue;
      double F = N[R][Col] / N[Col][Col];
      if (F == 0.0)
        continue;
      for (std::size_t C = Col; C < K; ++C)
        N[R][C] -= F * N[Col][C];
      B[R] -= F * B[Col];
    }
  }
  X.assign(K, 0.0);
  bool Any = false;
  for (std::size_t I = 0; I < K; ++I) {
    if (Pinned[I])
      continue;
    X[I] = B[I] / N[I][I];
    Any = true;
  }
  return Any;
}

/// approximateIndexedRef as a walk: every iteration of the nest in
/// lexicographic order, each Stride-th one profiled, each sample's
/// iteration vector and value kept in its own record.
inline std::optional<IndexApproximation>
approximateIndexedRefFullWalk(const AffineProgram &Program,
                              const LoopNest &Nest, const IndexedRef &Ref,
                              std::uint64_t MaxSamples = 4096) {
  const IndexValues *Values = Program.indexArrayValues(Ref.IndexArray);
  if (!Values)
    return std::nullopt;
  const ArrayDecl &Data = Program.array(Ref.DataArray);
  if (Data.rank() != 1)
    return std::nullopt;
  const ArrayDecl &Index = Program.array(Ref.IndexArray);

  const IterationSpace &Space = Nest.space();
  std::uint64_t Trip = Space.tripCount();
  if (Trip == 0)
    return std::nullopt;

  unsigned Depth = Space.depth();
  std::uint64_t Stride = Trip <= MaxSamples ? 1 : Trip / MaxSamples;
  if (Stride % 2 == 0)
    ++Stride;

  std::size_t K = Depth + 1;
  std::vector<std::vector<double>> N(K, std::vector<double>(K, 0.0));
  std::vector<double> B(K, 0.0);

  struct Sample {
    IntVector Iter;
    double D;
  };
  std::vector<Sample> Samples;

  IntVector Iter = Space.firstIteration();
  std::uint64_t Pos = 0;
  bool More = !Space.isEmpty();
  while (More) {
    if (Pos % Stride == 0) {
      IntVector IndexVec = evaluate(Ref.IndexAccess, Iter);
      if (Index.contains(IndexVec)) {
        std::uint64_t Slot = Index.linearize(IndexVec);
        if (Slot < Values->size()) {
          double D = static_cast<double>(Values->at(Slot));
          std::vector<double> Row(K);
          Row[0] = 1.0;
          for (unsigned J = 0; J < Depth; ++J)
            Row[J + 1] = static_cast<double>(Iter[J]);
          for (std::size_t R = 0; R < K; ++R) {
            for (std::size_t C = 0; C < K; ++C)
              N[R][C] += Row[R] * Row[C];
            B[R] += Row[R] * D;
          }
          Samples.push_back({Iter, D});
        }
      }
    }
    ++Pos;
    More = Space.nextIteration(Iter);
  }
  if (Samples.size() < K)
    return std::nullopt;

  std::vector<double> X;
  if (!solveNormalEquations(N, B, X)) {
    X.assign(K, 0.0);
    double Mean = 0.0;
    for (const Sample &S : Samples)
      Mean += S.D;
    X[0] = Mean / static_cast<double>(Samples.size());
  }

  IntMatrix Access(1, Depth);
  for (unsigned J = 0; J < Depth; ++J)
    Access.at(0, J) = static_cast<std::int64_t>(std::llround(X[J + 1]));
  IntVector Offset(1, static_cast<std::int64_t>(std::llround(X[0])));

  auto MeanAbsError = [&](const IntMatrix &A, const IntVector &O) {
    AffineRef Candidate(Ref.DataArray, A, O, Ref.IsWrite);
    double Sum = 0.0;
    for (const Sample &S : Samples)
      Sum += std::fabs(static_cast<double>(evaluate(Candidate, S.Iter)[0]) -
                       S.D);
    return Sum / static_cast<double>(Samples.size());
  };

  double CurErr = MeanAbsError(Access, Offset);
  for (unsigned J = 0; J < Depth; ++J) {
    if (Access.at(0, J) == 0)
      continue;
    IntMatrix Trial = Access;
    Trial.at(0, J) = 0;
    double TrialErr = MeanAbsError(Trial, Offset);
    if (TrialErr <= CurErr * 1.1) {
      Access = Trial;
      CurErr = TrialErr;
    }
  }
  AffineRef Approx(Ref.DataArray, Access, Offset, Ref.IsWrite);

  double ErrSum = CurErr * static_cast<double>(Samples.size());
  double Extent = static_cast<double>(Data.Dims[0]);
  double ErrFrac =
      Extent > 0.0
          ? (ErrSum / static_cast<double>(Samples.size())) / (Extent / 4.0)
          : 1.0;

  IndexApproximation Result{std::move(Approx), ErrFrac, Samples.size()};
  return Result;
}

} // namespace offchip::oracle

#endif // OFFCHIP_TESTS_TESTORACLES_H
