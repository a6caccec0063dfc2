//===- core/DataLayout.cpp ------------------------------------------------===//

#include "core/DataLayout.h"

#include "support/MathUtil.h"

#include <algorithm>
#include <limits>

using namespace offchip;

DataLayout::~DataLayout() = default;

int DataLayout::desiredMCForOffset(std::uint64_t) const { return -1; }

//===----------------------------------------------------------------------===//
// UnimodularBox
//===----------------------------------------------------------------------===//

UnimodularBox::UnimodularBox(const IntMatrix &Matrix, const ArrayDecl &Decl)
    : U(Matrix) {
  unsigned N = Decl.rank();
  assert(U.numRows() == N && U.numCols() == N &&
         "transformation rank must match array rank");
  Shift.resize(N);
  Extents.resize(N);
  for (unsigned R = 0; R < N; ++R) {
    // Each transformed coordinate is a linear form over the index box
    // [0, D_i - 1]; its extremes occur at the box corners.
    std::int64_t Min = 0, Max = 0;
    for (unsigned Col = 0; Col < N; ++Col) {
      std::int64_t Coef = U.at(R, Col);
      std::int64_t Hi = Decl.Dims[Col] - 1;
      if (Coef > 0)
        Max += Coef * Hi;
      else
        Min += Coef * Hi;
    }
    Shift[R] = -Min;
    Extents[R] = Max - Min + 1;
  }
}

IntVector UnimodularBox::transform(const IntVector &DataVec) const {
  IntVector T;
  transformInto(DataVec, T);
  return T;
}

void UnimodularBox::transformInto(const IntVector &DataVec,
                                  IntVector &T) const {
  assert(DataVec.size() == rank() && "data vector rank mismatch");
  T.resize(rank());
  for (unsigned R = 0; R < rank(); ++R) {
    std::int64_t V = Shift[R];
    for (unsigned Col = 0; Col < rank(); ++Col)
      V += U.at(R, Col) * DataVec[Col];
    assert(V >= 0 && V < Extents[R] && "transformed point out of box");
    T[R] = V;
  }
}

//===----------------------------------------------------------------------===//
// Block decomposition
//===----------------------------------------------------------------------===//

BlockDecomposition offchip::computeBlockDecomposition(std::int64_t Extent,
                                                      unsigned NumCores) {
  assert(Extent > 0 && NumCores > 0 && "invalid block decomposition input");
  BlockDecomposition B;
  B.BlockSize = static_cast<std::int64_t>(
      ceilDiv(static_cast<std::uint64_t>(Extent), NumCores));
  B.PaddedExtent = B.BlockSize * static_cast<std::int64_t>(NumCores);
  return B;
}

namespace {

std::uint64_t productOf(const IntVector &Extents) {
  std::uint64_t P = 1;
  for (std::int64_t E : Extents)
    P *= static_cast<std::uint64_t>(E);
  return P;
}

/// Row-major linearization of \p Coords under \p Extents.
std::uint64_t linearizeCoords(const IntVector &Coords,
                              const IntVector &Extents) {
  assert(Coords.size() == Extents.size() && "coord rank mismatch");
  std::uint64_t Off = 0;
  for (std::size_t I = 0; I < Coords.size(); ++I) {
    assert(Coords[I] >= 0 && Coords[I] < Extents[I] &&
           "coordinate out of extent");
    Off = Off * static_cast<std::uint64_t>(Extents[I]) +
          static_cast<std::uint64_t>(Coords[I]);
  }
  return Off;
}

/// Steps k >= 0 that keep X + k*D inside [Lo, Hi], for X inside. The
/// unsigned differences stay exact when Lo or Hi is an unbounded sentinel.
std::uint64_t stepsWithin(std::int64_t X, std::int64_t D, std::int64_t Lo,
                          std::int64_t Hi) {
  if (D > 0)
    return (static_cast<std::uint64_t>(Hi) - static_cast<std::uint64_t>(X)) /
           static_cast<std::uint64_t>(D);
  if (D < 0)
    return (static_cast<std::uint64_t>(X) - static_cast<std::uint64_t>(Lo)) /
           (0 - static_cast<std::uint64_t>(D));
  return UnboundedSteps;
}

/// A box point's place in the phase-aligned block decomposition both
/// customized layouts use: the owning block Beta (clamped to the first and
/// last block) and the point's coordinate on the whole-block fast axis
/// (InBlock, t1, ..., t_{n-1}).
struct BlockPos {
  std::int64_t Beta;
  std::int64_t Fast;
};

BlockPos locateInBlocks(const UnimodularBox &Box, const IntVector &T,
                        std::int64_t Phase, std::int64_t BlockSize,
                        std::int64_t NumBlocks) {
  std::int64_t TVp = T[0] - Phase;
  std::int64_t Beta = std::clamp<std::int64_t>(floorDiv(TVp, BlockSize), 0,
                                               NumBlocks - 1);
  // Edge elements below the phase (or past the last block boundary) stay
  // with the first/last block; the fast coordinate absorbs the spill.
  std::int64_t Fast = TVp - Beta * BlockSize + BlockSize;
  assert(Fast >= 0 && Fast < 3 * BlockSize &&
         "in-block spill out of the budgeted range");
  for (unsigned D = 1; D < Box.rank(); ++D)
    Fast = Fast * Box.extent(D) + T[D];
  return {Beta, Fast};
}

/// The affine run of a customized layout: the offset moves with the fast
/// coordinate for as long as the point stays in its block and in its
/// RunSize-element run of the fast axis.
AffineRun blockRunAlong(const UnimodularBox &Box, const IntVector &T,
                        const IntVector &DT, std::int64_t Phase,
                        std::int64_t BlockSize, std::int64_t NumBlocks,
                        std::int64_t RunSize) {
  BlockPos Pos = locateInBlocks(Box, T, Phase, BlockSize, NumBlocks);
  std::int64_t DFast = DT[0];
  for (unsigned D = 1; D < Box.rank(); ++D)
    DFast = DFast * Box.extent(D) + DT[D];
  std::int64_t BlockLo = Pos.Beta == 0
                             ? std::numeric_limits<std::int64_t>::min()
                             : Pos.Beta * BlockSize;
  std::int64_t BlockHi = Pos.Beta == NumBlocks - 1
                             ? std::numeric_limits<std::int64_t>::max()
                             : Pos.Beta * BlockSize + BlockSize - 1;
  std::int64_t RunLo = Pos.Fast - Pos.Fast % RunSize;
  return {std::min(stepsWithin(T[0] - Phase, DT[0], BlockLo, BlockHi),
                   stepsWithin(Pos.Fast, DFast, RunLo, RunLo + RunSize - 1)),
          DFast};
}

} // namespace

//===----------------------------------------------------------------------===//
// RowMajorLayout
//===----------------------------------------------------------------------===//

RowMajorLayout::RowMajorLayout(ArrayDecl Decl)
    : DataLayout(IntMatrix::identity(Decl.rank()), Decl),
      Decl(std::move(Decl)) {}

std::uint64_t RowMajorLayout::offsetInBox(const IntVector &T) const {
  return linearizeCoords(T, Decl.Dims);
}

AffineRun RowMajorLayout::runAlong(const IntVector &,
                                   const IntVector &DT) const {
  std::int64_t Delta = DT.empty() ? 0 : DT[0];
  for (std::size_t D = 1; D < DT.size(); ++D)
    Delta = Delta * Decl.Dims[D] + DT[D];
  return {UnboundedSteps, Delta};
}

//===----------------------------------------------------------------------===//
// PrivateL2Layout
//===----------------------------------------------------------------------===//

PrivateL2Layout::PrivateL2Layout(const ArrayDecl &Decl, const IntMatrix &U,
                                 const ClusterMapping &Mapping,
                                 unsigned ElementsPerUnit,
                                 std::int64_t PartitionPhase)
    : DataLayout(U, Decl), Mapping(&Mapping), P(ElementsPerUnit),
      K(Mapping.mcsPerCluster()), C(Mapping.numClusters()) {
  assert(P > 0 && "interleave unit must hold at least one element");
  unsigned NumCores = Mapping.mesh().numNodes();
  unsigned Rank = Box.rank();
  RunElems = static_cast<std::int64_t>(K) * P;

  Block = computeBlockDecomposition(Box.extent(0), NumCores);
  // Phase-align block boundaries with the dominant reference offset so a
  // stencil's center offset does not push whole regions across blocks.
  Phase = floorMod(PartitionPhase + Box.shiftAt(0), Block.BlockSize);
  // Each thread's entire block — its in-block partition offset and every
  // non-partition dimension — is linearized as the fast axis, then cut into
  // k*p-element runs. This keeps the whole per-thread region contiguous in
  // run space (the per-cluster regions of Figure 11), pays padding only
  // once per block, and leaves only the cluster coordinates above the run
  // cycle.
  // The partition coordinate relative to the phase spans up to three block
  // lengths after edge clamping, so the fast axis budgets 3b per block.
  std::int64_t BlockElems = 3 * Block.BlockSize;
  for (unsigned D = 1; D < Rank; ++D)
    BlockElems *= Box.extent(D);
  std::int64_t FastExtent = static_cast<std::int64_t>(
      alignTo(static_cast<std::uint64_t>(BlockElems),
              static_cast<std::uint64_t>(RunElems)));
  PreExtents = {static_cast<std::int64_t>(Mapping.coresPerClusterX()),
                static_cast<std::int64_t>(Mapping.coresPerClusterY())};
  NumL = FastExtent / RunElems;
  TotalElements = productOf(PreExtents) * static_cast<std::uint64_t>(NumL) *
                  C * static_cast<std::uint64_t>(RunElems);
}

std::uint64_t PrivateL2Layout::offsetInBox(const IntVector &T) const {
  BlockPos Pos =
      locateInBlocks(Box, T, Phase, Block.BlockSize,
                     static_cast<std::int64_t>(Mapping->mesh().numNodes()));

  // Decompose the block id into (cluster-X, x-in-cluster, cluster-Y,
  // y-in-cluster) following R(r_v) of Section 5.3.
  std::int64_t Beta = Pos.Beta;
  std::int64_t NY = Mapping->coresPerClusterY();
  std::int64_t NXc = Mapping->coresPerClusterX();
  std::int64_t CYc = Mapping->clustersY();
  std::int64_t W = Beta % NY;
  Beta /= NY;
  std::int64_t CYPos = Beta % CYc;
  Beta /= CYc;
  std::int64_t XX = Beta % NXc;
  Beta /= NXc;
  std::int64_t CXPos = Beta;
  assert(CXPos < static_cast<std::int64_t>(Mapping->clustersX()) &&
         "block id out of cluster grid");

  unsigned Cluster = static_cast<unsigned>(CYPos) * Mapping->clustersX() +
                     static_cast<unsigned>(CXPos);
  std::uint64_t Q = Mapping->sequenceId(Cluster);

  std::int64_t L = Pos.Fast / RunElems;
  std::int64_t On = Pos.Fast % RunElems;
  // The slow (x-in-cluster, y-in-cluster) coordinates, row-major.
  std::uint64_t PreLin = static_cast<std::uint64_t>(XX * PreExtents[1] + W);
  return ((PreLin * static_cast<std::uint64_t>(NumL) +
           static_cast<std::uint64_t>(L)) *
              C +
          Q) *
             static_cast<std::uint64_t>(RunElems) +
         static_cast<std::uint64_t>(On);
}

AffineRun PrivateL2Layout::runAlong(const IntVector &T,
                                    const IntVector &DT) const {
  return blockRunAlong(Box, T, DT, Phase, Block.BlockSize,
                       static_cast<std::int64_t>(Mapping->mesh().numNodes()),
                       RunElems);
}

int PrivateL2Layout::desiredMCForOffset(std::uint64_t ElemOffset) const {
  std::uint64_t Run = ElemOffset / static_cast<std::uint64_t>(RunElems);
  unsigned Q = static_cast<unsigned>(Run % C);
  unsigned Cluster = Mapping->clusterBySequenceId(Q);
  unsigned Group = Mapping->groupOfCluster(Cluster);
  unsigned J = static_cast<unsigned>((ElemOffset / P) % K);
  return static_cast<int>(Group * K + J);
}

//===----------------------------------------------------------------------===//
// SharedL2Layout
//===----------------------------------------------------------------------===//

SharedL2Layout::SharedL2Layout(const ArrayDecl &Decl, const IntMatrix &U,
                               const ClusterMapping &Mapping,
                               unsigned ElementsPerUnit, bool EnableDeltaSkip,
                               std::int64_t PartitionPhase)
    : DataLayout(U, Decl), Mapping(&Mapping), P(ElementsPerUnit),
      N(Mapping.mesh().numNodes()) {
  assert(P > 0 && "interleave unit must hold at least one element");
  unsigned Rank = Box.rank();
  Block = computeBlockDecomposition(Box.extent(0), N);
  Phase = floorMod(PartitionPhase + Box.shiftAt(0), Block.BlockSize);
  // Whole-block fast axis with a 3b phase-spill budget (see
  // PrivateL2Layout).
  std::int64_t BlockElems = 3 * Block.BlockSize;
  for (unsigned D = 1; D < Rank; ++D)
    BlockElems *= Box.extent(D);
  std::int64_t FastExtent = static_cast<std::int64_t>(
      alignTo(static_cast<std::uint64_t>(BlockElems),
              static_cast<std::uint64_t>(P)));
  TotalElements = static_cast<std::uint64_t>(FastExtent) * N;

  const Mesh &M = Mapping.mesh();
  std::vector<unsigned> DesiredOfNode(N);
  for (unsigned Node = 0; Node < N; ++Node)
    DesiredOfNode[Node] = Mapping.preferredMC(Node);

  // Off-chip relocation: a bijection owner-node -> hosting bank such that
  // each host's line residue modulo the MC count maps to an MC acceptable
  // for the owner's desired MC, at minimal total displacement. Greedy on
  // (distance, owner, host) is optimal here because most owners can keep
  // themselves (distance 0).
  HostOfOwner.resize(N);
  DesiredMCOfBank.assign(N, -1);
  unsigned NumMCs = Mapping.numMCs();
  std::vector<std::vector<bool>> Acceptable(NumMCs);
  for (unsigned MC = 0; MC < NumMCs; ++MC)
    Acceptable[MC] = Mapping.acceptableMCsFor(MC);

  if (!EnableDeltaSkip) {
    for (unsigned Node = 0; Node < N; ++Node)
      HostOfOwner[Node] = Node;
  } else {
    struct Cand {
      unsigned Cost;
      unsigned Dist;
      unsigned Owner;
      unsigned Host;
    };
    // Cost balances the on-chip penalty of hosting away from the owner
    // (paid twice per hit: request and response) against the off-chip leg
    // from the host to the MC its residue selects.
    std::vector<Cand> Cands;
    for (unsigned Owner = 0; Owner < N; ++Owner)
      for (unsigned Host = 0; Host < N; ++Host) {
        if (!Acceptable[DesiredOfNode[Owner]][Host % NumMCs])
          continue;
        unsigned Dist = M.manhattan(Owner, Host);
        unsigned McLeg = M.manhattan(Host, Mapping.mcNode(Host % NumMCs));
        Cands.push_back({2 * Dist + McLeg, Dist, Owner, Host});
      }
    std::sort(Cands.begin(), Cands.end(), [](const Cand &A, const Cand &B) {
      if (A.Cost != B.Cost)
        return A.Cost < B.Cost;
      if (A.Owner != B.Owner)
        return A.Owner < B.Owner;
      return A.Host < B.Host;
    });
    std::vector<bool> OwnerDone(N, false), HostTaken(N, false);
    unsigned Assigned = 0;
    for (const Cand &C : Cands) {
      if (Assigned == N)
        break;
      if (OwnerDone[C.Owner] || HostTaken[C.Host])
        continue;
      HostOfOwner[C.Owner] = C.Host;
      OwnerDone[C.Owner] = true;
      HostTaken[C.Host] = true;
      ++Assigned;
      if (C.Dist > 0)
        ++Relocated;
    }
    // Owners with no acceptable host left keep any free bank (best effort,
    // mirrors the paper's "try our best to localize").
    for (unsigned Owner = 0; Owner < N; ++Owner) {
      if (OwnerDone[Owner])
        continue;
      for (unsigned Host = 0; Host < N; ++Host) {
        if (HostTaken[Host])
          continue;
        HostOfOwner[Owner] = Host;
        HostTaken[Host] = true;
        ++Relocated;
        break;
      }
    }
  }
  for (unsigned Owner = 0; Owner < N; ++Owner)
    DesiredMCOfBank[HostOfOwner[Owner]] =
        static_cast<int>(DesiredOfNode[Owner]);
}

std::uint64_t SharedL2Layout::bankOf(const IntVector &T,
                                     std::int64_t *Fast) const {
  BlockPos Pos = locateInBlocks(Box, T, Phase, Block.BlockSize,
                                static_cast<std::int64_t>(N));
  *Fast = Pos.Fast;
  // Home bank = the bank hosting the owning thread's (R'(r_v)) data: the
  // owner's own node (footnote 5 binding) unless the off-chip pass
  // relocated it to an acceptable-residue neighbor.
  return HostOfOwner[Mapping->threadToNode(static_cast<unsigned>(Pos.Beta))];
}

std::uint64_t SharedL2Layout::offsetInBox(const IntVector &T) const {
  std::int64_t Fast = 0;
  std::uint64_t Bank = bankOf(T, &Fast);
  std::int64_t Lp = Fast / static_cast<std::int64_t>(P);
  std::int64_t Rem = Fast % static_cast<std::int64_t>(P);
  return (static_cast<std::uint64_t>(Lp) * N + Bank) * P +
         static_cast<std::uint64_t>(Rem);
}

AffineRun SharedL2Layout::runAlong(const IntVector &T,
                                   const IntVector &DT) const {
  return blockRunAlong(Box, T, DT, Phase, Block.BlockSize,
                       static_cast<std::int64_t>(N),
                       static_cast<std::int64_t>(P));
}

int SharedL2Layout::desiredMCForOffset(std::uint64_t ElemOffset) const {
  std::uint64_t Line = ElemOffset / P;
  return DesiredMCOfBank[static_cast<unsigned>(Line % N)];
}
