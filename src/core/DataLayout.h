//===- core/DataLayout.h - Customized data layouts --------------*- C++ -*-===//
///
/// \file
/// Data layouts map an array element (data vector) to its element offset
/// inside the array's virtual allocation. The transformed layouts implement
/// Section 5.3's layout customization: after the unimodular Data-to-Core
/// transformation U, strip-mining and permutation reshape the linear order so
/// that consecutive interleave units cycle round-robin over the clusters of
/// the L2-to-MC mapping, sending each element's off-chip request to its
/// cluster's memory controllers. Padding (Section 5.3) appears here as
/// extent round-ups; the holes it creates are never addressed.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_CORE_DATALAYOUT_H
#define OFFCHIP_CORE_DATALAYOUT_H

#include "affine/ArrayDecl.h"
#include "core/ClusterMapping.h"
#include "linalg/IntMatrix.h"

#include <memory>

namespace offchip {

/// The axis-aligned bounding box of U applied to an array's index box; maps
/// original data vectors to non-negative transformed coordinates.
class UnimodularBox {
public:
  UnimodularBox() = default;
  UnimodularBox(const IntMatrix &U, const ArrayDecl &Decl);

  unsigned rank() const { return static_cast<unsigned>(Extents.size()); }

  /// Extent of transformed dimension \p D.
  std::int64_t extent(unsigned D) const { return Extents[D]; }

  /// U * DataVec shifted into the box (all coordinates >= 0).
  IntVector transform(const IntVector &DataVec) const;

  /// transform() into the caller's buffer \p T (resized to rank()), so a
  /// hot loop reusing \p T allocates nothing.
  void transformInto(const IntVector &DataVec, IntVector &T) const;

  const IntMatrix &matrix() const { return U; }

  /// The shift applied to transformed dimension \p D (codegen needs it to
  /// emit the same constants the layout uses).
  std::int64_t shiftAt(unsigned D) const { return Shift[D]; }

private:
  IntMatrix U;
  IntVector Shift;   // -min of each transformed coordinate
  IntVector Extents; // max - min + 1
};

/// How far a box point can walk along a step vector with its element offset
/// moving by a constant delta: for every k in [1, Steps] with T + k*DT still
/// inside the box, offsetInBox(T + k*DT) == offsetInBox(T) + k*Delta.
struct AffineRun {
  std::uint64_t Steps = 0;
  std::int64_t Delta = 0;
};

/// AffineRun::Steps of a walk no block or run boundary interrupts.
constexpr std::uint64_t UnboundedSteps = ~std::uint64_t(0);

/// Abstract mapping from data vectors to element offsets. Every layout
/// first maps a data vector r into its box, T = U*r + shift (the identity
/// box for row-major), and arranges the box points; offsetInBox() is that
/// arrangement, and runAlong() says where it stops being affine along a
/// step, which is what lets the access stream advance a reference's address
/// by a constant delta between block and run boundaries.
class DataLayout {
public:
  virtual ~DataLayout();

  /// Element offset of \p DataVec within the array allocation.
  std::uint64_t elementOffset(const IntVector &DataVec) const {
    return offsetInBox(Box.transform(DataVec));
  }

  /// Element offset of box point \p T (every coordinate in [0, extent)).
  virtual std::uint64_t offsetInBox(const IntVector &T) const = 0;

  /// The affine run of offsetInBox() from box point \p T along \p DT.
  virtual AffineRun runAlong(const IntVector &T, const IntVector &DT) const = 0;

  /// Allocation size in elements, padding included.
  virtual std::uint64_t sizeInElements() const = 0;

  /// True for customized (non-row-major) layouts; the simulator charges the
  /// address-computation overhead of the strip-mine/permute expressions for
  /// references through such layouts.
  virtual bool isTransformed() const { return false; }

  /// Desired memory controller for the element at \p ElemOffset, or -1 when
  /// the layout expresses no preference. Used to derive the per-page
  /// madvise-style hints for the OS-assisted page allocation (Section 5.3)
  /// and by the traffic-map statistics.
  virtual int desiredMCForOffset(std::uint64_t ElemOffset) const;

  /// The box the layout arranges.
  const UnimodularBox &box() const { return Box; }

protected:
  DataLayout(const IntMatrix &U, const ArrayDecl &Decl) : Box(U, Decl) {}

  UnimodularBox Box;
};

/// The original row-major layout: the identity box, linearized.
class RowMajorLayout : public DataLayout {
public:
  explicit RowMajorLayout(ArrayDecl Decl);

  std::uint64_t offsetInBox(const IntVector &T) const override;
  AffineRun runAlong(const IntVector &T, const IntVector &DT) const override;
  std::uint64_t sizeInElements() const override { return Decl.numElements(); }

  const ArrayDecl &decl() const { return Decl; }

private:
  ArrayDecl Decl;
};

/// Geometry shared by the customized layouts: how the data-partition
/// dimension decomposes into (cluster, core-in-cluster, in-block offset).
struct BlockDecomposition {
  /// Data block size b along the partition dimension: one block per thread.
  std::int64_t BlockSize = 1;
  /// Padded extent of the partition dimension: BlockSize * number of cores.
  std::int64_t PaddedExtent = 1;
};

/// Computes b = ceil(extent / numCores) and the padded extent.
BlockDecomposition computeBlockDecomposition(std::int64_t Extent,
                                             unsigned NumCores);

/// Private-L2 customized layout (Section 5.3, "Private L2 Case"):
/// (..., r_n/(k*p), R(r_v), r_n % (k*p)) with
/// R(r_v) = (((r_v/b)/(n_y*c_y*n_x)) % c_x, ((r_v/b)/n_y) % c_y).
/// Consecutive k*p-element runs cycle over cluster sequence ids, so run m's
/// k interleave units land exactly on the MC group of cluster m mod C.
class PrivateL2Layout : public DataLayout {
public:
  /// \param Decl            the array
  /// \param U               the Data-to-Core transformation (row 0 = g_v)
  /// \param Mapping         the validated L2-to-MC mapping
  /// \param ElementsPerUnit p: elements per interleave unit (cache line or
  ///                        page, divided by the element size)
  /// \param PartitionPhase  dominant reference offset along the partition
  ///                        coordinate ((U*o)[0] of the heaviest satisfied
  ///                        reference): block boundaries are phase-aligned
  ///                        so that stencil center offsets do not shift a
  ///                        thread's region into its neighbor's block
  PrivateL2Layout(const ArrayDecl &Decl, const IntMatrix &U,
                  const ClusterMapping &Mapping, unsigned ElementsPerUnit,
                  std::int64_t PartitionPhase = 0);

  std::uint64_t offsetInBox(const IntVector &T) const override;
  AffineRun runAlong(const IntVector &T, const IntVector &DT) const override;
  std::uint64_t sizeInElements() const override { return TotalElements; }
  bool isTransformed() const override { return true; }
  int desiredMCForOffset(std::uint64_t ElemOffset) const override;

  // Geometry accessors for tests and codegen.
  std::int64_t blockSize() const { return Block.BlockSize; }
  const ClusterMapping &mapping() const { return *Mapping; }
  unsigned elementsPerUnit() const { return P; }
  std::int64_t runElems() const { return RunElems; }
  std::int64_t numL() const { return NumL; }
  const IntVector &preExtents() const { return PreExtents; }
  /// Effective phase in [0, blockSize()) applied to the partition
  /// coordinate before block decomposition.
  std::int64_t partitionPhase() const { return Phase; }

private:
  const ClusterMapping *Mapping;
  unsigned P;                // elements per interleave unit
  unsigned K;                // MCs per cluster
  unsigned C;                // number of clusters
  std::int64_t Phase = 0;
  BlockDecomposition Block;  // along transformed dim 0
  std::int64_t RunElems;     // k * p
  std::int64_t NumL;         // runs per padded fast axis
  IntVector PreExtents;      // extents of the slow "Pre" dimensions in order
  std::uint64_t TotalElements;
};

/// Shared-L2 (SNUCA) customized layout (Section 5.3, "Shared L2 Case"):
/// first (..., r_n/p, R'(r_v), r_n % p) with R'(r_v) = (r_v/b) % N localizes
/// on-chip accesses (line m's home bank is the block owner's node); then
/// the off-chip pass relocates the data of banks whose line residue maps to
/// an MC not acceptably close to the bank's desired MC.
///
/// The paper expresses the relocation as a skip counter δ that shifts
/// elements forward by δ*p; realized literally, a cumulative shift would
/// rotate *every* element's home bank and undo the on-chip localization
/// just built. We realize the same idea collision-free as a *bank
/// permutation*: each owner node's data is hosted at the nearest bank whose
/// residue modulo the MC count is acceptable (owners that already map
/// acceptably stay put). Both on-chip and off-chip accesses then behave as
/// Section 5.3 intends: home banks are the owner or a neighbor at most a
/// few hops away, and every off-chip request leaves from an
/// acceptable-distance MC. The impossibility argument around Eqs. (4)-(5)
/// shows up here as owners whose own residue is unacceptable — exactly the
/// ones the permutation relocates.
class SharedL2Layout : public DataLayout {
public:
  /// \param EnableDeltaSkip when false only the on-chip localization is
  ///        applied; the off-chip relocation is skipped (ablation knob).
  SharedL2Layout(const ArrayDecl &Decl, const IntMatrix &U,
                 const ClusterMapping &Mapping, unsigned ElementsPerUnit,
                 bool EnableDeltaSkip = true,
                 std::int64_t PartitionPhase = 0);

  std::uint64_t offsetInBox(const IntVector &T) const override;
  AffineRun runAlong(const IntVector &T, const IntVector &DT) const override;
  std::uint64_t sizeInElements() const override { return TotalElements; }
  bool isTransformed() const override { return true; }
  int desiredMCForOffset(std::uint64_t ElemOffset) const override;

  /// Home L2 bank (== hosting node id) of the element; exposed for tests.
  unsigned homeBankForDataVec(const IntVector &DataVec) const;

  /// Number of owner nodes whose data the off-chip pass relocated to a
  /// neighboring bank.
  unsigned relocatedBanks() const { return Relocated; }

  // Geometry accessors for tests and codegen.
  std::int64_t blockSize() const { return Block.BlockSize; }
  const ClusterMapping &mapping() const { return *Mapping; }
  unsigned elementsPerUnit() const { return P; }
  const std::vector<unsigned> &hostOfOwner() const { return HostOfOwner; }
  /// Effective phase in [0, blockSize()).
  std::int64_t partitionPhase() const { return Phase; }

private:
  /// Hosting bank of the block owning box point \p T and \p T's position
  /// on the whole-block fast axis.
  std::uint64_t bankOf(const IntVector &T, std::int64_t *Fast) const;

  const ClusterMapping *Mapping;
  unsigned P;
  unsigned N; // number of cores / home banks
  std::int64_t Phase = 0;
  BlockDecomposition Block;
  /// HostOfOwner[node] = bank hosting that owner's data (a permutation).
  std::vector<unsigned> HostOfOwner;
  /// Desired MC per hosting bank (indexed by bank id).
  std::vector<int> DesiredMCOfBank;
  unsigned Relocated = 0;
  std::uint64_t TotalElements;
};

} // namespace offchip

#endif // OFFCHIP_CORE_DATALAYOUT_H
