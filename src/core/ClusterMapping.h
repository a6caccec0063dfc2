//===- core/ClusterMapping.h - L2-to-MC cluster mappings --------*- C++ -*-===//
///
/// \file
/// The L2-to-MC mapping of Section 4 (Figure 8): the mesh is divided into a
/// grid of equally-sized clusters; each cluster's off-chip requests are to be
/// served by a fixed set of k memory controllers. The paper's two validity
/// constraints — equal cores per cluster and equal MCs per cluster — are
/// enforced here, plus a *realizability* constraint implied by the layout
/// mechanism: under chunked interleaving of physical addresses across N' MCs,
/// a run of k consecutive interleave units can only land on k MCs with
/// consecutive ids mod N'. Each cluster's MC set must therefore be one of the
/// G = N'/k contiguous "interleave groups" {g*k, ..., g*k + k - 1}, and each
/// group must serve the same number of clusters.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_CORE_CLUSTERMAPPING_H
#define OFFCHIP_CORE_CLUSTERMAPPING_H

#include "noc/Mesh.h"

#include <optional>
#include <string>
#include <vector>

namespace offchip {

/// A validated L2-to-MC mapping.
class ClusterMapping {
public:
  /// Builds and validates a mapping.
  ///
  /// \param M          the mesh
  /// \param MCNodes    node ids of the N' memory controllers (MC i lives at
  ///                   MCNodes[i]; the hardware maps interleave-unit residue
  ///                   i to MC i)
  /// \param ClustersX  number of clusters along X (c_x)
  /// \param ClustersY  number of clusters along Y (c_y)
  /// \param ClusterMCs per cluster (row-major: cy * ClustersX + cx), the ids
  ///                   of the MCs assigned to that cluster
  /// \param ErrMsg     when non-null, receives a diagnostic on failure
  ///
  /// \returns the mapping, or std::nullopt when any validity or
  /// realizability constraint fails.
  static std::optional<ClusterMapping>
  create(const Mesh &M, std::vector<unsigned> MCNodes, unsigned ClustersX,
         unsigned ClustersY, std::vector<std::vector<unsigned>> ClusterMCs,
         std::string *ErrMsg = nullptr);

  /// Builds the locality-first mapping (Figure 8a style): a cluster grid
  /// with one interleave group of size \p MCsPerCluster per cluster,
  /// assigning groups to clusters so that total core-to-MC distance is
  /// minimized. With four corner MCs and k=1 this is exactly mapping M1;
  /// with k=2 and a 2x2 grid it is mapping M2 of Figure 8b.
  static ClusterMapping makeLocalityMapping(const Mesh &M,
                                            std::vector<unsigned> MCNodes,
                                            unsigned ClustersX,
                                            unsigned ClustersY,
                                            unsigned MCsPerCluster);

  const Mesh &mesh() const { return Topology; }
  unsigned numMCs() const { return static_cast<unsigned>(MCNodes.size()); }
  unsigned mcNode(unsigned MC) const { return MCNodes[MC]; }
  const std::vector<unsigned> &mcNodes() const { return MCNodes; }

  unsigned clustersX() const { return CX; }
  unsigned clustersY() const { return CY; }
  unsigned coresPerClusterX() const { return NX; }
  unsigned coresPerClusterY() const { return NY; }
  unsigned numClusters() const { return CX * CY; }

  /// k: MCs per cluster.
  unsigned mcsPerCluster() const { return K; }
  /// G = N'/k: number of interleave groups.
  unsigned numGroups() const { return numMCs() / K; }

  /// Cluster (row-major grid index) containing mesh node \p Node.
  unsigned clusterOfNode(unsigned Node) const;

  /// Ordered MC ids of cluster \p C (always an interleave group).
  const std::vector<unsigned> &clusterMCs(unsigned C) const {
    return MCsOf[C];
  }

  /// The MC of \p Node's cluster nearest to it (the lowest-positioned one
  /// on a tie): first-touch allocates the node's pages there (Section 6.3),
  /// and the shared-L2 layout wants the node's data behind it.
  unsigned preferredMC(unsigned Node) const;

  /// Interleave group index of cluster \p C.
  unsigned groupOfCluster(unsigned C) const { return MCsOf[C].front() / K; }

  /// Layout sequence id q of cluster \p C: the position the cluster's data
  /// runs occupy in the round-robin cycle. Satisfies
  /// q mod numGroups() == groupOfCluster(C).
  unsigned sequenceId(unsigned C) const { return SeqOf[C]; }

  /// Inverse of sequenceId.
  unsigned clusterBySequenceId(unsigned Q) const { return ClusterOfSeq[Q]; }

  /// Mean Manhattan distance from each node to the MCs of its cluster.
  double averageDistanceToAssignedMCs() const;

  /// Mean Manhattan distance from each node to its *nearest* MC; the lower
  /// bound any mapping can achieve.
  double averageDistanceToNearestMC() const;

  /// The node a logical thread id is bound to (footnote 5 of the paper):
  /// thread ids walk cores y-within-cluster first, then cluster-Y, then
  /// x-within-cluster, then cluster-X — the same order the layout formula
  /// R(r_v) assumes for data blocks.
  unsigned threadToNode(unsigned ThreadId) const;

  /// Inverse of threadToNode.
  unsigned nodeToThread(unsigned Node) const;

  /// MCs considered "adjacent enough" to desired MC \p MC for the shared-L2
  /// delta-skip (Section 5.3): every MC whose distance to \p MC is strictly
  /// below the placement's maximum pairwise MC distance. With four corner
  /// MCs this admits the desired corner and its two edge-sharing corners and
  /// excludes the diagonal one, matching the paper's example.
  std::vector<bool> acceptableMCsFor(unsigned MC) const;

private:
  ClusterMapping(const Mesh &M) : Topology(M) {}

  Mesh Topology;
  std::vector<unsigned> MCNodes;
  unsigned CX = 1, CY = 1;
  unsigned NX = 1, NY = 1;
  unsigned K = 1;
  std::vector<std::vector<unsigned>> MCsOf;
  std::vector<unsigned> SeqOf;
  std::vector<unsigned> ClusterOfSeq;
};

} // namespace offchip

#endif // OFFCHIP_CORE_CLUSTERMAPPING_H
