//===- core/ClusterMapping.cpp --------------------------------------------===//

#include "core/ClusterMapping.h"

#include "support/Error.h"

#include <algorithm>
#include <numeric>

using namespace offchip;

std::optional<ClusterMapping>
ClusterMapping::create(const Mesh &M, std::vector<unsigned> MCNodes,
                       unsigned ClustersX, unsigned ClustersY,
                       std::vector<std::vector<unsigned>> ClusterMCs,
                       std::string *ErrMsg) {
  auto Fail = [&](const char *Msg) -> std::optional<ClusterMapping> {
    if (ErrMsg)
      *ErrMsg = Msg;
    return std::nullopt;
  };

  if (MCNodes.empty())
    return Fail("no memory controllers");
  if (ClustersX == 0 || ClustersY == 0)
    return Fail("cluster grid must be non-empty");
  // Constraint 1 (Section 4): each cluster must contain an equal number of
  // cores, which a grid guarantees iff it divides the mesh evenly.
  if (M.sizeX() % ClustersX != 0 || M.sizeY() % ClustersY != 0)
    return Fail("cluster grid does not evenly divide the mesh");
  unsigned NumClusters = ClustersX * ClustersY;
  if (ClusterMCs.size() != NumClusters)
    return Fail("need one MC set per cluster");

  // Constraint 2 (Section 4): each cluster is assigned an equal number of
  // MCs.
  unsigned K = static_cast<unsigned>(ClusterMCs.front().size());
  if (K == 0)
    return Fail("clusters must be assigned at least one MC");
  for (const std::vector<unsigned> &Set : ClusterMCs)
    if (Set.size() != K)
      return Fail("clusters must be assigned equally many MCs");

  unsigned NumMCs = static_cast<unsigned>(MCNodes.size());
  if (NumMCs % K != 0)
    return Fail("MC count must be a multiple of MCs-per-cluster");
  unsigned NumGroups = NumMCs / K;
  if (NumClusters % NumGroups != 0)
    return Fail("cluster count must be a multiple of the interleave group "
                "count N'/k");

  // Realizability: each cluster's MC set must be a contiguous interleave
  // group {g*k, ..., g*k + k - 1}, because a run of k consecutive interleave
  // units can only reach k consecutive MC residues.
  std::vector<unsigned> GroupOf(NumClusters);
  std::vector<unsigned> ClustersPerGroup(NumGroups, 0);
  for (unsigned C = 0; C < NumClusters; ++C) {
    std::vector<unsigned> Set = ClusterMCs[C];
    std::sort(Set.begin(), Set.end());
    if (Set.front() % K != 0 || Set.back() != Set.front() + K - 1 ||
        Set.back() >= NumMCs)
      return Fail("cluster MC set is not a contiguous interleave group");
    for (unsigned I = 1; I < K; ++I)
      if (Set[I] != Set[I - 1] + 1)
        return Fail("cluster MC set is not a contiguous interleave group");
    GroupOf[C] = Set.front() / K;
    ++ClustersPerGroup[GroupOf[C]];
  }
  for (unsigned G = 0; G < NumGroups; ++G)
    if (ClustersPerGroup[G] != NumClusters / NumGroups)
      return Fail("interleave groups must serve equally many clusters");

  ClusterMapping Result(M);
  Result.MCNodes = std::move(MCNodes);
  Result.CX = ClustersX;
  Result.CY = ClustersY;
  Result.NX = M.sizeX() / ClustersX;
  Result.NY = M.sizeY() / ClustersY;
  Result.K = K;
  Result.MCsOf.resize(NumClusters);
  for (unsigned C = 0; C < NumClusters; ++C) {
    Result.MCsOf[C] = ClusterMCs[C];
    std::sort(Result.MCsOf[C].begin(), Result.MCsOf[C].end());
  }

  // Sequence ids: within each group, clusters in grid order get ids
  // g, g + G, g + 2G, ... so that sequence id mod G recovers the group.
  Result.SeqOf.assign(NumClusters, 0);
  Result.ClusterOfSeq.assign(NumClusters, 0);
  std::vector<unsigned> NextInGroup(NumGroups, 0);
  for (unsigned C = 0; C < NumClusters; ++C) {
    unsigned G = GroupOf[C];
    unsigned Seq = G + NumGroups * NextInGroup[G]++;
    Result.SeqOf[C] = Seq;
    Result.ClusterOfSeq[Seq] = C;
  }
  return Result;
}

ClusterMapping ClusterMapping::makeLocalityMapping(
    const Mesh &M, std::vector<unsigned> MCNodes, unsigned ClustersX,
    unsigned ClustersY, unsigned MCsPerCluster) {
  unsigned NumClusters = ClustersX * ClustersY;
  unsigned NumMCs = static_cast<unsigned>(MCNodes.size());
  if (MCsPerCluster == 0 || NumMCs % MCsPerCluster != 0)
    reportFatalError("invalid MCs-per-cluster for locality mapping");
  unsigned NumGroups = NumMCs / MCsPerCluster;
  if (NumClusters % NumGroups != 0)
    reportFatalError("cluster count incompatible with interleave groups");
  unsigned PerGroup = NumClusters / NumGroups;

  unsigned NX = M.sizeX() / ClustersX;
  unsigned NY = M.sizeY() / ClustersY;

  // Cost of serving cluster C from group G: total distance from the
  // cluster's cores to the group's MC nodes.
  auto GroupCost = [&](unsigned C, unsigned G) {
    unsigned CXPos = C % ClustersX, CYPos = C / ClustersX;
    std::uint64_t Cost = 0;
    for (unsigned X = CXPos * NX; X < (CXPos + 1) * NX; ++X)
      for (unsigned Y = CYPos * NY; Y < (CYPos + 1) * NY; ++Y)
        for (unsigned J = 0; J < MCsPerCluster; ++J)
          Cost += M.manhattan(M.nodeId({X, Y}),
                              MCNodes[G * MCsPerCluster + J]);
    return Cost;
  };

  // Greedy assignment with capacity PerGroup per group, processing
  // (cluster, group) pairs by ascending cost. Optimal for the symmetric
  // placements used here and near-optimal otherwise.
  struct Pair {
    std::uint64_t Cost;
    unsigned Cluster;
    unsigned Group;
  };
  std::vector<Pair> Pairs;
  for (unsigned C = 0; C < NumClusters; ++C)
    for (unsigned G = 0; G < NumGroups; ++G)
      Pairs.push_back({GroupCost(C, G), C, G});
  std::sort(Pairs.begin(), Pairs.end(), [](const Pair &A, const Pair &B) {
    if (A.Cost != B.Cost)
      return A.Cost < B.Cost;
    if (A.Cluster != B.Cluster)
      return A.Cluster < B.Cluster;
    return A.Group < B.Group;
  });
  std::vector<int> GroupOf(NumClusters, -1);
  std::vector<unsigned> Load(NumGroups, 0);
  unsigned Assigned = 0;
  for (const Pair &P : Pairs) {
    if (Assigned == NumClusters)
      break;
    if (GroupOf[P.Cluster] >= 0 || Load[P.Group] == PerGroup)
      continue;
    GroupOf[P.Cluster] = static_cast<int>(P.Group);
    ++Load[P.Group];
    ++Assigned;
  }
  assert(Assigned == NumClusters && "greedy assignment incomplete");

  std::vector<std::vector<unsigned>> ClusterMCs(NumClusters);
  for (unsigned C = 0; C < NumClusters; ++C)
    for (unsigned J = 0; J < MCsPerCluster; ++J)
      ClusterMCs[C].push_back(
          static_cast<unsigned>(GroupOf[C]) * MCsPerCluster + J);

  std::string Err;
  std::optional<ClusterMapping> Result =
      create(M, std::move(MCNodes), ClustersX, ClustersY,
             std::move(ClusterMCs), &Err);
  if (!Result)
    reportFatalError(Err.c_str());
  return *Result;
}

unsigned ClusterMapping::clusterOfNode(unsigned Node) const {
  Coord C = Topology.coordOf(Node);
  unsigned CXPos = C.X / NX;
  unsigned CYPos = C.Y / NY;
  return CYPos * CX + CXPos;
}

unsigned ClusterMapping::preferredMC(unsigned Node) const {
  const std::vector<unsigned> &MCs = MCsOf[clusterOfNode(Node)];
  unsigned Best = MCs.front();
  for (unsigned MC : MCs)
    if (Topology.manhattan(Node, MCNodes[MC]) <
        Topology.manhattan(Node, MCNodes[Best]))
      Best = MC;
  return Best;
}

double ClusterMapping::averageDistanceToAssignedMCs() const {
  double Sum = 0.0;
  unsigned N = Topology.numNodes();
  for (unsigned Node = 0; Node < N; ++Node) {
    const std::vector<unsigned> &MCs = MCsOf[clusterOfNode(Node)];
    double D = 0.0;
    for (unsigned MC : MCs)
      D += Topology.manhattan(Node, MCNodes[MC]);
    Sum += D / static_cast<double>(MCs.size());
  }
  return Sum / static_cast<double>(N);
}

unsigned ClusterMapping::threadToNode(unsigned ThreadId) const {
  assert(ThreadId < Topology.numNodes() && "thread id out of range");
  // Decomposition mirrors R(r_v): y-in-cluster fastest, then cluster-Y,
  // then x-in-cluster, then cluster-X.
  unsigned T = ThreadId;
  unsigned W = T % NY;
  T /= NY;
  unsigned CYPos = T % CY;
  T /= CY;
  unsigned XX = T % NX;
  T /= NX;
  unsigned CXPos = T;
  assert(CXPos < CX && "thread id decomposition out of range");
  return Topology.nodeId({CXPos * NX + XX, CYPos * NY + W});
}

std::vector<bool> ClusterMapping::acceptableMCsFor(unsigned MC) const {
  unsigned NumMCs = static_cast<unsigned>(MCNodes.size());
  unsigned MaxPair = 0;
  for (unsigned A = 0; A < NumMCs; ++A)
    for (unsigned B = A + 1; B < NumMCs; ++B)
      MaxPair = std::max(MaxPair, Topology.manhattan(MCNodes[A], MCNodes[B]));
  std::vector<bool> Acceptable(NumMCs, false);
  for (unsigned Other = 0; Other < NumMCs; ++Other)
    Acceptable[Other] =
        Other == MC || Topology.manhattan(MCNodes[MC], MCNodes[Other]) < MaxPair;
  return Acceptable;
}
