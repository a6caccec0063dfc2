//===- trace/TraceSink.cpp ------------------------------------------------===//

#include "trace/TraceSink.h"

#include <algorithm>

using namespace offchip;

TraceSink::TraceSink(const TraceConfig &Config, unsigned NumNodes,
                     unsigned MeshX, unsigned NumMCs,
                     std::vector<unsigned> MCNodes)
    : Config(Config), MeshX(MeshX), NumMCs(NumMCs),
      MCNodes(std::move(MCNodes)), Rings(NumNodes),
      LinkBusyPerBucket(static_cast<std::size_t>(NumNodes) * 4),
      McQueuePerBucket(NumMCs),
      NodeToMCRequests(static_cast<std::size_t>(NumNodes) * NumMCs, 0) {
  if (Config.SampleCycles == 0)
    this->Config.SampleCycles = 1;
  if (this->Config.MaxEventsPerNode == 0)
    this->Config.MaxEventsPerNode = 1;
}

void TraceSink::push(unsigned Node, const TraceEvent &E) {
  NodeRing &R = Rings[Node];
  ++R.Emitted;
  std::size_t Cap = static_cast<std::size_t>(Config.MaxEventsPerNode);
  if (R.Events.size() < Cap) {
    R.Events.push_back(E);
    ++R.Count;
    return;
  }
  // Ring full: overwrite the oldest (keep the newest window). Deterministic
  // — a pure function of the node's event sequence.
  R.Events[R.First] = E;
  R.First = (R.First + 1) % Cap;
  ++R.Dropped;
}

void TraceSink::emit(TraceKind Kind, std::uint64_t Start, std::uint32_t Dur,
                     std::uint64_t Addr, std::uint32_t Aux) {
  push(CtxNode, {CtxKey, Start, Addr, Dur, Aux,
                 static_cast<std::uint16_t>(CtxNode), Kind});

  // Fold into the aggregate tables. These are never ring-capped, so the
  // derived time series and the Figure 13 cross-check cover the whole run
  // even when the event dump is truncated.
  std::size_t Bucket = static_cast<std::size_t>(Start / Config.SampleCycles);
  switch (Kind) {
  case TraceKind::NocHop: {
    std::vector<std::uint64_t> &Series = LinkBusyPerBucket[Aux];
    if (Series.size() <= Bucket)
      Series.resize(Bucket + 1, 0);
    Series[Bucket] += Dur;
    break;
  }
  case TraceKind::MCEnqueue: {
    std::vector<TraceData::McSample> &Series = McQueuePerBucket[Aux];
    if (Series.size() <= Bucket)
      Series.resize(Bucket + 1);
    Series[Bucket].Enqueued += 1;
    Series[Bucket].WaitCycles += Dur;
    NodeToMCRequests[static_cast<std::size_t>(CtxNode) * NumMCs + Aux] += 1;
    break;
  }
  default:
    break;
  }
}

std::uint64_t TraceSink::emitted() const {
  std::uint64_t N = 0;
  for (const NodeRing &R : Rings)
    N += R.Emitted;
  return N;
}

std::uint64_t TraceSink::dropped() const {
  std::uint64_t N = 0;
  for (const NodeRing &R : Rings)
    N += R.Dropped;
  return N;
}

TraceData TraceSink::take(unsigned ThreadShift) {
  TraceData D;
  D.Config = Config;
  D.NumNodes = static_cast<unsigned>(Rings.size());
  D.MeshX = MeshX;
  D.NumMCs = NumMCs;
  D.ThreadShift = ThreadShift;
  D.MCNodes = std::move(MCNodes);
  D.EmittedEvents = emitted();
  D.DroppedEvents = dropped();

  std::size_t Total = 0;
  for (const NodeRing &R : Rings)
    Total += R.Count;
  D.Events.reserve(Total);
  for (NodeRing &R : Rings) {
    // Unwind the ring oldest-first so per-node emission order survives.
    for (std::size_t I = 0; I < R.Count; ++I)
      D.Events.push_back(R.Events[(R.First + I) % R.Events.size()]);
    R.Events.clear();
    R.Count = 0;
    R.First = 0;
  }
  // Stable sort by key: same-key events all come from one node's buffer,
  // already in emission order, so this is the simulation's event order
  // (see TraceEvent.h).
  std::stable_sort(
      D.Events.begin(), D.Events.end(),
      [](const TraceEvent &A, const TraceEvent &B) { return A.Key < B.Key; });

  D.LinkBusyPerBucket = std::move(LinkBusyPerBucket);
  D.McQueuePerBucket = std::move(McQueuePerBucket);
  D.NodeToMCRequests = std::move(NodeToMCRequests);
  return D;
}
