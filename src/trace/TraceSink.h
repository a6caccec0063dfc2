//===- trace/TraceSink.h - Low-overhead event collection --------*- C++ -*-===//
///
/// \file
/// Collects TraceEvents during a simulation with near-zero cost when
/// disabled (every instrumentation site is guarded by one pointer test) and
/// no locking when enabled.
///
/// Thread-safety: a sink belongs to one simulation and is driven by the
/// one thread running it; concurrent simulations (--jobs) each own a sink
/// and share no trace state.
///
///  - beginAccess(Node, Key) opens the context of the access the machine is
///    about to simulate; every emit() until the next beginAccess is stamped
///    with that key and appended to that node's buffer, so the substrates
///    (Network, MemoryController) need no engine keys.
///  - The aggregate tables (link busy, MC queue, node->MC traffic) are
///    folded in by emit() and are never capped.
///
/// Events live in one ring per node rather than one ordered buffer because
/// TraceConfig::MaxEventsPerNode caps each node's newest window: a single
/// buffer would change which events a capped trace keeps.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_TRACE_TRACESINK_H
#define OFFCHIP_TRACE_TRACESINK_H

#include "trace/TraceEvent.h"

namespace offchip {

class TraceSink {
public:
  /// \p MeshX / \p NumMCs / \p MCNodes describe the machine for the
  /// exporters; NumNodes sizes the per-node buffers.
  TraceSink(const TraceConfig &Config, unsigned NumNodes, unsigned MeshX,
            unsigned NumMCs, std::vector<unsigned> MCNodes);

  //===--------------------------------------------------------------------===//
  // Emission
  //===--------------------------------------------------------------------===//

  /// Opens the per-access context: subsequent emit calls are stamped with
  /// \p Key and appended to \p Node's buffer.
  void beginAccess(unsigned Node, std::uint64_t Key) {
    CtxNode = Node;
    CtxKey = Key;
  }

  void emit(TraceKind Kind, std::uint64_t Start, std::uint32_t Dur,
            std::uint64_t Addr, std::uint32_t Aux);

  //===--------------------------------------------------------------------===//
  // Extraction
  //===--------------------------------------------------------------------===//

  /// Moves everything collected into an exportable TraceData: buffers are
  /// unwound in node order and stably sorted by Key, which reproduces the
  /// simulation's event order (see TraceEvent.h). Call once, after the run.
  TraceData take(unsigned ThreadShift);

  /// Totals across all node rings.
  std::uint64_t emitted() const;
  std::uint64_t dropped() const;

private:
  /// One node's ring: Events[(First + i) % capacity] for i < Count, with
  /// its emitted/dropped tallies; take() sums them.
  struct NodeRing {
    std::vector<TraceEvent> Events;
    std::size_t First = 0;
    std::size_t Count = 0;
    std::uint64_t Emitted = 0;
    std::uint64_t Dropped = 0;
  };

  void push(unsigned Node, const TraceEvent &E);

  TraceConfig Config;
  unsigned MeshX;
  unsigned NumMCs;
  std::vector<unsigned> MCNodes;
  std::vector<NodeRing> Rings;

  unsigned CtxNode = 0;
  std::uint64_t CtxKey = 0;

  // Aggregate tables (written by emit; never ring-capped).
  std::vector<std::vector<std::uint64_t>> LinkBusyPerBucket;
  std::vector<std::vector<TraceData::McSample>> McQueuePerBucket;
  std::vector<std::uint64_t> NodeToMCRequests;
};

} // namespace offchip

#endif // OFFCHIP_TRACE_TRACESINK_H
