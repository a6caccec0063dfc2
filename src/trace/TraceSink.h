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
///  - emit(Node, ...) records a tile-local step of the access the engine is
///    processing for that node.
///  - beginShared/emitShared/endShared bracket the part of an access that
///    reaches shared machine state; emitShared appends to the buffer of the
///    node named by beginShared, so substrates need no engine keys.
///  - The aggregate tables (link busy, MC queue, node->MC traffic) are
///    updated only from emitShared and are never capped.
///
/// Events live in one ring per node rather than one ordered buffer because
/// TraceConfig::MaxEventsPerNode caps each node's newest window: a single
/// buffer would change which events a capped trace keeps.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_TRACE_TRACESINK_H
#define OFFCHIP_TRACE_TRACESINK_H

#include "trace/TraceEvent.h"

#include <cassert>

namespace offchip {

class TraceSink {
public:
  /// \p MeshX / \p NumMCs / \p MCNodes describe the machine for the
  /// exporters; NumNodes sizes the per-node buffers.
  TraceSink(const TraceConfig &Config, unsigned NumNodes, unsigned MeshX,
            unsigned NumMCs, std::vector<unsigned> MCNodes);

  //===--------------------------------------------------------------------===//
  // Node-local emission
  //===--------------------------------------------------------------------===//

  void emit(unsigned Node, std::uint64_t Key, TraceKind Kind,
            std::uint64_t Start, std::uint32_t Dur, std::uint64_t Addr,
            std::uint32_t Aux) {
    push(Node, {Key, Start, Addr, Dur, Aux, static_cast<std::uint16_t>(Node),
                Kind});
  }

  //===--------------------------------------------------------------------===//
  // Shared-state emission
  //===--------------------------------------------------------------------===//

  /// Opens the per-request context: subsequent emitShared calls are stamped
  /// with \p Key and appended to \p Node's buffer. Instrumented substrates
  /// (Network, MemoryController) emit through this context so they need no
  /// knowledge of engine keys.
  void beginShared(unsigned Node, std::uint64_t Key) {
    assert(!CtxActive && "nested shared trace contexts");
    CtxActive = true;
    CtxNode = Node;
    CtxKey = Key;
  }

  void endShared() { CtxActive = false; }

  /// True between beginShared and endShared; substrates use this to skip
  /// emission for un-attributed calls (e.g. direct accessCoherent callers).
  bool sharedActive() const { return CtxActive; }

  void emitShared(TraceKind Kind, std::uint64_t Start, std::uint32_t Dur,
                  std::uint64_t Addr, std::uint32_t Aux);

  //===--------------------------------------------------------------------===//
  // Extraction
  //===--------------------------------------------------------------------===//

  /// Moves everything collected into an exportable TraceData: buffers are
  /// unwound in node order and stably sorted by Key, which reproduces the
  /// engine's event order (see TraceEvent.h). Call once, after the run.
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

  bool CtxActive = false;
  unsigned CtxNode = 0;
  std::uint64_t CtxKey = 0;

  // Aggregate tables (written by emitShared; never ring-capped).
  std::vector<std::vector<std::uint64_t>> LinkBusyPerBucket;
  std::vector<std::vector<TraceData::McSample>> McQueuePerBucket;
  std::vector<std::uint64_t> NodeToMCRequests;
};

} // namespace offchip

#endif // OFFCHIP_TRACE_TRACESINK_H
