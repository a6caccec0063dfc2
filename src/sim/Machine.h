//===- sim/Machine.h - The simulated manycore -------------------*- C++ -*-===//
///
/// \file
/// Assembles mesh network, per-node caches, directory, memory controllers
/// and virtual memory into the two access flows of Figure 2:
///
/// Private L2 (Figure 2a): L1 -> local L2 -> request to the tag directory
/// cached at the owning MC's node (path 1); the directory either forwards to
/// a sharing L2 (on-chip access) or schedules DRAM (path 2) and returns the
/// data (path 3).
///
/// Shared L2 / SNUCA (Figure 2b): L1 -> home bank chosen by cache-line
/// interleaving of the physical address (path 1); on a bank miss the home
/// bank fetches from the MC (paths 2-4) and responds to the L1 (path 5).
///
/// The optimal scheme of Section 2 short-circuits the off-chip legs: the
/// nearest MC serves the request over an uncontended route. Its banks still
/// queue and keep row-buffer state as usual, and everything else (caches,
/// on-chip transfers) stays identical, so the on-chip latency improvement of
/// Figure 4 emerges purely from the removed network contention.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SIM_MACHINE_H
#define OFFCHIP_SIM_MACHINE_H

#include "cache/Cache.h"
#include "cache/Directory.h"
#include "check/Invariants.h"
#include "core/ClusterMapping.h"
#include "dram/MemoryController.h"
#include "noc/Network.h"
#include "sim/MachineConfig.h"
#include "sim/Metrics.h"
#include "support/Pow2.h"
#include "vm/VirtualMemory.h"

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

namespace offchip {

class ThreadStream;

/// The simulated machine.
class Machine {
public:
  /// \p VM is owned by the caller (it spans all co-running programs).
  /// Construct the machine after the programs' address maps: the directory
  /// is sized from what \p VM has reserved by then.
  Machine(const MachineConfig &Config, const ClusterMapping &Mapping,
          VirtualMemory &VM);

  /// Simulates one access issued by \p Node at \p Time; records metrics into
  /// \p R. \returns the completion cycle. The engine calls this once per
  /// access in (time, thread) order, which every shared structure (network
  /// calendar, directory, MCs, virtual memory) relies on. One flow per L2
  /// organisation: the private flow (L1, own L2, then privateMissTail), the
  /// SNUCA flow (accessShared) and, with a coherence protocol configured,
  /// the MSI/MESI flow (accessCoherent). \p Lookahead, when non-null, is the
  /// issuing thread's stream; the burst coalescer (Config.Burst) peeks it
  /// for adjacent future off-chip lines. \p Key is the access's packed event
  /// key; with a trace sink attached every event of the access is stamped
  /// with it.
  std::uint64_t access(unsigned Node, std::uint64_t VA, bool IsWrite,
                       std::uint64_t Time, SimResult &R,
                       ThreadStream *Lookahead = nullptr,
                       std::uint64_t Key = 0);

  /// True when a coherence protocol is configured
  /// (MachineConfig::Coherence). access() then routes every access through
  /// accessCoherent.
  bool coherent() const { return Config.Coherence.enabled(); }

  /// Attaches the tracing sink to the machine and its substrates (network,
  /// MCs). access() opens the sink's per-access context, and the machine
  /// and the substrates emit into it. Null detaches.
  void setTraceSink(TraceSink *S) {
    Sink = S;
    Net.setTraceSink(S);
    for (MemoryController &MC : MCs)
      MC.setTraceSink(S);
  }

  /// Fills the end-of-run memory-system statistics (queue occupancy, row-hit
  /// rate, page counters) into \p R given the final cycle \p Now.
  void finalize(SimResult &R, std::uint64_t Now) const;

  /// Verifies the machine's structural invariants against the finalized
  /// result \p R (Config.CheckInvariants; see src/check/Invariants.h):
  /// access-class counts partition TotalAccesses, latency sample counts
  /// match their access classes, NoC link calendars are well-formed, MC
  /// traffic is conserved, and (private-L2 machines) the directory's sharer
  /// sets agree with the L2 contents. Read-only; \returns one message per
  /// violation, empty when the run is clean. Call after finalize().
  std::vector<std::string> checkInvariants(const SimResult &R) const;

  const MachineConfig &config() const { return Config; }
  const std::vector<unsigned> &mcNodes() const { return MCNodes; }
  const Network &network() const { return Net; }
  const Directory &directory() const { return Dir; }

private:
  //===--------------------------------------------------------------------===//
  // Access pieces (composed by access())
  //===--------------------------------------------------------------------===//

  /// Fills the node's L1 with \p VA completing at \p Done; dirty victims
  /// write back into the next level.
  void fillL1(unsigned Node, std::uint64_t VA, bool IsWrite,
              std::uint64_t Done);

  /// Closes an access issued at \p Time that missed the L1 and completes at
  /// \p Done: fills the L1, traces the L1Fill (and, with \p TraceComplete,
  /// the Complete span) and samples the latency. \returns \p Done.
  std::uint64_t completeL1Miss(unsigned Node, std::uint64_t VA, bool IsWrite,
                               std::uint64_t Time, std::uint64_t Done,
                               SimResult &R, bool TraceComplete = true);

  /// Retires the L2 victim \p Ev evicted from \p Node's slice at \p T: drops
  /// \p Node from the directory's sharers and writes a dirty victim back to
  /// its MC (fire-and-forget).
  void retireL2Victim(unsigned Node, const Cache::Eviction &Ev,
                      std::uint64_t T);

  /// On-chip access of the directory flows: the directory at \p DirNode,
  /// reached by \p Req and done with its lookup at \p T, forwards to the L2
  /// of \p Source, which returns the line to \p Node. Records the remote
  /// hit; \returns the data arrival.
  std::uint64_t forwardFromL2(unsigned Node, unsigned Source, unsigned DirNode,
                              std::uint64_t PA, const MessageResult &Req,
                              std::uint64_t T, SimResult &R);

  /// Records an off-chip access of the directory flows: request leg \p Req,
  /// DRAM access \p Dram at \p MC and data leg \p Data.
  void recordOffChip(unsigned Node, unsigned MC, const MessageResult &Req,
                     const DramAccessResult &Dram, const MessageResult &Data,
                     SimResult &R);

  std::uint64_t physFor(std::uint64_t VA, unsigned Node);
  unsigned mcForPhys(std::uint64_t PA) const;

  /// Private-L2 flow past the local L2 miss (directory, DRAM, L2 fill).
  /// \p VA is the access's virtual address (the burst coalescer matches
  /// window accesses by virtual line; under cache-line interleaving
  /// VA == PA).
  std::uint64_t privateMissTail(unsigned Node, std::uint64_t PA,
                                std::uint64_t VA, bool IsWrite,
                                std::uint64_t Time, SimResult &R,
                                ThreadStream *Lookahead);
  /// Burst coalescing (Config.Burst): consults the stream's scan state
  /// (advanced over \p Lookahead's next WindowAccesses accesses) for
  /// off-chip lines adjacent to \p TriggerLine on controller \p MC and
  /// leaves the maximal run containing the trigger — ascending line
  /// addresses, at most Burst.MaxLines — in \p Run. A run of one means
  /// nothing coalesced. Matching is by virtual line: under page
  /// interleaving a run never leaves the trigger's page (physical
  /// contiguity across page borders is an allocator accident), so a
  /// candidate's virtual line is the trigger's plus the same delta.
  void collectBurst(unsigned MC, std::uint64_t TriggerLine,
                    std::uint64_t TriggerVA, ThreadStream &Lookahead,
                    std::vector<std::uint64_t> &Run);
  /// Shared-L2 flow past the L1 miss.
  std::uint64_t accessShared(unsigned Node, std::uint64_t PA, bool IsWrite,
                             std::uint64_t Time, SimResult &R);

  //===--------------------------------------------------------------------===//
  // Coherence protocol pieces (accessCoherent)
  //===--------------------------------------------------------------------===//

  /// The access flow under the configured MSI/MESI protocol (coherent()
  /// must hold; private L2s only): L1, own L2 with protocol permission,
  /// directory, invalidations, downgrades, DRAM. \returns the completion
  /// cycle.
  std::uint64_t accessCoherent(unsigned Node, std::uint64_t VA, bool IsWrite,
                               std::uint64_t Time, SimResult &R);

  /// Coherent flow past an L1 + own-L2 miss: directory lookup, then remote
  /// forward (with write-invalidation or read-downgrade of other copies) or
  /// DRAM, then the coherent L2 fill. \p T is the time the request leaves
  /// the node (L1 + L2 latency already charged).
  std::uint64_t coherentMissTail(unsigned Node, std::uint64_t PA,
                                 bool IsWrite, std::uint64_t T, SimResult &R);

  /// Write-to-Shared upgrade: request to the directory, invalidation of
  /// every other holder, grant back once all acks are in. Leaves the line
  /// Modified with \p Node its exclusive owner. \returns the grant arrival.
  std::uint64_t coherentUpgrade(unsigned Node, std::uint64_t Line,
                                std::uint64_t T, SimResult &R);

  /// Sends an invalidation to every holder of \p Line except \p Except
  /// (pass >= 64 for none) and collects their acks; a Modified holder's ack
  /// carries the dirty line back to its MC. Messages inject at \p T.
  /// \returns the latest ack arrival (or \p T with no holders).
  std::uint64_t invalidateSharers(std::uint64_t Line, unsigned Except,
                                  unsigned DirNode, std::uint64_t T,
                                  SimResult &R);

  /// Drops \p Line from node's L2 and back-invalidates the L1 chunks it
  /// covers. \returns true when the L2 actually held the line.
  bool invalidateLineAt(unsigned Node, std::uint64_t Line);

  /// L1 half of invalidateLineAt (L1s are virtually indexed, so each chunk's
  /// physical address is reverse-translated under page interleaving).
  void backInvalidateL1(unsigned Node, std::uint64_t Line);

  /// Fills node's L2 with \p Line in protocol state \p St, handling the
  /// victim coherently (directory removal, L1 back-invalidation, dirty
  /// writeback) and recording \p Node as a sharer — evicting a sparse
  /// directory entry by broadcast-invalidate first when at capacity.
  void coherentL2Insert(unsigned Node, std::uint64_t Line, bool IsWrite,
                        LineState St, std::uint64_t T, SimResult &R);

  /// The directory-tracking half of coherentL2Insert (sparse eviction +
  /// addSharer), also used when no L2 fill is needed.
  void coherentTrack(std::uint64_t Line, unsigned Node, std::uint64_t T,
                     SimResult &R);

  MachineConfig Config;
  /// Shift/mask decode of the per-access address arithmetic (generic div
  /// fallback for non-power-of-two configurations).
  Pow2Divider InterleaveDiv; // interleaveBytes()
  Pow2Divider MCDiv;         // NumMCs
  Pow2Divider L1LineDiv;     // L1LineBytes
  Pow2Divider L2LineDiv;     // L2LineBytes
  Pow2Divider NodeDiv;       // numNodes() (shared-L2 home bank)
  const ClusterMapping *Mapping;
  VirtualMemory *VM;
  Mesh Topology;
  Network Net;
  std::vector<unsigned> MCNodes;
  std::vector<MemoryController> MCs;
  std::vector<Cache> L1s;
  std::vector<Cache> L2s; // private slices or shared banks
  Directory Dir;          // private-L2 sharer tracking
  /// Invalidation/ack pairing (coherent mode; see src/check).
  CoherenceLedger CohLedger;
  TraceSink *Sink = nullptr;
  /// Nearest MC per node (optimal scheme, first-touch preference).
  std::vector<unsigned> NearestMCOfNode;
  /// First-touch preference: the nearest MC of the node's cluster.
  std::vector<unsigned> FirstTouchMCOfNode;
  /// Incremental burst-scan state, one per thread stream: the window scan
  /// advances a per-stream cursor so every generated access is examined
  /// once in total, not once per off-chip miss (triggers are frequent
  /// enough that per-trigger rescans of overlapping windows would cost
  /// more host time than the DRAM events coalescing removes). Touched
  /// only inside privateMissTail.
  struct BurstScanState {
    /// Direct-mapped: the last access index (plus one, so zero means
    /// never) at which each virtual line was seen in the stream. Virtual
    /// lines need no translation during the speculative scan (future
    /// pages of a first-touch stream are not even mapped yet). A
    /// colliding line overwrites — deterministic, costs only a missed
    /// coalescing opportunity.
    struct Slot {
      std::uint64_t Line = ~0ull;
      std::uint64_t LastSeen = 0;
    };
    std::array<Slot, 512> Table;
    /// Absolute access index the scan has covered, exclusive.
    std::uint64_t ScannedTo = 0;
  };
  std::unordered_map<const ThreadStream *, BurstScanState> BurstScans;
  /// Coalescer scratch (reused across privateMissTail calls).
  std::vector<std::uint64_t> BurstRun;
  std::vector<std::uint64_t> BurstPAs;
};

} // namespace offchip

#endif // OFFCHIP_SIM_MACHINE_H
