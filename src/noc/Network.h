//===- noc/Network.h - Contention-aware mesh network model ------*- C++ -*-===//
///
/// \file
/// A link-occupancy network model for the 2D mesh. Messages follow XY routes;
/// each directed link serializes the flits that cross it, so concurrent
/// traffic through shared links stretches both on-chip and off-chip access
/// latencies — the contention effect the paper's optimization reduces.
///
/// The model is transaction-granular rather than flit-granular: a message
/// reserves each link of its route in order, waiting when a link is still
/// busy with earlier flits. This keeps single-message latency equal to
/// hops * PerHopCycles + (flits - 1) in an idle network (wormhole pipelining)
/// while still charging queueing where routes overlap.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_NOC_NETWORK_H
#define OFFCHIP_NOC_NETWORK_H

#include "noc/Mesh.h"
#include "support/MathUtil.h"
#include "support/Pow2.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace offchip {

class TraceSink;

/// NoC timing/width parameters (Table 1 defaults).
struct NocConfig {
  /// Cycles for the head flit to traverse one router + link.
  unsigned PerHopCycles = 4;
  /// Link width in bytes; one flit per cycle per link.
  unsigned LinkBytes = 16;
};

/// Classification of a message; Network::send() accepts and ignores it.
enum class MsgClass : std::uint8_t {
  Request = 0,
  Data,
  Writeback,
  Invalidate,
  Downgrade,
  Ack,
};

/// Outcome of injecting one message.
struct MessageResult {
  /// Cycle at which the message tail reaches the destination.
  std::uint64_t ArrivalTime = 0;
  /// ArrivalTime minus injection time.
  std::uint64_t NetworkCycles = 0;
  /// Links traversed (the Manhattan distance).
  unsigned Hops = 0;
};

/// The mesh interconnect with per-link occupancy tracking. Each link keeps
/// a short list of reserved transmission intervals and places new messages
/// into the earliest sufficient gap (virtual cut-through with time-ordered
/// per-link scheduling). A plain busy-until scalar would let a response
/// reserving far-future cycles (behind a DRAM access) block idle link time
/// before it, inflating latencies at low utilization.
class Network {
public:
  Network(const Mesh &M, NocConfig Config);

  const Mesh &mesh() const { return Topology; }
  const NocConfig &config() const { return Config; }

  /// Sends \p Bytes from \p Src to \p Dst at \p Time, reserving links along
  /// the XY route. Src == Dst costs zero network cycles. The trailing
  /// MsgClass is ignored: it is kept, unnamed and defaulted, only because
  /// the benchmark driver (perfbench/src/Layers.cpp) still passes
  /// MsgClass::Request and MsgClass::Data.
  MessageResult send(unsigned Src, unsigned Dst, unsigned Bytes,
                     std::uint64_t Time, MsgClass = MsgClass::Data);

  /// Tells the network that no future send() can carry a time below \p T
  /// (the simulation engine processes accesses in ready-time order, so the
  /// current event time is such a floor). Allows reservations entirely
  /// before the floor to be reclaimed; pruning by each message's own time
  /// would be unsound because responses inject at future completion times
  /// while later-processed requests inject earlier.
  void advanceFloor(std::uint64_t T) { Floor = std::max(Floor, T); }

  /// Latency of the same message in an idle network; does not reserve links.
  /// Used by the optimal scheme of Section 2, whose off-chip requests incur
  /// no contention.
  MessageResult sendIdeal(unsigned Src, unsigned Dst, unsigned Bytes,
                          std::uint64_t Time) const;

  /// Sum over links of cycles each link was reserved; a congestion proxy.
  std::uint64_t totalLinkBusyCycles() const { return LinkBusyCycles; }

  /// Link reservations made by send(), one per hop.
  std::uint64_t linkReserves() const { return LinkReserves; }

  /// The share of linkReserves() that took the calendar's out-of-line path
  /// (LinkState::reserveSlow); the rest were inline appends. Deterministic,
  /// so tests pin it exactly.
  std::uint64_t slowLinkReserves() const;

  /// Starts accumulating wall-clock time spent inside send() (the phase
  /// timing of SimResult::PhaseTimes). Off by default: measuring reads the
  /// clock twice per message.
  void enableCallTiming() { TimeCalls = true; }

  /// Wall-clock seconds spent in send() since construction; zero
  /// unless enableCallTiming() was called. Raw accumulation — the caller
  /// subtracts the calibrated clock-read overhead (support/HostClock.h)
  /// using timedCalls().
  double timedSeconds() const { return TimedSeconds; }

  /// Number of send() calls that were wrapped in clock reads; the basis for
  /// the calibrated overhead correction.
  std::uint64_t timedCalls() const { return TimedCalls; }

  /// Attaches the tracing sink. When set, every link reservation emits one
  /// NocHop event (Start = booked cycle, Dur = flits, Aux = directed link
  /// id) into the sink's open access context. sendIdeal() reserves nothing
  /// and therefore traces nothing.
  void setTraceSink(TraceSink *S) { Sink = S; }

  /// Invariant check (src/check): every link's reservation calendar must be
  /// sorted by start, non-overlapping, and made of non-empty intervals past
  /// its lazily-reclaimed head. \returns true when well-formed; otherwise
  /// false with a description of the first violation in \p Why (if
  /// non-null).
  bool checkCalendars(std::string *Why) const;

  /// Reservation calendar of one directed link. Public so the calendar's
  /// unit tests and micro-benchmarks can drive it directly; the simulator
  /// reaches it only through send().
  struct LinkState {
    struct Interval {
      std::uint64_t Start;
      std::uint64_t End;
    };
    /// Pruning runs only once this many entries sit past Head: a short
    /// calendar is cheaper to scan than to compact, and the appends that
    /// dominate reserve() then never look at the head at all.
    static constexpr std::size_t PruneMinLive = 8;

    /// Future reservations at [Head, end), sorted by start, non-overlapping.
    /// Contiguous storage with a lazily-compacted head: pruning entries that
    /// ended before the injection floor just advances Head, and the dead
    /// prefix is erased in bulk once it dominates the buffer. Entries past
    /// Head may also have ended before the floor until the next prune; no
    /// reservation at or after the floor can see them.
    std::vector<Interval> Reserved;
    std::size_t Head = 0;
    /// reserve() calls that went out of line to reserveSlow().
    std::uint64_t SlowReserves = 0;

    /// Books \p Flits cycles at the earliest t >= \p From where
    /// [t, t + Flits) is idle and \returns t. \p Floor is the
    /// engine-guaranteed lower bound on all future injection times (and so
    /// on \p From); earlier reservations are reclaimed.
    ///
    /// Inline fast path for a short calendar: an empty link, or a message
    /// landing at or after the last reservation's start, which queues
    /// behind everything — an append or a back-merge. Sorted
    /// non-overlapping intervals have monotone Ends, so the max over all
    /// Ends with Start <= From is just the last End.
    std::uint64_t reserve(std::uint64_t From, unsigned Flits,
                          std::uint64_t Floor) {
      if (Reserved.size() - Head < PruneMinLive) {
        if (Reserved.size() == Head) {
          Reserved.push_back({From, From + Flits});
          return From;
        }
        if (From >= Reserved.back().Start)
          return append(From, Flits);
      }
      return reserveSlow(From, Flits, Floor);
    }

    /// Queues \p Flits behind the last reservation, merging when adjacent.
    std::uint64_t append(std::uint64_t From, unsigned Flits) {
      Interval &Back = Reserved.back();
      std::uint64_t Start = std::max(From, Back.End);
      if (Start == Back.End)
        Back.End += Flits;
      else
        Reserved.push_back({Start, Start + Flits});
      return Start;
    }

    /// Everything else: prune, then append or insert into a gap.
    std::uint64_t reserveSlow(std::uint64_t From, unsigned Flits,
                              std::uint64_t Floor);
  };

private:
  unsigned flitsFor(unsigned Bytes) const {
    return static_cast<unsigned>(std::max<std::uint64_t>(
        1, FlitDiv.div(Bytes + Config.LinkBytes - 1)));
  }

  Mesh Topology;
  NocConfig Config;
  /// Shift/mask decode of node id -> (X, Y) for route computation.
  Pow2Divider XDiv;
  /// Shift/mask decode of bytes -> flits.
  Pow2Divider FlitDiv;
  std::vector<LinkState> Links;
  std::uint64_t Floor = 0;
  std::uint64_t LinkBusyCycles = 0;
  std::uint64_t LinkReserves = 0;
  bool TimeCalls = false;
  double TimedSeconds = 0.0;
  std::uint64_t TimedCalls = 0;
  TraceSink *Sink = nullptr;
};

} // namespace offchip

#endif // OFFCHIP_NOC_NETWORK_H
