//===- sim/Metrics.h - Simulation result metrics ----------------*- C++ -*-===//
///
/// \file
/// Everything the evaluation section measures, collected per run:
///   - network latency of on-chip accesses (accesses satisfied by a cache,
///     sampled over those that actually crossed the network),
///   - network latency of off-chip accesses (the requester<->MC legs of
///     DRAM-bound accesses),
///   - memory latency of off-chip accesses (MC queue wait + bank service),
///   - execution time (cycle the last thread finishes),
///   - link-traversal histograms per message class (Figure 15),
///   - per-(node, MC) off-chip request counts (Figure 13),
///   - bank queue occupancy (Figure 18), row-hit rates, page statistics.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SIM_METRICS_H
#define OFFCHIP_SIM_METRICS_H

#include "support/Stats.h"
#include "trace/TraceEvent.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace offchip {

/// Wall-clock attribution of one run over the simulator's phases, in host
/// seconds (not simulated cycles). Collected only when
/// MachineConfig::CollectPhaseTimes is set; the timers read the host clock
/// on the hot path, so they stay off for result-bearing runs.
struct PhaseTimes {
  bool Enabled = false;
  /// Time inside ThreadStream::next (access-stream generation).
  double StreamGenSeconds = 0.0;
  /// Time inside Network::send (route walk + link reservation).
  double NetworkSeconds = 0.0;
  /// Time inside MemoryController access/writeback paths.
  double DramSeconds = 0.0;
  /// End-to-end wall time of the simulation.
  double TotalSeconds = 0.0;
  /// Number of hot-path calls that were wrapped in clock reads. All phase
  /// and total seconds above are already corrected by the calibrated
  /// per-call clock overhead (support/HostClock.h); this records how many
  /// corrections were applied.
  std::uint64_t TimedClockCalls = 0;
};

/// Aggregated results of one simulation run.
struct SimResult {
  // Execution.
  std::uint64_t ExecutionCycles = 0;
  std::vector<std::uint64_t> ThreadFinishCycles;

  // Access class counts.
  std::uint64_t TotalAccesses = 0;
  std::uint64_t L1Hits = 0;
  std::uint64_t LocalL2Hits = 0;   // private L2 local hits
  std::uint64_t RemoteL2Hits = 0;  // private: other-L2; shared: home bank hit
  std::uint64_t OffChipAccesses = 0;

  // Latency samples.
  Accumulator OnChipNetLatency;
  Accumulator OffChipNetLatency;
  Accumulator MemLatency;
  Accumulator AccessLatency; // end-to-end, all accesses

  // Message hop histograms (Figure 15).
  IntHistogram OnChipMsgHops;
  IntHistogram OffChipMsgHops;

  // Traffic map (Figure 13): row-major [node][mc] counts of off-chip
  // requests issued by each node to each MC.
  unsigned NumNodes = 0;
  unsigned NumMCs = 0;
  std::vector<std::uint64_t> NodeToMCTraffic;

  // Memory system.
  double AvgBankQueueOccupancy = 0.0; // mean over MCs (Figure 18)
  double RowHitRate = 0.0;
  std::vector<double> PerMCQueueOccupancy;
  std::vector<std::uint64_t> PerMCAccesses;

  // OS statistics.
  std::uint64_t RedirectedPages = 0;
  std::uint64_t AllocatedPages = 0;

  // Burst coalescing (MachineConfig::Burst; all zero when it is off).
  // Only genuinely widened transactions count: a "burst" of one line is an
  // ordinary access and contributes to neither counter.
  std::uint64_t BurstTransactions = 0; // coalesced wide transactions
  std::uint64_t BurstLines = 0;        // lines those transactions carried
  /// Lines moved per MC channel (MemoryController::linesTransferred).
  /// Conservation: sum == OffChipAccesses - BurstTransactions + BurstLines.
  std::vector<std::uint64_t> PerMCLines;

  // Coherence protocol (MachineConfig::Coherence; all zero when it is off).
  // Under coherence the access classes partition differently:
  //   L1Hits + LocalL2Hits + RemoteL2Hits + OffChipAccesses +
  //   CoherenceUpgrades == TotalAccesses.
  /// Writes that hit a Shared line and paid a directory upgrade round trip.
  std::uint64_t CoherenceUpgrades = 0;
  /// Invalidation messages sent to sharers (each pairs with exactly one
  /// ack: Invalidations == InvalidationAcks always).
  std::uint64_t Invalidations = 0;
  std::uint64_t InvalidationAcks = 0;
  /// Exclusive/Modified lines demoted to Shared by a remote read.
  std::uint64_t Downgrades = 0;
  /// Dirty lines written back to DRAM by an invalidation or downgrade.
  std::uint64_t CoherenceWritebacks = 0;
  /// MESI only: read misses granted Exclusive because no one held the line.
  std::uint64_t ExclusiveGrants = 0;
  /// Sparse directory: tracked entries evicted by broadcast-invalidate.
  std::uint64_t DirEvictions = 0;
  /// Hop counts of coherence messages (upgrade req/grant, inv, ack,
  /// downgrade notify). Identity: total() == 2 * CoherenceUpgrades +
  /// 2 * Invalidations + Downgrades.
  IntHistogram CohMsgHops;

  /// Sum over links of cycles each link was reserved
  /// (Network::totalLinkBusyCycles); the link-utilization numerator of the
  /// EXPERIMENTS coherence table. Deterministic, so compared exactly.
  std::uint64_t LinkBusyCycles = 0;

  // Wall-clock phase attribution (MachineConfig::CollectPhaseTimes).
  PhaseTimes Phases;

  /// Collected trace (MachineConfig::Trace.Enabled); null otherwise.
  /// Shared-const so copying a SimResult stays cheap and comparisons of
  /// the value-typed metrics above are unaffected.
  std::shared_ptr<const TraceData> Trace;

  /// Fraction of all data accesses that went off-chip (Figure 3).
  double offChipFraction() const {
    return TotalAccesses == 0
               ? 0.0
               : static_cast<double>(OffChipAccesses) /
                     static_cast<double>(TotalAccesses);
  }

  std::uint64_t trafficAt(unsigned Node, unsigned MC) const {
    return NodeToMCTraffic[static_cast<std::size_t>(Node) * NumMCs + MC];
  }
};

/// One row of SimResult's field list.
struct ResultField {
  /// The member's C++ name, as equalResults() reports it.
  const char *Name;
  /// Key in the JSON result object.
  const char *Key;
};

/// The one field list of SimResult: calls Visit(ResultField, Member &...)
/// once per simulated metric, in wire order, passing that member of every
/// result in \p R. equalResults() and the JSON reader and writer derive
/// from it. Phases (host wall-clock) and Trace (a shared pointer) describe
/// how the host ran the simulation, not what it simulated, so they are not
/// rows.
template <class Visitor, class... Result>
void forEachResultField(Visitor &&Visit, Result &...R) {
  Visit(ResultField{"ExecutionCycles", "execution_cycles"},
        R.ExecutionCycles...);
  Visit(ResultField{"ThreadFinishCycles", "thread_finish_cycles"},
        R.ThreadFinishCycles...);
  Visit(ResultField{"TotalAccesses", "total_accesses"}, R.TotalAccesses...);
  Visit(ResultField{"L1Hits", "l1_hits"}, R.L1Hits...);
  Visit(ResultField{"LocalL2Hits", "local_l2_hits"}, R.LocalL2Hits...);
  Visit(ResultField{"RemoteL2Hits", "remote_l2_hits"}, R.RemoteL2Hits...);
  Visit(ResultField{"OffChipAccesses", "offchip_accesses"},
        R.OffChipAccesses...);
  Visit(ResultField{"OnChipNetLatency", "onchip_net_latency"},
        R.OnChipNetLatency...);
  Visit(ResultField{"OffChipNetLatency", "offchip_net_latency"},
        R.OffChipNetLatency...);
  Visit(ResultField{"MemLatency", "mem_latency"}, R.MemLatency...);
  Visit(ResultField{"AccessLatency", "access_latency"}, R.AccessLatency...);
  Visit(ResultField{"OnChipMsgHops", "onchip_msg_hops"}, R.OnChipMsgHops...);
  Visit(ResultField{"OffChipMsgHops", "offchip_msg_hops"},
        R.OffChipMsgHops...);
  Visit(ResultField{"NumNodes", "num_nodes"}, R.NumNodes...);
  Visit(ResultField{"NumMCs", "num_mcs"}, R.NumMCs...);
  Visit(ResultField{"NodeToMCTraffic", "node_to_mc_traffic"},
        R.NodeToMCTraffic...);
  Visit(ResultField{"AvgBankQueueOccupancy", "avg_bank_queue_occupancy"},
        R.AvgBankQueueOccupancy...);
  Visit(ResultField{"RowHitRate", "row_hit_rate"}, R.RowHitRate...);
  Visit(ResultField{"PerMCQueueOccupancy", "per_mc_queue_occupancy"},
        R.PerMCQueueOccupancy...);
  Visit(ResultField{"PerMCAccesses", "per_mc_accesses"}, R.PerMCAccesses...);
  Visit(ResultField{"RedirectedPages", "redirected_pages"},
        R.RedirectedPages...);
  Visit(ResultField{"AllocatedPages", "allocated_pages"}, R.AllocatedPages...);
  Visit(ResultField{"BurstTransactions", "burst_transactions"},
        R.BurstTransactions...);
  Visit(ResultField{"BurstLines", "burst_lines"}, R.BurstLines...);
  Visit(ResultField{"PerMCLines", "per_mc_lines"}, R.PerMCLines...);
  Visit(ResultField{"CoherenceUpgrades", "coherence_upgrades"},
        R.CoherenceUpgrades...);
  Visit(ResultField{"Invalidations", "invalidations"}, R.Invalidations...);
  Visit(ResultField{"InvalidationAcks", "invalidation_acks"},
        R.InvalidationAcks...);
  Visit(ResultField{"Downgrades", "downgrades"}, R.Downgrades...);
  Visit(ResultField{"CoherenceWritebacks", "coherence_writebacks"},
        R.CoherenceWritebacks...);
  Visit(ResultField{"ExclusiveGrants", "exclusive_grants"},
        R.ExclusiveGrants...);
  Visit(ResultField{"DirEvictions", "dir_evictions"}, R.DirEvictions...);
  Visit(ResultField{"CohMsgHops", "coh_msg_hops"}, R.CohMsgHops...);
  Visit(ResultField{"LinkBusyCycles", "link_busy_cycles"},
        R.LinkBusyCycles...);
}

/// Exact equality of every forEachResultField() row of two runs, including
/// all accumulator moments, histograms and per-MC tables; the differential
/// check behind the --jobs determinism tests and tools/offchip-fuzz. On
/// mismatch \returns false and names the first differing field in
/// \p WhyNot (if non-null).
bool equalResults(const SimResult &A, const SimResult &B,
                  std::string *WhyNot = nullptr);

/// Relative savings of \p Opt over \p Base: (base - opt) / base, the
/// normalization every bar chart in the paper uses.
double savings(double Base, double Opt);

/// The four headline reductions of Figures 14/16/22 computed from two runs.
struct SavingsSummary {
  double OnChipNetLatency = 0.0;
  double OffChipNetLatency = 0.0;
  double MemLatency = 0.0;
  double ExecutionTime = 0.0;
};

SavingsSummary summarizeSavings(const SimResult &Base, const SimResult &Opt);

/// Arithmetic mean of \p All per metric; all-zero when \p All is empty.
SavingsSummary averageSavings(const std::vector<SavingsSummary> &All);

} // namespace offchip

#endif // OFFCHIP_SIM_METRICS_H
