//===- sim/MachineConfig.h - Simulated machine configuration ----*- C++ -*-===//
///
/// \file
/// All parameters of the simulated manycore (Table 1), plus the scaled
/// preset the benches use: the scaled machine keeps every ratio of Table 1
/// (cache geometry, latencies, interleave units) but shrinks capacities ~16x
/// so that the workloads' scaled data sets exercise the same off-chip
/// behaviour at simulation-friendly sizes.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SIM_MACHINECONFIG_H
#define OFFCHIP_SIM_MACHINECONFIG_H

#include "core/LayoutTransformer.h"
#include "dram/MemoryController.h"
#include "noc/Mesh.h"
#include "noc/Network.h"
#include "trace/TraceEvent.h"
#include "vm/VirtualMemory.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace offchip {

class OptionsParser;

/// One violated configuration precondition: the offending field, the value
/// it had, the constraint it broke, and a concrete way out. Returned by
/// MachineConfig::validate() so callers can report every problem at once
/// instead of tripping an assert, a division by zero, or a silent wrap deep
/// inside a constructor.
struct ConfigDiagnostic {
  std::string Field;      // e.g. "MeshX"
  std::string Value;      // the offending value, as text
  std::string Constraint; // what must hold
  std::string Fix;        // suggested fix

  /// "MeshX = 0: must be >= 1 (fix: use the 8x8 Table 1 mesh)"
  std::string str() const;
};

/// Joins diagnostics into one printable block, one per line.
std::string renderDiagnostics(const std::vector<ConfigDiagnostic> &Diags);

/// Full machine + run configuration.
struct MachineConfig {
  // Mesh.
  unsigned MeshX = 8;
  unsigned MeshY = 8;

  // Caches (Table 1).
  std::uint64_t L1SizeBytes = 16 * 1024;
  unsigned L1LineBytes = 64;
  unsigned L1Ways = 2;
  unsigned L1LatencyCycles = 2;
  std::uint64_t L2SizeBytes = 256 * 1024;
  unsigned L2LineBytes = 256;
  unsigned L2Ways = 16;
  unsigned L2LatencyCycles = 10;
  bool SharedL2 = false;

  // Interconnect.
  NocConfig Noc;

  // Memory system.
  unsigned NumMCs = 4;
  MCPlacementKind Placement = MCPlacementKind::Corners;
  /// The MC node list under Placement == Explicit (ignored otherwise): MC
  /// index i sits on node MCNodes[i], so list order fixes the interleave
  /// residues and the contiguous interleave groups of mapping M2.
  /// validate() requires exactly NumMCs distinct in-bounds nodes.
  std::vector<unsigned> MCNodes;
  DramConfig Dram;
  std::uint64_t BytesPerMC = 1ull << 30;

  // Address interleaving & OS policy.
  InterleaveGranularity Granularity = InterleaveGranularity::CacheLine;
  unsigned PageBytes = 4096;
  PageAllocPolicy PagePolicy = PageAllocPolicy::InterleavedRoundRobin;

  // Execution model.
  unsigned ThreadsPerCore = 1;
  /// Cycles of compute between a thread's consecutive accesses (a
  /// two-issue core does several ALU/FP ops per memory reference).
  unsigned ComputeGapCycles = 16;
  /// Extra address-computation cycles charged per access that goes through a
  /// customized layout (the strip-mine/permute div-mod overhead; the paper
  /// measured its total at ~4% of execution time).
  unsigned TransformOverheadCycles = 1;
  /// Directory / home-bank tag lookup latency.
  unsigned DirectoryLatencyCycles = 6;
  /// Request message payload (address + header).
  unsigned RequestBytes = 16;

  /// The optimal scheme of Section 2: every off-chip request is served by
  /// the nearest MC with no network contention; the banks still queue and
  /// keep their row-buffer state. Coherence-free machines only.
  bool OptimalScheme = false;

  /// Coherence protocol modeled on the private-L2 flow. None (the default)
  /// reproduces the paper's coherence-free Figure-2 machine exactly — every
  /// pre-coherence golden stays byte-identical.
  enum class CoherenceProtocol : std::uint8_t { None = 0, MSI, MESI };

  /// Coherence as a first-class scenario (--coherence msi|mesi). When a
  /// protocol is selected, L2 lines carry MSI (or MESI) states, writes to
  /// Shared lines pay a directory upgrade round trip, and invalidation /
  /// downgrade / ack messages travel as real flits over the mesh link
  /// calendars — so coherence traffic contends with data traffic, the
  /// question the paper left open. Only meaningful for private-L2 machines
  /// (the SNUCA flow has no directory); validate() rejects SharedL2 and
  /// burst-coalescing combinations.
  struct CoherenceConfig {
    CoherenceProtocol Protocol = CoherenceProtocol::None;
    /// Bounded (sparse) directory: the directory tracks at most
    /// SparseEntries lines; tracking a new line at capacity evicts a victim
    /// entry by broadcast-invalidating every holder of its line.
    bool SparseDirectory = false;
    /// Tracked-line capacity under SparseDirectory.
    unsigned SparseEntries = 4096;
    /// Payload bytes of an invalidation-ack / upgrade-grant / clean
    /// downgrade-notify message.
    unsigned AckBytes = 8;
    /// Payload bytes of an invalidation or downgrade request message.
    unsigned InvalidateBytes = 8;

    bool enabled() const { return Protocol != CoherenceProtocol::None; }
  };
  CoherenceConfig Coherence;

  /// Burst coalescing at the memory-controller boundary (off by default so
  /// every golden byte-identity run is untouched). When enabled, an
  /// off-chip miss peeks ahead in the triggering thread's access stream
  /// for lines that are adjacent in the same controller's physical space
  /// (sort-and-scan over the window, findInBursts-style), and services the
  /// whole run as one wide DRAM transaction: one bank event at full
  /// row-activation cost plus BurstBeatCycles per extra line, one pair of
  /// NoC reservations carrying every line's flits, and ridealong fills
  /// into the local L2. Changes timing (that is the point), but conserves
  /// lines: sum(PerMCLines) == OffChipAccesses - BurstTransactions +
  /// BurstLines.
  struct BurstCoalesceConfig {
    bool Enabled = false;
    /// How many future accesses of the triggering thread are inspected for
    /// coalescing candidates.
    unsigned WindowAccesses = 256;
    /// Longest run serviced as one transaction (L2 lines, incl. trigger).
    unsigned MaxLines = 8;
  };
  BurstCoalesceConfig Burst;

  /// Collect wall-clock phase timers (stream generation, network, DRAM)
  /// into SimResult::PhaseTimes. Off by default: measuring reads the host
  /// clock around every hot-path call and perturbs wall-clock benchmarks.
  /// Simulated results are identical either way.
  bool CollectPhaseTimes = false;

  /// Tracing subsystem knobs (src/trace). Off by default; when enabled the
  /// run's events and derived time series land in SimResult::Trace and
  /// optionally on disk. Deliberately absent from summary(): tracing must
  /// not perturb any reported result.
  TraceConfig Trace;

  /// Runtime invariant checking (src/check): the engine keeps a
  /// request-retire ledger and the run's end verifies NoC calendar
  /// well-formedness, directory/L2 consistency and MC traffic conservation,
  /// aborting with a message on any violation. Never changes results; like
  /// Trace, deliberately absent from summary().
  bool CheckInvariants = false;

  unsigned numNodes() const { return MeshX * MeshY; }
  unsigned numThreads() const { return numNodes() * ThreadsPerCore; }

  /// Interleave unit in bytes under the configured granularity.
  unsigned interleaveBytes() const {
    return Granularity == InterleaveGranularity::CacheLine ? L2LineBytes
                                                           : PageBytes;
  }

  /// Same ratios, ~16x smaller caches/pages; the benches' default so that
  /// proportionally scaled workloads run in seconds.
  static MachineConfig scaledDefault();

  /// Layout-pass options consistent with this machine.
  LayoutOptions layoutOptions() const;

  /// Checks every precondition the downstream constructors rely on (nonzero
  /// mesh/cache/DRAM geometry, divisibility of line/page/interleave sizes,
  /// MC count vs. placement capacity, cluster-grid feasibility, directory
  /// and VM limits) and returns one diagnostic per violation; empty means
  /// the configuration is safe to simulate. runSimulation() refuses
  /// configurations with a non-empty result.
  std::vector<ConfigDiagnostic> validate() const;

  /// Preconditions of the contiguous-interleave-group mappings (M2 style):
  /// with \p MCsPerCluster >= 2 each cluster is served by the MC group
  /// {g*K .. g*K+K-1}, which only buys locality when each group's MCs sit
  /// near each other. The three built-in placements satisfy this by
  /// construction; an Explicit list can silently violate it, so this
  /// returns a structured diagnostic (not a crash) when some group's
  /// intra-group spread is as large as the placement's global MC spread.
  /// Call on top of validate() when a grouped mapping is requested.
  std::vector<ConfigDiagnostic>
  validateGrouping(unsigned MCsPerCluster) const;

  /// The MC node list this machine places: the built-in generator for the
  /// named kinds, the MCNodes field under Explicit. Only meaningful on a
  /// validate()-clean config.
  std::vector<unsigned> placedMCNodes() const;

  /// One-line human-readable summary for bench headers.
  std::string summary() const;
};

/// Wire and CLI spellings (support/EnumNames.h).
inline const auto &enumNames(MachineConfig::CoherenceProtocol) {
  using P = MachineConfig::CoherenceProtocol;
  static constexpr EnumName<P> Names[] = {
      {P::None, "none"}, {P::MSI, "msi"}, {P::MESI, "mesi"}};
  return Names;
}

/// One wire row of MachineConfig's field list.
struct ConfigField {
  /// Key in the JSON config object.
  const char *Key;
  /// Content-hash tag (api/ContentHash.cpp), or ResultInvariant.
  unsigned char HashTag;
};

/// HashTag of a field that is on the wire but never changes a simulated
/// result, so requests differing only in it share a cache entry.
inline constexpr unsigned char ResultInvariant = 0;

/// The one field list of MachineConfig: calls Visit(ConfigField, Member &...)
/// once per wire row, in wire order, passing that member of every config in
/// \p C. The JSON reader and writer, the content hash and the field-walk
/// tests all derive from it, so a new config field takes one row here plus
/// its validate() rule. Hash tags run in wire order, except that a list row
/// hashes after every scalar row. CollectPhaseTimes and Trace are host-side
/// knobs and stay off the wire.
template <class Visitor, class... Config>
void forEachConfigField(Visitor &&Visit, Config &...C) {
  Visit(ConfigField{"mesh_x", 0x20}, C.MeshX...);
  Visit(ConfigField{"mesh_y", 0x21}, C.MeshY...);
  Visit(ConfigField{"l1_size_bytes", 0x22}, C.L1SizeBytes...);
  Visit(ConfigField{"l1_line_bytes", 0x23}, C.L1LineBytes...);
  Visit(ConfigField{"l1_ways", 0x24}, C.L1Ways...);
  Visit(ConfigField{"l1_latency_cycles", 0x25}, C.L1LatencyCycles...);
  Visit(ConfigField{"l2_size_bytes", 0x26}, C.L2SizeBytes...);
  Visit(ConfigField{"l2_line_bytes", 0x27}, C.L2LineBytes...);
  Visit(ConfigField{"l2_ways", 0x28}, C.L2Ways...);
  Visit(ConfigField{"l2_latency_cycles", 0x29}, C.L2LatencyCycles...);
  Visit(ConfigField{"shared_l2", 0x2A}, C.SharedL2...);
  Visit(ConfigField{"noc_per_hop_cycles", 0x2B}, C.Noc.PerHopCycles...);
  Visit(ConfigField{"noc_link_bytes", 0x2C}, C.Noc.LinkBytes...);
  Visit(ConfigField{"num_mcs", 0x2D}, C.NumMCs...);
  Visit(ConfigField{"placement", 0x2E}, C.Placement...);
  // Written only when non-empty, which validate() allows only under the
  // Explicit placement.
  Visit(ConfigField{"mc_nodes", 0x47}, C.MCNodes...);
  Visit(ConfigField{"dram_banks", 0x2F}, C.Dram.Banks...);
  Visit(ConfigField{"dram_row_buffer_bytes", 0x30}, C.Dram.RowBufferBytes...);
  Visit(ConfigField{"dram_frfcfs_window_rows", 0x31},
        C.Dram.FrFcfsWindowRows...);
  Visit(ConfigField{"dram_row_hit_cycles", 0x32},
        C.Dram.Timing.RowHitCycles...);
  Visit(ConfigField{"dram_row_miss_cycles", 0x33},
        C.Dram.Timing.RowMissCycles...);
  Visit(ConfigField{"bytes_per_mc", 0x34}, C.BytesPerMC...);
  Visit(ConfigField{"granularity", 0x35}, C.Granularity...);
  Visit(ConfigField{"page_bytes", 0x36}, C.PageBytes...);
  Visit(ConfigField{"page_policy", 0x37}, C.PagePolicy...);
  Visit(ConfigField{"threads_per_core", 0x38}, C.ThreadsPerCore...);
  Visit(ConfigField{"compute_gap_cycles", 0x39}, C.ComputeGapCycles...);
  Visit(ConfigField{"transform_overhead_cycles", 0x3A},
        C.TransformOverheadCycles...);
  Visit(ConfigField{"directory_latency_cycles", 0x3B},
        C.DirectoryLatencyCycles...);
  Visit(ConfigField{"request_bytes", 0x3C}, C.RequestBytes...);
  Visit(ConfigField{"optimal_scheme", 0x3D}, C.OptimalScheme...);
  Visit(ConfigField{"burst_coalesce", 0x3E}, C.Burst.Enabled...);
  Visit(ConfigField{"burst_window_accesses", 0x3F}, C.Burst.WindowAccesses...);
  Visit(ConfigField{"burst_max_lines", 0x40}, C.Burst.MaxLines...);
  Visit(ConfigField{"dram_burst_beat_cycles", 0x41},
        C.Dram.Timing.BurstBeatCycles...);
  Visit(ConfigField{"coherence", 0x42}, C.Coherence.Protocol...);
  Visit(ConfigField{"coherence_sparse_dir", 0x43},
        C.Coherence.SparseDirectory...);
  Visit(ConfigField{"coherence_sparse_entries", 0x44},
        C.Coherence.SparseEntries...);
  Visit(ConfigField{"coherence_ack_bytes", 0x45}, C.Coherence.AckBytes...);
  Visit(ConfigField{"coherence_invalidate_bytes", 0x46},
        C.Coherence.InvalidateBytes...);
  Visit(ConfigField{"check_invariants", ResultInvariant}, C.CheckInvariants...);
}

/// Parses a --placement value into \p Kind. \returns a structured
/// diagnostic listing the valid kinds on any other string.
std::optional<ConfigDiagnostic> parsePlacementOption(const std::string &Value,
                                                     MCPlacementKind *Kind);

/// Parses a --coherence value (a protocol spelling other than "none") into
/// \p Protocol. \returns false, leaving \p Protocol untouched, otherwise.
bool parseCoherenceOption(const std::string &Value,
                          MachineConfig::CoherenceProtocol *Protocol);

/// Parses a --mc-nodes list like "0,7,56,63" into \p Nodes: comma-separated
/// digits-only node ids (support/Options' parseUnsignedList). \returns a
/// structured diagnostic on malformed input; bounds/distinctness/count are
/// validate()'s job.
std::optional<ConfigDiagnostic>
parseMCNodeListOption(const std::string &Value, std::vector<unsigned> *Nodes);

// Machine flags, each registered once with one parse rule. Register before
// OptionsParser::parseArgs(); call checkMachineFlags() once every flag and
// binary-local override is applied.

/// --mesh <X>x<Y> (digits only, both >= 1) and --mcs <N>.
void addMeshFlags(OptionsParser &P, MachineConfig &C);

/// The memory-system flags: --placement, --mc-nodes (implies explicit
/// placement), --coherence, --sparse-dir <N> (N >= 1) and
/// --burst-coalesce. A bad placement or node list fails with its
/// structured diagnostic.
void addMemoryFlags(OptionsParser &P, MachineConfig &C);

/// --trace (sets C.Trace.Enabled; \p TraceHelp says which files it
/// writes), --trace-out <prefix> into \p OutPrefix and
/// --trace-sample-cycles <N> (N >= 1).
void addTraceFlags(OptionsParser &P, MachineConfig &C, std::string *OutPrefix,
                   const std::string &TraceHelp);

/// The post-parse step: the cross-flag rules (--sparse-dir needs
/// --coherence), then validate(). Prints the diagnostics on stderr.
/// \returns 2 when the machine is rejected, std::nullopt otherwise.
std::optional<int> checkMachineFlags(const MachineConfig &C);

} // namespace offchip

#endif // OFFCHIP_SIM_MACHINECONFIG_H
