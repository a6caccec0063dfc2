//===- sim/Engine.h - Simulation driver -------------------------*- C++ -*-===//
///
/// \file
/// Drives one or more programs (multiprogrammed workloads of Section 6.4)
/// through the machine: threads are bound to nodes in the cluster-consistent
/// order of footnote 5, each thread issues its access stream in order
/// (blocking, with a compute gap between accesses), and contention emerges
/// from the shared network links and DRAM banks.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SIM_ENGINE_H
#define OFFCHIP_SIM_ENGINE_H

#include "sim/Machine.h"
#include "sim/ThreadStream.h"

#include <vector>

namespace offchip {

/// One co-running program.
struct AppInstance {
  const AffineProgram *Program = nullptr;
  const LayoutPlan *Plan = nullptr;
  /// Nodes this app's threads occupy (one entry per core; with T threads per
  /// core the app runs Nodes.size() * T threads).
  std::vector<unsigned> Nodes;
  /// Per-app compute gap; 0 falls back to MachineConfig::ComputeGapCycles.
  unsigned ComputeGapCycles = 0;
};

/// Extra outputs of a run that SimResult (and so the wire format) does not
/// carry: per-app figures for multiprogrammed runs, and host-side work
/// counts that tests pin exactly.
struct RunOutputs {
  /// Cycle each app's last thread finished.
  std::vector<std::uint64_t> AppFinishCycles;
  /// Accesses each app issued; AppFinish/Accesses gives the rate used for
  /// weighted speedup.
  std::vector<std::uint64_t> AppAccesses;
  /// NoC link reservations (one per hop of every message), and how many of
  /// them left the calendar's inline fast path (Network::slowLinkReserves).
  std::uint64_t LinkReserves = 0;
  std::uint64_t SlowLinkReserves = 0;
};

/// Runs \p Apps to completion on a machine built from \p Config and
/// \p Mapping.
SimResult runSimulation(const std::vector<AppInstance> &Apps,
                        const MachineConfig &Config,
                        const ClusterMapping &Mapping,
                        RunOutputs *Out = nullptr);

/// Convenience: runs a single program occupying the whole machine, with
/// threads bound in cluster order.
SimResult runSingle(const AffineProgram &Program, const LayoutPlan &Plan,
                    const MachineConfig &Config, const ClusterMapping &Mapping,
                    unsigned ComputeGapCycles = 0);

/// Splits the machine's cores among \p NumApps apps in cluster-ordered
/// contiguous groups; entry i is app i's node list.
std::vector<std::vector<unsigned>>
partitionNodesForApps(const ClusterMapping &Mapping, unsigned NumApps);

} // namespace offchip

#endif // OFFCHIP_SIM_ENGINE_H
