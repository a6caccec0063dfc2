//===- harness/Experiment.h - Shared experiment runner ----------*- C++ -*-===//
///
/// \file
/// The glue every bench binary uses: builds the default (M1) and alternate
/// (M2) cluster mappings for a machine, runs an application in its original,
/// optimized, optimal-scheme or first-touch variant, and prints the
/// paper-style rows. All randomness is seeded, so bench output is
/// reproducible run-to-run.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_HARNESS_EXPERIMENT_H
#define OFFCHIP_HARNESS_EXPERIMENT_H

#include "sim/Engine.h"
#include "workloads/AppModel.h"

#include <string>

namespace offchip {

/// Variants a bench can run.
enum class RunVariant {
  /// Original layouts; page policy is round-robin under page interleaving.
  Original,
  /// Customized layouts; OS-assisted (compiler-guided) page allocation
  /// under page interleaving.
  Optimized,
  /// The optimal scheme of Section 2 on the original layouts.
  Optimal,
  /// Original layouts with the OS first-touch policy (Section 6.3; only
  /// meaningful under page interleaving).
  FirstTouch,
};

/// Picks the cluster grid (c_x, c_y) with c_x * c_y == NumGroups that
/// divides the mesh and keeps clusters squarest.
void defaultClusterGrid(unsigned MeshX, unsigned MeshY, unsigned NumGroups,
                        unsigned &CX, unsigned &CY);

/// The mapping of Figure 8a generalized: one MC (interleave group of size 1)
/// per cluster, nearest-assigned.
ClusterMapping makeM1Mapping(const MachineConfig &Config);

/// The mapping of Figure 8b: clusters share interleave groups of
/// \p MCsPerCluster MCs (2 by default).
ClusterMapping makeM2Mapping(const MachineConfig &Config,
                             unsigned MCsPerCluster = 2);

/// \p Config as the Optimized variant runs it: under page interleaving the
/// pages follow the compiler's desired MCs (Section 5.3's OS assist).
MachineConfig optimizedConfig(const MachineConfig &Config);

/// Runs \p App under \p Variant on the machine \p Config with \p Mapping.
SimResult runVariant(const AppModel &App, const MachineConfig &Config,
                     const ClusterMapping &Mapping, RunVariant Variant);

/// Builds the layout plan the given variant uses (exposed so benches can
/// also report Table 2-style coverage).
LayoutPlan planForVariant(const AppModel &App, const MachineConfig &Config,
                          const ClusterMapping &Mapping, RunVariant Variant);

} // namespace offchip

#endif // OFFCHIP_HARNESS_EXPERIMENT_H
