//===- perfbench/src/Layers.h - Per-layer probes ----------------*- C++ -*-===//
///
/// \file
/// The traced run's measurements of single layers, taken from outside the
/// program by calling each module's public functions on the workload's own
/// inputs: the access streams a program generates (sim), replayed through
/// an L1 (cache), the mesh (noc), the memory controllers (dram) and the
/// page table (vm); plus the modeled per-layer counts of a finished
/// simulation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Stats.h"

#include "core/ClusterMapping.h"
#include "core/LayoutTransformer.h"
#include "sim/MachineConfig.h"
#include "sim/Metrics.h"

#include <string>
#include <vector>

namespace perfbench {

/// One program a workload simulates, with its reference result.
struct SimProgram {
  std::string Name;
  const offchip::AffineProgram *Program = nullptr;
  const offchip::LayoutPlan *Plan = nullptr;
  offchip::MachineConfig Config;
  unsigned ComputeGapCycles = 0;
  offchip::SimResult Reference;
  /// Best-decile host seconds of one simulation of this program.
  double SampleP10 = 0.0;
};

/// A registered application and its size scale.
struct AppSize {
  std::string Name;
  double Scale = 1.0;
};

/// Adds workloads.build_ms, core.layout_ms and core.emit_ms: \p Apps built,
/// given their original or optimized plans, and emitted as code.
void addBuildLayerMetrics(const std::vector<AppSize> &Apps, bool Optimized,
                          const offchip::MachineConfig &Config,
                          const offchip::ClusterMapping &Mapping,
                          Report &Out);

/// Access-weighted mean off-chip latency of \p Results in cycles: network
/// legs plus memory (queue and bank) latency.
double offchipLatencyCycles(
    const std::vector<const offchip::SimResult *> &Results);

/// Adds the sim/cache/noc/dram/vm metrics of \p Programs to \p Out.
void addSimLayerMetrics(const std::vector<SimProgram> &Programs,
                        const offchip::ClusterMapping &Mapping, Report &Out);

/// The small inline program of serve-mix's simulate class.
const char *tinyProgramText();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
