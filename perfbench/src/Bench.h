//===- perfbench/src/Bench.h - Workload entry points ------------*- C++ -*-===//
///
/// \file
/// The three workloads and what they share: the machine they run on, the
/// options the command line gives them, and the outcome they return.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Stats.h"

#include "sim/MachineConfig.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct BenchOptions {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Length of the measured window.
  double Seconds = 10.0;
  /// The traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// The offchip-serve binary serve-mix spawns.
  std::string ServeBin;
  /// Where the run may write files (daemon port file, span dump).
  std::string WorkDir;
};

struct RunOutcome {
  Report Metrics;
  /// Samples (simulations) or requests attempted, and how many of them
  /// failed: errored, were refused, or differed from their reference.
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// Set by any failed check, including ones outside the sample count.
  bool Correct = true;

  double okFrac() const {
    return Attempted ? 1.0 - static_cast<double>(Failed) /
                                 static_cast<double>(Attempted)
                     : 0.0;
  }
};

/// The paper's machine: the scaled Table 1 preset (8x8 mesh, 4 corner MCs,
/// private L2) with page interleaving.
offchip::MachineConfig paperMachine();

/// sim-original (\p Optimized false) and sim-optimized.
RunOutcome runSimWorkload(const BenchOptions &Opts, bool Optimized);

/// serve-mix.
RunOutcome runServeWorkload(const BenchOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
