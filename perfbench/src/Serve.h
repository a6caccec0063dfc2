//===- perfbench/src/Serve.h - The served request mix -----------*- C++ -*-===//
///
/// \file
/// A fresh offchip-serve child process driven by closed-loop clients over
/// its line protocol. Each client sends a seeded sequence with fixed class
/// shares — hits on a pre-warmed Optimize hot set, Optimize misses at
/// unique scales, Simulate misses of a small inline program — and no two
/// requests of a session share content unless they are hits, so hit and
/// miss counts do not depend on timing. After the daemon exits, a seeded
/// subset of the served answers is recomputed in-process and compared bit
/// for bit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Bench.h"

namespace perfbench {

struct ApiProbe {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  bool Correct = true;
};

/// The api layer measured on a workload that does not serve: a short
/// served session whose hot set and Optimize misses use \p Apps. Adds the
/// api.* and serve.* metrics to \p Out.
ApiProbe probeApiLayer(const BenchOptions &Opts,
                       const std::vector<std::string> &Apps, Report &Out);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
