//===- perfbench/src/Host.h - Host facts and host-noise probe --*- C++ -*-===//
///
/// \file
/// What the report says about the machine it ran on: core count, CPU model,
/// peak resident memory, and a fixed pointer chase whose time tracks how
/// contended the shared last-level cache is while the benchmark runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <string>
#include <vector>

namespace perfbench {

/// Online hardware threads (what `nproc` prints without affinity limits).
unsigned hostCores();

/// The CPU model from /proc/cpuinfo, or "unknown".
std::string cpuModel();

/// Peak resident set of this process so far, in MB.
double selfPeakRssMb();

/// Nanoseconds per step of a fixed 4 MB pointer chase: larger than the
/// per-core L2 of current server parts and well inside a shared L3, so it
/// slows when other tenants contend for the L3 and not when this program
/// changes. Printed beside the metrics, never gated on.
double l3ChaseNs();

/// The CPUs this process may run on.
std::vector<int> allowedCpus();

/// Restricts the calling thread to \p Cpus.
void runOn(const std::vector<int> &Cpus);

/// Steady-clock seconds since an arbitrary fixed origin.
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
