//===- support/HostClock.h - Host clock overhead calibration ----*- C++ -*-===//
///
/// \file
/// The opt-in phase timers (MachineConfig::CollectPhaseTimes) wrap hot-path
/// calls in steady_clock reads. Each wrapped call inflates two measurements:
/// the phase accumulator absorbs the time between the two clock reads even
/// for an empty body, and the run's end-to-end wall time grows by the full
/// cost of both reads. Calibrating that overhead once per process lets the
/// reported phase and total times subtract it, so `timed_total_s` tracks the
/// untimed `seconds` instead of inflating it.
///
/// hostCpuModel() names the host for the committed measurements.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_HOSTCLOCK_H
#define OFFCHIP_SUPPORT_HOSTCLOCK_H

#include <cstdint>
#include <string>

namespace offchip {

/// Measured cost of one `T0 = now(); Accum += now() - T0` timing pair.
struct ClockCalibration {
  /// Seconds the pair *reports* for an empty body (what leaks into a phase
  /// accumulator per timed call).
  double ApparentPerCall = 0.0;
  /// Wall-clock seconds the pair *costs* the run per timed call (what leaks
  /// into the end-to-end total per timed call).
  double WallPerCall = 0.0;
};

/// The process-wide calibration, measured once on first use (~10 ms).
const ClockCalibration &clockCalibration();

/// \returns \p AccumSeconds with the apparent per-call overhead of
/// \p TimedCalls timing pairs subtracted, clamped at zero.
double correctedPhaseSeconds(double AccumSeconds, std::uint64_t TimedCalls);

/// \returns \p TotalSeconds with the wall cost of \p TimedCalls timing
/// pairs subtracted, clamped at zero.
double correctedTotalSeconds(double TotalSeconds, std::uint64_t TimedCalls);

/// The host CPU's marketing name from /proc/cpuinfo ("model name" on
/// x86/arm64 distros, "cpu model"/"Processor" elsewhere), or "unknown"
/// when unreadable — so a committed measurement (BENCH_perf.json,
/// BENCH_serve.json) records which machine produced it alongside its core
/// count.
std::string hostCpuModel();

} // namespace offchip

#endif // OFFCHIP_SUPPORT_HOSTCLOCK_H
