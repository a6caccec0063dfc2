//===- perfbench/src/Stats.h - Estimators and the metric report -*- C++ -*-===//
///
/// \file
/// The few estimators the benchmark uses (nearest-rank quantiles, geometric
/// means) and the Report every workload fills: named metrics, each with its
/// unit and the number of samples behind it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile \p Q in [0, 1] of \p V; 0 when \p V is empty.
double quantile(std::vector<double> V, double Q);

/// Geometric mean of positive values; 0 when \p V is empty.
double geomean(const std::vector<double> &V);

/// The better end of \p V at its best decile: the nearest-rank 10th
/// percentile when lower is better, the 90th from the top when higher is.
double bestDecile(std::vector<double> V, bool HigherIsBetter);

/// One timed operation of a measured window: when it finished (seconds
/// since the window opened) and how long it took.
struct Timed {
  double End = 0.0;
  double Seconds = 0.0;
};

/// A measured window cut into equal slices by completion time. Host
/// contention comes in regimes of seconds, so a statistic taken per slice
/// and read at its best decile describes the program rather than how much
/// of the window the host spent contended. It needs many operations per
/// slice: thousands of requests, not a few simulations.
class Slices {
public:
  Slices(const std::vector<Timed> &Samples, double Window, unsigned Count);
  /// Completions per second, per slice.
  std::vector<double> rates() const;
  /// The \p Q-quantile of operation time in seconds, per non-empty slice.
  std::vector<double> quantiles(double Q) const;

private:
  double Length;
  std::vector<std::vector<double>> Bins; // operation times per slice
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  /// Samples the value was estimated from (1 for exact or single values).
  std::size_t Samples = 1;
};

/// The metrics one run reports, in insertion order.
class Report {
public:
  void add(std::string Name, double Value, std::string Unit,
           std::size_t Samples = 1);
  const std::vector<Metric> &metrics() const { return Metrics; }

private:
  std::vector<Metric> Metrics;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
