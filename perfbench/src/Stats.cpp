//===- perfbench/src/Stats.cpp --------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  std::size_t I = static_cast<std::size_t>(std::max(1.0, Rank)) - 1;
  return V[std::min(I, V.size() - 1)];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::bestDecile(std::vector<double> V, bool HigherIsBetter) {
  if (!HigherIsBetter)
    return quantile(std::move(V), 0.1);
  for (double &X : V)
    X = -X;
  return -quantile(std::move(V), 0.1);
}

Slices::Slices(const std::vector<Timed> &Samples, double Window,
               unsigned Count)
    : Length(Window / Count), Bins(Count) {
  for (const Timed &T : Samples) {
    auto I = static_cast<std::size_t>(std::max(0.0, T.End / Length));
    Bins[std::min<std::size_t>(I, Count - 1)].push_back(T.Seconds);
  }
}

std::vector<double> Slices::rates() const {
  std::vector<double> R;
  for (const std::vector<double> &Slice : Bins)
    R.push_back(static_cast<double>(Slice.size()) / Length);
  return R;
}

std::vector<double> Slices::quantiles(double Q) const {
  std::vector<double> R;
  for (const std::vector<double> &Slice : Bins)
    if (!Slice.empty())
      R.push_back(quantile(Slice, Q));
  return R;
}

void Report::add(std::string Name, double Value, std::string Unit,
                 std::size_t Samples) {
  Metrics.push_back({std::move(Name), Value, std::move(Unit), Samples});
}
