//===- sim/Metrics.cpp ----------------------------------------------------===//

#include "sim/Metrics.h"

#include <algorithm>

using namespace offchip;

namespace {

/// Whether two accumulators agree on every exposed moment.
bool same(const Accumulator &A, const Accumulator &B) {
  return A.count() == B.count() && A.sum() == B.sum() && A.min() == B.min() &&
         A.max() == B.max();
}

/// Whether two histograms hold identical buckets.
bool same(const IntHistogram &A, const IntHistogram &B) {
  if (A.total() != B.total())
    return false;
  unsigned Top = std::max(A.maxNonEmptyBucket(), B.maxNonEmptyBucket());
  for (unsigned I = 0; I <= Top; ++I)
    if (A.countAt(I) != B.countAt(I))
      return false;
  return true;
}

template <class T> bool same(const T &A, const T &B) { return A == B; }

} // namespace

bool offchip::equalResults(const SimResult &A, const SimResult &B,
                           std::string *WhyNot) {
  const char *Differs = nullptr;
  forEachResultField(
      [&Differs](ResultField F, const auto &X, const auto &Y) {
        if (!Differs && !same(X, Y))
          Differs = F.Name;
      },
      A, B);
  if (Differs && WhyNot)
    *WhyNot = Differs;
  return !Differs;
}

double offchip::savings(double Base, double Opt) {
  if (Base <= 0.0)
    return 0.0;
  return (Base - Opt) / Base;
}

SavingsSummary offchip::averageSavings(const std::vector<SavingsSummary> &All) {
  SavingsSummary Avg;
  if (All.empty())
    return Avg;
  for (const SavingsSummary &S : All) {
    Avg.OnChipNetLatency += S.OnChipNetLatency;
    Avg.OffChipNetLatency += S.OffChipNetLatency;
    Avg.MemLatency += S.MemLatency;
    Avg.ExecutionTime += S.ExecutionTime;
  }
  double N = static_cast<double>(All.size());
  Avg.OnChipNetLatency /= N;
  Avg.OffChipNetLatency /= N;
  Avg.MemLatency /= N;
  Avg.ExecutionTime /= N;
  return Avg;
}

SavingsSummary offchip::summarizeSavings(const SimResult &Base,
                                         const SimResult &Opt) {
  SavingsSummary S;
  S.OnChipNetLatency =
      savings(Base.OnChipNetLatency.mean(), Opt.OnChipNetLatency.mean());
  S.OffChipNetLatency =
      savings(Base.OffChipNetLatency.mean(), Opt.OffChipNetLatency.mean());
  S.MemLatency = savings(Base.MemLatency.mean(), Opt.MemLatency.mean());
  S.ExecutionTime = savings(static_cast<double>(Base.ExecutionCycles),
                            static_cast<double>(Opt.ExecutionCycles));
  return S;
}
