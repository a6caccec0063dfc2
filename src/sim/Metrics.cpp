//===- sim/Metrics.cpp ----------------------------------------------------===//

#include "sim/Metrics.h"

#include <algorithm>

using namespace offchip;

namespace {

/// Whether two accumulators agree on every exposed moment.
bool sameAccumulator(const Accumulator &A, const Accumulator &B) {
  return A.count() == B.count() && A.sum() == B.sum() && A.min() == B.min() &&
         A.max() == B.max();
}

/// Whether two histograms hold identical buckets.
bool sameHistogram(const IntHistogram &A, const IntHistogram &B) {
  if (A.total() != B.total())
    return false;
  unsigned Top = std::max(A.maxNonEmptyBucket(), B.maxNonEmptyBucket());
  for (unsigned I = 0; I <= Top; ++I)
    if (A.countAt(I) != B.countAt(I))
      return false;
  return true;
}

} // namespace

bool offchip::equalResults(const SimResult &A, const SimResult &B,
                           std::string *WhyNot) {
  auto Fail = [WhyNot](const char *Field) {
    if (WhyNot)
      *WhyNot = Field;
    return false;
  };
  if (A.ExecutionCycles != B.ExecutionCycles)
    return Fail("ExecutionCycles");
  if (A.ThreadFinishCycles != B.ThreadFinishCycles)
    return Fail("ThreadFinishCycles");
  if (A.TotalAccesses != B.TotalAccesses)
    return Fail("TotalAccesses");
  if (A.L1Hits != B.L1Hits)
    return Fail("L1Hits");
  if (A.LocalL2Hits != B.LocalL2Hits)
    return Fail("LocalL2Hits");
  if (A.RemoteL2Hits != B.RemoteL2Hits)
    return Fail("RemoteL2Hits");
  if (A.OffChipAccesses != B.OffChipAccesses)
    return Fail("OffChipAccesses");
  if (!sameAccumulator(A.OnChipNetLatency, B.OnChipNetLatency))
    return Fail("OnChipNetLatency");
  if (!sameAccumulator(A.OffChipNetLatency, B.OffChipNetLatency))
    return Fail("OffChipNetLatency");
  if (!sameAccumulator(A.MemLatency, B.MemLatency))
    return Fail("MemLatency");
  if (!sameAccumulator(A.AccessLatency, B.AccessLatency))
    return Fail("AccessLatency");
  if (!sameHistogram(A.OffNetLatencyHist, B.OffNetLatencyHist))
    return Fail("OffNetLatencyHist");
  if (!sameHistogram(A.OnChipMsgHops, B.OnChipMsgHops))
    return Fail("OnChipMsgHops");
  if (!sameHistogram(A.OffChipMsgHops, B.OffChipMsgHops))
    return Fail("OffChipMsgHops");
  if (A.NumNodes != B.NumNodes)
    return Fail("NumNodes");
  if (A.NumMCs != B.NumMCs)
    return Fail("NumMCs");
  if (A.NodeToMCTraffic != B.NodeToMCTraffic)
    return Fail("NodeToMCTraffic");
  if (A.AvgBankQueueOccupancy != B.AvgBankQueueOccupancy)
    return Fail("AvgBankQueueOccupancy");
  if (A.RowHitRate != B.RowHitRate)
    return Fail("RowHitRate");
  if (A.PerMCQueueOccupancy != B.PerMCQueueOccupancy)
    return Fail("PerMCQueueOccupancy");
  if (A.PerMCAccesses != B.PerMCAccesses)
    return Fail("PerMCAccesses");
  if (A.RedirectedPages != B.RedirectedPages)
    return Fail("RedirectedPages");
  if (A.AllocatedPages != B.AllocatedPages)
    return Fail("AllocatedPages");
  if (A.BurstTransactions != B.BurstTransactions)
    return Fail("BurstTransactions");
  if (A.BurstLines != B.BurstLines)
    return Fail("BurstLines");
  if (A.PerMCLines != B.PerMCLines)
    return Fail("PerMCLines");
  if (A.CoherenceUpgrades != B.CoherenceUpgrades)
    return Fail("CoherenceUpgrades");
  if (A.Invalidations != B.Invalidations)
    return Fail("Invalidations");
  if (A.InvalidationAcks != B.InvalidationAcks)
    return Fail("InvalidationAcks");
  if (A.Downgrades != B.Downgrades)
    return Fail("Downgrades");
  if (A.CoherenceWritebacks != B.CoherenceWritebacks)
    return Fail("CoherenceWritebacks");
  if (A.ExclusiveGrants != B.ExclusiveGrants)
    return Fail("ExclusiveGrants");
  if (A.DirEvictions != B.DirEvictions)
    return Fail("DirEvictions");
  if (!sameHistogram(A.CohMsgHops, B.CohMsgHops))
    return Fail("CohMsgHops");
  if (A.LinkBusyCycles != B.LinkBusyCycles)
    return Fail("LinkBusyCycles");
  // SimResult::Phases is deliberately not compared: it describes how the
  // host executed the run (wall-clock), not what was simulated.
  return true;
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
