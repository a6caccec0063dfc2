//===- dram/MemoryController.cpp ------------------------------------------===//

#include "dram/MemoryController.h"

#include "trace/TraceSink.h"

#include <algorithm>
#include <chrono>

using namespace offchip;

namespace {

/// RAII accumulator for the opt-in per-call wall-clock timing. Counts the
/// timed calls alongside the seconds so the reader can subtract the
/// calibrated clock-read overhead (support/HostClock.h).
class ScopedTimer {
public:
  ScopedTimer(bool Enabled, double &Accum, std::uint64_t &Calls)
      : Accum(Enabled ? &Accum : nullptr), Calls(&Calls) {
    if (this->Accum)
      T0 = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (Accum) {
      *Accum += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
      ++*Calls;
    }
  }

private:
  double *Accum;
  std::uint64_t *Calls;
  std::chrono::steady_clock::time_point T0;
};

} // namespace

MemoryController::MemoryController(unsigned Id, DramConfig Config)
    : Id(Id), Config(Config), RowDiv(Config.RowBufferBytes),
      BankDiv(Config.Banks), Banks(Config.Banks) {}

bool MemoryController::isRowHit(Bank &B, std::int64_t Row) const {
  for (std::size_t I = 0; I < B.RecentRows.size(); ++I) {
    if (B.RecentRows[I] != Row)
      continue;
    // Refresh recency.
    B.RecentRows.erase(B.RecentRows.begin() + static_cast<std::ptrdiff_t>(I));
    B.RecentRows.insert(B.RecentRows.begin(), Row);
    return true;
  }
  B.RecentRows.insert(B.RecentRows.begin(), Row);
  if (B.RecentRows.size() > Config.FrFcfsWindowRows)
    B.RecentRows.pop_back();
  return false;
}

DramAccessResult MemoryController::access(std::uint64_t PhysAddr,
                                          std::uint64_t Time) {
  return accessBurst(&PhysAddr, 1, Time);
}

DramAccessResult MemoryController::accessBurst(const std::uint64_t *Addrs,
                                               unsigned NumAddrs,
                                               std::uint64_t Time) {
  ScopedTimer Timer(TimeCalls, TimedSeconds, TimedCalls);
  unsigned BankIdx = bankOf(Addrs[0]);
  Bank &B = Banks[BankIdx];

  std::uint64_t Start = std::max(Time, B.BusyUntil);
  bool Hit = isRowHit(B, rowOf(Addrs[0]));
  std::uint64_t Service =
      Hit ? Config.Timing.RowHitCycles : Config.Timing.RowMissCycles;
  // Followers stream out of the open row at beat rate; a row change inside
  // the burst (possible when a run straddles a row-buffer boundary) pays
  // the full activation cost again and opens the new row.
  std::int64_t OpenRow = rowOf(Addrs[0]);
  for (unsigned I = 1; I < NumAddrs; ++I) {
    std::int64_t Row = rowOf(Addrs[I]);
    if (Row == OpenRow) {
      Service += Config.Timing.BurstBeatCycles;
    } else {
      Service += isRowHit(B, Row) ? Config.Timing.RowHitCycles
                                  : Config.Timing.RowMissCycles;
      OpenRow = Row;
    }
  }

  DramAccessResult R;
  R.QueueCycles = Start - Time;
  R.ServiceCycles = Service;
  R.CompleteTime = Start + Service;
  R.RowHit = Hit;

  B.BusyUntil = R.CompleteTime;

  ++Accesses; // one transaction, however wide
  LinesTransferred += NumAddrs;
  if (Hit)
    ++RowHits;
  TotalQueueCycles += R.QueueCycles;
  if (Sink) {
    Sink->emit(TraceKind::MCEnqueue, Time,
               static_cast<std::uint32_t>(R.QueueCycles), Addrs[0], Id);
    Sink->emit(TraceKind::BankService, Start,
               static_cast<std::uint32_t>(Service), Addrs[0],
               (Id << 16) | (BankIdx << 1) | (Hit ? 1u : 0u));
  }
  return R;
}

void MemoryController::writeback(std::uint64_t PhysAddr, std::uint64_t Time) {
  // A writeback occupies the bank like a read but nothing waits for it, so
  // it contributes to contention without queue-latency accounting.
  ScopedTimer Timer(TimeCalls, TimedSeconds, TimedCalls);
  Bank &B = Banks[bankOf(PhysAddr)];
  std::int64_t Row = rowOf(PhysAddr);
  std::uint64_t Start = std::max(Time, B.BusyUntil);
  bool Hit = isRowHit(B, Row);
  std::uint64_t Service =
      Hit ? Config.Timing.RowHitCycles : Config.Timing.RowMissCycles;
  B.BusyUntil = Start + Service;
}

double MemoryController::averageQueueOccupancy(std::uint64_t Now) const {
  if (Now == 0)
    return 0.0;
  return static_cast<double>(TotalQueueCycles) / static_cast<double>(Now);
}
