//===- sim/Report.cpp -----------------------------------------------------===//

#include "sim/Report.h"

#include "support/Format.h"

using namespace offchip;

std::string offchip::renderSummary(const SimResult &R) {
  std::string Out;
  double Total = static_cast<double>(R.TotalAccesses);
  auto Pct = [&](std::uint64_t N) {
    return Total == 0.0 ? 0.0 : 100.0 * static_cast<double>(N) / Total;
  };
  Out += formatString("execution cycles     %llu\n",
                      static_cast<unsigned long long>(R.ExecutionCycles));
  Out += formatString("total accesses       %llu\n",
                      static_cast<unsigned long long>(R.TotalAccesses));
  Out += formatString("  L1 hits            %5.1f%%\n", Pct(R.L1Hits));
  Out += formatString("  local L2 hits      %5.1f%%\n", Pct(R.LocalL2Hits));
  Out += formatString("  remote/bank hits   %5.1f%%\n", Pct(R.RemoteL2Hits));
  Out += formatString("  off-chip           %5.1f%%\n",
                      Pct(R.OffChipAccesses));
  Out += formatString("on-chip net latency  %.1f cycles (mean)\n",
                      R.OnChipNetLatency.mean());
  Out += formatString("off-chip net latency %.1f cycles (mean)\n",
                      R.OffChipNetLatency.mean());
  Out += formatString("memory latency       %.1f cycles (mean)\n",
                      R.MemLatency.mean());
  Out += formatString("bank queue occupancy %.2f\n", R.AvgBankQueueOccupancy);
  Out += formatString("row-buffer hit rate  %.1f%%\n", 100.0 * R.RowHitRate);
  Out += formatString("hops per message     on-chip %.2f, off-chip %.2f\n",
                      R.OnChipMsgHops.mean(), R.OffChipMsgHops.mean());
  return Out;
}

std::string offchip::renderCsv(const std::vector<NamedResult> &Runs) {
  std::string Out =
      "name,exec_cycles,total_accesses,l1_hits,local_l2_hits,remote_hits,"
      "offchip,offchip_fraction,onchip_net_mean,offchip_net_mean,mem_mean,"
      "bank_queue_occupancy,row_hit_rate\n";
  for (const NamedResult &NR : Runs) {
    const SimResult &R = *NR.Result;
    Out += formatString(
        "%s,%llu,%llu,%llu,%llu,%llu,%llu,%.6f,%.3f,%.3f,%.3f,%.4f,%.4f\n",
        NR.Name.c_str(), static_cast<unsigned long long>(R.ExecutionCycles),
        static_cast<unsigned long long>(R.TotalAccesses),
        static_cast<unsigned long long>(R.L1Hits),
        static_cast<unsigned long long>(R.LocalL2Hits),
        static_cast<unsigned long long>(R.RemoteL2Hits),
        static_cast<unsigned long long>(R.OffChipAccesses),
        R.offChipFraction(), R.OnChipNetLatency.mean(),
        R.OffChipNetLatency.mean(), R.MemLatency.mean(),
        R.AvgBankQueueOccupancy, R.RowHitRate);
  }
  return Out;
}
