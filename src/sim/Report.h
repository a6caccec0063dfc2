//===- sim/Report.h - Result rendering and CSV export -----------*- C++ -*-===//
///
/// \file
/// Renders SimResults for humans (aligned text summaries) and machines
/// (CSV, one metric row per run). Benches print; this module formats, so
/// results can also be piped into plotting scripts.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SIM_REPORT_H
#define OFFCHIP_SIM_REPORT_H

#include "sim/Metrics.h"

#include <string>
#include <vector>

namespace offchip {

/// One named run (e.g. "wupwise/original") for tabular export.
struct NamedResult {
  std::string Name;
  const SimResult *Result = nullptr;
};

/// Multi-line human-readable summary of one run.
std::string renderSummary(const SimResult &R);

/// CSV with one row per run: name, execution cycles, access-class counts,
/// mean latencies, off-chip fraction, bank statistics. Includes a header
/// row.
std::string renderCsv(const std::vector<NamedResult> &Runs);

} // namespace offchip

#endif // OFFCHIP_SIM_REPORT_H
