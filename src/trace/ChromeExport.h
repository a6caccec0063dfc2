//===- trace/ChromeExport.h - Chrome/Perfetto trace.json export -*- C++ -*-===//
///
/// \file
/// Renders a TraceData as a Chrome trace-event-format JSON string, loadable
/// in Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps are
/// simulated cycles, not microseconds; every value is an integer, so the
/// output is byte-deterministic — equal TraceData renders to equal bytes,
/// which the trace identity tests rely on.
///
/// Track layout:
///   pid 0 "cores"  — one tid per node; access lifecycle spans.
///   pid 1 "noc"    — one tid per directed link; per-hop occupancy spans.
///   pid 2 "dram"   — one tid per MC; enqueue/bank-service spans.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_TRACE_CHROMEEXPORT_H
#define OFFCHIP_TRACE_CHROMEEXPORT_H

#include "trace/TraceEvent.h"

namespace offchip {

/// The whole trace.json, ready to write to disk.
std::string renderChromeTrace(const TraceData &D);

/// Renders to \p Path; \returns false (and leaves a partial file possible)
/// on I/O failure.
bool writeChromeTrace(const TraceData &D, const std::string &Path);

} // namespace offchip

#endif // OFFCHIP_TRACE_CHROMEEXPORT_H
