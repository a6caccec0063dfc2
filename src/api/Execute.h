//===- api/Execute.h - One request, one validated answer --------*- C++ -*-===//
///
/// \file
/// The single execution path behind every client: validate the machine,
/// resolve the workload (table app or inline program text), run the
/// layout pass, and — for simulate requests — run the original and
/// optimized variants. The offchip-opt CLI renders its output from the
/// response this produces; the daemon serializes the same response onto
/// the wire. A response computed here is the correctness oracle the
/// service's cached/served answers are compared against bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_EXECUTE_H
#define OFFCHIP_API_EXECUTE_H

#include "api/Request.h"

namespace offchip {

/// Executes \p R synchronously in-process.
///
/// Error taxonomy: an invalid machine config yields Status == Error with
/// MachineConfig::validate() diagnostics; an unknown app name or a program
/// parse failure yields Status == Error with ErrorText. Ok responses carry
/// the plan (and for Simulate requests both variant results) plus the
/// compute wall time in ServerSeconds. CacheHit/Key are left for the
/// service layer — a direct call never consults a cache.
///
/// \p Jobs is ExperimentRunner parallelism for the two-variant simulate
/// fan-out (1 = inline serial execution, 0 = all cores). A non-empty
/// \p TracePrefix makes a simulate request write
/// "<prefix>-original" / "<prefix>-optimized" .trace.json/.series.csv
/// files.
SimResponse executeRequest(const SimRequest &R, unsigned Jobs = 1,
                           const std::string &TracePrefix = "");

} // namespace offchip

#endif // OFFCHIP_API_EXECUTE_H
