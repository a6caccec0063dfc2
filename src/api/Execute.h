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

class ThreadPool;

/// Executes \p R synchronously in-process.
///
/// Error taxonomy: an invalid machine config yields Status == Error with
/// MachineConfig::validate() diagnostics; an unknown app name or a program
/// parse failure yields Status == Error with ErrorText. Ok responses carry
/// the plan (and for Simulate requests both variant results) plus the
/// compute wall time in ServerSeconds. CacheHit/Key are left for the
/// service layer — a direct call never consults a cache.
///
/// \p Jobs is the simulate pair's parallelism: 1 runs the original and the
/// optimized variant one after the other on the calling thread; any other
/// value (0 included) runs the original on one helper thread beside them.
/// The pair is two runs, so no value uses more than one helper. A
/// non-empty \p TracePrefix makes a simulate request write
/// "<prefix>-original" / "<prefix>-optimized" .trace.json/.series.csv
/// files.
SimResponse executeRequest(const SimRequest &R, unsigned Jobs = 1,
                           const std::string &TracePrefix = "");

/// The same, with a simulate request's original variant submitted to the
/// caller's \p Helpers pool as soon as the program resolves, so it overlaps
/// the layout pass and the optimized run on the calling thread. The call
/// joins that task before it returns or throws. \p Helpers must never wait
/// on its submitter, or the two can deadlock.
SimResponse executeRequest(const SimRequest &R, ThreadPool &Helpers);

} // namespace offchip

#endif // OFFCHIP_API_EXECUTE_H
