//===- api/Request.h - Service request/response value types -----*- C++ -*-===//
///
/// \file
/// The single request/response vocabulary every client of the optimizer
/// speaks — the offchip-opt CLI, the offchip-serve daemon, the storm
/// driver and the tests all build a SimRequest, hand it to
/// executeRequest() / SimService, and consume a SimResponse. The CLI and
/// the daemon therefore share one validated code path: config problems are
/// MachineConfig::validate() diagnostics either way, and a simulation
/// served over the socket is bit-identical to one run in-process.
///
/// A request names its workload either as one of the application table's
/// apps (workloads/AppModel.h) plus a size scale, or as inline program
/// text in the affine/ProgramText.h format. Requests are value types:
/// copyable, hashable (api/ContentHash.h) and JSON-serializable
/// (api/Serialize.h).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_REQUEST_H
#define OFFCHIP_API_REQUEST_H

#include "sim/MachineConfig.h"
#include "sim/Metrics.h"
#include "support/EnumNames.h"

#include <optional>
#include <string>
#include <vector>

namespace offchip {

/// What the client wants done with the workload.
enum class RequestKind {
  /// Run the layout pass only: the response carries the plan summary and
  /// transformed source, no simulation.
  Optimize,
  /// Layout pass plus original-vs-optimized simulation.
  Simulate,
};

/// Wire spellings of a request's "method" (support/EnumNames.h).
inline const auto &enumNames(RequestKind) {
  static constexpr EnumName<RequestKind> Names[] = {
      {RequestKind::Optimize, "optimize"}, {RequestKind::Simulate, "simulate"}};
  return Names;
}

/// The workload a request operates on.
struct WorkloadSpec {
  /// Application name (workloads/AppModel.h findApp); empty selects
  /// \ref ProgramText instead.
  std::string App;
  /// Array-extent scale for table apps (1.0 = default sizing).
  double SizeScale = 1.0;
  /// Inline textual affine program (affine/ProgramText.h format); used only
  /// when \ref App is empty.
  std::string ProgramText;

  bool isApp() const { return !App.empty(); }
};

/// One optimize/simulate request.
struct SimRequest {
  /// Client-chosen correlation id, echoed verbatim in the response. Not
  /// part of the content hash.
  std::string Id;

  RequestKind Kind = RequestKind::Simulate;
  WorkloadSpec Workload;

  /// The machine to optimize for / simulate on. Result-invariant knobs
  /// (Trace, CheckInvariants, CollectPhaseTimes) are excluded from the
  /// content hash, so e.g. a request with invariant checking on hits the
  /// cache entry an unchecked request populated.
  MachineConfig Config = MachineConfig::scaledDefault();

  /// 1 selects the M1 mapping (one MC per cluster, Figure 8a); >1 the
  /// M2-style mapping with that many MCs per shared interleave group.
  unsigned MCsPerCluster = 1;
};

/// One per-array row of the layout plan, pre-rendered for display (the
/// strings the offchip-opt table has always printed).
struct PlanArrayRow {
  std::string Name;
  bool Optimized = false;
  std::string U;    // the chosen transformation matrix, "[[0, 1], [1, 0]]"
  std::string Note; // decision note (why kept, approximation error, ...)
};

/// The layout-pass outcome: what the optimizer decided and the transformed
/// source, plus the mapping geometry the decisions were made against.
struct PlanSummary {
  std::string ProgramName;
  unsigned NumClusters = 0;
  unsigned CoresPerClusterX = 0;
  unsigned CoresPerClusterY = 0;
  unsigned MCsPerCluster = 0;
  /// Accessed arrays only, in ArrayId order.
  std::vector<PlanArrayRow> Arrays;
  double ArraysOptimizedFraction = 0.0;
  double RefsSatisfiedFraction = 0.0;
  /// emitProgram() output (Figure 9c style).
  std::string TransformedSource;
};

enum class ResponseStatus {
  Ok,
  /// The request was invalid: config diagnostics in \ref
  /// SimResponse::Diagnostics, or a workload problem in \ref
  /// SimResponse::ErrorText.
  Error,
  /// Admission control rejected the request (bounded queue full). Retry
  /// later; nothing was computed.
  Overloaded,
};

/// Wire spellings of a response's "status" (support/EnumNames.h).
inline const auto &enumNames(ResponseStatus) {
  using S = ResponseStatus;
  static constexpr EnumName<S> Names[] = {
      {S::Ok, "ok"}, {S::Error, "error"}, {S::Overloaded, "overloaded"}};
  return Names;
}

/// The answer to one SimRequest.
struct SimResponse {
  std::string Id; // echoed from the request
  ResponseStatus Status = ResponseStatus::Ok;

  /// Non-config error ("cannot parse program: ...", "unknown app '...'");
  /// set when Status == Error and Diagnostics is empty.
  std::string ErrorText;
  /// MachineConfig::validate() output; set when Status == Error and the
  /// config was at fault.
  std::vector<ConfigDiagnostic> Diagnostics;

  /// Layout outcome (Ok responses).
  PlanSummary Plan;
  /// Simulation results (Ok responses to Simulate requests): the original
  /// layouts and the optimized layouts run.
  std::optional<SimResult> Original;
  std::optional<SimResult> Optimized;

  /// True when this answer came from the content-addressed result cache.
  bool CacheHit = false;
  /// True when this answer was merged onto another client's identical
  /// in-flight request (single-flight): the simulation ran once and this
  /// response repeats its result. Mutually exclusive with CacheHit.
  bool Singleflight = false;
  /// The request's canonical content key (32 hex digits), reported so
  /// clients can correlate cache behaviour; empty for in-process runs that
  /// bypassed the cache entirely.
  std::string Key;
  /// Host seconds the service spent computing the underlying result (0 is
  /// never reported for a genuinely computed response; cache hits repeat
  /// the cold compute time of the entry they hit).
  double ServerSeconds = 0.0;

  bool ok() const { return Status == ResponseStatus::Ok; }
};

} // namespace offchip

#endif // OFFCHIP_API_REQUEST_H
