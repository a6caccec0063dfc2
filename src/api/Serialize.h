//===- api/Serialize.h - JSON wire format of the service API ----*- C++ -*-===//
///
/// \file
/// JSON encoding of the request/response vocabulary — the offchip-serve
/// line protocol. One request or response per line, a JSON object each:
///
///   {"id":"r1","method":"simulate","app":"swim","scale":0.5,
///    "config":{"mesh_x":8,"num_mcs":4,...},"mcs_per_cluster":1}
///   {"id":"r2","method":"optimize","program":"program p\n..."}
///
///   {"id":"r1","status":"ok","cache":"miss","key":"<32 hex>",
///    "server_seconds":1.25,"plan":{...},"original":{...},"optimized":{...}}
///   {"id":"r1","status":"error","error":"...","diagnostics":[...]}
///   {"id":"r1","status":"overloaded"}
///
/// The config and result objects are the field lists of MachineConfig and
/// SimResult (forEachConfigField, forEachResultField), in list order.
/// Config objects are partial: absent fields keep MachineConfig
/// scaledDefault() values, unknown keys are rejected (the same philosophy
/// as the CLI's strict option parsing — a typo must not silently simulate
/// a different machine). Result objects must carry every key. Integers are
/// plain digit tokens that fit their field; doubles are %.17g tokens, so a
/// result survives the wire bit-identically.
///
/// Each type has one serializer, which streams its text through JsonWriter
/// (api/Json.h); toJson is that text parsed back into a tree, for callers
/// that inspect or compare it.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_SERIALIZE_H
#define OFFCHIP_API_SERIALIZE_H

#include "api/Json.h"
#include "api/Request.h"

namespace offchip {

//===----------------------------------------------------------------------===//
// Machine config
//===----------------------------------------------------------------------===//

/// Full encoding (every supported key, current values), as a parsed tree.
JsonValue toJson(const MachineConfig &C);

/// Applies a (partial) config object onto \p C. Unknown keys, wrong types
/// and unknown enum spellings fail with a message naming the key.
bool machineConfigFromJson(const JsonValue &V, MachineConfig *C,
                           std::string *Err);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

JsonValue toJson(const SimResult &R);
bool simResultFromJson(const JsonValue &V, SimResult *R, std::string *Err);

JsonValue toJson(const PlanSummary &P);
bool planSummaryFromJson(const JsonValue &V, PlanSummary *P,
                         std::string *Err);

//===----------------------------------------------------------------------===//
// Requests and responses
//===----------------------------------------------------------------------===//

JsonValue toJson(const SimRequest &R);
bool requestFromJson(const JsonValue &V, SimRequest *R, std::string *Err);

JsonValue toJson(const SimResponse &R);
bool responseFromJson(const JsonValue &V, SimResponse *R, std::string *Err);

/// One '\n'-terminated protocol line, streamed.
std::string writeRequestLine(const SimRequest &R);
std::string writeResponseLine(const SimResponse &R);

} // namespace offchip

#endif // OFFCHIP_API_SERIALIZE_H
