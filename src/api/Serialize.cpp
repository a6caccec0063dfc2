//===- api/Serialize.cpp --------------------------------------------------===//

#include "api/Serialize.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>
#include <unordered_map>

using namespace offchip;

namespace {

bool keyError(std::string *Err, std::string_view Key, std::string_view What) {
  if (Err)
    *Err = "field '" + std::string(Key) + "': " + std::string(What);
  return false;
}

//===----------------------------------------------------------------------===//
// Wire values: one encoder and one decoder per member type of the field
// lists (sim/MachineConfig.h, sim/Metrics.h). A decoder returns an empty
// string on success and otherwise what it expected.
//===----------------------------------------------------------------------===//

void encode(JsonWriter &W, std::uint64_t V) { W.value(V); }
void encode(JsonWriter &W, unsigned V) { W.value(V); }
void encode(JsonWriter &W, bool V) { W.value(V); }
void encode(JsonWriter &W, double V) { W.value(V); }

template <class E>
  requires std::is_enum_v<E>
void encode(JsonWriter &W, E V) {
  W.value(enumName(V));
}

template <class T> void encode(JsonWriter &W, const std::vector<T> &V) {
  W.beginArray();
  for (const T &X : V)
    encode(W, X);
  W.endArray();
}

void encode(JsonWriter &W, const Accumulator &A) {
  W.beginObject();
  W.key("count").value(A.count());
  W.key("sum").value(A.sum());
  W.key("min").value(A.min());
  W.key("max").value(A.max());
  W.endObject();
}

void encode(JsonWriter &W, const IntHistogram &H) {
  W.beginObject();
  W.key("cap").value(H.cap());
  W.key("buckets").beginArray();
  if (H.total() != 0)
    for (unsigned I = 0; I <= H.maxNonEmptyBucket(); ++I)
      W.value(H.countAt(I));
  W.endArray();
  W.endObject();
}

/// Integers: a plain digit token that fits the member. A sign, fraction,
/// exponent or overflow is an error, never a wrapped or truncated value.
template <class T>
  requires std::is_same_v<T, std::uint64_t> || std::is_same_v<T, unsigned>
std::string decode(const JsonValue &J, T *Out) {
  std::optional<std::uint64_t> V;
  if (J.isNumber())
    V = J.asU64();
  if (!V || *V > std::numeric_limits<T>::max())
    return "expected a non-negative integer";
  *Out = static_cast<T>(*V);
  return {};
}

std::string decode(const JsonValue &J, double *Out) {
  if (!J.isNumber())
    return "expected a number";
  *Out = J.asDouble();
  return {};
}

std::string decode(const JsonValue &J, bool *Out) {
  if (!J.isBool())
    return "expected true or false";
  *Out = J.asBool();
  return {};
}

std::string decode(const JsonValue &J, std::string *Out) {
  if (!J.isString())
    return "expected a string";
  *Out = J.asString();
  return {};
}

template <class E>
  requires std::is_enum_v<E>
std::string decode(const JsonValue &J, E *Out) {
  if (!J.isString() || !enumFromName(J.asString(), Out))
    return "expected one of: " + enumNameList<E>();
  return {};
}

template <class T> std::string decode(const JsonValue &J, std::vector<T> *Out) {
  if (!J.isArray())
    return "expected an array";
  Out->assign(J.size(), T());
  for (std::size_t I = 0; I < J.size(); ++I)
    if (std::string E = decode(J.at(I), &(*Out)[I]); !E.empty())
      return "element " + std::to_string(I) + ": " + E;
  return {};
}

std::string decode(const JsonValue &J, Accumulator *A);
std::string decode(const JsonValue &J, IntHistogram *H);

/// Decodes member \p Key of object \p Obj; a missing member fails like a
/// value of the wrong kind.
template <class T>
std::string decodeMember(const JsonValue &Obj, std::string_view Key, T *Out) {
  static const JsonValue Missing;
  const JsonValue *V = Obj.find(Key);
  return decode(V ? *V : Missing, Out);
}

std::string decode(const JsonValue &J, Accumulator *A) {
  std::uint64_t Count = 0;
  double Sum = 0, Min = 0, Max = 0;
  if (!J.isObject() || !decodeMember(J, "count", &Count).empty() ||
      !decodeMember(J, "sum", &Sum).empty() ||
      !decodeMember(J, "min", &Min).empty() ||
      !decodeMember(J, "max", &Max).empty())
    return "expected an accumulator {count, sum, min, max}";
  *A = Accumulator::fromMoments(Count, Sum, Min, Max);
  return {};
}

std::string decode(const JsonValue &J, IntHistogram *H) {
  unsigned Cap = 0;
  std::vector<std::uint64_t> Buckets;
  if (!J.isObject() || !decodeMember(J, "cap", &Cap).empty() ||
      !decodeMember(J, "buckets", &Buckets).empty())
    return "expected a histogram {cap, buckets}";
  *H = IntHistogram::fromBuckets(Cap, std::move(Buckets));
  return {};
}

/// Reads member \p Key of \p Obj into \p Out, or fails with a diagnostic
/// naming the key.
template <class T>
bool read(const JsonValue &Obj, std::string_view Key, T *Out,
          std::string *Err) {
  std::string E = decodeMember(Obj, Key, Out);
  return E.empty() || keyError(Err, Key, E);
}

/// The row index of each config wire key, in forEachConfigField order.
const std::unordered_map<std::string_view, std::size_t> &configRows() {
  static const auto Rows = [] {
    std::unordered_map<std::string_view, std::size_t> M;
    MachineConfig C;
    forEachConfigField(
        [&M](ConfigField F, const auto &) { M.emplace(F.Key, M.size()); }, C);
    return M;
  }();
  return Rows;
}

} // namespace

//===----------------------------------------------------------------------===//
// MachineConfig and SimResult: both directions walk the field lists.
//===----------------------------------------------------------------------===//

static void encode(JsonWriter &W, const MachineConfig &C) {
  W.beginObject();
  forEachConfigField(
      [&W](ConfigField F, const auto &Member) {
        // A list row is written only when non-empty: validate() allows an
        // mc_nodes list only under the Explicit placement, and every other
        // config carries no mc_nodes key.
        if constexpr (requires { Member.empty(); })
          if (Member.empty())
            return;
        W.key(F.Key);
        encode(W, Member);
      },
      C);
  W.endObject();
}

bool offchip::machineConfigFromJson(const JsonValue &V, MachineConfig *C,
                                    std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "config", "expected an object");
  // Match every member to its row first, then decode in one walk.
  const auto &Rows = configRows();
  std::vector<const JsonValue *> ByRow(Rows.size());
  for (const auto &[Key, Value] : V.members()) {
    auto It = Rows.find(Key);
    if (It == Rows.end())
      return keyError(Err, Key, "unknown machine config key");
    ByRow[It->second] = &Value;
  }
  std::size_t Row = 0;
  std::string E;
  std::string_view BadKey;
  forEachConfigField(
      [&](ConfigField F, auto &Member) {
        const JsonValue *J = ByRow[Row++];
        if (J && E.empty() && !(E = decode(*J, &Member)).empty())
          BadKey = F.Key;
      },
      *C);
  return E.empty() || keyError(Err, BadKey, E);
}

static void encode(JsonWriter &W, const SimResult &R) {
  W.beginObject();
  forEachResultField(
      [&W](ResultField F, const auto &Member) {
        W.key(F.Key);
        encode(W, Member);
      },
      R);
  W.endObject();
}

bool offchip::simResultFromJson(const JsonValue &V, SimResult *R,
                                std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "result", "expected an object");
  *R = SimResult();
  bool Ok = true;
  forEachResultField(
      [&](ResultField F, auto &Member) {
        Ok = Ok && read(V, F.Key, &Member, Err);
      },
      *R);
  return Ok;
}

//===----------------------------------------------------------------------===//
// PlanSummary
//===----------------------------------------------------------------------===//

static void encode(JsonWriter &W, const PlanSummary &P) {
  W.beginObject();
  W.key("program").value(P.ProgramName);
  W.key("clusters").value(P.NumClusters);
  W.key("cores_per_cluster_x").value(P.CoresPerClusterX);
  W.key("cores_per_cluster_y").value(P.CoresPerClusterY);
  W.key("mcs_per_cluster").value(P.MCsPerCluster);
  W.key("arrays").beginArray();
  for (const PlanArrayRow &Row : P.Arrays) {
    W.beginObject();
    W.key("name").value(Row.Name);
    W.key("optimized").value(Row.Optimized);
    W.key("u").value(Row.U);
    W.key("note").value(Row.Note);
    W.endObject();
  }
  W.endArray();
  W.key("arrays_optimized_fraction").value(P.ArraysOptimizedFraction);
  W.key("refs_satisfied_fraction").value(P.RefsSatisfiedFraction);
  W.key("source").value(P.TransformedSource);
  W.endObject();
}

bool offchip::planSummaryFromJson(const JsonValue &V, PlanSummary *P,
                                  std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "plan", "expected an object");
  *P = PlanSummary();
  if (!read(V, "program", &P->ProgramName, Err) ||
      !read(V, "clusters", &P->NumClusters, Err) ||
      !read(V, "cores_per_cluster_x", &P->CoresPerClusterX, Err) ||
      !read(V, "cores_per_cluster_y", &P->CoresPerClusterY, Err) ||
      !read(V, "mcs_per_cluster", &P->MCsPerCluster, Err) ||
      !read(V, "arrays_optimized_fraction", &P->ArraysOptimizedFraction,
               Err) ||
      !read(V, "refs_satisfied_fraction", &P->RefsSatisfiedFraction,
               Err) ||
      !read(V, "source", &P->TransformedSource, Err))
    return false;
  const JsonValue *Arrays = V.find("arrays");
  if (!Arrays || !Arrays->isArray())
    return keyError(Err, "arrays", "expected an array");
  for (std::size_t I = 0; I < Arrays->size(); ++I) {
    const JsonValue &A = Arrays->at(I);
    if (!A.isObject())
      return keyError(Err, "arrays", "expected an array of objects");
    PlanArrayRow Row;
    if (!read(A, "name", &Row.Name, Err) ||
        !read(A, "optimized", &Row.Optimized, Err) ||
        !read(A, "u", &Row.U, Err) ||
        !read(A, "note", &Row.Note, Err))
      return false;
    P->Arrays.push_back(std::move(Row));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SimRequest
//===----------------------------------------------------------------------===//

static void encode(JsonWriter &W, const SimRequest &R) {
  W.beginObject();
  if (!R.Id.empty())
    W.key("id").value(R.Id);
  W.key("method");
  encode(W, R.Kind);
  if (R.Workload.isApp()) {
    W.key("app").value(R.Workload.App);
    W.key("scale").value(R.Workload.SizeScale);
  } else {
    W.key("program").value(R.Workload.ProgramText);
  }
  if (R.MCsPerCluster != 1)
    W.key("mcs_per_cluster").value(R.MCsPerCluster);
  W.key("config");
  encode(W, R.Config);
  W.endObject();
}

bool offchip::requestFromJson(const JsonValue &V, SimRequest *R,
                              std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "request", "expected an object");
  *R = SimRequest();
  bool SawApp = false, SawProgram = false;
  for (const auto &M : V.members()) {
    const std::string &Key = M.first;
    bool Ok = true;
    if (Key == "id")
      Ok = read(V, Key, &R->Id, Err);
    else if (Key == "method")
      Ok = read(V, Key, &R->Kind, Err);
    else if (Key == "app") {
      Ok = read(V, Key, &R->Workload.App, Err);
      SawApp = true;
    } else if (Key == "scale") {
      Ok = read(V, Key, &R->Workload.SizeScale, Err);
      // A zero, negative or non-finite scale builds a degenerate workload
      // that would still be answered ok and cached under its own key.
      if (Ok && !(std::isfinite(R->Workload.SizeScale) &&
                  R->Workload.SizeScale > 0.0))
        return keyError(Err, Key, "must be a finite number > 0");
    } else if (Key == "program") {
      Ok = read(V, Key, &R->Workload.ProgramText, Err);
      SawProgram = true;
    } else if (Key == "mcs_per_cluster")
      Ok = read(V, Key, &R->MCsPerCluster, Err);
    else if (Key == "config")
      Ok = machineConfigFromJson(M.second, &R->Config, Err);
    else
      return keyError(Err, Key, "unknown request key");
    if (!Ok)
      return false;
  }
  if (!V.find("method"))
    return keyError(Err, "method", "required");
  if (SawApp == SawProgram)
    return keyError(Err, "app",
                    "exactly one of 'app' or 'program' is required");
  if (SawApp && R->Workload.App.empty())
    return keyError(Err, "app", "must not be empty");
  return true;
}

//===----------------------------------------------------------------------===//
// SimResponse
//===----------------------------------------------------------------------===//

static void encode(JsonWriter &W, const SimResponse &R) {
  W.beginObject();
  if (!R.Id.empty())
    W.key("id").value(R.Id);
  W.key("status");
  encode(W, R.Status);
  switch (R.Status) {
  case ResponseStatus::Overloaded:
    break;
  case ResponseStatus::Error: {
    if (!R.ErrorText.empty())
      W.key("error").value(R.ErrorText);
    if (!R.Diagnostics.empty()) {
      W.key("diagnostics").beginArray();
      for (const ConfigDiagnostic &D : R.Diagnostics) {
        W.beginObject();
        W.key("field").value(D.Field);
        W.key("value").value(D.Value);
        W.key("constraint").value(D.Constraint);
        W.key("fix").value(D.Fix);
        W.endObject();
      }
      W.endArray();
    }
    break;
  }
  case ResponseStatus::Ok:
    W.key("cache").value(R.CacheHit ? "hit" : "miss");
    // Written only when set so pre-single-flight response bytes are
    // unchanged; absent means false on the read side.
    if (R.Singleflight)
      W.key("singleflight").value(true);
    if (!R.Key.empty())
      W.key("key").value(R.Key);
    W.key("server_seconds").value(R.ServerSeconds);
    W.key("plan");
    encode(W, R.Plan);
    if (R.Original) {
      W.key("original");
      encode(W, *R.Original);
    }
    if (R.Optimized) {
      W.key("optimized");
      encode(W, *R.Optimized);
    }
    break;
  }
  W.endObject();
}

bool offchip::responseFromJson(const JsonValue &V, SimResponse *R,
                               std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "response", "expected an object");
  *R = SimResponse();
  if (const JsonValue *Id = V.find("id")) {
    if (!Id->isString())
      return keyError(Err, "id", "expected a string");
    R->Id = Id->asString();
  }
  if (!read(V, "status", &R->Status, Err))
    return false;
  if (R->Status == ResponseStatus::Overloaded)
    return true;
  if (R->Status == ResponseStatus::Error) {
    if (const JsonValue *E = V.find("error")) {
      if (!E->isString())
        return keyError(Err, "error", "expected a string");
      R->ErrorText = E->asString();
    }
    if (const JsonValue *Diags = V.find("diagnostics")) {
      if (!Diags->isArray())
        return keyError(Err, "diagnostics", "expected an array");
      for (std::size_t I = 0; I < Diags->size(); ++I) {
        const JsonValue &D = Diags->at(I);
        ConfigDiagnostic CD;
        if (!D.isObject() || !read(D, "field", &CD.Field, Err) ||
            !read(D, "value", &CD.Value, Err) ||
            !read(D, "constraint", &CD.Constraint, Err) ||
            !read(D, "fix", &CD.Fix, Err))
          return false;
        R->Diagnostics.push_back(std::move(CD));
      }
    }
    return true;
  }
  std::string Cache;
  if (!read(V, "cache", &Cache, Err))
    return false;
  if (Cache != "hit" && Cache != "miss")
    return keyError(Err, "cache", "expected hit or miss");
  R->CacheHit = Cache == "hit";
  if (const JsonValue *SF = V.find("singleflight")) {
    if (!SF->isBool())
      return keyError(Err, "singleflight", "expected true or false");
    R->Singleflight = SF->asBool();
  }
  if (const JsonValue *Key = V.find("key")) {
    if (!Key->isString())
      return keyError(Err, "key", "expected a string");
    R->Key = Key->asString();
  }
  if (!read(V, "server_seconds", &R->ServerSeconds, Err))
    return false;
  const JsonValue *Plan = V.find("plan");
  if (!Plan || !planSummaryFromJson(*Plan, &R->Plan, Err))
    return Plan ? false : keyError(Err, "plan", "required for ok responses");
  if (const JsonValue *Orig = V.find("original")) {
    SimResult S;
    if (!simResultFromJson(*Orig, &S, Err))
      return false;
    R->Original = std::move(S);
  }
  if (const JsonValue *Opt = V.find("optimized")) {
    SimResult S;
    if (!simResultFromJson(*Opt, &S, Err))
      return false;
    R->Optimized = std::move(S);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The streamed text, as a line or as a parsed tree
//===----------------------------------------------------------------------===//

template <class T> static std::string wireText(const T &X) {
  std::string Text;
  JsonWriter W(Text);
  encode(W, X);
  return Text;
}

template <class T> static JsonValue wireTree(const T &X) {
  return *parseJson(wireText(X));
}

template <class T> static std::string wireLine(const T &X) {
  std::string Line = wireText(X);
  Line += '\n';
  return Line;
}

JsonValue offchip::toJson(const MachineConfig &C) { return wireTree(C); }
JsonValue offchip::toJson(const PlanSummary &P) { return wireTree(P); }

std::string offchip::writeRequestLine(const SimRequest &R) {
  return wireLine(R);
}

std::string offchip::writeResponseLine(const SimResponse &R) {
  return wireLine(R);
}
