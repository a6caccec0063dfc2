//===- api/Json.h - Streaming JSON writer, value tree, parser ---*- C++ -*-===//
///
/// \file
/// The JSON layer of the service wire protocol (api/Serialize.h) and of the
/// machine-readable reports. Deliberately dependency-free and exact:
///
///   - JsonWriter is the one serializer: it streams a document into one
///     string in a single pass. u64 values are written as their digits and
///     doubles as %.17g tokens, so 64-bit counters (simulated cycle counts
///     exceed 2^53) and IEEE doubles survive a write/parse roundtrip
///     bit-exactly — the property the served-vs-direct bit-identity tests
///     rest on.
///   - JsonValue is the read side: the tree parseJson builds. Numbers keep
///     their source token and object members keep document order, so a
///     document JsonWriter wrote parses and writes back byte-identically.
///
/// Strings are UTF-8 passthrough; escapes cover the JSON set including
/// \uXXXX (decoded to UTF-8, surrogate pairs supported).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_JSON_H
#define OFFCHIP_API_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace offchip {

class JsonValue;

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). On failure returns std::nullopt and fills \p Err with a
/// message that includes the byte offset.
std::optional<JsonValue> parseJson(std::string_view Text,
                                   std::string *Err = nullptr);

/// Streams one compact JSON document (no whitespace) onto the end of a
/// string. Commas are placed by the writer: a document is a sequence of
/// begin/end, key and value calls in document order, e.g.
///
///   JsonWriter W(Out);
///   W.beginObject().key("id").value(Id).key("n").value(N).endObject();
class JsonWriter {
public:
  explicit JsonWriter(std::string &Out) : Out(Out) {}

  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();
  /// The key of the next object member; the value call that follows
  /// completes the member.
  JsonWriter &key(std::string_view K);

  /// Strings: '"', '\\' and bytes below 0x20 are escaped, every other byte
  /// (UTF-8 included) passes through.
  JsonWriter &value(std::string_view S);
  /// (Without this overload a string literal would convert to bool.)
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(std::uint64_t V);
  /// (Without this overload an unsigned would be ambiguous.)
  JsonWriter &value(unsigned V) { return value(std::uint64_t{V}); }
  /// %.17g; NaN and infinities (which JSON cannot spell) are written as 0.
  JsonWriter &value(double V);
  JsonWriter &value(bool V);
  /// A parsed tree: number tokens verbatim, strings re-escaped, members in
  /// document order.
  JsonWriter &value(const JsonValue &V);

private:
  std::string &Out;
  /// Whether the next key or value follows a sibling and needs a comma.
  bool Comma = false;

  void separate() {
    if (Comma)
      Out += ',';
    Comma = true;
  }
};

class JsonValue {
public:
  /// A null value (also what a missing member decodes against).
  JsonValue() = default;

  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Typed accessors; calling one on a mismatched kind aborts (callers
  /// check kind() first — the deserializers do so with typed diagnostics).
  bool asBool() const;
  double asDouble() const;
  /// The value of a plain digit token that fits 64 bits; std::nullopt for
  /// a sign, fraction, exponent or overflow.
  std::optional<std::uint64_t> asU64() const;
  const std::string &asString() const;

  // Arrays.
  std::size_t size() const { return Items.size(); }
  const JsonValue &at(std::size_t I) const { return Items[I]; }

  // Objects, in document order. A key that repeats keeps its first
  // position and its last value.
  /// Member lookup; nullptr when absent.
  const JsonValue *find(std::string_view Key) const;
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Compact serialization through JsonWriter.
  std::string write() const;

private:
  friend class JsonWriter;
  friend std::optional<JsonValue> parseJson(std::string_view Text,
                                            std::string *Err);
  class Parser;

  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool BoolV = false;
  std::string Text; // number token or string payload
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

} // namespace offchip

#endif // OFFCHIP_API_JSON_H
