//===- api/Json.h - Minimal JSON value, parser and writer -------*- C++ -*-===//
///
/// \file
/// The JSON layer of the service wire protocol (api/Serialize.h) and of the
/// machine-readable reports. Deliberately dependency-free and exact:
///
///   - Numbers are stored as their source token and formatted on demand, so
///     64-bit counters (simulated cycle counts exceed 2^53) and IEEE
///     doubles (written as %.17g) survive a write/parse roundtrip
///     bit-exactly — the property the served-vs-direct bit-identity tests
///     rest on.
///   - Object members keep insertion order, so serialization is
///     deterministic and responses are byte-stable run to run.
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

class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool V);
  static JsonValue number(double V);
  static JsonValue number(std::uint64_t V);
  static JsonValue number(unsigned V) {
    return number(static_cast<std::uint64_t>(V));
  }
  /// A number from its source token (parser internal; also handy in tests).
  static JsonValue rawNumber(std::string Token);
  static JsonValue string(std::string V);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return K; }
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
  /// The number's source token ("1.5", "18446744073709551615").
  const std::string &numberToken() const;

  // Arrays.
  void push(JsonValue V);
  std::size_t size() const { return Items.size(); }
  const JsonValue &at(std::size_t I) const { return Items[I]; }

  // Objects (insertion-ordered).
  void set(std::string Key, JsonValue V);
  /// Member lookup; nullptr when absent.
  const JsonValue *find(std::string_view Key) const;
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Compact, deterministic serialization (no whitespace, insertion order).
  std::string write() const;

private:
  Kind K = Kind::Null;
  bool BoolV = false;
  std::string Text; // number token or string payload
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  void writeTo(std::string &Out) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). On failure returns std::nullopt and fills \p Err with a
/// message that includes the byte offset.
std::optional<JsonValue> parseJson(const std::string &Text,
                                   std::string *Err = nullptr);

} // namespace offchip

#endif // OFFCHIP_API_JSON_H
