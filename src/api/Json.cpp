//===- api/Json.cpp -------------------------------------------------------===//

#include "api/Json.h"

#include "support/Error.h"
#include "support/Format.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>

using namespace offchip;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

bool isPlain(char C) {
  unsigned char U = static_cast<unsigned char>(C);
  return U >= 0x20 && U != '"' && U != '\\';
}

/// Whether all 8 bytes at \p P are plain, tested a word at a time:
/// (X - N*Ones) & ~X & High is nonzero exactly when some byte of X is below
/// N (for N <= 0x80), and a byte equal to B is a zero byte of X ^ B*Ones.
bool plainWord(const char *P) {
  constexpr std::uint64_t Ones = 0x0101010101010101ull, High = Ones << 7;
  std::uint64_t X;
  std::memcpy(&X, P, sizeof(X));
  auto below = [](std::uint64_t V, std::uint64_t N) {
    return (V - N * Ones) & ~V & High;
  };
  return !(below(X, 0x20) | below(X ^ ('"' * Ones), 1) |
           below(X ^ ('\\' * Ones), 1));
}

/// The first byte at or after \p P that is not plain, or \p End.
const char *skipPlain(const char *P, const char *End) {
  while (End - P >= 8 && plainWord(P))
    P += 8;
  while (P != End && isPlain(*P))
    ++P;
  return P;
}

/// The letter after the backslash in the escape of a byte that is not
/// plain; 'u' stands for \u00XX.
char escapeLetter(char C) {
  switch (C) {
  case '"':
    return '"';
  case '\\':
    return '\\';
  case '\b':
    return 'b';
  case '\f':
    return 'f';
  case '\n':
    return 'n';
  case '\r':
    return 'r';
  case '\t':
    return 't';
  default:
    return 'u';
  }
}

/// Appends \p S quoted, copying the plain bytes between escapes a run at
/// a time.
void appendEscaped(std::string &Out, std::string_view S) {
  Out.reserve(Out.size() + S.size() + 2);
  Out += '"';
  const char *Run = S.data(), *End = S.data() + S.size();
  for (const char *P; (P = skipPlain(Run, End)) != End; Run = P + 1) {
    Out.append(Run, P);
    char L = escapeLetter(*P);
    if (L != 'u') {
      const char Esc[] = {'\\', L};
      Out.append(Esc, sizeof(Esc));
    } else {
      const char Hex[] = "0123456789abcdef";
      unsigned char C = static_cast<unsigned char>(*P);
      const char Esc[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xF]};
      Out.append(Esc, sizeof(Esc));
    }
  }
  Out.append(Run, End);
  Out += '"';
}

} // namespace

JsonWriter &JsonWriter::beginObject() {
  separate();
  Out += '{';
  Comma = false;
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  Out += '}';
  Comma = true;
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  separate();
  Out += '[';
  Comma = false;
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  Out += ']';
  Comma = true;
  return *this;
}

JsonWriter &JsonWriter::key(std::string_view K) {
  separate();
  appendEscaped(Out, K);
  Out += ':';
  Comma = false;
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) {
  separate();
  appendEscaped(Out, S);
  return *this;
}

JsonWriter &JsonWriter::value(std::uint64_t V) {
  separate();
  char Buf[20];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  return *this;
}

JsonWriter &JsonWriter::value(double V) {
  separate();
  // JSON has no inf/nan; the simulator never produces them, but don't emit
  // an unparsable document if a bug does.
  if (!std::isfinite(V)) {
    Out += '0';
    return *this;
  }
  // Precision 17 in the general format is specified to print what %.17g
  // prints, which round-trips every finite IEEE double through strtod.
  char Buf[32];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V,
                                std::chars_format::general, 17)
                      .ptr);
  return *this;
}

JsonWriter &JsonWriter::value(bool V) {
  separate();
  Out += V ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::value(const JsonValue &V) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    separate();
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    value(V.BoolV);
    break;
  case JsonValue::Kind::Number:
    separate();
    Out += V.Text;
    break;
  case JsonValue::Kind::String:
    value(V.Text);
    break;
  case JsonValue::Kind::Array:
    beginArray();
    for (const JsonValue &Item : V.Items)
      value(Item);
    endArray();
    break;
  case JsonValue::Kind::Object:
    beginObject();
    for (const auto &[Key, Member] : V.Members)
      key(Key).value(Member);
    endObject();
    break;
  }
  return *this;
}

//===----------------------------------------------------------------------===//
// Accessors
//===----------------------------------------------------------------------===//

bool JsonValue::asBool() const {
  if (K != Kind::Bool)
    reportFatalError("JsonValue::asBool on non-bool");
  return BoolV;
}

double JsonValue::asDouble() const {
  if (K != Kind::Number)
    reportFatalError("JsonValue::asDouble on non-number");
  return std::strtod(Text.c_str(), nullptr);
}

std::optional<std::uint64_t> JsonValue::asU64() const {
  if (K != Kind::Number)
    reportFatalError("JsonValue::asU64 on non-number");
  // Digits only: from_chars on an unsigned type takes no sign, and a
  // fraction or exponent leaves characters unconsumed.
  std::uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Stop != End)
    return std::nullopt;
  return V;
}

const std::string &JsonValue::asString() const {
  if (K != Kind::String)
    reportFatalError("JsonValue::asString on non-string");
  return Text;
}

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

std::string JsonValue::write() const {
  std::string Out;
  JsonWriter(Out).value(*this);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

/// Builds the tree in place: each value is parsed straight into its array
/// slot or object member, and strings and number tokens are copied from
/// the text a run at a time.
class JsonValue::Parser {
public:
  Parser(std::string_view Text, std::string *Err) : S(Text), Err(Err) {}

  std::optional<JsonValue> run() {
    skipWs();
    JsonValue V;
    if (!parseValue(V))
      return std::nullopt;
    skipWs();
    if (Pos != S.size())
      return fail("trailing garbage after document");
    return V;
  }

private:
  std::string_view S;
  std::string *Err;
  std::size_t Pos = 0;
  unsigned Depth = 0;

  /// Per-depth object state. An object's members are all parsed before the
  /// next object at its depth begins, so one entry per depth serves every
  /// object. It outlives a parse, per thread: a thread parses one shape of
  /// request after another, so the member count of the last object closed
  /// at a depth sizes the next one there, and the 40-key config object is
  /// built without a reallocation or rehash.
  struct DepthState {
    /// The open object's members by key: an open-addressed table of member
    /// index + 1 (0 = empty slot).
    std::vector<std::uint32_t> Keys;
    std::size_t LastMembers = 0;
  };
  static inline thread_local std::vector<DepthState> Depths;

  std::optional<JsonValue> fail(const std::string &Msg) {
    if (Err)
      *Err = formatString("JSON error at byte %zu: %s", Pos, Msg.c_str());
    return std::nullopt;
  }
  bool failB(const std::string &Msg) {
    fail(Msg);
    return false;
  }

  static bool isDigit(char C) { return C >= '0' && C <= '9'; }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Lit) {
    if (S.substr(Pos, Lit.size()) != Lit)
      return failB("expected '" + std::string(Lit) + "'");
    Pos += Lit.size();
    return true;
  }

  bool parseValue(JsonValue &Out) {
    if (Depth > 128)
      return failB("nesting too deep");
    if (Pos >= S.size())
      return failB("unexpected end of input");
    switch (S[Pos]) {
    case 'n':
      return literal("null");
    case 't':
      Out.K = Kind::Bool;
      Out.BoolV = true;
      return literal("true");
    case 'f':
      Out.K = Kind::Bool;
      return literal("false");
    case '"':
      Out.K = Kind::String;
      return parseString(Out.Text);
    case '[':
      return parseArray(Out);
    case '{':
      return parseObject(Out);
    default:
      return parseNumber(Out);
    }
  }

  bool digits() {
    if (Pos >= S.size() || !isDigit(S[Pos]))
      return false;
    while (Pos < S.size() && isDigit(S[Pos]))
      ++Pos;
    return true;
  }

  bool parseNumber(JsonValue &Out) {
    std::size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    if (!digits())
      return failB("invalid number");
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      if (!digits())
        return failB("invalid number: digits must follow '.'");
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (!digits())
        return failB("invalid number: digits must follow exponent");
    }
    Out.K = Kind::Number;
    Out.Text.assign(S.substr(Start, Pos - Start));
    return true;
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > S.size())
      return failB("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = S[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return failB("invalid \\u escape digit");
    }
    return true;
  }

  static void appendUtf8(unsigned Cp, std::string &Out) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Cp >> 18));
      Out += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    while (true) {
      std::size_t Run = Pos;
      Pos = skipPlain(S.data() + Pos, S.data() + S.size()) - S.data();
      Out.append(S.substr(Run, Pos - Run));
      if (Pos >= S.size())
        return failB("unterminated string");
      char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C != '\\')
        return failB("unescaped control character in string");
      ++Pos;
      if (Pos >= S.size())
        return failB("truncated escape");
      char E = S[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp;
        if (!parseHex4(Cp))
          return false;
        if (Cp >= 0xD800 && Cp <= 0xDBFF) { // high surrogate
          if (Pos + 1 < S.size() && S[Pos] == '\\' && S[Pos + 1] == 'u') {
            Pos += 2;
            unsigned Lo;
            if (!parseHex4(Lo))
              return false;
            if (Lo >= 0xDC00 && Lo <= 0xDFFF)
              Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
            else
              return failB("invalid low surrogate");
          } else {
            return failB("lone high surrogate");
          }
        }
        appendUtf8(Cp, Out);
        break;
      }
      default:
        return failB("unknown escape");
      }
    }
  }

  bool parseArray(JsonValue &Out) {
    ++Pos; // '['
    ++Depth;
    Out.K = Kind::Array;
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      --Depth;
      return true;
    }
    while (true) {
      Out.Items.emplace_back();
      if (!parseValue(Out.Items.back()))
        return false;
      skipWs();
      if (Pos >= S.size())
        return failB("unterminated array");
      if (S[Pos] == ',') {
        ++Pos;
        skipWs();
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        --Depth;
        return true;
      }
      return failB("expected ',' or ']' in array");
    }
  }

  /// The member of \p Obj named \p Key, appended when the key is new; a
  /// repeated key gets its first member back, cleared for the new value.
  JsonValue &member(JsonValue &Obj, std::string &&Key) {
    std::vector<std::uint32_t> &Table = Depths[Depth].Keys;
    auto &Members = Obj.Members;
    // A key's home slot; collisions probe linearly from there.
    auto slotOf = [&Table](std::string_view K) {
      std::size_t Mask = Table.size() - 1;
      return std::hash<std::string_view>()(K) & Mask;
    };
    std::size_t Slot = slotOf(Key);
    for (; Table[Slot] != 0; Slot = (Slot + 1) & (Table.size() - 1)) {
      auto &[OldKey, OldValue] = Members[Table[Slot] - 1];
      if (OldKey == Key)
        return OldValue = JsonValue();
    }
    Members.emplace_back(std::move(Key), JsonValue());
    Table[Slot] = static_cast<std::uint32_t>(Members.size());
    // Keep the table at most half full.
    if (2 * Members.size() > Table.size()) {
      Table.assign(2 * Table.size(), 0);
      for (std::size_t I = 0; I < Members.size(); ++I) {
        Slot = slotOf(Members[I].first);
        while (Table[Slot] != 0)
          Slot = (Slot + 1) & (Table.size() - 1);
        Table[Slot] = static_cast<std::uint32_t>(I + 1);
      }
    }
    return Members.back().second;
  }

  bool parseObject(JsonValue &Out) {
    ++Pos; // '{'
    ++Depth;
    Out.K = Kind::Object;
    if (Depths.size() <= Depth)
      Depths.resize(Depth + 1);
    DepthState &D = Depths[Depth];
    // Pre-size for the last object seen here; member() keeps the key table
    // at most half full.
    std::size_t Slots = 64;
    while (Slots < 2 * D.LastMembers)
      Slots <<= 1;
    D.Keys.assign(Slots, 0);
    Out.Members.reserve(D.LastMembers);
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      D.LastMembers = 0;
      --Depth;
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= S.size() || S[Pos] != '"')
        return failB("expected string key in object");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return failB("expected ':' after object key");
      ++Pos;
      skipWs();
      if (!parseValue(member(Out, std::move(Key))))
        return false;
      skipWs();
      if (Pos >= S.size())
        return failB("unterminated object");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        Depths[Depth].LastMembers = Out.Members.size();
        --Depth;
        return true;
      }
      return failB("expected ',' or '}' in object");
    }
  }
};

std::optional<JsonValue> offchip::parseJson(std::string_view Text,
                                            std::string *Err) {
  return JsonValue::Parser(Text, Err).run();
}
