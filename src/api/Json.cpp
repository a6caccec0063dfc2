//===- api/Json.cpp -------------------------------------------------------===//

#include "api/Json.h"

#include "support/Error.h"
#include "support/Format.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace offchip;

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

JsonValue JsonValue::boolean(bool V) {
  JsonValue J;
  J.K = Kind::Bool;
  J.BoolV = V;
  return J;
}

JsonValue JsonValue::number(double V) {
  // %.17g round-trips every finite IEEE double through strtod exactly.
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  // JSON has no inf/nan; the simulator never produces them, but don't emit
  // an unparsable document if a bug does.
  if (std::strchr(Buf, 'n') || std::strchr(Buf, 'i'))
    std::snprintf(Buf, sizeof(Buf), "0");
  return rawNumber(Buf);
}

JsonValue JsonValue::number(std::uint64_t V) {
  return rawNumber(formatString("%llu", static_cast<unsigned long long>(V)));
}

JsonValue JsonValue::rawNumber(std::string Token) {
  JsonValue J;
  J.K = Kind::Number;
  J.Text = std::move(Token);
  return J;
}

JsonValue JsonValue::string(std::string V) {
  JsonValue J;
  J.K = Kind::String;
  J.Text = std::move(V);
  return J;
}

JsonValue JsonValue::array() {
  JsonValue J;
  J.K = Kind::Array;
  return J;
}

JsonValue JsonValue::object() {
  JsonValue J;
  J.K = Kind::Object;
  return J;
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

const std::string &JsonValue::numberToken() const {
  if (K != Kind::Number)
    reportFatalError("JsonValue::numberToken on non-number");
  return Text;
}

void JsonValue::push(JsonValue V) {
  if (K != Kind::Array)
    reportFatalError("JsonValue::push on non-array");
  Items.push_back(std::move(V));
}

void JsonValue::set(std::string Key, JsonValue V) {
  if (K != Kind::Object)
    reportFatalError("JsonValue::set on non-object");
  for (auto &M : Members) {
    if (M.first == Key) {
      M.second = std::move(V);
      return;
    }
  }
  Members.emplace_back(std::move(Key), std::move(V));
}

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

void writeEscaped(const std::string &S, std::string &Out) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

} // namespace

void JsonValue::writeTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += BoolV ? "true" : "false";
    return;
  case Kind::Number:
    Out += Text;
    return;
  case Kind::String:
    writeEscaped(Text, Out);
    return;
  case Kind::Array:
    Out += '[';
    for (std::size_t I = 0; I < Items.size(); ++I) {
      if (I)
        Out += ',';
      Items[I].writeTo(Out);
    }
    Out += ']';
    return;
  case Kind::Object:
    Out += '{';
    for (std::size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out += ',';
      writeEscaped(Members[I].first, Out);
      Out += ':';
      Members[I].second.writeTo(Out);
    }
    Out += '}';
    return;
  }
}

std::string JsonValue::write() const {
  std::string Out;
  writeTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string *Err)
      : S(Text), Err(Err) {}

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
  const std::string &S;
  std::string *Err;
  std::size_t Pos = 0;
  unsigned Depth = 0;

  std::optional<JsonValue> fail(const std::string &Msg) {
    if (Err)
      *Err = formatString("JSON error at byte %zu: %s", Pos, Msg.c_str());
    return std::nullopt;
  }
  bool failB(const std::string &Msg) {
    fail(Msg);
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    std::size_t N = std::strlen(Lit);
    if (S.compare(Pos, N, Lit) != 0)
      return failB(formatString("expected '%s'", Lit));
    Pos += N;
    return true;
  }

  bool parseValue(JsonValue &Out) {
    if (Depth > 128)
      return failB("nesting too deep");
    if (Pos >= S.size())
      return failB("unexpected end of input");
    switch (S[Pos]) {
    case 'n':
      return literal("null") && (Out = JsonValue::null(), true);
    case 't':
      return literal("true") && (Out = JsonValue::boolean(true), true);
    case 'f':
      return literal("false") && (Out = JsonValue::boolean(false), true);
    case '"': {
      std::string V;
      if (!parseString(V))
        return false;
      Out = JsonValue::string(std::move(V));
      return true;
    }
    case '[':
      return parseArray(Out);
    case '{':
      return parseObject(Out);
    default:
      return parseNumber(Out);
    }
  }

  bool parseNumber(JsonValue &Out) {
    std::size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    if (Pos >= S.size() || !isdigit(static_cast<unsigned char>(S[Pos])))
      return failB("invalid number");
    while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      if (Pos >= S.size() || !isdigit(static_cast<unsigned char>(S[Pos])))
        return failB("invalid number: digits must follow '.'");
      while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (Pos >= S.size() || !isdigit(static_cast<unsigned char>(S[Pos])))
        return failB("invalid number: digits must follow exponent");
      while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    Out = JsonValue::rawNumber(S.substr(Start, Pos - Start));
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

  void appendUtf8(unsigned Cp, std::string &Out) {
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
      if (Pos >= S.size())
        return failB("unterminated string");
      char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return failB("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        ++Pos;
        continue;
      }
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
    Out = JsonValue::array();
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      --Depth;
      return true;
    }
    while (true) {
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out.push(std::move(V));
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

  bool parseObject(JsonValue &Out) {
    ++Pos; // '{'
    ++Depth;
    Out = JsonValue::object();
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
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
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out.set(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= S.size())
        return failB("unterminated object");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        --Depth;
        return true;
      }
      return failB("expected ',' or '}' in object");
    }
  }
};

} // namespace

std::optional<JsonValue> offchip::parseJson(const std::string &Text,
                                            std::string *Err) {
  return Parser(Text, Err).run();
}
