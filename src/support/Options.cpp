//===- support/Options.cpp ------------------------------------------------===//

#include "support/Options.h"

#include "support/Format.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace offchip;

/// Decimal digits only, at most \p Max; \p Out is written only on Ok.
static DigitsError parseDigits(const std::string &Text, std::uint64_t Max,
                               std::uint64_t *Out) {
  if (Text.empty())
    return DigitsError::Empty;
  std::uint64_t Parsed = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return DigitsError::NotDigits;
    std::uint64_t Digit = static_cast<std::uint64_t>(C - '0');
    if (Parsed > (Max - Digit) / 10)
      return DigitsError::Overflow;
    Parsed = Parsed * 10 + Digit;
  }
  *Out = Parsed;
  return DigitsError::Ok;
}

bool offchip::parseUnsigned(const std::string &Text, unsigned *Out,
                            unsigned Min) {
  std::uint64_t N = 0;
  if (parseDigits(Text, std::numeric_limits<unsigned>::max(), &N) !=
          DigitsError::Ok ||
      N < Min)
    return false;
  *Out = static_cast<unsigned>(N);
  return true;
}

std::vector<std::string> offchip::splitList(const std::string &Text) {
  std::vector<std::string> Items;
  std::size_t Pos = 0;
  for (std::size_t Comma; (Comma = Text.find(',', Pos)) != std::string::npos;
       Pos = Comma + 1)
    Items.push_back(Text.substr(Pos, Comma - Pos));
  Items.push_back(Text.substr(Pos));
  return Items;
}

DigitsError offchip::parseUnsignedList(const std::string &Text,
                                       std::vector<unsigned> *Out,
                                       std::string *BadItem) {
  std::vector<unsigned> Parsed;
  for (std::string &Item : splitList(Text)) {
    std::uint64_t N = 0;
    DigitsError E =
        parseDigits(Item, std::numeric_limits<unsigned>::max(), &N);
    if (E != DigitsError::Ok) {
      if (BadItem)
        *BadItem = std::move(Item);
      return E;
    }
    Parsed.push_back(static_cast<unsigned>(N));
  }
  *Out = std::move(Parsed);
  return DigitsError::Ok;
}

/// One whole finite number token: only number characters (so no "nan",
/// "inf", hex or whitespace), fully consumed by strtod, and finite after
/// conversion (so no "1e400").
static bool parseFiniteDouble(const std::string &Text, double *Out) {
  if (Text.empty() ||
      Text.find_first_not_of("0123456789.eE+-") != std::string::npos)
    return false;
  char *End = nullptr;
  double D = std::strtod(Text.c_str(), &End);
  if (*End != '\0' || !std::isfinite(D))
    return false;
  *Out = D;
  return true;
}

OptionsParser::OptionsParser(std::string ToolName, std::string OverviewText)
    : Tool(std::move(ToolName)), Overview(std::move(OverviewText)) {}

void OptionsParser::flag(const std::string &Name, bool *Out,
                         const std::string &Help) {
  Spec S;
  S.Name = Name;
  S.Help = Help;
  S.FlagOut = Out;
  Specs.push_back(std::move(S));
}

void OptionsParser::value(const std::string &Name, unsigned *Out,
                          const std::string &Help, unsigned Min) {
  custom(Name, "<N>",
         [Out, Min](const std::string &V, std::string *) {
           return parseUnsigned(V, Out, Min);
         },
         Help);
}

void OptionsParser::value(const std::string &Name, std::uint64_t *Out,
                          const std::string &Help) {
  custom(Name, "<N>",
         [Out](const std::string &V, std::string *) {
           return parseDigits(V, std::numeric_limits<std::uint64_t>::max(),
                              Out) == DigitsError::Ok;
         },
         Help);
}

void OptionsParser::value(const std::string &Name, double *Out,
                          DoubleRange Range, const std::string &Help) {
  custom(Name, Range == DoubleRange::Positive ? "<S>" : "<0..1>",
         [Out, Range](const std::string &V, std::string *) {
           double D = 0.0;
           if (!parseFiniteDouble(V, &D))
             return false;
           if (Range == DoubleRange::Positive ? !(D > 0.0)
                                              : !(D >= 0.0 && D <= 1.0))
             return false;
           *Out = D;
           return true;
         },
         Help);
}

void OptionsParser::value(const std::string &Name, std::string *Out,
                          const std::string &Help) {
  custom(Name, "<S>",
         [Out](const std::string &V, std::string *) {
           *Out = V;
           return true;
         },
         Help);
}

void OptionsParser::custom(const std::string &Name,
                           const std::string &ValueName, ValueParser Parse,
                           const std::string &Help) {
  Spec S;
  S.Name = Name;
  S.ValueName = ValueName;
  S.Help = Help;
  S.Parse = std::move(Parse);
  Specs.push_back(std::move(S));
}

std::string OptionsParser::helpText() const {
  std::string Out = "usage: " + Tool + " [options]";
  if (!PositionalText.empty())
    Out += " " + PositionalText;
  Out += "\n" + Overview + "\n\noptions:\n";
  for (const Spec &S : Specs) {
    std::string Left = "  " + S.Name;
    if (!S.ValueName.empty())
      Left += " " + S.ValueName;
    Out += padRight(Left + " ", 26) + S.Help + "\n";
  }
  Out += padRight("  --help", 26) + "print this help\n";
  return Out;
}

bool OptionsParser::parse(int Argc, char **Argv, std::string *Err,
                          bool *WantedHelp) {
  Positionals.clear();
  OwnMessage = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      if (WantedHelp)
        *WantedHelp = true;
      if (Err)
        *Err = helpText();
      return false;
    }
    if (Arg.empty() || Arg[0] != '-') {
      Positionals.push_back(std::move(Arg));
      continue;
    }
    const Spec *Match = nullptr;
    for (const Spec &S : Specs)
      if (S.Name == Arg) {
        Match = &S;
        break;
      }
    if (!Match) {
      if (Err)
        *Err = "unknown option '" + Arg + "'";
      return false;
    }
    if (Match->FlagOut) {
      *Match->FlagOut = true;
      continue;
    }
    if (I + 1 >= Argc) {
      if (Err)
        *Err = "option '" + Arg + "' requires a value";
      return false;
    }
    std::string Value = Argv[++I];
    std::string Message;
    if (!Match->Parse(Value, &Message)) {
      OwnMessage = !Message.empty();
      if (Err)
        *Err = OwnMessage ? Message
                          : "invalid value '" + Value + "' for option '" +
                                Arg + "'";
      return false;
    }
  }
  return true;
}

std::optional<int> OptionsParser::parseArgs(int Argc, char **Argv) {
  std::string Err;
  bool WantedHelp = false;
  if (parse(Argc, Argv, &Err, &WantedHelp))
    return std::nullopt;
  if (WantedHelp) {
    std::fputs(Err.c_str(), stdout);
    return 0;
  }
  if (OwnMessage)
    std::fprintf(stderr, "%s\n", Err.c_str());
  else
    std::fprintf(stderr, "error: %s\n%s", Err.c_str(), helpText().c_str());
  return 2;
}
