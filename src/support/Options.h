//===- support/Options.h - Declarative CLI flag parsing ---------*- C++ -*-===//
///
/// \file
/// The command-line front door shared by every tool and bench binary.
/// Callers register flags bound to variables (or callbacks for structured
/// values like "8x8"), then parseArgs(); unmatched non-dash arguments are
/// collected as positionals. Every typed value has one strict contract
/// here — digits-only integers, whole-token finite doubles, digits-only
/// comma lists — so no binary hand-rolls a value parse of its own.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_OPTIONS_H
#define OFFCHIP_SUPPORT_OPTIONS_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace offchip {

/// Why a digits-only decimal token was rejected (Ok when it was not).
enum class DigitsError { Ok, Empty, NotDigits, Overflow };

/// Parses \p Text as a decimal 32-bit unsigned >= \p Min, digits only;
/// \p Out is written only on success. strtoul is the wrong contract for
/// flags: it wraps "-1", saturates overflow and skips whitespace, silently
/// turning typos into huge thread/MC counts.
bool parseUnsigned(const std::string &Text, unsigned *Out, unsigned Min = 0);

/// Splits \p Text at every comma; "" is one empty item, "a," two items.
std::vector<std::string> splitList(const std::string &Text);

/// Parses a comma-separated list of parseUnsigned items ("1,2,4"); an
/// empty list or item (a stray comma) fails as Empty. On failure \p Out is
/// untouched and \p BadItem (when non-null) holds the first failing item.
DigitsError parseUnsignedList(const std::string &Text,
                              std::vector<unsigned> *Out,
                              std::string *BadItem = nullptr);

/// The ranges a floating-point flag can demand. Both accept one whole
/// finite number token only: no NaN, infinity, hex or trailing junk.
enum class DoubleRange {
  Positive,    // > 0 (scale factors; the wire's rule)
  UnitInterval // [0, 1] (ratios)
};

class OptionsParser {
public:
  /// Parses one flag value. Return false to reject it; setting \p Message
  /// replaces the generic "invalid value" error with a complete diagnostic
  /// of its own, printed verbatim without the usage text.
  using ValueParser =
      std::function<bool(const std::string &Value, std::string *Message)>;

  /// \param Tool     binary name for the usage line
  /// \param Overview one-line description printed by --help
  OptionsParser(std::string Tool, std::string Overview);

  /// Boolean switch: "--name" sets *Out to true.
  void flag(const std::string &Name, bool *Out, const std::string &Help);

  /// "--name <N>": parseUnsigned, at least \p Min.
  void value(const std::string &Name, unsigned *Out, const std::string &Help,
             unsigned Min = 0);

  /// "--name <N>": digits only, at most 2^64-1.
  void value(const std::string &Name, std::uint64_t *Out,
             const std::string &Help);

  /// "--name <S>": one finite number token within \p Range.
  void value(const std::string &Name, double *Out, DoubleRange Range,
             const std::string &Help);

  /// "--name <S>" stored verbatim.
  void value(const std::string &Name, std::string *Out,
             const std::string &Help);

  /// "--name <V>" handed to \p Parse.
  void custom(const std::string &Name, const std::string &ValueName,
              ValueParser Parse, const std::string &Help);

  /// Declares the positional arguments for the usage line, e.g.
  /// "<program.txt>".
  void positionalHelp(std::string Text) { PositionalText = std::move(Text); }

  /// Parses \p Argv. On failure, fills \p Err with a diagnostic and returns
  /// false. "--help" is handled built-in: \p Err is set to the full help
  /// text and false is returned with \p WantedHelp (when non-null) set.
  bool parse(int Argc, char **Argv, std::string *Err,
             bool *WantedHelp = nullptr);

  /// parse() with the process-level outcome every binary shares: --help
  /// prints the help text on stdout (exit 0); a bad flag prints
  /// "error: <why>" plus the help text on stderr, or a value parser's own
  /// message alone (exit 2). \returns the exit code when the process should
  /// stop, std::nullopt to continue.
  std::optional<int> parseArgs(int Argc, char **Argv);

  const std::vector<std::string> &positional() const { return Positionals; }

  /// Full help text: usage line plus one line per registered option.
  std::string helpText() const;

private:
  struct Spec {
    std::string Name;      // including leading dashes
    std::string ValueName; // empty for bare switches
    std::string Help;
    ValueParser Parse; // null for switches
    bool *FlagOut = nullptr;
  };

  std::string Tool;
  std::string Overview;
  std::string PositionalText;
  std::vector<Spec> Specs;
  std::vector<std::string> Positionals;
  /// Set by parse() when the failing value parser supplied its own message.
  bool OwnMessage = false;
};

} // namespace offchip

#endif // OFFCHIP_SUPPORT_OPTIONS_H
