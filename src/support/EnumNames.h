//===- support/EnumNames.h - Canonical enum spellings -----------*- C++ -*-===//
///
/// \file
/// One spelling table per enum, shared by the CLI flags and the JSON wire
/// layer so the two can never drift apart. An enum opts in by declaring,
/// next to itself, an `enumNames(E)` overload that returns its table of
/// EnumName rows; the helpers below find it by argument-dependent lookup.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_ENUMNAMES_H
#define OFFCHIP_SUPPORT_ENUMNAMES_H

#include <string>
#include <string_view>

namespace offchip {

/// One enumerator and its canonical lower-case spelling.
template <class E> struct EnumName {
  E Value;
  const char *Name;
};

/// The canonical spelling of \p V.
template <class E> const char *enumName(E V) {
  for (const EnumName<E> &N : enumNames(V))
    if (N.Value == V)
      return N.Name;
  return "?";
}

/// Parses a canonical spelling. \returns false (leaving \p Out untouched)
/// on any other string.
template <class E> bool enumFromName(std::string_view S, E *Out) {
  for (const EnumName<E> &N : enumNames(E{}))
    if (S == N.Name) {
      *Out = N.Value;
      return true;
    }
  return false;
}

/// Comma-joined list of every spelling of \p E, for diagnostics.
template <class E> std::string enumNameList() {
  std::string Out;
  for (const EnumName<E> &N : enumNames(E{}))
    Out += (Out.empty() ? "" : ", ") + std::string(N.Name);
  return Out;
}

} // namespace offchip

#endif // OFFCHIP_SUPPORT_ENUMNAMES_H
