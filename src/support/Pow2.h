//===- support/Pow2.h - Precomputed division helpers ------------*- C++ -*-===//
///
/// \file
/// Shift/mask division for the simulator's address-decode hot paths. Every
/// per-access decode (cache set/line extraction, MC interleave selection,
/// page-number math, bank indexing) divides by a configuration constant that
/// is almost always a power of two; Pow2Divider precomputes the shift and
/// mask once at construction. For other divisors div is a hardware divide
/// and mod is Lemire's fastmod: the remainder read off the low bits of a
/// 128-bit reciprocal product, exact for every 64-bit numerator (Lemire,
/// Kaser and Kurz, "Faster Remainder by Direct Computation", 2019), and
/// three multiplies instead of a 64-bit divide.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_POW2_H
#define OFFCHIP_SUPPORT_POW2_H

#include "support/MathUtil.h"

#include <cassert>
#include <cstdint>

namespace offchip {

/// Divides/reduces unsigned 64-bit values by a fixed positive divisor.
class Pow2Divider {
public:
  /// Divisor 1: div is the identity, mod is always zero.
  Pow2Divider() = default;

  explicit Pow2Divider(std::uint64_t Divisor) : D(Divisor) {
    assert(Divisor != 0 && "divider needs a positive divisor");
    IsPow2 = !ForceGenericDivision && isPowerOfTwo(Divisor);
    if (IsPow2) {
      Shift = log2Floor(Divisor);
      Mask = Divisor - 1;
    } else {
      // M = floor((2^128 - 1) / D) + 1, the 128-bit reciprocal.
      unsigned __int128 M = ~static_cast<unsigned __int128>(0) / Divisor + 1;
      MagicLo = static_cast<std::uint64_t>(M);
      MagicHi = static_cast<std::uint64_t>(M >> 64);
    }
  }

  /// Test-only: when set, dividers constructed afterwards take the generic
  /// div/mod path even for power-of-two divisors. The differential fuzzer
  /// and the fast-path equivalence tests use it to run the *same* config
  /// down both decode paths; results must be bit-identical. Not
  /// thread-safe — flip it only before any simulation threads exist.
  static void setForceGenericDivision(bool Force) {
    ForceGenericDivision = Force;
  }

  std::uint64_t divisor() const { return D; }

  /// X / divisor.
  std::uint64_t div(std::uint64_t X) const {
    return IsPow2 ? X >> Shift : X / D;
  }

  /// X % divisor.
  std::uint64_t mod(std::uint64_t X) const {
    if (IsPow2)
      return X & Mask;
    // fastmod: the fractional part of X / D is the low 128 bits of M * X;
    // scaling it by D and keeping the integer part gives the remainder.
    using U128 = unsigned __int128;
    U128 Low = ((static_cast<U128>(MagicHi) << 64) | MagicLo) * X;
    U128 Mid = (static_cast<U128>(static_cast<std::uint64_t>(Low)) * D) >> 64;
    return static_cast<std::uint64_t>(
        (static_cast<U128>(static_cast<std::uint64_t>(Low >> 64)) * D + Mid) >>
        64);
  }

private:
  static bool ForceGenericDivision; // defined in support/Pow2.cpp

  std::uint64_t D = 1;
  std::uint64_t Mask = 0;
  /// fastmod reciprocal, split so the class keeps 8-byte alignment.
  std::uint64_t MagicLo = 0;
  std::uint64_t MagicHi = 0;
  unsigned Shift = 0;
  bool IsPow2 = true;
};

} // namespace offchip

#endif // OFFCHIP_SUPPORT_POW2_H
