//===- support/MathUtil.h - Small integer math helpers ---------*- C++ -*-===//
///
/// \file
/// Integer helpers shared by the layout machinery and the simulators. The
/// Euclidean division helpers matter for layout transformation correctness:
/// strip-mining formulas in the paper assume non-negative indices, but
/// intermediate affine expressions can be negative, so all layout code funnels
/// division/modulo through floorDiv/floorMod.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_MATHUTIL_H
#define OFFCHIP_SUPPORT_MATHUTIL_H

#include <cassert>
#include <cstdint>

namespace offchip {

/// \returns the quotient of \p A / \p B rounded toward negative infinity.
inline std::int64_t floorDiv(std::int64_t A, std::int64_t B) {
  assert(B != 0 && "floorDiv by zero");
  std::int64_t Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

/// \returns A mod B with the sign of B (floored modulo): in [0, B) for
/// positive B — the only case the layout code uses — and in (B, 0] for
/// negative B. Pairs with floorDiv so that
/// A == floorDiv(A, B) * B + floorMod(A, B) for every nonzero B.
inline std::int64_t floorMod(std::int64_t A, std::int64_t B) {
  std::int64_t R = A - floorDiv(A, B) * B;
  assert((B > 0 ? R >= 0 && R < B : R <= 0 && R > B) &&
         "floorMod result must lie between 0 and B");
  return R;
}

/// \returns ceil(A / B) for non-negative A and positive B.
inline std::uint64_t ceilDiv(std::uint64_t A, std::uint64_t B) {
  assert(B != 0 && "ceilDiv by zero");
  return (A + B - 1) / B;
}

/// \returns true if \p X is a power of two (0 is not).
inline bool isPowerOfTwo(std::uint64_t X) { return X != 0 && (X & (X - 1)) == 0; }

/// \returns floor(log2(X)); X must be non-zero.
inline unsigned log2Floor(std::uint64_t X) {
  assert(X != 0 && "log2Floor of zero");
  unsigned L = 0;
  while (X >>= 1)
    ++L;
  return L;
}

/// \returns the greatest common divisor of |A| and |B| (gcd(0,0) == 0).
inline std::int64_t gcd64(std::int64_t A, std::int64_t B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    std::int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

/// \returns \p X rounded up to the next multiple of \p Align (Align > 0).
inline std::uint64_t alignTo(std::uint64_t X, std::uint64_t Align) {
  assert(Align != 0 && "alignTo by zero");
  return ceilDiv(X, Align) * Align;
}

} // namespace offchip

#endif // OFFCHIP_SUPPORT_MATHUTIL_H
