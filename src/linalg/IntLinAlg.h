//===- linalg/IntLinAlg.h - Integer linear algebra --------------*- C++ -*-===//
///
/// \file
/// The integer linear algebra Algorithm 1 relies on:
///   - the determinant via fraction-free (Bareiss) elimination,
///   - right-nullspace bases, used to solve B^T g_v^T = 0 (Eq. 3),
///   - row-style Hermite normal form with transformation tracking, used for
///     the unimodularity correction step (Algorithm 1, lines 10-12),
///   - completion of a primitive row vector to a unimodular matrix, which
///     turns the solved hyperplane vector g_v into the full layout
///     transformation U (Section 5.2).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_LINALG_INTLINALG_H
#define OFFCHIP_LINALG_INTLINALG_H

#include "linalg/IntMatrix.h"

#include <optional>

namespace offchip {

/// \returns det(M) for square \p M via the Bareiss algorithm.
std::int64_t determinant(const IntMatrix &M);

/// \returns true if \p M is square with determinant +1 or -1.
bool isUnimodular(const IntMatrix &M);

/// \returns an integer basis of { x : M x = 0 }. Each basis vector is
/// primitive. The basis is empty iff M has full column rank.
std::vector<IntVector> nullspaceBasis(const IntMatrix &M);

/// Row-style Hermite normal form: H = T * M with T unimodular, H upper
/// echelon with positive pivots and entries above each pivot reduced into
/// [0, pivot).
struct HermiteResult {
  IntMatrix H;
  IntMatrix T;
};

HermiteResult hermiteNormalForm(const IntMatrix &M);

/// Completes \p G (divided by its gcd internally, sign preserved) into an
/// N x N unimodular matrix whose row \p V equals the primitive form of \p G.
/// Returns std::nullopt if \p G is the zero vector.
///
/// This realizes "Unimodular_Layout_Transformation" of Algorithm 1: the layout
/// transformation U is fully determined by its v-th row g_v; the other rows
/// only need to keep U invertible over the integers.
std::optional<IntMatrix> completeToUnimodularRow(const IntVector &G,
                                                 unsigned V);

} // namespace offchip

#endif // OFFCHIP_LINALG_INTLINALG_H
