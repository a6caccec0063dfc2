//===- affine/ArrayDecl.h - Array declarations ------------------*- C++ -*-===//
///
/// \file
/// Arrays in the affine program model. Sizes are known up front (Section 4 of
/// the paper assumes this, deriving them by profiling when not); layouts are
/// row-major with the first dimension slowest-varying.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_AFFINE_ARRAYDECL_H
#define OFFCHIP_AFFINE_ARRAYDECL_H

#include "linalg/IntMatrix.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace offchip {

/// Identifies an array within one AffineProgram.
using ArrayId = unsigned;

/// An n-dimensional array with known extents.
struct ArrayDecl {
  std::string Name;
  /// Extents per dimension; Dims[0] is the slowest-varying (row-major).
  IntVector Dims;
  /// Element size in bytes (8 for the double-typed scientific codes modeled).
  unsigned ElementBytes = 8;

  unsigned rank() const { return static_cast<unsigned>(Dims.size()); }

  /// Total number of elements.
  std::uint64_t numElements() const {
    std::uint64_t N = 1;
    for (std::int64_t D : Dims) {
      assert(D > 0 && "array extent must be positive");
      N *= static_cast<std::uint64_t>(D);
    }
    return N;
  }

  std::uint64_t sizeInBytes() const { return numElements() * ElementBytes; }

  /// \returns true if \p DataVec lies inside the array bounds.
  bool contains(const IntVector &DataVec) const {
    if (DataVec.size() != Dims.size())
      return false;
    for (std::size_t I = 0; I < Dims.size(); ++I)
      if (DataVec[I] < 0 || DataVec[I] >= Dims[I])
        return false;
    return true;
  }

  /// Row-major linearization of \p DataVec (must be in bounds).
  std::uint64_t linearize(const IntVector &DataVec) const {
    assert(contains(DataVec) && "linearize out of bounds");
    std::uint64_t Off = 0;
    for (std::size_t I = 0; I < Dims.size(); ++I)
      Off = Off * static_cast<std::uint64_t>(Dims[I]) +
            static_cast<std::uint64_t>(DataVec[I]);
    return Off;
  }

  /// Inverse of linearize.
  IntVector delinearize(std::uint64_t Offset) const {
    IntVector V;
    delinearizeInto(Offset, V);
    return V;
  }

  /// delinearize() into the caller's buffer \p V (resized to rank()).
  void delinearizeInto(std::uint64_t Offset, IntVector &V) const {
    V.resize(Dims.size());
    for (std::size_t I = Dims.size(); I > 0; --I) {
      std::uint64_t D = static_cast<std::uint64_t>(Dims[I - 1]);
      V[I - 1] = static_cast<std::int64_t>(Offset % D);
      Offset /= D;
    }
    assert(Offset == 0 && "delinearize offset out of bounds");
  }
};

} // namespace offchip

#endif // OFFCHIP_AFFINE_ARRAYDECL_H
