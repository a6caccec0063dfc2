//===- affine/AffineRef.h - Affine array references -------------*- C++ -*-===//
///
/// \file
/// An affine array reference r = A*i + o (Section 5.1): A is the n x m access
/// matrix mapping an m-deep iteration vector to an n-dimensional data vector,
/// o is the constant offset.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_AFFINE_AFFINEREF_H
#define OFFCHIP_AFFINE_AFFINEREF_H

#include "affine/ArrayDecl.h"
#include "linalg/IntMatrix.h"

namespace offchip {

/// One affine reference to an array inside a loop nest.
class AffineRef {
public:
  AffineRef() = default;

  /// \param Array    the referenced array
  /// \param Access   the n x m access matrix A
  /// \param Offset   the n-entry constant vector o
  /// \param IsWrite  true for stores
  AffineRef(ArrayId Array, IntMatrix Access, IntVector Offset, bool IsWrite);

  ArrayId arrayId() const { return Array; }
  const IntMatrix &accessMatrix() const { return Access; }
  const IntVector &offset() const { return Offset; }
  bool isWrite() const { return Write; }

  unsigned dataRank() const { return Access.numRows(); }
  unsigned loopDepth() const { return Access.numCols(); }

  /// Evaluates the data vector touched at iteration \p Iter: A*Iter + o.
  IntVector evaluate(const IntVector &Iter) const;

  /// Applies a layout transformation matrix: the reference becomes
  /// (Transform*A, Transform*o), matching r' = U*r in Section 5.2.
  AffineRef transformed(const IntMatrix &Transform) const;

private:
  ArrayId Array = 0;
  IntMatrix Access;
  IntVector Offset;
  bool Write = false;
};

/// An indexed (irregular) reference Data[Index[f(i)]] (Section 5.4). The
/// index array is itself read through an affine reference; the fetched value
/// is a flat element offset into the data array.
struct IndexedRef {
  ArrayId DataArray = 0;
  ArrayId IndexArray = 0;
  /// Affine access into the (flattened) index array.
  AffineRef IndexAccess;
  bool IsWrite = false;
};

} // namespace offchip

#endif // OFFCHIP_AFFINE_AFFINEREF_H
