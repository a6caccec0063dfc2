//===- linalg/IntMatrix.h - Dense integer matrices --------------*- C++ -*-===//
///
/// \file
/// A small dense matrix of int64 entries. Access matrices, layout
/// transformation matrices and hyperplane vectors in the paper are all tiny
/// (loop depth and array rank rarely exceed 4), so a flat row-major vector is
/// the right representation; no sparsity or arbitrary precision is needed.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_LINALG_INTMATRIX_H
#define OFFCHIP_LINALG_INTMATRIX_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace offchip {

/// A dense integer vector; used for iteration vectors, data vectors, offsets
/// and hyperplane vectors.
using IntVector = std::vector<std::int64_t>;

/// \returns the dot product of two equal-length vectors.
std::int64_t dot(const IntVector &A, const IntVector &B);

/// \returns true if every entry of \p V is zero (true for the empty vector).
bool isZeroVector(const IntVector &V);

/// Divides \p V by the gcd of its entries, making it primitive, and flips the
/// sign so the first non-zero entry is positive. The zero vector is returned
/// unchanged.
IntVector normalizePrimitive(IntVector V);

/// Dense row-major int64 matrix.
class IntMatrix {
public:
  IntMatrix() = default;

  /// Creates a NumRows x NumCols zero matrix.
  IntMatrix(unsigned NumRows, unsigned NumCols)
      : Rows(NumRows), Cols(NumCols),
        Data(static_cast<std::size_t>(NumRows) * NumCols, 0) {}

  /// Creates a matrix from a row-of-rows initializer; all rows must have the
  /// same length.
  static IntMatrix fromRows(const std::vector<IntVector> &RowList);

  /// The N x N identity.
  static IntMatrix identity(unsigned N);

  unsigned numRows() const { return Rows; }
  unsigned numCols() const { return Cols; }
  bool empty() const { return Rows == 0 || Cols == 0; }

  std::int64_t &at(unsigned R, unsigned C) {
    assert(R < Rows && C < Cols && "IntMatrix::at out of range");
    return Data[static_cast<std::size_t>(R) * Cols + C];
  }
  std::int64_t at(unsigned R, unsigned C) const {
    assert(R < Rows && C < Cols && "IntMatrix::at out of range");
    return Data[static_cast<std::size_t>(R) * Cols + C];
  }

  /// Copies out row \p R.
  IntVector row(unsigned R) const;

  /// Copies out column \p C.
  IntVector column(unsigned C) const;

  /// Overwrites row \p R with \p V (same length as numCols()).
  void setRow(unsigned R, const IntVector &V);

  IntMatrix transpose() const;

  /// \returns this matrix with column \p C deleted. This is the submatrix B
  /// of Section 5.2 when \p C is the iteration partition dimension.
  IntMatrix withColumnRemoved(unsigned C) const;

  /// Matrix product; inner dimensions must agree.
  IntMatrix multiply(const IntMatrix &Other) const;

  /// Matrix-vector product (V has numCols() entries).
  IntVector apply(const IntVector &V) const;

  void swapRows(unsigned R0, unsigned R1);
  void swapColumns(unsigned C0, unsigned C1);

  /// Row[Dst] += Factor * Row[Src].
  void addRowMultiple(unsigned Dst, unsigned Src, std::int64_t Factor);

  /// Col[Dst] += Factor * Col[Src].
  void addColumnMultiple(unsigned Dst, unsigned Src, std::int64_t Factor);

  void negateRow(unsigned R);

  bool operator==(const IntMatrix &Other) const {
    return Rows == Other.Rows && Cols == Other.Cols && Data == Other.Data;
  }
  bool operator!=(const IntMatrix &Other) const { return !(*this == Other); }

  /// Renders the matrix as "[[a, b], [c, d]]" for diagnostics.
  std::string toString() const;

private:
  unsigned Rows = 0;
  unsigned Cols = 0;
  std::vector<std::int64_t> Data;
};

} // namespace offchip

#endif // OFFCHIP_LINALG_INTMATRIX_H
