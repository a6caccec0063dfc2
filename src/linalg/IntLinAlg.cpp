//===- linalg/IntLinAlg.cpp -----------------------------------------------===//

#include "linalg/IntLinAlg.h"

#include "support/Error.h"
#include "support/MathUtil.h"

#include <utility>

using namespace offchip;

std::int64_t offchip::determinant(const IntMatrix &M) {
  assert(M.numRows() == M.numCols() && "determinant of non-square matrix");
  unsigned N = M.numRows();
  if (N == 0)
    return 1;
  IntMatrix A = M;
  std::int64_t Prev = 1;
  std::int64_t Sign = 1;
  for (unsigned K = 0; K + 1 < N; ++K) {
    if (A.at(K, K) == 0) {
      unsigned Pivot = K + 1;
      while (Pivot < N && A.at(Pivot, K) == 0)
        ++Pivot;
      if (Pivot == N)
        return 0;
      A.swapRows(K, Pivot);
      Sign = -Sign;
    }
    for (unsigned R = K + 1; R < N; ++R) {
      for (unsigned C = K + 1; C < N; ++C)
        A.at(R, C) = (A.at(K, K) * A.at(R, C) - A.at(R, K) * A.at(K, C)) /
                     Prev;
      A.at(R, K) = 0;
    }
    Prev = A.at(K, K);
  }
  return Sign * A.at(N - 1, N - 1);
}

bool offchip::isUnimodular(const IntMatrix &M) {
  if (M.numRows() != M.numCols())
    return false;
  std::int64_t D = determinant(M);
  return D == 1 || D == -1;
}

std::vector<IntVector> offchip::nullspaceBasis(const IntMatrix &M) {
  // Column-style reduction: find unimodular V with M * V = [E | 0] where E is
  // a column echelon form. The columns of V that map to zero columns of the
  // reduced matrix are an integer basis of the right nullspace.
  unsigned NumCols = M.numCols();
  IntMatrix A = M;
  IntMatrix V = IntMatrix::identity(NumCols);

  unsigned Lead = 0; // Next column position to place a pivot into.
  for (unsigned Row = 0; Row < A.numRows() && Lead < NumCols; ++Row) {
    // Use Euclidean column operations to collect the gcd of row entries in
    // columns [Lead, NumCols) into column Lead and zero out the rest.
    bool Any = false;
    for (unsigned C = Lead; C < NumCols; ++C)
      if (A.at(Row, C) != 0)
        Any = true;
    if (!Any)
      continue;
    for (unsigned C = Lead + 1; C < NumCols; ++C) {
      while (A.at(Row, C) != 0) {
        if (A.at(Row, Lead) == 0) {
          A.swapColumns(Lead, C);
          V.swapColumns(Lead, C);
          continue;
        }
        std::int64_t Q = A.at(Row, C) / A.at(Row, Lead);
        if (Q != 0) {
          A.addColumnMultiple(C, Lead, -Q);
          V.addColumnMultiple(C, Lead, -Q);
        }
        if (A.at(Row, C) != 0) {
          A.swapColumns(Lead, C);
          V.swapColumns(Lead, C);
        }
      }
    }
    if (A.at(Row, Lead) != 0)
      ++Lead;
  }

  std::vector<IntVector> Basis;
  for (unsigned C = Lead; C < NumCols; ++C)
    Basis.push_back(normalizePrimitive(V.column(C)));
  return Basis;
}

HermiteResult offchip::hermiteNormalForm(const IntMatrix &M) {
  IntMatrix H = M;
  IntMatrix T = IntMatrix::identity(M.numRows());
  unsigned PivotRow = 0;
  for (unsigned Col = 0; Col < H.numCols() && PivotRow < H.numRows(); ++Col) {
    // Collect the gcd of this column's entries at or below PivotRow into the
    // pivot row using Euclidean row operations.
    for (unsigned R = PivotRow + 1; R < H.numRows(); ++R) {
      while (H.at(R, Col) != 0) {
        if (H.at(PivotRow, Col) == 0) {
          H.swapRows(PivotRow, R);
          T.swapRows(PivotRow, R);
          continue;
        }
        std::int64_t Q = H.at(R, Col) / H.at(PivotRow, Col);
        if (Q != 0) {
          H.addRowMultiple(R, PivotRow, -Q);
          T.addRowMultiple(R, PivotRow, -Q);
        }
        if (H.at(R, Col) != 0) {
          H.swapRows(PivotRow, R);
          T.swapRows(PivotRow, R);
        }
      }
    }
    if (H.at(PivotRow, Col) == 0)
      continue;
    if (H.at(PivotRow, Col) < 0) {
      H.negateRow(PivotRow);
      T.negateRow(PivotRow);
    }
    // Reduce the entries above the pivot into [0, pivot).
    std::int64_t P = H.at(PivotRow, Col);
    for (unsigned R = 0; R < PivotRow; ++R) {
      std::int64_t Q = floorDiv(H.at(R, Col), P);
      if (Q != 0) {
        H.addRowMultiple(R, PivotRow, -Q);
        T.addRowMultiple(R, PivotRow, -Q);
      }
    }
    ++PivotRow;
  }
  return {std::move(H), std::move(T)};
}

std::optional<IntMatrix> offchip::completeToUnimodularRow(const IntVector &G,
                                                          unsigned V) {
  unsigned N = static_cast<unsigned>(G.size());
  assert(V < N && "target row out of range");
  if (isZeroVector(G))
    return std::nullopt;
  // Make the row primitive but keep the caller's orientation: the sign of
  // g_v decides whether thread order and data-block order agree.
  IntVector Row = G;
  std::int64_t Gcd = 0;
  for (std::int64_t X : Row)
    Gcd = gcd64(Gcd, X);
  for (std::int64_t &X : Row)
    X /= Gcd;

  // Reduce Row to +/- e0 with elementary column operations, mirroring each
  // operation's inverse as a row operation on W. The invariant is
  // Row_original * Ops = RowWorking and W = Ops^{-1}, so once RowWorking is
  // e0, row 0 of W equals the original Row.
  IntVector Work = Row;
  IntMatrix W = IntMatrix::identity(N);
  for (unsigned C = 1; C < N; ++C) {
    while (Work[C] != 0) {
      if (Work[0] == 0) {
        std::swap(Work[0], Work[C]);
        W.swapRows(0, C);
        continue;
      }
      std::int64_t Q = Work[C] / Work[0];
      if (Q != 0) {
        // Column op: col C -= Q * col 0. Inverse row op on W: row 0 += Q *
        // row C.
        Work[C] -= Q * Work[0];
        W.addRowMultiple(0, C, Q);
      }
      if (Work[C] != 0) {
        std::swap(Work[0], Work[C]);
        W.swapRows(0, C);
      }
    }
  }
  assert((Work[0] == 1 || Work[0] == -1) &&
         "primitive vector must reduce to a unit");
  if (Work[0] == -1)
    W.negateRow(0);
  assert(W.row(0) == Row && "completion lost the target row");
  W.swapRows(0, V);
  assert(isUnimodular(W) && "completion must be unimodular");
  return W;
}
