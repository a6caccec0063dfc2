//===- linalg/IntMatrix.cpp -----------------------------------------------===//

#include "linalg/IntMatrix.h"

#include "support/MathUtil.h"

#include <utility>

using namespace offchip;

std::int64_t offchip::dot(const IntVector &A, const IntVector &B) {
  assert(A.size() == B.size() && "dot of mismatched vectors");
  std::int64_t Sum = 0;
  for (std::size_t I = 0; I < A.size(); ++I)
    Sum += A[I] * B[I];
  return Sum;
}

bool offchip::isZeroVector(const IntVector &V) {
  for (std::int64_t X : V)
    if (X != 0)
      return false;
  return true;
}

IntVector offchip::normalizePrimitive(IntVector V) {
  std::int64_t G = 0;
  for (std::int64_t X : V)
    G = gcd64(G, X);
  if (G == 0)
    return V;
  for (std::int64_t &X : V)
    X /= G;
  for (std::int64_t X : V) {
    if (X == 0)
      continue;
    if (X < 0)
      for (std::int64_t &Y : V)
        Y = -Y;
    break;
  }
  return V;
}

IntMatrix IntMatrix::fromRows(const std::vector<IntVector> &RowList) {
  if (RowList.empty())
    return IntMatrix();
  IntMatrix M(static_cast<unsigned>(RowList.size()),
              static_cast<unsigned>(RowList.front().size()));
  for (unsigned R = 0; R < M.Rows; ++R) {
    assert(RowList[R].size() == M.Cols && "ragged row list");
    for (unsigned C = 0; C < M.Cols; ++C)
      M.at(R, C) = RowList[R][C];
  }
  return M;
}

IntMatrix IntMatrix::identity(unsigned N) {
  IntMatrix M(N, N);
  for (unsigned I = 0; I < N; ++I)
    M.at(I, I) = 1;
  return M;
}

IntVector IntMatrix::row(unsigned R) const {
  assert(R < Rows && "row out of range");
  IntVector V(Cols);
  for (unsigned C = 0; C < Cols; ++C)
    V[C] = at(R, C);
  return V;
}

IntVector IntMatrix::column(unsigned C) const {
  assert(C < Cols && "column out of range");
  IntVector V(Rows);
  for (unsigned R = 0; R < Rows; ++R)
    V[R] = at(R, C);
  return V;
}

void IntMatrix::setRow(unsigned R, const IntVector &V) {
  assert(V.size() == Cols && "setRow length mismatch");
  for (unsigned C = 0; C < Cols; ++C)
    at(R, C) = V[C];
}

IntMatrix IntMatrix::transpose() const {
  IntMatrix T(Cols, Rows);
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned C = 0; C < Cols; ++C)
      T.at(C, R) = at(R, C);
  return T;
}

IntMatrix IntMatrix::withColumnRemoved(unsigned C) const {
  assert(C < Cols && "withColumnRemoved out of range");
  IntMatrix M(Rows, Cols - 1);
  for (unsigned R = 0; R < Rows; ++R) {
    unsigned Out = 0;
    for (unsigned In = 0; In < Cols; ++In) {
      if (In == C)
        continue;
      M.at(R, Out++) = at(R, In);
    }
  }
  return M;
}

IntMatrix IntMatrix::multiply(const IntMatrix &Other) const {
  assert(Cols == Other.Rows && "multiply dimension mismatch");
  IntMatrix P(Rows, Other.Cols);
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned K = 0; K < Cols; ++K) {
      std::int64_t V = at(R, K);
      if (V == 0)
        continue;
      for (unsigned C = 0; C < Other.Cols; ++C)
        P.at(R, C) += V * Other.at(K, C);
    }
  return P;
}

IntVector IntMatrix::apply(const IntVector &V) const {
  assert(V.size() == Cols && "apply dimension mismatch");
  IntVector Out(Rows, 0);
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned C = 0; C < Cols; ++C)
      Out[R] += at(R, C) * V[C];
  return Out;
}

void IntMatrix::swapRows(unsigned R0, unsigned R1) {
  assert(R0 < Rows && R1 < Rows && "swapRows out of range");
  if (R0 == R1)
    return;
  for (unsigned C = 0; C < Cols; ++C)
    std::swap(at(R0, C), at(R1, C));
}

void IntMatrix::swapColumns(unsigned C0, unsigned C1) {
  assert(C0 < Cols && C1 < Cols && "swapColumns out of range");
  if (C0 == C1)
    return;
  for (unsigned R = 0; R < Rows; ++R)
    std::swap(at(R, C0), at(R, C1));
}

void IntMatrix::addRowMultiple(unsigned Dst, unsigned Src,
                               std::int64_t Factor) {
  assert(Dst < Rows && Src < Rows && "addRowMultiple out of range");
  for (unsigned C = 0; C < Cols; ++C)
    at(Dst, C) += Factor * at(Src, C);
}

void IntMatrix::addColumnMultiple(unsigned Dst, unsigned Src,
                                  std::int64_t Factor) {
  assert(Dst < Cols && Src < Cols && "addColumnMultiple out of range");
  for (unsigned R = 0; R < Rows; ++R)
    at(R, Dst) += Factor * at(R, Src);
}

void IntMatrix::negateRow(unsigned R) {
  assert(R < Rows && "negateRow out of range");
  for (unsigned C = 0; C < Cols; ++C)
    at(R, C) = -at(R, C);
}

std::string IntMatrix::toString() const {
  std::string Out = "[";
  for (unsigned R = 0; R < Rows; ++R) {
    Out += R == 0 ? "[" : ", [";
    for (unsigned C = 0; C < Cols; ++C) {
      if (C != 0)
        Out += ", ";
      Out += std::to_string(at(R, C));
    }
    Out += "]";
  }
  Out += "]";
  return Out;
}
