//===- affine/IndexProfile.cpp --------------------------------------------===//

#include "affine/IndexProfile.h"

#include <cmath>
#include <vector>

using namespace offchip;

namespace {

/// Solves the (Depth+1)-variable normal equations N*x = b with
/// Gauss-Jordan elimination over doubles. Unidentifiable coefficients
/// (zero-pivot columns, e.g. an iterator the sampling never varied) are
/// pinned to zero instead of failing the whole fit. \returns false only
/// when nothing is identifiable.
bool solveNormalEquations(std::vector<std::vector<double>> &N,
                          std::vector<double> &B, std::vector<double> &X) {
  std::size_t K = B.size();
  std::vector<bool> Pinned(K, false);
  for (std::size_t Col = 0; Col < K; ++Col) {
    // Partial pivot within this column.
    std::size_t Pivot = Col;
    for (std::size_t R = Col + 1; R < K; ++R)
      if (std::fabs(N[R][Col]) > std::fabs(N[Pivot][Col]))
        Pivot = R;
    if (std::fabs(N[Pivot][Col]) < 1e-9) {
      Pinned[Col] = true; // coefficient not identifiable from the samples
      continue;
    }
    std::swap(N[Col], N[Pivot]);
    std::swap(B[Col], B[Pivot]);
    for (std::size_t R = 0; R < K; ++R) {
      if (R == Col)
        continue;
      double F = N[R][Col] / N[Col][Col];
      if (F == 0.0)
        continue;
      for (std::size_t C = Col; C < K; ++C)
        N[R][C] -= F * N[Col][C];
      B[R] -= F * B[Col];
    }
  }
  X.assign(K, 0.0);
  bool Any = false;
  for (std::size_t I = 0; I < K; ++I) {
    if (Pinned[I])
      continue;
    X[I] = B[I] / N[I][I];
    Any = true;
  }
  return Any;
}

} // namespace

std::optional<IndexApproximation>
offchip::approximateIndexedRef(const AffineProgram &Program,
                               const LoopNest &Nest, const IndexedRef &Ref,
                               std::uint64_t MaxSamples) {
  const IndexValues *Values = Program.indexArrayValues(Ref.IndexArray);
  if (!Values)
    return std::nullopt;
  const ArrayDecl &Data = Program.array(Ref.DataArray);
  if (Data.rank() != 1)
    return std::nullopt;
  const ArrayDecl &Index = Program.array(Ref.IndexArray);

  const IterationSpace &Space = Nest.space();
  std::uint64_t Trip = Space.tripCount();
  if (Trip == 0)
    return std::nullopt;

  unsigned Depth = Space.depth();
  std::uint64_t Stride = Trip <= MaxSamples ? 1 : Trip / MaxSamples;
  // An odd stride avoids degenerate sampling patterns that freeze inner
  // iterators (e.g. a stride divisible by the innermost extent).
  if (Stride % 2 == 0)
    ++Stride;

  // Accumulate normal equations for d ~= c0 + sum c_j i_j.
  std::size_t K = Depth + 1;
  std::vector<std::vector<double>> N(K, std::vector<double>(K, 0.0));
  std::vector<double> B(K, 0.0);

  // The profile visits the lexicographic positions 0, Stride, 2*Stride, ...
  // below Trip. The space is rectangular, so a position's iteration vector
  // is its mixed-radix digits over the level extents, innermost level
  // last, and the next sample's is this one's plus Stride's digits, with
  // carries: no walk over the positions in between. Samples keep their
  // iteration vectors in one flat buffer (Depth per sample).
  const IntMatrix &IndexA = Ref.IndexAccess.accessMatrix();
  const IntVector &IndexO = Ref.IndexAccess.offset();
  const unsigned IndexRank = Ref.IndexAccess.dataRank();
  // An index reference of the wrong rank is never inside the index array.
  std::uint64_t Positions =
      IndexRank == Index.rank() ? (Trip - 1) / Stride + 1 : 0;
  std::vector<std::int64_t> Iters;
  std::vector<double> Ds;
  Iters.reserve(Positions * Depth);
  Ds.reserve(Positions);
  IntVector StrideDigits(Depth);
  std::uint64_t Rest = Stride;
  for (unsigned L = Depth; L > 0; --L) {
    std::uint64_t E = static_cast<std::uint64_t>(Space.extent(L - 1));
    StrideDigits[L - 1] = static_cast<std::int64_t>(Rest % E);
    Rest /= E;
  }
  IntVector Iter = Space.firstIteration();
  std::vector<double> Row(K);
  Row[0] = 1.0;
  // Index arrays are flattened for profiling: a sample needs the index
  // vector inside the decl, then its row-major slot.
  for (std::uint64_t P = 0; P < Positions; ++P) {
    // Both digits are below the extent, so a level carries at most one.
    bool Carry = false;
    for (unsigned L = Depth; P != 0 && L > 0; --L) {
      std::int64_t V = Iter[L - 1] + StrideDigits[L - 1] + Carry;
      Carry = V >= Space.upper(L - 1);
      Iter[L - 1] = Carry ? V - Space.extent(L - 1) : V;
    }
    std::uint64_t Slot = 0;
    bool Inside = true;
    for (unsigned R = 0; R < IndexRank && Inside; ++R) {
      std::int64_t V = 0;
      for (unsigned L = 0; L < Depth; ++L)
        V += IndexA.at(R, L) * Iter[L];
      V += IndexO[R];
      Inside = V >= 0 && V < Index.Dims[R];
      Slot = Slot * static_cast<std::uint64_t>(Index.Dims[R]) +
             static_cast<std::uint64_t>(V);
    }
    if (!Inside || Slot >= Values->size())
      continue;
    double D = static_cast<double>(Values->at(Slot));
    for (unsigned J = 0; J < Depth; ++J)
      Row[J + 1] = static_cast<double>(Iter[J]);
    for (std::size_t R = 0; R < K; ++R) {
      for (std::size_t C = 0; C < K; ++C)
        N[R][C] += Row[R] * Row[C];
      B[R] += Row[R] * D;
    }
    Iters.insert(Iters.end(), Iter.begin(), Iter.end());
    Ds.push_back(D);
  }
  std::size_t NumSamples = Ds.size();
  if (NumSamples < K)
    return std::nullopt;

  std::vector<double> X;
  if (!solveNormalEquations(N, B, X)) {
    // Degenerate profile (e.g. single iteration level constant); fall back
    // to the mean-value constant approximation.
    X.assign(K, 0.0);
    double Mean = 0.0;
    for (double D : Ds)
      Mean += D;
    X[0] = Mean / static_cast<double>(NumSamples);
  }

  // Round to an integer affine reference.
  IntVector Coef(Depth);
  for (unsigned J = 0; J < Depth; ++J)
    Coef[J] = static_cast<std::int64_t>(std::llround(X[J + 1]));
  std::int64_t Offset = static_cast<std::int64_t>(std::llround(X[0]));

  auto MeanAbsError = [&](const IntVector &C) {
    double Sum = 0.0;
    const std::int64_t *It = Iters.data();
    for (std::size_t S = 0; S < NumSamples; ++S, It += Depth) {
      std::int64_t V = 0;
      for (unsigned J = 0; J < Depth; ++J)
        V += C[J] * It[J];
      V += Offset;
      Sum += std::fabs(static_cast<double>(V) - Ds[S]);
    }
    return Sum / static_cast<double>(NumSamples);
  };

  // Shrinkage: a noisy regression can assign a small iterator a spurious
  // integer coefficient (which would needlessly constrain the Data-to-Core
  // solve). Zero any coefficient whose removal does not worsen the error
  // noticeably.
  double CurErr = MeanAbsError(Coef);
  for (unsigned J = 0; J < Depth; ++J) {
    if (Coef[J] == 0)
      continue;
    std::int64_t Kept = Coef[J];
    Coef[J] = 0;
    double TrialErr = MeanAbsError(Coef);
    if (TrialErr <= CurErr * 1.1)
      CurErr = TrialErr;
    else
      Coef[J] = Kept;
  }
  IntMatrix Access(1, Depth);
  for (unsigned J = 0; J < Depth; ++J)
    Access.at(0, J) = Coef[J];
  AffineRef Approx(Ref.DataArray, Access, IntVector(1, Offset), Ref.IsWrite);

  // Mean absolute error of the *rounded* approximation, as a fraction of the
  // data array extent.
  double ErrSum = CurErr * static_cast<double>(NumSamples);
  // Normalize by Extent/4, the mean absolute deviation of a uniformly
  // random pattern: 1.0 therefore means "no better than random".
  double Extent = static_cast<double>(Data.Dims[0]);
  double ErrFrac =
      Extent > 0.0
          ? (ErrSum / static_cast<double>(NumSamples)) / (Extent / 4.0)
          : 1.0;

  IndexApproximation Result{std::move(Approx), ErrFrac, NumSamples};
  return Result;
}
