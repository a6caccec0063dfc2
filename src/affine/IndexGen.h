//===- affine/IndexGen.h - Index-array contents -----------------*- C++ -*-===//
///
/// \file
/// The contents of an index array: flat element offsets into the data
/// arrays its indexed references target. The deterministic patterns the
/// workloads use — window-local neighbor lists / banded sparse matrices
/// (approximable per Section 5.4) and uniformly random pairs
/// (unapproximable on purpose) — are kept as their descriptor, and each
/// entry is computed when it is read: entry n draws the n-th SplitMix64
/// output, which is a pure function of n. A generated array therefore
/// costs O(1) memory and set-up whatever its length. Contents given value
/// by value are held as given.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_AFFINE_INDEXGEN_H
#define OFFCHIP_AFFINE_INDEXGEN_H

#include <cstdint>
#include <vector>

namespace offchip {

/// One index array's contents: size() entries, entry n read by at(n).
class IndexValues {
public:
  /// Contents given value by value (empty: no contents).
  IndexValues(std::vector<std::int64_t> Values = {})
      : Values(std::move(Values)) {}

  /// \p Count entries pointing near a linear ramp over [0, DataExtent):
  /// entry n is clamp(n * DataExtent / Count + uniform(-Window, Window)).
  /// Small windows are approximable (Section 5.4), huge windows are not.
  static IndexValues nearby(std::uint64_t Count, std::int64_t DataExtent,
                            std::int64_t Window, std::uint64_t Seed);

  /// \p Count uniformly random entries in [0, DataExtent).
  static IndexValues random(std::uint64_t Count, std::int64_t DataExtent,
                            std::uint64_t Seed);

  std::uint64_t size() const {
    return Form == Kind::Inline ? Values.size() : Count;
  }

  /// Entry \p N, which must be below size().
  std::int64_t at(std::uint64_t N) const {
    return Form == Kind::Inline ? Values[N] : generated(N);
  }

private:
  enum class Kind : std::uint8_t { Inline, Nearby, Random };

  /// Entry \p N of a nearby or random array.
  std::int64_t generated(std::uint64_t N) const;

  Kind Form = Kind::Inline;
  std::uint64_t Count = 0;
  std::int64_t Extent = 0;
  std::int64_t Window = 0;
  /// 2 * Window + 1: the number of jitter values.
  std::uint64_t Span = 0;
  std::uint64_t Seed = 0;
  std::vector<std::int64_t> Values;
};

} // namespace offchip

#endif // OFFCHIP_AFFINE_INDEXGEN_H
