//===- support/Stats.h - Statistics accumulators ----------------*- C++ -*-===//
///
/// \file
/// Accumulators used by the simulators to aggregate latencies, hop counts and
/// queue occupancies, plus a small integer histogram that can render the
/// link-traversal CDF of Figure 15.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_STATS_H
#define OFFCHIP_SUPPORT_STATS_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace offchip {

/// Running sum/count/min/max of a stream of samples.
class Accumulator {
public:
  void addSample(double Value) {
    Sum += Value;
    if (Count == 0 || Value < Min)
      Min = Value;
    if (Count == 0 || Value > Max)
      Max = Value;
    ++Count;
  }

  std::uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double mean() const { return Count == 0 ? 0.0 : Sum / Count; }
  double min() const { return Count == 0 ? 0.0 : Min; }
  double max() const { return Count == 0 ? 0.0 : Max; }
  bool empty() const { return Count == 0; }

  /// Reconstructs an accumulator from its exposed moments (the inverse of
  /// serializing count/sum/min/max, e.g. over the service wire protocol).
  /// A zero \p Count yields the empty accumulator regardless of the other
  /// arguments.
  static Accumulator fromMoments(std::uint64_t Count, double Sum, double Min,
                                 double Max) {
    Accumulator A;
    if (Count == 0)
      return A;
    A.Count = Count;
    A.Sum = Sum;
    A.Min = Min;
    A.Max = Max;
    return A;
  }

private:
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  std::uint64_t Count = 0;
};

/// Histogram over small non-negative integers (e.g., hop counts). Buckets
/// grow on demand; samples beyond a configurable cap land in the last bucket.
class IntHistogram {
public:
  explicit IntHistogram(unsigned MaxBucket = 256) : MaxBucket(MaxBucket) {}

  void addSample(std::uint64_t Value);

  /// Total number of samples recorded.
  std::uint64_t total() const { return Total; }

  /// Count in bucket \p B (0 if never touched).
  std::uint64_t countAt(unsigned B) const {
    return B < Buckets.size() ? Buckets[B] : 0;
  }

  /// Largest bucket index that has at least one sample (0 when empty).
  unsigned maxNonEmptyBucket() const;

  /// \returns the fraction of samples with value <= B, i.e. the CDF used by
  /// Figure 15. Returns 1.0 for an empty histogram to keep plots sane.
  double cdfAt(unsigned B) const;

  /// Weighted mean of the bucket indices.
  double mean() const;

  /// The overflow cap this histogram was constructed with (samples beyond
  /// it land in the last bucket).
  unsigned cap() const { return MaxBucket; }

  /// Reconstructs a histogram from its bucket counts (the inverse of
  /// serializing cap + countAt(0..maxNonEmptyBucket), e.g. over the service
  /// wire protocol). Equivalent to replaying every sample, without the
  /// replay.
  static IntHistogram fromBuckets(unsigned Cap,
                                  std::vector<std::uint64_t> Buckets) {
    IntHistogram H(Cap);
    H.Buckets = std::move(Buckets);
    for (std::uint64_t C : H.Buckets)
      H.Total += C;
    return H;
  }

private:
  unsigned MaxBucket;
  std::vector<std::uint64_t> Buckets;
  std::uint64_t Total = 0;
};

} // namespace offchip

#endif // OFFCHIP_SUPPORT_STATS_H
