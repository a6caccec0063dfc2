//===- support/Stats.cpp --------------------------------------------------===//

#include "support/Stats.h"

using namespace offchip;

void IntHistogram::addSample(std::uint64_t Value) {
  unsigned B = Value >= MaxBucket ? MaxBucket - 1
                                  : static_cast<unsigned>(Value);
  if (B >= Buckets.size())
    Buckets.resize(B + 1, 0);
  ++Buckets[B];
  ++Total;
}

unsigned IntHistogram::maxNonEmptyBucket() const {
  for (unsigned B = static_cast<unsigned>(Buckets.size()); B > 0; --B)
    if (Buckets[B - 1] != 0)
      return B - 1;
  return 0;
}

double IntHistogram::cdfAt(unsigned B) const {
  if (Total == 0)
    return 1.0;
  std::uint64_t Below = 0;
  for (unsigned I = 0; I <= B && I < Buckets.size(); ++I)
    Below += Buckets[I];
  return static_cast<double>(Below) / static_cast<double>(Total);
}

double IntHistogram::mean() const {
  if (Total == 0)
    return 0.0;
  double Sum = 0.0;
  for (unsigned I = 0; I < Buckets.size(); ++I)
    Sum += static_cast<double>(I) * static_cast<double>(Buckets[I]);
  return Sum / static_cast<double>(Total);
}

