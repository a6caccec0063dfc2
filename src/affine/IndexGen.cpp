//===- affine/IndexGen.cpp ------------------------------------------------===//

#include "affine/IndexGen.h"

#include "support/Random.h"

#include <cassert>

using namespace offchip;

IndexValues IndexValues::nearby(std::uint64_t Count, std::int64_t DataExtent,
                                std::int64_t Window, std::uint64_t Seed) {
  assert(DataExtent > 0 && "empty data array");
  assert(Window >= 0 && "negative window");
  IndexValues V;
  V.Form = Kind::Nearby;
  V.Count = Count;
  V.Extent = DataExtent;
  V.Window = Window;
  V.Span = 2 * static_cast<std::uint64_t>(Window) + 1;
  V.Seed = Seed;
  return V;
}

IndexValues IndexValues::random(std::uint64_t Count, std::int64_t DataExtent,
                                std::uint64_t Seed) {
  assert(DataExtent > 0 && "empty data array");
  IndexValues V;
  V.Form = Kind::Random;
  V.Count = Count;
  V.Extent = DataExtent;
  V.Seed = Seed;
  return V;
}

std::int64_t IndexValues::generated(std::uint64_t N) const {
  // Entry N takes the (N+1)-th output of SplitMix64(Seed), which is a pure
  // function of N.
  std::uint64_t Draw = SplitMix64::mix(Seed + (N + 1) * SplitMix64::Gamma);
  if (Form == Kind::Random)
    return static_cast<std::int64_t>(Draw %
                                     static_cast<std::uint64_t>(Extent));
  // The ramp in 128 bits: N * Extent passes 2^64 on long arrays over large
  // extents. The quotient is below Extent.
  __int128 V = static_cast<__int128>(static_cast<unsigned __int128>(N) *
                                     static_cast<std::uint64_t>(Extent) /
                                     Count);
  if (Window != 0)
    V += static_cast<__int128>(Draw % Span) - Window;
  return V < 0 ? 0 : V >= Extent ? Extent - 1 : static_cast<std::int64_t>(V);
}
