//===- support/Random.h - Deterministic pseudo-random numbers --*- C++ -*-===//
///
/// \file
/// A SplitMix64 generator. Every stochastic piece of the reproduction
/// (workload index arrays, profiling samples) draws from one of these with a
/// fixed seed so that runs are bit-reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_RANDOM_H
#define OFFCHIP_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>

namespace offchip {

/// SplitMix64: tiny, fast, and statistically adequate for workload synthesis.
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t Seed = Gamma)
      : State(Seed) {}

  /// The state increment per draw.
  static constexpr std::uint64_t Gamma = 0x9e3779b97f4a7c15ULL;

  /// The output for state \p Z. The n-th draw (counting from 1) of a
  /// generator seeded with S is mix(S + n * Gamma), so any draw can be
  /// computed without the ones before it.
  static std::uint64_t mix(std::uint64_t Z) {
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// \returns the next 64 pseudo-random bits.
  std::uint64_t next() { return mix(State += Gamma); }

  /// \returns a uniform value in [0, Bound). \p Bound must be non-zero.
  std::uint64_t nextBelow(std::uint64_t Bound) {
    assert(Bound != 0 && "nextBelow(0)");
    return next() % Bound;
  }

  /// \returns a uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

private:
  std::uint64_t State;
};

} // namespace offchip

#endif // OFFCHIP_SUPPORT_RANDOM_H
