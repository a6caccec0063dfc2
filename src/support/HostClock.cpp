//===- support/HostClock.cpp ----------------------------------------------===//

#include "support/HostClock.h"

#include <algorithm>
#include <chrono>
#include <fstream>

using namespace offchip;

namespace {

ClockCalibration measure() {
  using Clock = std::chrono::steady_clock;
  // Time N empty timing pairs: the pairs' own accumulated readings give the
  // apparent overhead, the loop's wall time gives the true cost. One warmup
  // pass pulls the clock code into cache so the measurement reflects the
  // steady state the hot loop sees.
  constexpr int N = 1 << 18;
  ClockCalibration Result;
  for (int Pass = 0; Pass < 2; ++Pass) {
    double Apparent = 0.0;
    Clock::time_point LoopStart = Clock::now();
    for (int I = 0; I < N; ++I) {
      Clock::time_point T0 = Clock::now();
      Apparent += std::chrono::duration<double>(Clock::now() - T0).count();
    }
    double Wall = std::chrono::duration<double>(Clock::now() - LoopStart)
                      .count();
    Result.ApparentPerCall = Apparent / N;
    Result.WallPerCall = Wall / N;
  }
  return Result;
}

} // namespace

const ClockCalibration &offchip::clockCalibration() {
  static const ClockCalibration C = measure();
  return C;
}

double offchip::correctedPhaseSeconds(double AccumSeconds,
                                      std::uint64_t TimedCalls) {
  double Overhead =
      clockCalibration().ApparentPerCall * static_cast<double>(TimedCalls);
  return std::max(0.0, AccumSeconds - Overhead);
}

double offchip::correctedTotalSeconds(double TotalSeconds,
                                      std::uint64_t TimedCalls) {
  double Overhead =
      clockCalibration().WallPerCall * static_cast<double>(TimedCalls);
  return std::max(0.0, TotalSeconds - Overhead);
}

std::string offchip::hostCpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    for (const char *Key : {"model name", "cpu model", "Processor"}) {
      if (Line.rfind(Key, 0) != 0)
        continue;
      std::size_t Colon = Line.find(':');
      if (Colon == std::string::npos)
        continue;
      std::size_t Begin = Line.find_first_not_of(" \t", Colon + 1);
      if (Begin != std::string::npos)
        return Line.substr(Begin);
    }
  }
  return "unknown";
}
