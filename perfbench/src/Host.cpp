//===- perfbench/src/Host.cpp ---------------------------------------------===//

#include "Host.h"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace perfbench;

unsigned perfbench::hostCores() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

std::string perfbench::cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    std::size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    std::size_t Begin = Line.find_first_not_of(" \t", Colon + 1);
    if (Begin != std::string::npos)
      return Line.substr(Begin);
  }
  return "unknown";
}

double perfbench::selfPeakRssMb() {
  struct rusage RU = {};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

std::vector<int> perfbench::allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

void perfbench::runOn(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  // A refusal leaves the thread where the scheduler put it; the samples
  // are still valid, only less evenly spread.
  (void)sched_setaffinity(0, sizeof(Set), &Set);
}

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::l3ChaseNs() {
  // One node per 64-byte line, linked into a single random cycle (Sattolo)
  // so hardware prefetchers cannot follow it.
  constexpr std::size_t Bytes = 4u << 20, Line = 64, Steps = 2u << 20;
  constexpr std::size_t N = Bytes / Line, Stride = Line / sizeof(std::size_t);
  std::vector<std::size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::uint64_t State = 0x9E3779B97F4A7C15ull;
  for (std::size_t I = N - 1; I > 0; --I) {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    std::swap(Order[I], Order[State % I]);
  }
  std::vector<std::size_t> Next(N * Stride);
  for (std::size_t I = 0; I < N; ++I)
    Next[Order[I] * Stride] = Order[(I + 1) % N] * Stride;
  std::size_t P = 0;
  for (std::size_t I = 0; I < N; ++I) // warm the lines into the caches
    P = Next[P];
  double T0 = nowSeconds();
  for (std::size_t I = 0; I < Steps; ++I)
    P = Next[P];
  double T1 = nowSeconds();
  // Keep the chase's result observable so it is not optimized away.
  volatile std::size_t Sink = P;
  (void)Sink;
  return (T1 - T0) * 1e9 / static_cast<double>(Steps);
}
