//===- api/Service.h - Concurrent optimize/simulate service -----*- C++ -*-===//
///
/// \file
/// The long-running heart of offchip-serve, usable without any socket: a
/// bounded admission queue in front of a worker pool and the
/// content-addressed result table (api/ResultCache.h). Each request is a
/// hit (answered from the table), a join (an identical request is running:
/// it waits for that leader's result — single-flight, so a stampede of
/// equal requests costs one simulation) or a lead (it runs
/// executeRequest() and answers its waiters). Admission is explicit
/// backpressure — when QueueDepth requests are already admitted but
/// unanswered, submit() answers Overloaded immediately instead of queueing
/// unboundedly; nothing admitted is ever dropped, not even when the
/// executor throws (the request and its single-flight waiters are answered
/// with an error, and nothing is cached). The completion callback is
/// invoked exactly once per submit(), on a worker thread (or on the
/// caller's thread for Overloaded answers).
///
/// The executor is injectable so tests can hold requests open and observe
/// backpressure/drain behaviour deterministically; production uses
/// executeRequest().
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_SERVICE_H
#define OFFCHIP_API_SERVICE_H

#include "api/ResultCache.h"
#include "support/ThreadPool.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

namespace offchip {

struct ServiceOptions {
  /// Simulation worker threads (0 = one per hardware thread).
  unsigned Workers = 0;
  /// Maximum admitted-but-unanswered requests before submit() answers
  /// Overloaded.
  std::size_t QueueDepth = 64;
  /// Result cache entries (0 disables caching).
  std::size_t CacheCapacity = 256;
};

class SimService {
public:
  /// Invoked exactly once with the answer to a submitted request.
  using DoneFn = ResultCache::DoneFn;
  /// Computes the answer for one cache-missing request.
  using Executor = std::function<SimResponse(const SimRequest &)>;

  /// \p Exec overrides the production executor (tests); nullptr selects
  /// executeRequest().
  explicit SimService(ServiceOptions Opts = {}, Executor Exec = nullptr);

  /// Drains every admitted request before returning.
  ~SimService();

  SimService(const SimService &) = delete;
  SimService &operator=(const SimService &) = delete;

  /// Admits \p R or answers Overloaded on the spot. \p Done runs on a
  /// worker thread for admitted requests and synchronously on the caller's
  /// thread for Overloaded ones; it must not block on this service.
  void submit(SimRequest R, DoneFn Done);

  /// Blocks until every admitted request has been answered.
  void drain();

  struct Stats {
    std::uint64_t Admitted = 0;
    std::uint64_t Rejected = 0;
    std::uint64_t Completed = 0;
    ResultCache::Stats Cache;
  };
  Stats stats() const;

  unsigned workers() const { return Pool.threadCount(); }

private:
  void process(const SimRequest &R, const DoneFn &Done);
  /// Exec, with an exception turned into an Error answer, so that every
  /// admitted request is answered and its running entry retired.
  SimResponse execute(const SimRequest &R) const;

  const ServiceOptions Opts;
  Executor Exec;
  ResultCache Cache;

  mutable std::mutex Mu; // admission state; never held across a Cache call
  std::condition_variable Idle;
  std::size_t Pending = 0; // admitted, not yet answered
  std::uint64_t Admitted = 0, Rejected = 0, Completed = 0;

  ThreadPool Pool; // last member: workers must die before the state above
};

} // namespace offchip

#endif // OFFCHIP_API_SERVICE_H
