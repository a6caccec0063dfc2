//===- harness/Runner.h - Parallel experiment scheduling --------*- C++ -*-===//
///
/// \file
/// Fans independent (app, variant, config, mapping) simulation jobs across
/// hardware cores. Each job owns (or shares immutably) everything it reads
/// — the app model, a copy of the machine config, a copy of the mapping —
/// and every mutable simulation structure (VirtualMemory, Machine, caches,
/// per-thread RNG) is constructed inside the job, so concurrent runs are
/// race-free and bit-identical to serial ones. Callers submit the whole
/// sweep up front, then get() results in submission order; with Jobs == 1
/// execution is inline at submit time, exactly reproducing the historical
/// serial harness.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_HARNESS_RUNNER_H
#define OFFCHIP_HARNESS_RUNNER_H

#include "harness/Experiment.h"
#include "support/ThreadPool.h"

#include <functional>
#include <future>
#include <memory>

namespace offchip {

/// Handle to a scheduled simulation; copyable, so benches can stash one per
/// output row. get() blocks until the run finishes and rethrows any
/// exception the job raised.
class SimFuture {
public:
  SimFuture() = default;

  const SimResult &get() const { return Future.get(); }
  bool valid() const { return Future.valid(); }

private:
  friend class ExperimentRunner;
  explicit SimFuture(std::shared_future<SimResult> F)
      : Future(std::move(F)) {}

  std::shared_future<SimResult> Future;
};

/// One schedulable simulation: runVariant's arguments, owned by value (the
/// app is shared immutably — simulation never mutates the model).
struct SimJob {
  std::shared_ptr<const AppModel> App;
  MachineConfig Config;
  ClusterMapping Mapping;
  RunVariant Variant = RunVariant::Original;
};

class ExperimentRunner {
public:
  /// \param Jobs worker threads; 0 means one per hardware thread, 1 runs
  ///             every job inline at submit time (serial).
  explicit ExperimentRunner(unsigned Jobs = 0);
  ~ExperimentRunner();

  ExperimentRunner(const ExperimentRunner &) = delete;
  ExperimentRunner &operator=(const ExperimentRunner &) = delete;

  /// Schedules one variant run.
  SimFuture submit(SimJob Job);

  /// Schedules an arbitrary simulation thunk (custom layout plans,
  /// multiprogrammed runs). \p Fn must not touch mutable state shared with
  /// other jobs.
  SimFuture submit(std::function<SimResult()> Fn);

private:
  std::unique_ptr<ThreadPool> Pool; // null when serial
};

} // namespace offchip

#endif // OFFCHIP_HARNESS_RUNNER_H
