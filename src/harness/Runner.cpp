//===- harness/Runner.cpp -------------------------------------------------===//

#include "harness/Runner.h"

#include "support/Error.h"

using namespace offchip;

ExperimentRunner::ExperimentRunner(unsigned Jobs) {
  if (Jobs == 0)
    Jobs = ThreadPool::hardwareThreads();
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);
}

ExperimentRunner::~ExperimentRunner() = default;

SimFuture ExperimentRunner::submit(std::function<SimResult()> Fn) {
  if (!Fn)
    reportFatalError("ExperimentRunner::submit called with empty job");
  if (!Pool) {
    // Serial mode: run inline so behaviour (including any fatal error's
    // timing) matches the historical single-threaded harness exactly.
    std::promise<SimResult> Done;
    SimFuture Handle(Done.get_future().share());
    try {
      Done.set_value(Fn());
    } catch (...) {
      Done.set_exception(std::current_exception());
    }
    return Handle;
  }
  return SimFuture(Pool->submit(std::move(Fn)).share());
}

SimFuture ExperimentRunner::submit(SimJob Job) {
  if (!Job.App)
    reportFatalError("SimJob submitted without an app model");
  auto Shared = std::make_shared<SimJob>(std::move(Job));
  return submit([Shared]() -> SimResult {
    return runVariant(*Shared->App, Shared->Config, Shared->Mapping,
                      Shared->Variant);
  });
}
