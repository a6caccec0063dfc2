//===- api/Service.cpp ----------------------------------------------------===//

#include "api/Service.h"

#include "api/Execute.h"

#include <exception>
#include <future>
#include <memory>
#include <utility>

using namespace offchip;

SimService::SimService(ServiceOptions Opts, Executor Exec)
    : Opts(Opts), Exec(Exec ? std::move(Exec)
                            : [](const SimRequest &R) {
                                return executeRequest(R, /*Jobs=*/1);
                              }),
      Cache(Opts.CacheCapacity), Pool(Opts.Workers) {}

SimService::~SimService() { drain(); }

void SimService::submit(SimRequest R, DoneFn Done) {
  bool Reject = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Pending >= Opts.QueueDepth) {
      ++Rejected;
      Reject = true;
    } else {
      ++Pending;
      ++Admitted;
    }
  }
  if (Reject) {
    // Answer on the caller's thread — admission control must stay cheap
    // and never wait for a worker — but outside Mu: the callback may take
    // locks of its own, and holding Mu across it would order them against
    // every other service operation.
    SimResponse Resp;
    Resp.Id = R.Id;
    Resp.Status = ResponseStatus::Overloaded;
    Done(std::move(Resp));
    return;
  }
  auto Shared = std::make_shared<std::pair<SimRequest, DoneFn>>(
      std::move(R), std::move(Done));
  Pool.submit([this, Shared]() {
    process(Shared->first, Shared->second);
    std::lock_guard<std::mutex> Lock(Mu);
    --Pending;
    ++Completed;
    if (Pending == 0)
      Idle.notify_all();
  });
}

SimResponse SimService::execute(const SimRequest &R) const {
  std::string What;
  try {
    return Exec(R);
  } catch (const std::exception &E) {
    What = E.what();
  } catch (...) {
    What = "unknown exception";
  }
  SimResponse Resp;
  Resp.Id = R.Id;
  Resp.Status = ResponseStatus::Error;
  Resp.ErrorText = "internal error: " + What;
  return Resp;
}

void SimService::process(const SimRequest &R, const DoneFn &Done) {
  CacheKey Key = requestKey(R);
  ResultCache::Claim C = Cache.claim(Key, R.Id, Done);
  if (C.Hit) {
    SimResponse Resp = *C.Hit;
    Resp.Id = R.Id;
    Resp.CacheHit = true;
    Resp.Key = Key.str();
    Done(std::move(Resp));
    return;
  }
  // A joined request is answered by its leader; the leader's Pending keeps
  // drain() waiting until every waiter's callback has fired.
  if (!C.Lead)
    return;
  SimResponse Resp = execute(R);
  Resp.CacheHit = false;
  Resp.Key = Key.str();
  for (ResultCache::Waiter &W : Cache.finish(Key, Resp)) {
    SimResponse Copy = Resp;
    Copy.Id = W.Id;
    Copy.Singleflight = true;
    W.Done(std::move(Copy));
  }
  Done(std::move(Resp));
}

SimResponse SimService::call(SimRequest R) {
  std::promise<SimResponse> Promise;
  std::future<SimResponse> Future = Promise.get_future();
  submit(std::move(R),
         [&Promise](SimResponse Resp) { Promise.set_value(std::move(Resp)); });
  return Future.get();
}

void SimService::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  Idle.wait(Lock, [this] { return Pending == 0; });
}

SimService::Stats SimService::stats() const {
  Stats S;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S.Admitted = Admitted;
    S.Rejected = Rejected;
    S.Completed = Completed;
  }
  S.Cache = Cache.stats();
  return S;
}
