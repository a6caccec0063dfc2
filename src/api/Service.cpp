//===- api/Service.cpp ----------------------------------------------------===//

#include "api/Service.h"

#include "api/Execute.h"

#include <exception>
#include <memory>
#include <utility>

using namespace offchip;

SimService::SimService(ServiceOptions Opts, Executor Exec)
    : Opts(Opts), Exec(Exec ? std::move(Exec)
                            : [this](const SimRequest &R) {
                                return executeRequest(R, Helpers);
                              }),
      Cache(Opts.CacheCapacity), Helpers(Opts.Workers), Pool(Opts.Workers) {}

SimService::~SimService() { drain(); }

namespace {

SimResponse hitResponse(const SimResponse &Done, const std::string &Id,
                        const CacheKey &Key) {
  SimResponse Resp = Done;
  Resp.Id = Id;
  Resp.CacheHit = true;
  Resp.Key = Key.str();
  return Resp;
}

} // namespace

void SimService::submit(SimRequest R, DoneFn Done) {
  CacheKey Key = requestKey(R);
  // A done entry costs a copy, so it is answered right here: no worker
  // handoff, and never refused for a full queue.
  if (std::shared_ptr<const SimResponse> Hit = Cache.hit(Key)) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Admitted;
      ++Completed;
    }
    Done(hitResponse(*Hit, R.Id, Key));
    return;
  }
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
  auto Shared = std::make_shared<Admission>(
      Admission{std::move(R), Key, std::move(Done)});
  Pool.submit([this, Shared]() {
    process(*Shared);
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

void SimService::process(const Admission &A) {
  const SimRequest &R = A.Request;
  // The key may have finished since submit() looked: claim decides again.
  ResultCache::Claim C = Cache.claim(A.Key, R.Id, A.Done);
  if (C.Hit) {
    A.Done(hitResponse(*C.Hit, R.Id, A.Key));
    return;
  }
  // A joined request is answered by its leader; the leader's Pending keeps
  // drain() waiting until every waiter's callback has fired.
  if (!C.Lead)
    return;
  SimResponse Resp = execute(R);
  Resp.CacheHit = false;
  Resp.Key = A.Key.str();
  for (ResultCache::Waiter &W : Cache.finish(A.Key, Resp)) {
    SimResponse Copy = Resp;
    Copy.Id = W.Id;
    Copy.Singleflight = true;
    W.Done(std::move(Copy));
  }
  A.Done(std::move(Resp));
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
