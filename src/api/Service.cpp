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
  std::string KeyStr = Key.str();
  // Tracing requests must actually run (the trace files are the point), so
  // they bypass the cache lookup and single-flight merging; their computed
  // result still refreshes the cache for everyone else.
  bool Merge = R.TracePrefix.empty();
  if (Merge) {
    // One atomic decision under Mu: attach to an in-flight leader, answer
    // from the cache, or become the leader for this key. The nesting
    // Mu -> ResultCache's internal lock is one-directional (the cache
    // never calls back into the service), and no callback ever runs under
    // Mu.
    std::unique_lock<std::mutex> Lock(Mu);
    auto It = InFlight.find(KeyStr);
    if (It != InFlight.end()) {
      It->second.push_back({R.Id, Done});
      ++SingleflightHits;
      // The leader invokes this waiter's Done when it finishes; this
      // worker slot frees up, but the leader's Pending keeps drain()
      // waiting until every attached callback has fired.
      return;
    }
    if (std::optional<SimResponse> Hit = Cache.lookup(Key)) {
      Lock.unlock();
      Hit->Id = R.Id;
      Hit->CacheHit = true;
      Hit->Key = KeyStr;
      Done(std::move(*Hit));
      return;
    }
    InFlight.emplace(KeyStr, std::vector<Waiter>());
  }
  SimResponse Resp = execute(R);
  std::vector<Waiter> Waiters;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Resp.ok()) {
      // Store a client-neutral copy; lookup() re-stamps per-request
      // fields. Insert before retiring the key so no request can miss
      // both the registry and the cache.
      SimResponse Entry = Resp;
      Entry.Id.clear();
      Entry.CacheHit = false;
      Entry.Key.clear();
      Cache.insert(Key, Entry);
    }
    if (Merge) {
      auto It = InFlight.find(KeyStr);
      Waiters = std::move(It->second);
      InFlight.erase(It);
    }
  }
  Resp.CacheHit = false;
  Resp.Key = KeyStr;
  for (Waiter &W : Waiters) {
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
    S.SingleflightHits = SingleflightHits;
  }
  S.Cache = Cache.stats();
  return S;
}
