//===- api/ResultCache.cpp ------------------------------------------------===//

#include "api/ResultCache.h"

using namespace offchip;

ResultCache::Claim ResultCache::claim(const CacheKey &K, const std::string &Id,
                                      const DoneFn &Done) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Inserted] = Table.try_emplace(K);
  Claim C;
  if (Inserted) {
    ++Counts.Misses;
    C.Lead = true;
  } else if (Slot &S = It->second; S.Result) {
    ++Counts.Hits;
    Order.splice(Order.begin(), Order, S.Pos);
    C.Hit = S.Result;
  } else {
    ++Counts.SingleflightHits;
    S.Waiters.push_back({Id, Done});
  }
  return C;
}

std::shared_ptr<const SimResponse> ResultCache::hit(const CacheKey &K) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Table.find(K);
  if (It == Table.end() || !It->second.Result)
    return nullptr;
  ++Counts.Hits;
  Order.splice(Order.begin(), Order, It->second.Pos);
  return It->second.Result;
}

std::vector<ResultCache::Waiter> ResultCache::finish(const CacheKey &K,
                                                     const SimResponse &Resp) {
  std::shared_ptr<SimResponse> Done;
  if (Resp.ok() && Capacity > 0) {
    Done = std::make_shared<SimResponse>(Resp);
    Done->Id.clear();
    Done->CacheHit = false;
    Done->Singleflight = false;
    Done->Key.clear();
  }
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Table.find(K);
  std::vector<Waiter> Waiters = std::move(It->second.Waiters);
  if (!Done) {
    Table.erase(It);
    return Waiters;
  }
  if (Order.size() >= Capacity) {
    Table.erase(Order.back());
    Order.pop_back();
    ++Counts.Evictions;
  }
  Order.push_front(K);
  It->second.Result = std::move(Done);
  It->second.Pos = Order.begin();
  return Waiters;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats S = Counts;
  S.Entries = Order.size();
  S.Capacity = Capacity;
  return S;
}
