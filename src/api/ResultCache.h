//===- api/ResultCache.h - Content-addressed result table -------*- C++ -*-===//
///
/// \file
/// The service's one table per request key (api/ContentHash.h). An entry
/// is either running — one worker (the leader) is computing the key and
/// identical requests park here as single-flight waiters — or done: an Ok
/// response on a bounded LRU list. Because the key covers exactly the
/// result-affecting request content, replaying a done entry is
/// indistinguishable from recomputing it — the simulator is deterministic
/// — so the table can sit in front of the service without a correctness
/// tax. One mutex guards everything; callbacks never run under it, and
/// done entries are immutable shared values, so a hit is copied by its
/// caller after the lock is released.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_RESULTCACHE_H
#define OFFCHIP_API_RESULTCACHE_H

#include "api/ContentHash.h"
#include "api/Request.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace offchip {

class ResultCache {
public:
  /// Receives the answer to one request.
  using DoneFn = std::function<void(SimResponse)>;
  /// A request attached to a running entry, answered by its leader.
  struct Waiter {
    std::string Id;
    DoneFn Done;
  };

  /// \p Capacity bounds the done entries; 0 keeps none (running entries
  /// still merge identical requests).
  explicit ResultCache(std::size_t Capacity) : Capacity(Capacity) {}

  ResultCache(const ResultCache &) = delete;
  ResultCache &operator=(const ResultCache &) = delete;

  /// What claim() found under a key.
  struct Claim {
    /// The done entry (marked most recently used), or null.
    std::shared_ptr<const SimResponse> Hit;
    /// True when the caller now runs the key and must call finish().
    bool Lead = false;
  };

  /// One decision per request: a done entry is a hit; a running entry
  /// takes (\p Id, \p Done) as a waiter (neither field of the result is
  /// set); an absent key becomes a running entry led by the caller.
  Claim claim(const CacheKey &K, const std::string &Id, const DoneFn &Done);

  /// The done entry under \p K (counted as a hit and marked most recently
  /// used), or null without counting anything: a miss is counted by the
  /// claim() that follows it.
  std::shared_ptr<const SimResponse> hit(const CacheKey &K);

  /// Ends the leader's run of \p K: an Ok \p Resp becomes the done entry
  /// (stored without its per-request Id/CacheHit/Singleflight/Key fields,
  /// evicting the least recently used entry when full); anything else, or
  /// capacity 0, erases the key. Returns the waiters to answer.
  std::vector<Waiter> finish(const CacheKey &K, const SimResponse &Resp);

  struct Stats {
    std::uint64_t Hits = 0;
    /// Claims that became leaders.
    std::uint64_t Misses = 0;
    /// Claims that joined a running entry.
    std::uint64_t SingleflightHits = 0;
    std::uint64_t Evictions = 0;
    /// Done entries.
    std::size_t Entries = 0;
    std::size_t Capacity = 0;
  };
  Stats stats() const;

private:
  struct Slot {
    /// Null while running.
    std::shared_ptr<const SimResponse> Result;
    std::vector<Waiter> Waiters;
    std::list<CacheKey>::iterator Pos; // in Order once done
  };

  const std::size_t Capacity;
  mutable std::mutex Mu;
  std::unordered_map<CacheKey, Slot, CacheKeyHash> Table;
  std::list<CacheKey> Order; // done keys, front = most recently used
  Stats Counts;
};

} // namespace offchip

#endif // OFFCHIP_API_RESULTCACHE_H
