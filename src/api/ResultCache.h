//===- api/ResultCache.h - Content-addressed LRU result cache ---*- C++ -*-===//
///
/// \file
/// Caches Ok responses under their canonical request key
/// (api/ContentHash.h). Because the key covers exactly the
/// result-affecting request content, replaying a cached response is
/// indistinguishable from recomputing it — the simulator is
/// deterministic — so the cache can sit in front
/// of the service without a correctness tax. Bounded LRU with hit/miss/
/// eviction counters; all operations are thread-safe behind one mutex
/// (entries are value copies, never references into the cache).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_RESULTCACHE_H
#define OFFCHIP_API_RESULTCACHE_H

#include "api/ContentHash.h"
#include "api/Request.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace offchip {

class ResultCache {
public:
  /// \p Capacity is the maximum entry count; 0 disables the cache (every
  /// lookup misses, inserts are dropped).
  explicit ResultCache(std::size_t Capacity) : Capacity(Capacity) {}

  ResultCache(const ResultCache &) = delete;
  ResultCache &operator=(const ResultCache &) = delete;

  /// Returns a copy of the entry under \p K and marks it most recently
  /// used, or std::nullopt on a miss. The copy's Id/CacheHit/Key fields are
  /// whatever insert() stored — callers re-stamp per-request fields.
  std::optional<SimResponse> lookup(const CacheKey &K);

  /// Stores \p Resp under \p K (replacing any existing entry), evicting the
  /// least recently used entry when full.
  void insert(const CacheKey &K, const SimResponse &Resp);

  struct Stats {
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
    std::uint64_t Evictions = 0;
    std::size_t Entries = 0;
    std::size_t Capacity = 0;
  };
  Stats stats() const;

private:
  using EntryList = std::list<std::pair<CacheKey, SimResponse>>;

  const std::size_t Capacity;
  mutable std::mutex Mu;
  EntryList Order; // front = most recently used
  std::unordered_map<CacheKey, EntryList::iterator, CacheKeyHash> Index;
  std::uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

} // namespace offchip

#endif // OFFCHIP_API_RESULTCACHE_H
