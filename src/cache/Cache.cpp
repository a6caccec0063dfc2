//===- cache/Cache.cpp ----------------------------------------------------===//

#include "cache/Cache.h"

#include "support/Error.h"
#include "support/MathUtil.h"

#include <bit>
#include <cassert>

using namespace offchip;

Cache::Cache(std::uint64_t SizeBytes, unsigned LineBytes, unsigned Ways)
    : Ways(Ways) {
  if (LineBytes == 0 || Ways == 0 ||
      SizeBytes % (static_cast<std::uint64_t>(LineBytes) * Ways) != 0)
    reportFatalError("cache geometry must divide evenly");
  NumSets = static_cast<unsigned>(SizeBytes / LineBytes / Ways);
  if (NumSets == 0)
    reportFatalError("cache must have at least one set");
  LineDiv = Pow2Divider(LineBytes);
  SetDiv = Pow2Divider(NumSets);
  std::size_t NumWays = static_cast<std::size_t>(NumSets) * Ways;
  Tags.assign(NumWays + ProbeChunk, InvalidTag);
  LastUse.assign(NumWays, 0);
  Dirty.assign(NumWays, 0);
  States.assign(NumWays, LineState::Shared);
}

std::size_t Cache::find(std::size_t Base, std::uint64_t Tag) const {
  assert(Tag != InvalidTag && "line address collides with the empty tag");
  // Fixed-width chunks of the set's contiguous tags: ProbeChunk independent
  // compares into one match mask, with the lanes past the set's last way
  // (the next set's ways, or the padding after the last set) masked off.
  for (unsigned W0 = 0; W0 < Ways; W0 += ProbeChunk) {
    const std::uint64_t *T = Tags.data() + Base + W0;
    unsigned Match = 0;
    for (unsigned L = 0; L < ProbeChunk; ++L)
      Match |= static_cast<unsigned>(T[L] == Tag) << L;
    unsigned Live = Ways - W0;
    if (Live < ProbeChunk)
      Match &= (1u << Live) - 1;
    if (Match)
      return Base + W0 + static_cast<unsigned>(std::countr_zero(Match));
  }
  return NoWay;
}

bool Cache::access(std::uint64_t LineAddr, bool IsWrite) {
  std::size_t I = find(baseOf(LineAddr), tagOf(LineAddr));
  if (I == NoWay) {
    ++Misses;
    return false;
  }
  LastUse[I] = ++UseClock;
  Dirty[I] |= IsWrite;
  ++Hits;
  return true;
}

bool Cache::contains(std::uint64_t LineAddr) const {
  return find(baseOf(LineAddr), tagOf(LineAddr)) != NoWay;
}

Cache::Eviction Cache::insert(std::uint64_t LineAddr, bool IsWrite,
                              LineState State) {
  std::uint64_t Tag = tagOf(LineAddr);
  assert(Tag != InvalidTag && "line address collides with the empty tag");
  std::size_t Base = baseOf(LineAddr);
  // One pass over the set finds both the residency, across every way (a
  // line resident behind an invalidated way is refreshed, not duplicated),
  // and the first minimum of LastUse: the first empty way (LastUse 0) when
  // there is one, else the LRU way. The running minimum, its way and the
  // resident way stay in registers and are selected without branches; the
  // way is kept apart from the key because Ways has no upper bound.
  const std::uint64_t *T = Tags.data() + Base;
  const std::uint64_t *U = LastUse.data() + Base;
  std::uint64_t MinUse = U[0];
  unsigned V = 0;
  unsigned Resident = T[0] == Tag ? 0 : Ways;
  for (unsigned W = 1; W < Ways; ++W) {
    std::uint64_t X = U[W];
    bool Less = X < MinUse;
    MinUse = Less ? X : MinUse;
    V = Less ? W : V;
    Resident = T[W] == Tag ? W : Resident;
  }
  if (Resident != Ways) {
    // Already resident (racy double-insert); refresh instead.
    std::size_t I = Base + Resident;
    LastUse[I] = ++UseClock;
    Dirty[I] |= IsWrite;
    States[I] = State;
    return Eviction();
  }
  std::size_t I = Base + V;

  Eviction Out;
  if (Tags[I] != InvalidTag) {
    Out.Valid = true;
    Out.LineAddr = Tags[I];
    Out.Dirty = Dirty[I] != 0;
    Out.State = States[I];
  }
  Tags[I] = Tag;
  Dirty[I] = IsWrite;
  States[I] = State;
  LastUse[I] = ++UseClock;
  return Out;
}

int Cache::stateOf(std::uint64_t LineAddr) const {
  std::size_t I = find(baseOf(LineAddr), tagOf(LineAddr));
  return I == NoWay ? -1 : static_cast<int>(States[I]);
}

bool Cache::setState(std::uint64_t LineAddr, LineState State) {
  std::size_t I = find(baseOf(LineAddr), tagOf(LineAddr));
  if (I == NoWay)
    return false;
  States[I] = State;
  return true;
}

bool Cache::markDirty(std::uint64_t LineAddr) {
  std::size_t I = find(baseOf(LineAddr), tagOf(LineAddr));
  if (I == NoWay)
    return false;
  Dirty[I] = 1;
  return true;
}

bool Cache::invalidate(std::uint64_t LineAddr) {
  std::size_t I = find(baseOf(LineAddr), tagOf(LineAddr));
  if (I == NoWay)
    return false;
  Tags[I] = InvalidTag;
  LastUse[I] = 0;
  Dirty[I] = 0;
  return true;
}
