//===- cache/Cache.cpp ----------------------------------------------------===//

#include "cache/Cache.h"

#include "support/Error.h"
#include "support/MathUtil.h"

using namespace offchip;

Cache::Cache(std::uint64_t SizeBytes, unsigned LineBytes, unsigned Ways)
    : LineBytes(LineBytes), Ways(Ways) {
  if (LineBytes == 0 || Ways == 0 ||
      SizeBytes % (static_cast<std::uint64_t>(LineBytes) * Ways) != 0)
    reportFatalError("cache geometry must divide evenly");
  NumSets = static_cast<unsigned>(SizeBytes / LineBytes / Ways);
  if (NumSets == 0)
    reportFatalError("cache must have at least one set");
  LineDiv = Pow2Divider(LineBytes);
  SetDiv = Pow2Divider(NumSets);
  Sets.resize(static_cast<std::size_t>(NumSets) * Ways);
}

bool Cache::access(std::uint64_t LineAddr, bool IsWrite) {
  unsigned Set = setOf(LineAddr);
  std::uint64_t Tag = tagOf(LineAddr);
  Way *Base = &Sets[static_cast<std::size_t>(Set) * Ways];
  for (unsigned W = 0; W < Ways; ++W) {
    Way &Entry = Base[W];
    if (!Entry.Valid || Entry.Tag != Tag)
      continue;
    Entry.LastUse = ++UseClock;
    Entry.Dirty = Entry.Dirty || IsWrite;
    ++Hits;
    return true;
  }
  ++Misses;
  return false;
}

bool Cache::contains(std::uint64_t LineAddr) const {
  unsigned Set = setOf(LineAddr);
  std::uint64_t Tag = tagOf(LineAddr);
  const Way *Base = &Sets[static_cast<std::size_t>(Set) * Ways];
  for (unsigned W = 0; W < Ways; ++W)
    if (Base[W].Valid && Base[W].Tag == Tag)
      return true;
  return false;
}

Cache::Eviction Cache::insert(std::uint64_t LineAddr, bool IsWrite,
                              LineState State) {
  unsigned Set = setOf(LineAddr);
  std::uint64_t Tag = tagOf(LineAddr);
  Way *Base = &Sets[static_cast<std::size_t>(Set) * Ways];

  // Reuse an invalid way or the LRU victim.
  Way *Victim = &Base[0];
  for (unsigned W = 0; W < Ways; ++W) {
    Way &Entry = Base[W];
    if (Entry.Valid && Entry.Tag == Tag) {
      // Already resident (racy double-insert); refresh instead.
      Entry.LastUse = ++UseClock;
      Entry.Dirty = Entry.Dirty || IsWrite;
      Entry.State = State;
      return Eviction();
    }
    if (!Entry.Valid) {
      Victim = &Entry;
      break;
    }
    if (Entry.LastUse < Victim->LastUse || !Victim->Valid)
      Victim = &Entry;
  }

  Eviction Out;
  if (Victim->Valid) {
    Out.Valid = true;
    Out.LineAddr = Victim->Tag;
    Out.Dirty = Victim->Dirty;
    Out.State = Victim->State;
  }
  Victim->Tag = Tag;
  Victim->Valid = true;
  Victim->Dirty = IsWrite;
  Victim->State = State;
  Victim->LastUse = ++UseClock;
  return Out;
}

int Cache::stateOf(std::uint64_t LineAddr) const {
  unsigned Set = setOf(LineAddr);
  std::uint64_t Tag = tagOf(LineAddr);
  const Way *Base = &Sets[static_cast<std::size_t>(Set) * Ways];
  for (unsigned W = 0; W < Ways; ++W)
    if (Base[W].Valid && Base[W].Tag == Tag)
      return static_cast<int>(Base[W].State);
  return -1;
}

bool Cache::setState(std::uint64_t LineAddr, LineState State) {
  unsigned Set = setOf(LineAddr);
  std::uint64_t Tag = tagOf(LineAddr);
  Way *Base = &Sets[static_cast<std::size_t>(Set) * Ways];
  for (unsigned W = 0; W < Ways; ++W) {
    if (Base[W].Valid && Base[W].Tag == Tag) {
      Base[W].State = State;
      return true;
    }
  }
  return false;
}

bool Cache::markDirty(std::uint64_t LineAddr) {
  unsigned Set = setOf(LineAddr);
  std::uint64_t Tag = tagOf(LineAddr);
  Way *Base = &Sets[static_cast<std::size_t>(Set) * Ways];
  for (unsigned W = 0; W < Ways; ++W) {
    if (Base[W].Valid && Base[W].Tag == Tag) {
      Base[W].Dirty = true;
      return true;
    }
  }
  return false;
}

bool Cache::invalidate(std::uint64_t LineAddr) {
  unsigned Set = setOf(LineAddr);
  std::uint64_t Tag = tagOf(LineAddr);
  Way *Base = &Sets[static_cast<std::size_t>(Set) * Ways];
  for (unsigned W = 0; W < Ways; ++W) {
    if (Base[W].Valid && Base[W].Tag == Tag) {
      Base[W].Valid = false;
      Base[W].Dirty = false;
      return true;
    }
  }
  return false;
}
