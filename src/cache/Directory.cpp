//===- cache/Directory.cpp ------------------------------------------------===//

#include "cache/Directory.h"

#include <bit>

using namespace offchip;

int Directory::findSharer(std::uint64_t LineAddr) const {
  const std::uint64_t *Mask = Lines.find(LineAddr);
  if (!Mask || *Mask == 0)
    return -1;
  // Any sharer will do; pick the lowest-numbered one.
  return std::countr_zero(*Mask);
}

void Directory::addSharer(std::uint64_t LineAddr, unsigned Node) {
  assert(Node < NumNodes && "sharer out of range");
  Lines.refOrInsert(LineAddr) |= 1ull << Node;
}

bool Directory::hasSharer(std::uint64_t LineAddr, unsigned Node) const {
  assert(Node < NumNodes && "sharer out of range");
  const std::uint64_t *Mask = Lines.find(LineAddr);
  return Mask && (*Mask & (1ull << Node)) != 0;
}

void Directory::removeSharer(std::uint64_t LineAddr, unsigned Node) {
  assert(Node < NumNodes && "sharer out of range");
  // refOrInsert would insert on a miss; look up in place instead.
  std::uint64_t *Mask = Lines.find(LineAddr);
  if (!Mask)
    return;
  *Mask &= ~(1ull << Node);
  if (*Mask == 0)
    Lines.erase(LineAddr);
}

std::uint64_t Directory::sharerMask(std::uint64_t LineAddr) const {
  const std::uint64_t *Mask = Lines.find(LineAddr);
  return Mask ? *Mask : 0;
}

int Directory::exclusiveOwner(std::uint64_t LineAddr) const {
  const std::uint64_t *Owner = Excl.find(LineAddr);
  return Owner ? static_cast<int>(*Owner) : -1;
}

void Directory::setExclusive(std::uint64_t LineAddr, unsigned Node) {
  assert(Node < NumNodes && "owner out of range");
  Excl.refOrInsert(LineAddr) = Node;
}

void Directory::clearExclusive(std::uint64_t LineAddr) {
  Excl.erase(LineAddr);
}

bool Directory::tracksLine(std::uint64_t LineAddr) const {
  return Lines.find(LineAddr) != nullptr;
}

void Directory::eraseLine(std::uint64_t LineAddr) {
  Lines.erase(LineAddr);
  Excl.erase(LineAddr);
}

bool Directory::pickVictim(std::uint64_t *LineAddr) {
  return Lines.nextKey(&VictimCursor, LineAddr);
}
