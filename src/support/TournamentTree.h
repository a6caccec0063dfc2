//===- support/TournamentTree.h - Fixed-slot min winner tree ----*- C++ -*-===//
///
/// \file
/// An indexed tournament (winner) tree over a fixed set of slots, each
/// holding one 64-bit key. The simulation engine keeps exactly one pending
/// event per thread, so its event queue is a fixed set of slots rather than
/// a growing heap: popping the earliest event and scheduling the same
/// thread's next one is a single set() on that thread's leaf, which replays
/// only the leaf's path to the root (log2(slots) compares, no allocation,
/// no sift-down).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_TOURNAMENTTREE_H
#define OFFCHIP_SUPPORT_TOURNAMENTTREE_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace offchip {

/// Min-tree over \p Slots keys. A slot holding Empty (~0) never wins, so
/// the tree is drained when top() == Empty. Callers that need to know which
/// slot won encode the slot in the key's low bits (keys are then unique and
/// the pop order is exactly the keys' sorted order).
class TournamentTree {
public:
  static constexpr std::uint64_t Empty = ~0ull;

  explicit TournamentTree(unsigned Slots) {
    while (Leaves < Slots)
      Leaves <<= 1;
    Nodes.assign(2 * Leaves, Empty);
  }

  /// The smallest key in the tree, or Empty when every slot is empty.
  std::uint64_t top() const { return Nodes[1]; }

  /// Sets \p Slot's key to \p Key (Empty retires the slot) and replays its
  /// path to the root.
  void set(unsigned Slot, std::uint64_t Key) {
    assert(Slot < Leaves && "slot out of range");
    std::size_t I = Leaves + Slot;
    Nodes[I] = Key;
    for (; I > 1; I >>= 1) {
      Key = std::min(Key, Nodes[I ^ 1]);
      Nodes[I >> 1] = Key;
    }
  }

private:
  /// Leaf count, a power of two >= the slot count; leaves live at
  /// Nodes[Leaves, 2 * Leaves) and node I's children at 2I and 2I + 1.
  std::size_t Leaves = 1;
  std::vector<std::uint64_t> Nodes;
};

} // namespace offchip

#endif // OFFCHIP_SUPPORT_TOURNAMENTTREE_H
