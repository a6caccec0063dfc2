//===- cache/Cache.h - Set-associative cache model --------------*- C++ -*-===//
///
/// \file
/// A set-associative, LRU, write-back cache keyed by line address. Used for
/// the per-node L1s, the per-node private L2s, and the banks of the shared
/// SNUCA L2.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_CACHE_CACHE_H
#define OFFCHIP_CACHE_CACHE_H

#include "support/Pow2.h"

#include <cstdint>
#include <vector>

namespace offchip {

/// Coherence protocol state of one resident line (MachineConfig::Coherence).
/// Invalid has no encoding: invalid lines are simply not resident. In the
/// coherence-free machine every line stays at the default Shared and nothing
/// ever reads the field, so the pre-coherence flows are untouched.
enum class LineState : std::uint8_t {
  Shared = 0,   ///< Clean, possibly multiple holders (MSI/MESI S).
  Exclusive,    ///< Clean, sole holder (MESI E; silent upgrade to M).
  Modified,     ///< Dirty, sole holder (MSI/MESI M).
};

/// One cache instance.
class Cache {
public:
  /// \param SizeBytes total capacity; must be divisible by LineBytes * Ways.
  Cache(std::uint64_t SizeBytes, unsigned LineBytes, unsigned Ways);

  /// Line address (address / line size) of \p Addr.
  std::uint64_t lineOf(std::uint64_t Addr) const { return LineDiv.div(Addr); }

  /// Looks up \p LineAddr; on a hit updates LRU and the dirty bit.
  /// \returns true on hit.
  bool access(std::uint64_t LineAddr, bool IsWrite);

  /// True if the line is resident (no LRU update).
  bool contains(std::uint64_t LineAddr) const;

  /// Result of inserting a line: the victim, if a valid line was evicted.
  struct Eviction {
    bool Valid = false;
    std::uint64_t LineAddr = 0;
    bool Dirty = false;
    /// Protocol state the victim held (meaningful only under coherence).
    LineState State = LineState::Shared;
  };

  /// Inserts \p LineAddr (marking it dirty for writes), evicting LRU if the
  /// set is full. \p State is the protocol state granted to the line; the
  /// coherence-free flows leave it at the default Shared and never read it.
  Eviction insert(std::uint64_t LineAddr, bool IsWrite,
                  LineState State = LineState::Shared);

  /// Drops the line if resident. \returns true if it was present.
  bool invalidate(std::uint64_t LineAddr);

  /// Sets the dirty bit without touching LRU or hit/miss statistics; used
  /// when an upper-level writeback lands in this cache. \returns true if
  /// the line was resident.
  bool markDirty(std::uint64_t LineAddr);

  /// Protocol state of \p LineAddr, or -1 when not resident. No LRU or
  /// statistics side effects.
  int stateOf(std::uint64_t LineAddr) const;

  /// Sets the protocol state of \p LineAddr without touching LRU or
  /// statistics (a remote downgrade/upgrade is not an access by this node).
  /// \returns true if the line was resident.
  bool setState(std::uint64_t LineAddr, LineState State);

  std::uint64_t hits() const { return Hits; }
  std::uint64_t misses() const { return Misses; }

  /// Invokes \p Fn(LineAddr) for every resident line (unspecified order).
  /// Tags are full line addresses (hashed index), so residents can be
  /// enumerated exactly; used by the invariant checker (src/check).
  template <typename FnT> void forEachLine(FnT Fn) const {
    for (std::uint64_t Tag : Tags)
      if (Tag != InvalidTag)
        Fn(Tag);
  }

private:
  /// Tag of an empty way. Line addresses are byte addresses divided by the
  /// line size, so no resident line can carry it.
  static constexpr std::uint64_t InvalidTag = ~0ull;

  /// XOR-folded set index (index hashing, as in modern LLCs). A plain
  /// modulo would interact pathologically with MC-interleaved layouts:
  /// localized data keeps a constant line residue modulo the MC count,
  /// which lives in exactly the bits a modulo index uses, quartering the
  /// effective capacity for localized threads.
  unsigned setOf(std::uint64_t LineAddr) const {
    std::uint64_t Div1 = SetDiv.div(LineAddr);
    std::uint64_t H = LineAddr ^ Div1 ^ SetDiv.div(Div1);
    return static_cast<unsigned>(SetDiv.mod(H));
  }
  /// With a hashed index the stored tag is the full line address.
  std::uint64_t tagOf(std::uint64_t LineAddr) const { return LineAddr; }

  /// Index of \p LineAddr's set's first way in the per-way arrays.
  std::size_t baseOf(std::uint64_t LineAddr) const {
    return static_cast<std::size_t>(setOf(LineAddr)) * Ways;
  }

  /// Global way index holding \p Tag in the set at \p Base, or NoWay.
  std::size_t find(std::size_t Base, std::uint64_t Tag) const;
  static constexpr std::size_t NoWay = ~static_cast<std::size_t>(0);
  /// Ways compared per probe step: find() reads a fixed ProbeChunk tags at
  /// a time and masks off the lanes past the set's last way, so Tags holds
  /// ProbeChunk empty entries past the last set to keep its read in bounds.
  static constexpr unsigned ProbeChunk = 8;

  unsigned Ways;
  unsigned NumSets;
  /// Shift/mask decode of the geometry constants (generic div/mod when the
  /// configured sizes are not powers of two).
  Pow2Divider LineDiv;
  Pow2Divider SetDiv;
  /// The ways as structure-of-arrays, NumSets * Ways entries each, one
  /// set's ways contiguous: a probe scans only Tags, and an insert scans
  /// Tags and LastUse once. An empty way holds InvalidTag and LastUse 0
  /// (every resident line's LastUse is >= 1), so the LRU scan's first
  /// minimum is the first empty way when there is one. Tags carries
  /// ProbeChunk extra InvalidTag entries past the last set (see find()).
  std::vector<std::uint64_t> Tags;
  std::vector<std::uint64_t> LastUse;
  std::vector<std::uint8_t> Dirty;
  std::vector<LineState> States;
  std::uint64_t UseClock = 0;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
};

} // namespace offchip

#endif // OFFCHIP_CACHE_CACHE_H
