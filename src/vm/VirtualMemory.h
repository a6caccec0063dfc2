//===- vm/VirtualMemory.h - VA spaces and page allocation -------*- C++ -*-===//
///
/// \file
/// The OS side of the paper: virtual address spaces, page tables, and the
/// page allocation policies of Sections 5.3 and 6.3. Under page interleaving
/// the physical page number decides the memory controller (Figure 5), so the
/// allocator IS the Data-to-MC mechanism:
///
///   - InterleavedRoundRobin: pages round-robin across MCs in virtual page
///     order — the hardware-interleave-like default the paper normalizes to.
///   - FirstTouch [20]: a page is allocated from the MC of the cluster whose
///     node touches it first.
///   - CompilerGuided: the modified allocation policy of Section 5.3
///     (madvise-style); each virtual page carries a desired MC, honored
///     unless that MC's memory is full, in which case an alternate MC is
///     chosen (so the page fault count never grows).
///
/// Physical pages of MC m are the PPNs congruent to m modulo the MC count,
/// mirroring the paper's "first log(N) bits after the page offset" decode.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_VM_VIRTUALMEMORY_H
#define OFFCHIP_VM_VIRTUALMEMORY_H

#include "support/EnumNames.h"
#include "support/Pow2.h"

#include <cstdint>
#include <vector>

namespace offchip {

/// Page allocation policies (see file comment).
enum class PageAllocPolicy {
  InterleavedRoundRobin,
  FirstTouch,
  CompilerGuided,
};

/// Wire and CLI spellings (support/EnumNames.h).
inline const auto &enumNames(PageAllocPolicy) {
  static constexpr EnumName<PageAllocPolicy> Names[] = {
      {PageAllocPolicy::InterleavedRoundRobin, "round_robin"},
      {PageAllocPolicy::FirstTouch, "first_touch"},
      {PageAllocPolicy::CompilerGuided, "compiler_guided"}};
  return Names;
}

struct VmConfig {
  unsigned PageBytes = 4096;
  unsigned NumMCs = 4;
  /// Physical capacity managed by each MC.
  std::uint64_t BytesPerMC = 1ull << 30;
};

/// One application's virtual address space plus the machine's physical page
/// allocator.
class VirtualMemory {
public:
  VirtualMemory(VmConfig Config, PageAllocPolicy Policy);

  const VmConfig &config() const { return Config; }
  PageAllocPolicy policy() const { return Policy; }

  /// Reserves a virtual region of \p Bytes aligned to \p Align (which must
  /// be a multiple of the page size). \returns the base VA.
  std::uint64_t reserve(std::uint64_t Bytes, std::uint64_t Align);

  /// Registers the compiler's desired MC for the page containing \p VA
  /// (madvise analogue). Only consulted by the CompilerGuided policy, and
  /// only before the page is first touched.
  void setPageHint(std::uint64_t VA, unsigned DesiredMC);

  /// Translates \p VA, allocating the physical page on first touch.
  /// \p TouchingMC is the MC associated with the first-touching node's
  /// cluster (used by the FirstTouch policy).
  std::uint64_t translate(std::uint64_t VA, unsigned TouchingMC);

  /// Non-mutating translation: the PA if the page containing \p VA is
  /// already mapped, or false without allocating anything. Its one caller
  /// is the L1-inclusion check in Machine::checkInvariants, which maps
  /// L1-resident lines to their L2 lines after the run — a check must never
  /// allocate a page or change first-touch allocation order.
  bool peekTranslate(std::uint64_t VA, std::uint64_t *PA) const {
    std::uint64_t VPN = VA >> PageShift;
    if (VPN >= PageTable.size() || PageTable[VPN] < 0)
      return false;
    *PA = (static_cast<std::uint64_t>(PageTable[VPN]) << PageShift) +
          (VA & PageMask);
    return true;
  }

  /// Reverse translation: the VPN mapped to physical page \p PPN, or false
  /// when no virtual page maps there. Translation is injective (each PPN is
  /// handed out once), so the answer is unique. The coherence flow uses it
  /// to back-invalidate L1 lines, which are indexed by virtual address.
  bool peekReverse(std::uint64_t PPN, std::uint64_t *VPN) const {
    if (PPN >= ReverseMap.size() || ReverseMap[PPN] < 0)
      return false;
    *VPN = static_cast<std::uint64_t>(ReverseMap[PPN]);
    return true;
  }

  unsigned pageShift() const { return PageShift; }

  /// MC owning physical address \p PA under page interleaving.
  unsigned mcOfPhysAddr(std::uint64_t PA) const {
    return static_cast<unsigned>(MCDiv.mod(PA >> PageShift));
  }

  /// Number of pages whose desired MC was full and that were redirected to
  /// an alternate controller.
  std::uint64_t redirectedPages() const { return Redirected; }

  /// Bytes of virtual address space reserve() has handed out, alignment
  /// padding included.
  std::uint64_t reservedBytes() const { return NextVA - Config.PageBytes; }

  /// Number of physical pages handed out so far.
  std::uint64_t allocatedPages() const { return Allocated; }

private:
  std::uint64_t allocatePhysPage(unsigned PreferredMC);

  void growTables(std::uint64_t VPN);

  VmConfig Config;
  PageAllocPolicy Policy;
  /// Page size is validated to be a power of two, so VPN/offset extraction
  /// is a shift and a mask; the MC count may be anything, so it keeps the
  /// generic-divide fallback.
  unsigned PageShift;
  std::uint64_t PageMask;
  Pow2Divider MCDiv;
  std::uint64_t NextVA;
  /// VPN -> PPN, -1 when unmapped. Flat vectors keep translate() off the
  /// hash path: it runs once per simulated access.
  std::vector<std::int64_t> PageTable;
  /// PPN -> VPN, -1 when unmapped; filled as pages are allocated.
  std::vector<std::int64_t> ReverseMap;
  /// VPN -> desired MC, -1 when unhinted.
  std::vector<std::int8_t> Hints;
  /// Next free local page index per MC.
  std::vector<std::uint64_t> NextLocal;
  std::uint64_t PagesPerMC;
  std::uint64_t Redirected = 0;
  std::uint64_t Allocated = 0;
};

} // namespace offchip

#endif // OFFCHIP_VM_VIRTUALMEMORY_H
