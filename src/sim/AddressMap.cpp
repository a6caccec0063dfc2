//===- sim/AddressMap.cpp -------------------------------------------------===//

#include "sim/AddressMap.h"

#include "support/MathUtil.h"

#include <algorithm>

using namespace offchip;

AddressMap::AddressMap(const AffineProgram &Program, const LayoutPlan &Plan,
                       VirtualMemory &VM, const MachineConfig &Config)
    : Program(&Program) {
  assert(Plan.PerArray.size() == Program.numArrays() &&
         "plan does not match program");
  unsigned NumArrays = Program.numArrays();
  Layouts.resize(NumArrays);
  Bases.resize(NumArrays);

  std::uint64_t Align = Config.PageBytes;
  Align = std::max<std::uint64_t>(
      Align, static_cast<std::uint64_t>(Config.NumMCs) *
                 Config.interleaveBytes());
  if (Config.SharedL2)
    Align = std::max<std::uint64_t>(
        Align, static_cast<std::uint64_t>(Config.numNodes()) *
                   Config.L2LineBytes);
  // Alignments are maxima of power-of-two-ish quantities; round up to a page
  // multiple for the VM.
  Align = alignTo(Align, Config.PageBytes);

  for (ArrayId Id = 0; Id < NumArrays; ++Id) {
    const ArrayDecl &Decl = Program.array(Id);
    const DataLayout *Layout = Plan.PerArray[Id].Layout.get();
    Layouts[Id] = Layout;
    std::uint64_t Bytes = Layout->sizeInElements() * Decl.ElementBytes;
    Bases[Id] = VM.reserve(Bytes, Align);

    // Emit the madvise-style page hints when the OS honors them.
    if (VM.policy() != PageAllocPolicy::CompilerGuided)
      continue;
    std::uint64_t NumPages = ceilDiv(Bytes, Config.PageBytes);
    std::uint64_t ElemsPerPage = Config.PageBytes / Decl.ElementBytes;
    for (std::uint64_t Pg = 0; Pg < NumPages; ++Pg) {
      int MC = Layout->desiredMCForOffset(Pg * ElemsPerPage);
      if (MC >= 0)
        VM.setPageHint(Bases[Id] + Pg * Config.PageBytes,
                       static_cast<unsigned>(MC));
    }
  }
}

std::uint64_t AddressMap::vaOfFlat(ArrayId Id, std::int64_t Flat,
                                   FlatScratch &Scratch) const {
  const ArrayDecl &Decl = Program->array(Id);
  std::int64_t MaxFlat = static_cast<std::int64_t>(Decl.numElements()) - 1;
  Flat = std::clamp<std::int64_t>(Flat, 0, MaxFlat);
  const DataLayout &Layout = *Layouts[Id];
  if (!Layout.isTransformed())
    return Bases[Id] + static_cast<std::uint64_t>(Flat) * Decl.ElementBytes;
  Decl.delinearizeInto(static_cast<std::uint64_t>(Flat), Scratch.Data);
  Layout.box().transformInto(Scratch.Data, Scratch.Box);
  return Bases[Id] + Layout.offsetInBox(Scratch.Box) * Decl.ElementBytes;
}
