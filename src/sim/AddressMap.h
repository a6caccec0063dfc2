//===- sim/AddressMap.h - Program address-space assembly --------*- C++ -*-===//
///
/// \file
/// Binds an affine program's arrays to virtual addresses under a layout
/// plan: reserves aligned regions, resolves (array, data vector) to a VA
/// through the chosen layouts, and emits the compiler's per-page MC hints
/// (Section 5.3's OS assist) when the machine runs the CompilerGuided page
/// policy.
///
/// Base alignment is the padding of Section 5.3 at the allocation level:
/// aligning every base to numMCs * interleaveUnit (and to numNodes * L2 line
/// under shared L2) keeps element offset 0 on MC residue 0 / home bank 0, so
/// the customized layouts' run arithmetic matches the hardware decode.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SIM_ADDRESSMAP_H
#define OFFCHIP_SIM_ADDRESSMAP_H

#include "affine/AffineProgram.h"
#include "core/LayoutTransformer.h"
#include "sim/MachineConfig.h"
#include "vm/VirtualMemory.h"

namespace offchip {

/// Address resolution for one program instance.
class AddressMap {
public:
  AddressMap(const AffineProgram &Program, const LayoutPlan &Plan,
             VirtualMemory &VM, const MachineConfig &Config);

  /// Virtual address of array element \p DataVec.
  std::uint64_t vaOf(ArrayId Id, const IntVector &DataVec) const {
    const ArrayDecl &Decl = Program->array(Id);
    return Bases[Id] +
           Layouts[Id]->elementOffset(DataVec) * Decl.ElementBytes;
  }

  /// Reused coordinate buffers for vaOfFlat(), so a gather through a
  /// transformed layout allocates nothing per access.
  struct FlatScratch {
    IntVector Data;
    IntVector Box;
  };

  /// Virtual address of the element at row-major flat offset \p Flat (the
  /// value an index array holds, clamped into the array). Delinearizes
  /// through the original shape into \p Scratch, then applies the (possibly
  /// transformed) layout.
  std::uint64_t vaOfFlat(ArrayId Id, std::int64_t Flat,
                         FlatScratch &Scratch) const;

  /// True when accesses to this array pay the transformed-layout address
  /// computation overhead.
  bool isTransformed(ArrayId Id) const { return Layouts[Id]->isTransformed(); }

  /// The layout the array's elements are placed by; together with base()
  /// and the element size it lets the access stream walk a reference's
  /// addresses in box coordinates (DataLayout::runAlong).
  const DataLayout &layout(ArrayId Id) const { return *Layouts[Id]; }

  std::uint64_t base(ArrayId Id) const { return Bases[Id]; }

  const AffineProgram &program() const { return *Program; }

private:
  const AffineProgram *Program;
  std::vector<const DataLayout *> Layouts;
  std::vector<std::uint64_t> Bases;
};

} // namespace offchip

#endif // OFFCHIP_SIM_ADDRESSMAP_H
