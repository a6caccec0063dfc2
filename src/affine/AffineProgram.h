//===- affine/AffineProgram.h - Whole-program affine model ------*- C++ -*-===//
///
/// \file
/// The unit the layout optimizer works on: all arrays of an application plus
/// all of its parallelized loop nests, including contents of index arrays for
/// irregular references (Section 5.4).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_AFFINE_AFFINEPROGRAM_H
#define OFFCHIP_AFFINE_AFFINEPROGRAM_H

#include "affine/ArrayDecl.h"
#include "affine/IndexGen.h"
#include "affine/LoopNest.h"

#include <string>
#include <vector>

namespace offchip {

/// A data-parallel affine program: the compiler's whole-program view.
class AffineProgram {
public:
  explicit AffineProgram(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  /// Declares an array and \returns its id.
  ArrayId addArray(ArrayDecl Decl);

  /// Provides the contents of index array \p Id (flat element offsets into
  /// the data arrays its indexed references target).
  void setIndexArrayValues(ArrayId Id, IndexValues Values);

  LoopNest &addNest(LoopNest Nest);

  /// Inserts \p Nest before all existing nests (initialization loops
  /// execute first regardless of construction order).
  LoopNest &addNestAtFront(LoopNest Nest);

  unsigned numArrays() const { return static_cast<unsigned>(Arrays.size()); }
  const ArrayDecl &array(ArrayId Id) const {
    assert(Id < Arrays.size() && "array id out of range");
    return Arrays[Id];
  }

  const std::vector<LoopNest> &nests() const { return Nests; }
  std::vector<LoopNest> &nests() { return Nests; }

  /// \returns the contents of index array \p Id, or nullptr if none were set.
  const IndexValues *indexArrayValues(ArrayId Id) const;

  /// True if any nest references array \p Id through an index array.
  bool isIndexedlyAccessed(ArrayId Id) const;

  /// True if any nest has a plain affine reference to array \p Id.
  bool isAffinelyAccessed(ArrayId Id) const;

private:
  std::string Name;
  std::vector<ArrayDecl> Arrays;
  std::vector<LoopNest> Nests;
  /// Sparse: index-array contents, parallel to Arrays (empty when unset).
  std::vector<IndexValues> IndexContents;
};

} // namespace offchip

#endif // OFFCHIP_AFFINE_AFFINEPROGRAM_H
