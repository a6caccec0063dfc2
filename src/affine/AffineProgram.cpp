//===- affine/AffineProgram.cpp -------------------------------------------===//

#include "affine/AffineProgram.h"

using namespace offchip;

ArrayId AffineProgram::addArray(ArrayDecl Decl) {
  Arrays.push_back(std::move(Decl));
  IndexContents.emplace_back();
  return static_cast<ArrayId>(Arrays.size() - 1);
}

void AffineProgram::setIndexArrayValues(ArrayId Id, IndexValues Values) {
  assert(Id < IndexContents.size() && "array id out of range");
  IndexContents[Id] = std::move(Values);
}

LoopNest &AffineProgram::addNest(LoopNest Nest) {
  Nests.push_back(std::move(Nest));
  return Nests.back();
}

LoopNest &AffineProgram::addNestAtFront(LoopNest Nest) {
  Nests.insert(Nests.begin(), std::move(Nest));
  return Nests.front();
}

const IndexValues *AffineProgram::indexArrayValues(ArrayId Id) const {
  assert(Id < IndexContents.size() && "array id out of range");
  if (IndexContents[Id].size() == 0)
    return nullptr;
  return &IndexContents[Id];
}

bool AffineProgram::isIndexedlyAccessed(ArrayId Id) const {
  for (const LoopNest &Nest : Nests)
    for (const IndexedRef &Ref : Nest.indexedRefs())
      if (Ref.DataArray == Id)
        return true;
  return false;
}

bool AffineProgram::isAffinelyAccessed(ArrayId Id) const {
  for (const LoopNest &Nest : Nests)
    for (const AffineRef &Ref : Nest.refs())
      if (Ref.arrayId() == Id)
        return true;
  return false;
}
