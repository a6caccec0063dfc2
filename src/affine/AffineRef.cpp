//===- affine/AffineRef.cpp -----------------------------------------------===//

#include "affine/AffineRef.h"

using namespace offchip;

AffineRef::AffineRef(ArrayId Array, IntMatrix Access, IntVector Offset,
                     bool IsWrite)
    : Array(Array), Access(std::move(Access)), Offset(std::move(Offset)),
      Write(IsWrite) {
  assert(this->Access.numRows() == this->Offset.size() &&
         "offset length must match data rank");
}

IntVector AffineRef::evaluate(const IntVector &Iter) const {
  IntVector Data = Access.apply(Iter);
  for (std::size_t I = 0; I < Data.size(); ++I)
    Data[I] += Offset[I];
  return Data;
}

AffineRef AffineRef::transformed(const IntMatrix &Transform) const {
  return AffineRef(Array, Transform.multiply(Access),
                   Transform.apply(Offset), Write);
}
