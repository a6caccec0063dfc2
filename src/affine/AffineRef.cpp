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

AffineRef AffineRef::transformed(const IntMatrix &Transform) const {
  return AffineRef(Array, Transform.multiply(Access),
                   Transform.apply(Offset), Write);
}
