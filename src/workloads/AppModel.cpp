//===- workloads/AppModel.cpp ---------------------------------------------===//

#include "workloads/AppModel.h"

#include "support/Random.h"

#include <algorithm>

using namespace offchip;

AffineRef offchip::pointRef(ArrayId Id, IntVector Off, bool Write,
                            unsigned LoopDepth) {
  unsigned Rank = static_cast<unsigned>(Off.size());
  IntMatrix A(Rank, LoopDepth);
  assert(Rank <= LoopDepth && "point reference needs one loop per dimension");
  for (unsigned D = 0; D < Rank; ++D)
    A.at(D, D) = 1;
  return AffineRef(Id, std::move(A), std::move(Off), Write);
}
