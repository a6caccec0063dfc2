//===- affine/ProgramText.h - Textual affine-program format -----*- C++ -*-===//
///
/// \file
/// A small text format for affine programs, so hand-parallelized codes can
/// be described without writing C++ (the paper's pass consumes
/// hand-parallelized or compiler-parallelized sources; this is the
/// equivalent entry point for the library). Grammar, line oriented,
/// '#' comments:
///
///   program <name>
///   array <name> dims <d0> [<d1> ...] elem <bytes>
///   index <array> nearby <window> <seed> for <dataarray>
///   index <array> random <seed> for <dataarray>
///   nest <name> bounds <lo>:<hi> [<lo>:<hi> ...] parallel <dim>
///        [repeat <n>]   (repeat is optional)
///     read  <array> [ <expr>, <expr>, ... ]
///     write <array> [ <expr>, ... ]
///     gather-read  <dataarray> via <indexarray> [ <expr>, ... ]
///     gather-write <dataarray> via <indexarray> [ <expr>, ... ]
///   end
///
/// Subscript expressions are affine in the iterators i0, i1, ...:
/// "i0", "i1+1", "2*i0-3", "32*i1". Bounds are half-open [lo, hi). Every
/// number is one whole decimal integer token; dims, elem and repeat are
/// at least 1.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_AFFINE_PROGRAMTEXT_H
#define OFFCHIP_AFFINE_PROGRAMTEXT_H

#include "affine/AffineProgram.h"

#include <optional>
#include <string>

namespace offchip {

/// Parses the textual format. On failure returns std::nullopt and, when
/// \p Error is non-null, stores a message with the offending line number.
std::optional<AffineProgram> parseProgramText(const std::string &Text,
                                              std::string *Error = nullptr);

} // namespace offchip

#endif // OFFCHIP_AFFINE_PROGRAMTEXT_H
