//===- core/LayoutTransformer.h - Algorithm 1 driver ------------*- C++ -*-===//
///
/// \file
/// The top-level compiler pass of the paper (Algorithm 1): for every array of
/// an affine program, determine the Data-to-Core mapping (Section 5.2),
/// customize the layout for the target cache organization and interleaving
/// granularity (Section 5.3), and approximate indexed references through
/// profiles (Section 5.4), skipping references whose approximation error is
/// too large.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_CORE_LAYOUTTRANSFORMER_H
#define OFFCHIP_CORE_LAYOUTTRANSFORMER_H

#include "affine/AffineProgram.h"
#include "affine/IndexProfile.h"
#include "core/DataLayout.h"
#include "core/DataToCore.h"
#include "support/EnumNames.h"

#include <memory>
#include <string>

namespace offchip {

/// Interleaving of physical addresses across memory controllers (Section 3).
enum class InterleaveGranularity {
  CacheLine, ///< the first bits after the cache-line offset select the MC
  Page,      ///< the first bits after the page offset select the MC
};

/// Wire and CLI spellings (support/EnumNames.h).
inline const auto &enumNames(InterleaveGranularity) {
  static constexpr EnumName<InterleaveGranularity> Names[] = {
      {InterleaveGranularity::CacheLine, "line"},
      {InterleaveGranularity::Page, "page"}};
  return Names;
}

/// Compile-time options of the pass.
struct LayoutOptions {
  /// Target cache organization (Figure 2a vs 2b).
  bool SharedL2 = false;
  InterleaveGranularity Granularity = InterleaveGranularity::CacheLine;
  /// Size of one interleave unit: the L2 line size under CacheLine, the page
  /// size under Page interleaving (Table 1: 256 B / 4 KB).
  unsigned CacheLineBytes = 256;
  unsigned PageBytes = 4096;
  /// Indexed references whose affine approximation errs by more than this
  /// fraction of the array are left unoptimized (the paper uses 30%).
  double MaxIndexErrorFraction = 0.30;
  /// Arrays smaller than this many elements are not worth transforming (the
  /// padding would dominate and their traffic is negligible).
  std::uint64_t MinArrayElements = 4096;
  /// Ablation: disable the shared-L2 off-chip delta-skip pass.
  bool EnableDeltaSkip = true;

  unsigned interleaveBytes() const {
    return Granularity == InterleaveGranularity::CacheLine ? CacheLineBytes
                                                           : PageBytes;
  }
};

/// Per-array outcome of the pass.
struct ArrayLayoutResult {
  /// The layout to use; row-major when not optimized. Never null.
  std::unique_ptr<DataLayout> Layout;
  /// True when a customized layout was installed.
  bool Optimized = false;
  /// True when the array is referenced at all (denominator of Table 2's
  /// arrays-optimized percentage).
  bool Accessed = false;
  /// The Data-to-Core transformation (identity when not optimized).
  IntMatrix U;
  /// Dynamic weights from the Data-to-Core analysis.
  std::uint64_t SatisfiedWeight = 0;
  std::uint64_t TotalWeight = 0;
  /// Why the array was left untouched (empty when optimized).
  std::string Note;
};

/// Whole-program outcome.
struct LayoutPlan {
  std::vector<ArrayLayoutResult> PerArray;

  /// Fraction of accessed arrays that received a customized layout
  /// (Table 2, second column).
  double arraysOptimizedFraction() const;

  /// Dynamic-weight fraction of references satisfied by the chosen layouts
  /// (Table 2, third column). References to unoptimized arrays count as
  /// unsatisfied.
  double refsSatisfiedFraction() const;
};

/// The pass.
class LayoutTransformer {
public:
  LayoutTransformer(const ClusterMapping &Mapping, LayoutOptions Options)
      : Mapping(Mapping), Options(Options) {}

  /// Runs Algorithm 1 over \p Program.
  LayoutPlan run(const AffineProgram &Program) const;

  /// Builds the untransformed plan (row-major everywhere); the baseline the
  /// evaluation normalizes against.
  static LayoutPlan originalPlan(const AffineProgram &Program);

private:
  const ClusterMapping &Mapping;
  LayoutOptions Options;
};

} // namespace offchip

#endif // OFFCHIP_CORE_LAYOUTTRANSFORMER_H
