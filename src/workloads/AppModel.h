//===- workloads/AppModel.h - Synthetic application models ------*- C++ -*-===//
///
/// \file
/// Builders for the 13 application models of the evaluation (SPEC OMP minus
/// equake, plus Mantevo hpccg/minighost/minimd). Each model is an affine
/// program whose loop/array/sharing structure mimics the named application:
/// stencil halos create inter-thread sharing, transposed passes create
/// layout conflicts, index arrays create the irregular references of
/// Section 5.4, and per-iteration reference counts set the memory-level
/// parallelism demand. Sizes are scaled to the simulator (see DESIGN.md's
/// substitution table); the optimization consumes only this structure.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_WORKLOADS_APPMODEL_H
#define OFFCHIP_WORKLOADS_APPMODEL_H

#include "affine/AffineProgram.h"

#include <string>
#include <vector>

namespace offchip {

/// One application model.
struct AppModel {
  AffineProgram Program;
  /// Estimated outstanding off-chip requests per core; the MLP-demand input
  /// of the mapping-selection analysis (Section 4). fma3d and minighost are
  /// the high-demand outliers of Figure 18.
  double MemDemandPerCore = 0.5;
  /// Compute cycles between a thread's consecutive accesses: the modeled
  /// arithmetic intensity. Memory-bound codes (fma3d, minighost) use small
  /// gaps and keep many requests in flight; compute-rich codes use large
  /// ones. Drives both bank pressure (Figure 18) and how much of execution
  /// is memory stall.
  unsigned ComputeGapCycles = 40;
  /// One-line description for documentation output.
  std::string Summary;

  explicit AppModel(std::string Name) : Program(std::move(Name)) {}
};

/// One row of the application table (workloads/Apps.cpp).
struct AppInfo {
  const char *Name;
  /// One-line description; listings print it without building the model,
  /// which would materialize its index arrays.
  const char *Summary;
  /// Builds the model at a size scale (see buildApp).
  AppModel (*Build)(double SizeScale);
};

/// The table row named \p Name, or nullptr: the recoverable lookup.
const AppInfo *findApp(const std::string &Name);

/// Names of all applications, in the paper's presentation order.
const std::vector<std::string> &appNames();

/// appNames() joined by ", ", for --apps help and unknown-app errors.
const std::string &appNameList();

/// Builds the named application model, stamping its table summary into
/// AppModel::Summary; aborts on unknown names (findApp is the recoverable
/// lookup). \p SizeScale scales array extents (1.0 = the default
/// scaled-machine sizing); values below ~0.25 are clamped per dimension to
/// keep programs non-degenerate.
AppModel buildApp(const std::string &Name, double SizeScale = 1.0);

/// The multiprogrammed workload mixes of Figure 25 (lists of app names).
const std::vector<std::vector<std::string>> &multiprogramMixes();

//===----------------------------------------------------------------------===//
// Low-level builder helpers (exposed for tests and custom examples)
//===----------------------------------------------------------------------===//

/// A reference with the identity access matrix and offset \p Off, e.g.
/// A[i+o0][j+o1] in a nest as deep as the array rank.
AffineRef pointRef(ArrayId Id, IntVector Off, bool Write,
                   unsigned LoopDepth);

} // namespace offchip

#endif // OFFCHIP_WORKLOADS_APPMODEL_H
