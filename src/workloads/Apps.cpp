//===- workloads/Apps.cpp - The 13 application models ---------------------===//
///
/// Each factory mirrors the named application's memory structure at
/// simulator scale; see the table in AppModel.h and DESIGN.md. Distinctive
/// properties the evaluation depends on:
///   - wupwise/gafort/minimd keep one stable partitioning, so first-touch
///     page placement works for them (Section 6.3);
///   - applu/minighost alternate the partition dimension across nests, so
///     first-touch misplaces pages and layout conflicts arise;
///   - swim/art/galgel contain transposed or rank-deficient references that
///     exercise non-identity Data-to-Core transformations;
///   - gafort/fma3d/ammp/hpccg/minimd access data through index arrays
///     (Section 5.4); ammp additionally carries one uniformly-random pair
///     list that defeats affine approximation on purpose;
///   - fma3d/minighost have the highest reference intensity, giving them
///     the bank-queue pressure of Figure 18 and the preference for mapping
///     M2 in Figure 17.
///
//===----------------------------------------------------------------------===//

#include "workloads/AppModel.h"

#include "support/Error.h"

#include <algorithm>
#include <cmath>

using namespace offchip;

namespace {

std::int64_t scaled(double Scale, std::int64_t Base, std::int64_t Min) {
  std::int64_t V = static_cast<std::int64_t>(std::llround(
      static_cast<double>(Base) * Scale));
  return std::max(Min, V);
}

ArrayId add1D(AffineProgram &P, const char *Name, std::int64_t N) {
  return P.addArray({Name, {N}, 8});
}

ArrayId add2D(AffineProgram &P, const char *Name, std::int64_t N0,
              std::int64_t N1) {
  return P.addArray({Name, {N0, N1}, 8});
}

ArrayId add3D(AffineProgram &P, const char *Name, std::int64_t N0,
              std::int64_t N1, std::int64_t N2) {
  return P.addArray({Name, {N0, N1, N2}, 8});
}

LoopNest makeNest(const char *Name, IntVector Upper, unsigned U) {
  IntVector Lower(Upper.size(), 0);
  return LoopNest(Name, IterationSpace(std::move(Lower), std::move(Upper)),
                  U);
}

/// An indexed reference whose (Rows x K) index array is walked as
/// Index[i0][i1] in a two-deep nest (the CRS / neighbor-list shape). The
/// index array keeps its natural 2D shape so the layout pass can localize
/// it like any other array.
IndexedRef indexed2D(ArrayId Data, ArrayId Index, bool Write) {
  IntMatrix A = IntMatrix::identity(2);
  return {Data, Index, AffineRef(Index, A, {0, 0}, false), Write};
}

/// An indexed reference walked as Slot = i in a one-deep nest.
IndexedRef indexed1D(ArrayId Data, ArrayId Index, bool Write) {
  IntMatrix A(1, 1);
  A.at(0, 0) = 1;
  return {Data, Index, AffineRef(Index, A, {0}, false), Write};
}

/// Adds to \p Nest a read of a shared boundary/table array addressed
/// diagonally: a = 8*i0 + i_last. Adjacent threads' windows overlap while
/// they execute concurrently, so a line one thread fetches is found in its
/// neighbor's private L2 by the directory — the inter-thread sharing the
/// paper measures (14% of data, ~31% of accesses app-wide). The reference
/// is inherently unsatisfiable by any Data-to-Core mapping (its partition
/// submatrix has full rank), like real shared data.
ArrayId addSharedDiagonal(AffineProgram &P, LoopNest &Nest,
                          const char *ArrayName) {
  const IterationSpace &Space = Nest.space();
  unsigned Depth = Space.depth();
  IntMatrix A(1, Depth);
  A.at(0, 0) = 8;
  A.at(0, Depth - 1) = 1;
  std::int64_t Extent = 8 * Space.upper(0) + Space.upper(Depth - 1);
  ArrayId Id = P.addArray({ArrayName, {Extent}, 8});
  Nest.addRef(AffineRef(Id, A, {0}, false));
  return Id;
}

/// Adds an initialization nest whose partitioning differs from the compute
/// loops: for multi-dimensional arrays the init is partitioned on dimension
/// 1 (column bands) while compute partitions rows; 1-D arrays are
/// initialized with a stride-interleaved sweep. Under the OS first-touch
/// policy the initializing thread pins each page, so these nests recreate
/// the classic first-touch failure (Section 6.3): page ownership set by the
/// init pattern, not by the compute pattern. wupwise, gafort and minimd
/// deliberately have no such nest — they are the paper's first-touch
/// competitive trio.
void addMisalignedInit(AffineProgram &P, ArrayId Id, const char *NestName) {
  const ArrayDecl &Decl = P.array(Id);
  unsigned Rank = Decl.rank();
  if (Rank == 1) {
    // Reversed sparse sweep: thread t touches (one per line) the region the
    // compute loops assign to thread 63-t.
    std::int64_t N = Decl.Dims[0];
    std::int64_t Chunk = N / 64;
    std::int64_t Stride = Chunk >= 512 ? 512 : (Chunk >= 32 ? 32 : 1);
    LoopNest Nest(NestName, IterationSpace({0, 0}, {64, Chunk / Stride}), 0);
    IntMatrix A(1, 2);
    A.at(0, 0) = -Chunk;
    A.at(0, 1) = -Stride;
    Nest.addRef(AffineRef(Id, A, {N - 1}, /*IsWrite=*/true));
    P.addNest(std::move(Nest));
    return;
  }
  // Reversed row ownership with one touch per page (or per line for short
  // rows): row d0 is initialized by the thread that owns row D0-1-d0 in the
  // compute loops. A touch per page is all first-touch pinning needs.
  std::int64_t Last = Decl.Dims[Rank - 1];
  std::int64_t Stride = Last >= 512 ? 512 : (Last >= 32 ? 32 : 1);
  IntVector Upper = Decl.Dims;
  Upper[Rank - 1] = Decl.Dims[Rank - 1] / Stride;
  IntMatrix A(Rank, Rank);
  IntVector O(Rank, 0);
  A.at(0, 0) = -1;
  O[0] = Decl.Dims[0] - 1;
  for (unsigned D = 1; D < Rank; ++D)
    A.at(D, D) = D + 1 == Rank ? Stride : 1;
  LoopNest Nest(NestName, IterationSpace(IntVector(Rank, 0), Upper),
                /*PartitionDim=*/0);
  Nest.addRef(AffineRef(Id, A, O, /*IsWrite=*/true));
  P.addNestAtFront(std::move(Nest));
}

/// Adds to \p Nest a read of a fresh scratch array strided so that every
/// iteration opens a new L2 line: the always-missing companion reference
/// that spreads each application's off-chip traffic evenly through its
/// compute (real codes mix hits and misses; a dedicated all-miss phase
/// would turn the run into a bandwidth benchmark).
ArrayId addStridedCompanion(AffineProgram &P, LoopNest &Nest,
                            const char *ArrayName) {
  const IterationSpace &Space = Nest.space();
  unsigned Depth = Space.depth();
  IntVector Dims(Depth);
  IntMatrix A(Depth, Depth);
  for (unsigned D = 0; D < Depth; ++D) {
    assert(Space.lower(D) == 0 && "companion expects zero-based nests");
    std::int64_t Span = Space.upper(D); // exclusive bound
    bool Fast = D + 1 == Depth;
    Dims[D] = Fast ? Span * 32 : Span;
    A.at(D, D) = Fast ? 32 : 1;
  }
  ArrayId Id = P.addArray({ArrayName, Dims, 8});
  Nest.addRef(AffineRef(Id, A, IntVector(Depth, 0), false));
  return Id;
}

//===----------------------------------------------------------------------===//
// SPEC OMP models
//===----------------------------------------------------------------------===//

AppModel makeWupwise(double S) {
  AppModel M("wupwise");
  std::int64_t N = scaled(S, 512, 64);
  AffineProgram &P = M.Program;
  ArrayId Gauge = add2D(P, "gauge", N, N);
  ArrayId Psi = add2D(P, "psi", N, N);
  ArrayId Res = add2D(P, "res", N, N);

  LoopNest Mult = makeNest("su3_mult", {N - 1, N - 1}, 0);
  Mult.addRef(pointRef(Gauge, {0, 0}, false, 2));
  Mult.addRef(pointRef(Psi, {0, 0}, false, 2));
  Mult.addRef(pointRef(Psi, {0, 1}, false, 2));
  Mult.addRef(pointRef(Psi, {1, 0}, false, 2)); // halo row below
  Mult.addRef(pointRef(Res, {0, 0}, true, 2));
  addStridedCompanion(P, Mult, "gamma");
  addSharedDiagonal(P, Mult, "boundary_spinor");
  Mult.setRepeatCount(2);
  P.addNest(std::move(Mult));

  M.ComputeGapCycles = 8;
  M.MemDemandPerCore = 0.5;
  return M;
}

AppModel makeSwim(double S) {
  AppModel M("swim");
  std::int64_t N = scaled(S, 512, 64);
  AffineProgram &P = M.Program;
  ArrayId U = add2D(P, "u", N, N);
  ArrayId V = add2D(P, "v", N, N);
  ArrayId Pr = add2D(P, "p", N, N);
  ArrayId UNew = add2D(P, "unew", N, N);
  addMisalignedInit(P, U, "init_u");

  LoopNest Calc1 = makeNest("calc1", {N - 1, N - 1}, 0);
  Calc1.addRef(pointRef(U, {0, 0}, false, 2));
  Calc1.addRef(pointRef(V, {0, 0}, false, 2));
  Calc1.addRef(pointRef(Pr, {0, 0}, false, 2));
  Calc1.addRef(pointRef(Pr, {1, 0}, false, 2));
  Calc1.addRef(pointRef(Pr, {0, 1}, false, 2));
  Calc1.addRef(pointRef(UNew, {0, 0}, true, 2));
  ArrayId ZField = addStridedCompanion(P, Calc1, "z_field");
  addMisalignedInit(P, ZField, "init_zfield");
  addSharedDiagonal(P, Calc1, "shared_cu");
  P.addNest(std::move(Calc1));

  // The periodic-boundary pass walks u transposed (every fourth column,
  // all rows): a minority preference the weighted resolution must out-vote.
  LoopNest Wrap = makeNest("boundary", {N / 4, N}, 0);
  {
    IntMatrix AT(2, 2);
    AT.at(0, 1) = 1;
    AT.at(1, 0) = 4;
    Wrap.addRef(AffineRef(U, AT, {0, 0}, false));
    Wrap.addRef(AffineRef(V, AT, {0, 0}, true));
  }
  P.addNest(std::move(Wrap));

  LoopNest Calc2 = makeNest("calc2", {N - 1, N - 1}, 0);
  Calc2.addRef(pointRef(UNew, {0, 0}, false, 2));
  Calc2.addRef(pointRef(U, {1, 0}, false, 2));
  Calc2.addRef(pointRef(V, {0, 0}, true, 2));
  P.addNest(std::move(Calc2));

  M.ComputeGapCycles = 12;
  M.MemDemandPerCore = 0.6;
  return M;
}

AppModel makeMgrid(double S) {
  AppModel M("mgrid");
  std::int64_t N = scaled(S, 64, 16);
  AffineProgram &P = M.Program;
  ArrayId R = add3D(P, "r", N, N, N);
  ArrayId Z = add3D(P, "z", N, N, N);
  addMisalignedInit(P, Z, "init_z");

  LoopNest Resid = makeNest("resid", {N - 2, N - 2, N - 2}, 0);
  Resid.addRef(pointRef(Z, {1, 1, 1}, false, 3));
  Resid.addRef(pointRef(Z, {0, 1, 1}, false, 3));
  Resid.addRef(pointRef(Z, {2, 1, 1}, false, 3));
  Resid.addRef(pointRef(Z, {1, 0, 1}, false, 3));
  Resid.addRef(pointRef(Z, {1, 2, 1}, false, 3));
  Resid.addRef(pointRef(Z, {1, 1, 0}, false, 3));
  Resid.addRef(pointRef(Z, {1, 1, 2}, false, 3));
  Resid.addRef(pointRef(R, {1, 1, 1}, true, 3));
  ArrayId Interp = addStridedCompanion(P, Resid, "interp_buf");
  addMisalignedInit(P, Interp, "init_interp");
  addSharedDiagonal(P, Resid, "ghost_r");
  P.addNest(std::move(Resid));

  // Coarse-level smoothing touches every other point.
  LoopNest Coarse = makeNest("psinv_coarse", {N / 2, N / 2, N / 2}, 0);
  IntMatrix Stride(3, 3);
  Stride.at(0, 0) = 2;
  Stride.at(1, 1) = 2;
  Stride.at(2, 2) = 2;
  Coarse.addRef(AffineRef(R, Stride, {0, 0, 0}, false));
  Coarse.addRef(AffineRef(Z, Stride, {0, 0, 0}, true));
  P.addNest(std::move(Coarse));

  M.ComputeGapCycles = 12;
  M.MemDemandPerCore = 0.7;
  return M;
}

AppModel makeApplu(double S) {
  AppModel M("applu");
  std::int64_t N = scaled(S, 64, 16);
  AffineProgram &P = M.Program;
  ArrayId A = add3D(P, "rsd", N, N, N);
  ArrayId B = add3D(P, "u", N, N, N);
  addMisalignedInit(P, A, "init_rsd");

  // Lower-triangular sweep partitions dimension 0...
  LoopNest Blts = makeNest("blts", {N - 1, N - 1, N - 1}, 0);
  Blts.addRef(pointRef(A, {0, 0, 0}, false, 3));
  Blts.addRef(pointRef(A, {1, 0, 0}, false, 3));
  Blts.addRef(pointRef(B, {0, 0, 0}, true, 3));
  ArrayId JacA = addStridedCompanion(P, Blts, "jac_a");
  addMisalignedInit(P, JacA, "init_jac");
  addSharedDiagonal(P, Blts, "pivot_row");
  P.addNest(std::move(Blts));

  // ...the upper sweep partitions dimension 1, creating the layout conflict
  // (and defeating first-touch ownership).
  LoopNest Buts = makeNest("buts", {N - 1, N - 1, N - 1}, 1);
  Buts.addRef(pointRef(B, {0, 0, 0}, false, 3));
  Buts.addRef(pointRef(B, {0, 1, 0}, false, 3));
  Buts.addRef(pointRef(A, {0, 0, 0}, true, 3));
  addStridedCompanion(P, Buts, "jac_b");
  P.addNest(std::move(Buts));

  M.ComputeGapCycles = 16;
  M.MemDemandPerCore = 0.8;
  return M;
}

AppModel makeGalgel(double S) {
  AppModel M("galgel");
  std::int64_t N = scaled(S, 1024, 128);
  AffineProgram &P = M.Program;
  ArrayId W = add2D(P, "w", N, N);
  ArrayId X = add1D(P, "x", N);
  ArrayId Y = add1D(P, "y", N);
  addMisalignedInit(P, W, "init_w");

  // Galerkin projection: dense matrix-vector products.
  LoopNest Fwd = makeNest("matvec", {N, N}, 0);
  Fwd.addRef(pointRef(W, {0, 0}, false, 2));
  {
    IntMatrix AX(1, 2);
    AX.at(0, 1) = 1; // x[j]
    Fwd.addRef(AffineRef(X, AX, {0}, false));
    IntMatrix AY(1, 2);
    AY.at(0, 0) = 1; // y[i]
    Fwd.addRef(AffineRef(Y, AY, {0}, true));
  }
  ArrayId Eig = addStridedCompanion(P, Fwd, "eig_buf");
  addMisalignedInit(P, Eig, "init_eig");
  addSharedDiagonal(P, Fwd, "basis_vec");
  P.addNest(std::move(Fwd));

  // Adjoint pass reads W transposed, every other column, full row range
  // (keeping the per-cluster load balanced).
  LoopNest Adj = makeNest("adjoint", {N / 2, N}, 0);
  {
    IntMatrix AT(2, 2);
    AT.at(0, 1) = 1; // row index tracks the inner iterator
    AT.at(1, 0) = 2; // column = 2*i0
    Adj.addRef(AffineRef(W, AT, {0, 0}, false));
  }
  P.addNest(std::move(Adj));

  M.ComputeGapCycles = 12;
  M.MemDemandPerCore = 0.8;
  return M;
}

AppModel makeApsi(double S) {
  AppModel M("apsi");
  std::int64_t N = scaled(S, 64, 16);
  AffineProgram &P = M.Program;
  ArrayId T = add3D(P, "t", N, N, N);
  ArrayId Q = add3D(P, "q", N, N, N);
  ArrayId Wk = add3D(P, "wk", N, N, N);
  addMisalignedInit(P, T, "init_t");

  LoopNest Adv = makeNest("advection", {N - 1, N, N - 1}, 0);
  Adv.addRef(pointRef(T, {0, 0, 0}, false, 3));
  Adv.addRef(pointRef(T, {0, 0, 1}, false, 3));
  Adv.addRef(pointRef(T, {1, 0, 0}, false, 3)); // halo plane
  Adv.addRef(pointRef(Q, {0, 0, 0}, false, 3));
  Adv.addRef(pointRef(Wk, {0, 0, 0}, true, 3));
  ArrayId Wind = addStridedCompanion(P, Adv, "wind_buf");
  addMisalignedInit(P, Wind, "init_wind");
  addSharedDiagonal(P, Adv, "column_state");
  Adv.setRepeatCount(2);
  P.addNest(std::move(Adv));

  M.ComputeGapCycles = 12;
  M.MemDemandPerCore = 0.6;
  return M;
}

AppModel makeGafort(double S) {
  AppModel M("gafort");
  std::int64_t N = scaled(S, 512 * 1024, 8192);
  AffineProgram &P = M.Program;
  ArrayId Pop = add1D(P, "population", N);
  ArrayId Fit = add1D(P, "fitness", N);
  ArrayId Shuf = add1D(P, "shuffle_idx", N);
  P.setIndexArrayValues(
      Shuf, IndexValues::nearby(static_cast<std::uint64_t>(N), N,
                                /*Window=*/4096, /*Seed=*/0x9af0));

  LoopNest Eval = makeNest("evaluate", {N}, 0);
  Eval.addRef(pointRef(Pop, {0}, false, 1));
  Eval.addRef(pointRef(Fit, {0}, true, 1));
  Eval.addIndexedRef(indexed1D(Pop, Shuf, false));
  P.addNest(std::move(Eval));

  M.ComputeGapCycles = 12;
  M.MemDemandPerCore = 0.4;
  return M;
}

AppModel makeFma3d(double S) {
  AppModel M("fma3d");
  std::int64_t Nodes = scaled(S, 512 * 1024, 8192);
  std::int64_t Elems = scaled(S, 64 * 1024, 2048);
  const std::int64_t K = 8; // nodes per element
  AffineProgram &P = M.Program;
  ArrayId X = add1D(P, "coord", Nodes);
  ArrayId F = add1D(P, "force", Nodes);
  ArrayId Conn = P.addArray({"connectivity", {Elems, K}, 8});
  addMisalignedInit(P, X, "init_coords");
  // Adjacent elements share nodes: window-local connectivity, high sharing.
  P.setIndexArrayValues(
      Conn, IndexValues::nearby(static_cast<std::uint64_t>(Elems * K), Nodes,
                                /*Window=*/4096, /*Seed=*/0xf3a3));

  LoopNest Force = makeNest("element_force", {Elems, K}, 0);
  Force.addIndexedRef(indexed2D(X, Conn, false));
  Force.addIndexedRef(indexed2D(F, Conn, true));
  P.addNest(std::move(Force));

  LoopNest Update = makeNest("node_update", {Nodes}, 0);
  Update.addRef(pointRef(F, {0}, false, 1));
  Update.addRef(pointRef(X, {0}, true, 1));
  P.addNest(std::move(Update));

  // Contact pass: every thread works the first half of the mesh (the
  // contact region). Its misses all target the MCs owning that half — the
  // load imbalance that makes one controller per cluster insufficient and
  // lets mapping M2's shared MC groups absorb the burst (Figure 17).
  LoopNest Contact = makeNest("contact_force", {Elems / 3, K}, 0);
  Contact.addIndexedRef(indexed2D(X, Conn, false));
  Contact.addIndexedRef(indexed2D(F, Conn, true));
  P.addNest(std::move(Contact));

  M.ComputeGapCycles = 6;
  M.MemDemandPerCore = 3.0;
  return M;
}

AppModel makeArt(double S) {
  AppModel M("art");
  std::int64_t N = scaled(S, 768, 96);
  AffineProgram &P = M.Program;
  ArrayId W = add2D(P, "weights", N, N);
  ArrayId Act = add2D(P, "activation", N, N);
  addMisalignedInit(P, W, "init_weights");

  LoopNest Fwd = makeNest("f1_forward", {N, N - 1}, 0);
  Fwd.addRef(pointRef(W, {0, 0}, false, 2));
  Fwd.addRef(pointRef(W, {0, 1}, false, 2));
  Fwd.addRef(pointRef(Act, {0, 0}, true, 2));
  Fwd.addRef(pointRef(Act, {0, 1}, false, 2));
  ArrayId Match = addStridedCompanion(P, Fwd, "match_buf");
  addMisalignedInit(P, Match, "init_match");
  addSharedDiagonal(P, Fwd, "prototype");
  P.addNest(std::move(Fwd));

  // Resonance pass reads the weights transposed, every other column over
  // the full row range (balanced across clusters).
  LoopNest Bwd = makeNest("f2_resonance", {N / 2, N - 1}, 0);
  {
    IntMatrix AT(2, 2);
    AT.at(0, 1) = 1;
    AT.at(1, 0) = 2;
    Bwd.addRef(AffineRef(W, AT, {0, 0}, false));
    Bwd.addRef(AffineRef(Act, AT, {0, 0}, false));
  }
  P.addNest(std::move(Bwd));

  M.ComputeGapCycles = 12;
  M.MemDemandPerCore = 0.6;
  return M;
}

AppModel makeAmmp(double S) {
  AppModel M("ammp");
  std::int64_t Atoms = scaled(S, 512 * 1024, 8192);
  std::int64_t Neigh = scaled(S, 512 * 1024, 16384);
  std::int64_t Pairs = scaled(S, 128 * 1024, 4096);
  AffineProgram &P = M.Program;
  ArrayId Xyz = add1D(P, "coords", Atoms);
  ArrayId Frc = add1D(P, "forces", Atoms);
  ArrayId Nbr = add1D(P, "neighbors", Neigh);
  ArrayId Rnd = add1D(P, "pairlist", Pairs);
  addMisalignedInit(P, Xyz, "init_coords");
  P.setIndexArrayValues(
      Nbr, IndexValues::nearby(static_cast<std::uint64_t>(Neigh), Atoms,
                               /*Window=*/4096, /*Seed=*/0xa44b));
  // The long-range pair list is uniformly random: its affine approximation
  // fails the 30% error bound and the reference stays unoptimized.
  P.setIndexArrayValues(
      Rnd, IndexValues::random(static_cast<std::uint64_t>(Pairs), Atoms,
                               /*Seed=*/0x77aa));

  LoopNest Bonded = makeNest("bonded", {Atoms}, 0);
  Bonded.addRef(pointRef(Xyz, {0}, false, 1));
  Bonded.addRef(pointRef(Frc, {0}, true, 1));
  P.addNest(std::move(Bonded));

  LoopNest NonBond = makeNest("nonbond", {Neigh}, 0);
  NonBond.addIndexedRef(indexed1D(Xyz, Nbr, false));
  P.addNest(std::move(NonBond));

  LoopNest LongRange = makeNest("longrange", {Pairs}, 0);
  LongRange.addIndexedRef(indexed1D(Frc, Rnd, true));
  P.addNest(std::move(LongRange));

  M.ComputeGapCycles = 10;
  M.MemDemandPerCore = 0.7;
  return M;
}

//===----------------------------------------------------------------------===//
// Mantevo models
//===----------------------------------------------------------------------===//

AppModel makeHpccg(double S) {
  AppModel M("hpccg");
  std::int64_t Rows = scaled(S, 96 * 1024, 4096);
  const std::int64_t K = 8; // nonzeros per row
  AffineProgram &P = M.Program;
  ArrayId AVal = P.addArray({"a_values", {Rows, K}, 8});
  ArrayId ColIdx = P.addArray({"col_index", {Rows, K}, 8});
  ArrayId Xv = add1D(P, "x", Rows);
  ArrayId Pv = add1D(P, "p", Rows);
  ArrayId Qv = add1D(P, "q", Rows);
  addMisalignedInit(P, AVal, "init_matrix");
  // Banded sparsity: column indices stay near the diagonal, so the affine
  // approximation of Section 5.4 fits well.
  P.setIndexArrayValues(
      ColIdx, IndexValues::nearby(static_cast<std::uint64_t>(Rows * K), Rows,
                                  /*Window=*/384, /*Seed=*/0xcc61));

  LoopNest Spmv = makeNest("spmv", {Rows, K - 1}, 0);
  Spmv.addRef(pointRef(AVal, {0, 0}, false, 2));
  Spmv.addRef(pointRef(AVal, {0, 1}, false, 2));
  Spmv.addIndexedRef(indexed2D(Xv, ColIdx, false));
  ArrayId RowStart = addStridedCompanion(P, Spmv, "row_start");
  addMisalignedInit(P, RowStart, "init_rowstart");
  addSharedDiagonal(P, Spmv, "diag_precond");
  P.addNest(std::move(Spmv));

  LoopNest Axpy = makeNest("waxpby", {Rows}, 0);
  Axpy.addRef(pointRef(Pv, {0}, false, 1));
  Axpy.addRef(pointRef(Qv, {0}, true, 1));
  Axpy.addRef(pointRef(Xv, {0}, false, 1));
  P.addNest(std::move(Axpy));

  M.ComputeGapCycles = 20;
  M.MemDemandPerCore = 1.0;
  return M;
}

AppModel makeMinighost(double S) {
  AppModel M("minighost");
  std::int64_t N = scaled(S, 64, 16);
  AffineProgram &P = M.Program;
  ArrayId In = add3D(P, "grid_in", N, N, N);
  ArrayId Out = add3D(P, "grid_out", N, N, N);
  ArrayId Flux = add3D(P, "flux", N, N, N);
  addMisalignedInit(P, In, "init_grid");

  // 27-point-class stencil, modeled with 9 loads plus the flux store: the
  // highest per-iteration intensity in the suite.
  LoopNest St = makeNest("stencil27", {N - 2, N - 2, N - 2}, 0);
  St.addRef(pointRef(In, {1, 1, 1}, false, 3));
  St.addRef(pointRef(In, {0, 1, 1}, false, 3));
  St.addRef(pointRef(In, {2, 1, 1}, false, 3));
  St.addRef(pointRef(In, {1, 0, 1}, false, 3));
  St.addRef(pointRef(In, {1, 2, 1}, false, 3));
  St.addRef(pointRef(In, {1, 1, 0}, false, 3));
  St.addRef(pointRef(In, {1, 1, 2}, false, 3));
  St.addRef(pointRef(In, {0, 0, 1}, false, 3));
  St.addRef(pointRef(In, {2, 2, 1}, false, 3));
  St.addRef(pointRef(Out, {1, 1, 1}, true, 3));
  addStridedCompanion(P, St, "recv_buf");
  addSharedDiagonal(P, St, "ghost_cells");
  P.addNest(std::move(St));

  // Boundary-flux pass over the first half of the grid: all threads sweep
  // planes owned by half the clusters, overloading their controllers under
  // mapping M1 (the imbalance that favors M2 in Figure 17).
  LoopNest Boundary = makeNest("boundary_flux", {N / 2, N, N}, 0);
  Boundary.addRef(pointRef(In, {0, 0, 0}, false, 3));
  Boundary.addRef(pointRef(Flux, {0, 0, 0}, true, 3));
  addStridedCompanion(P, Boundary, "face_buf");
  Boundary.setRepeatCount(2);
  P.addNest(std::move(Boundary));

  // The halo-exchange pass partitions dimension 1.
  LoopNest Halo = makeNest("halo_exchange", {N, N, N}, 1);
  Halo.addRef(pointRef(Out, {0, 0, 0}, false, 3));
  Halo.addRef(pointRef(Flux, {0, 0, 0}, true, 3));
  addStridedCompanion(P, Halo, "send_buf");
  P.addNest(std::move(Halo));

  M.ComputeGapCycles = 6;
  M.MemDemandPerCore = 2.5;
  return M;
}

AppModel makeMinimd(double S) {
  AppModel M("minimd");
  std::int64_t Atoms = scaled(S, 128 * 1024, 4096);
  const std::int64_t K = 8; // neighbors per atom
  AffineProgram &P = M.Program;
  ArrayId C = add1D(P, "coords", Atoms);
  ArrayId F = add1D(P, "forces", Atoms);
  ArrayId Nbr = P.addArray({"neighbor_list", {Atoms, K}, 8});
  // Sorted neighbor bins: very local indices, first-touch-friendly.
  P.setIndexArrayValues(
      Nbr, IndexValues::nearby(static_cast<std::uint64_t>(Atoms * K), Atoms,
                               /*Window=*/512, /*Seed=*/0x3d3d));

  LoopNest Force = makeNest("compute_force", {Atoms, K}, 0);
  {
    IntMatrix AF(1, 2);
    AF.at(0, 0) = 1; // f[a]
    Force.addRef(AffineRef(F, AF, {0}, true));
  }
  Force.addIndexedRef(indexed2D(C, Nbr, false));
  addStridedCompanion(P, Force, "bin_buf");
  P.addNest(std::move(Force));

  M.ComputeGapCycles = 12;
  M.MemDemandPerCore = 0.6;
  return M;
}

} // namespace

/// The application table, in the paper's presentation order. Adding an app
/// is one row here.
static const AppInfo Apps[] = {
    {"wupwise", "lattice-QCD dense 2D sweeps; stable partitioning",
     makeWupwise},
    {"swim", "shallow-water 5-point stencils + transposed boundary pass",
     makeSwim},
    {"mgrid", "3D multigrid 7-point stencil with strided coarse level",
     makeMgrid},
    {"applu", "SSOR sweeps with alternating partition dimensions", makeApplu},
    {"galgel", "dense matvec + transposed adjoint pass", makeGalgel},
    {"apsi", "3D meteorology advection sweeps", makeApsi},
    {"gafort", "GA population sweep with window-local shuffle", makeGafort},
    {"fma3d", "FEM gather/scatter; highest sharing and bank demand",
     makeFma3d},
    {"art", "neural-net weight sweeps, forward + transposed resonance",
     makeArt},
    {"ammp", "MD with local neighbor list + random long-range pairs",
     makeAmmp},
    {"hpccg", "CG with banded CRS SpMV", makeHpccg},
    {"minighost", "27-point halo stencil; high sharing and bank demand",
     makeMinighost},
    {"minimd", "MD force loop over sorted neighbor bins", makeMinimd},
};

const AppInfo *offchip::findApp(const std::string &Name) {
  for (const AppInfo &A : Apps)
    if (Name == A.Name)
      return &A;
  return nullptr;
}

const std::vector<std::string> &offchip::appNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const AppInfo &A : Apps)
      Out.push_back(A.Name);
    return Out;
  }();
  return Names;
}

const std::string &offchip::appNameList() {
  static const std::string List = [] {
    std::string Out;
    for (const AppInfo &A : Apps)
      Out += std::string(Out.empty() ? "" : ", ") + A.Name;
    return Out;
  }();
  return List;
}

AppModel offchip::buildApp(const std::string &Name, double SizeScale) {
  const AppInfo *A = findApp(Name);
  if (!A)
    reportFatalError("unknown application model name");
  AppModel M = A->Build(SizeScale);
  M.Summary = A->Summary;
  return M;
}

const std::vector<std::vector<std::string>> &offchip::multiprogramMixes() {
  static const std::vector<std::vector<std::string>> Mixes = {
      {"swim", "mgrid"},
      {"apsi", "art"},
      {"wupwise", "fma3d"},
      {"hpccg", "minighost", "minimd", "gafort"},
  };
  return Mixes;
}
