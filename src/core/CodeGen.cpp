//===- core/CodeGen.cpp ---------------------------------------------------===//

#include "core/CodeGen.h"

#include "core/DataLayout.h"
#include "support/Error.h"
#include "support/Format.h"

using namespace offchip;

namespace {

/// Renders an affine form Coeffs . (i0..im-1) + Const as a parenthesized C
/// expression, dropping zero terms.
std::string affineExpr(const IntVector &Coeffs, std::int64_t Const) {
  std::string Out;
  for (std::size_t D = 0; D < Coeffs.size(); ++D) {
    std::int64_t C = Coeffs[D];
    if (C == 0)
      continue;
    if (!Out.empty())
      Out += C > 0 ? " + " : " - ";
    else if (C < 0)
      Out += "-";
    std::int64_t A = C > 0 ? C : -C;
    if (A != 1)
      Out += formatString("%lld*", static_cast<long long>(A));
    Out += formatString("i%zu", D);
  }
  if (Const != 0 || Out.empty()) {
    if (Out.empty())
      Out = formatString("%lld", static_cast<long long>(Const));
    else if (Const > 0)
      Out += formatString(" + %lld", static_cast<long long>(Const));
    else
      Out += formatString(" - %lld", static_cast<long long>(-Const));
  }
  return "(" + Out + ")";
}

/// Per-dimension affine expressions of the *transformed* data vector
/// t = U*(A*i + o) + shift.
std::vector<std::string> transformedDimExprs(const AffineRef &Ref,
                                             const IntMatrix &U,
                                             const UnimodularBox &Box) {
  IntMatrix M = U.multiply(Ref.accessMatrix());
  IntVector C = U.apply(Ref.offset());
  std::vector<std::string> Out;
  for (unsigned D = 0; D < M.numRows(); ++D)
    Out.push_back(affineExpr(M.row(D), C[D] + Box.shiftAt(D)));
  return Out;
}

/// Original (row-major) per-dimension expressions A*i + o.
std::vector<std::string> originalDimExprs(const AffineRef &Ref) {
  std::vector<std::string> Out;
  for (unsigned D = 0; D < Ref.dataRank(); ++D)
    Out.push_back(affineExpr(Ref.accessMatrix().row(D), Ref.offset()[D]));
  return Out;
}

std::string num(std::int64_t V) {
  return formatString("%lld", static_cast<long long>(V));
}

/// Horner linearization of Dim expressions under Extents.
std::string hornerExpr(const std::vector<std::string> &Dims,
                       const IntVector &Extents) {
  assert(Dims.size() == Extents.size() && "rank mismatch");
  std::string Out = Dims.empty() ? "0" : Dims[0];
  for (std::size_t D = 1; D < Dims.size(); ++D)
    Out = "(" + Out + "*" + num(Extents[D]) + " + " + Dims[D] + ")";
  return Out;
}

EmittedExpr emitRowMajor(const AffineRef &Ref, const ArrayDecl &Decl) {
  EmittedExpr E;
  std::vector<std::string> Dims = originalDimExprs(Ref);
  E.Expr = hornerExpr(Dims, Decl.Dims);
  return E;
}

EmittedExpr emitPrivate(const AffineRef &Ref, const PrivateL2Layout &L,
                        const IntMatrix &U, const std::string &ArrayName) {
  const ClusterMapping &M = L.mapping();
  std::vector<std::string> T = transformedDimExprs(Ref, U, L.box());
  unsigned Rank = L.box().rank();
  std::int64_t B = L.blockSize();
  std::int64_t Phase = L.partitionPhase();
  std::int64_t NumBlocks = M.mesh().numNodes();
  std::int64_t NY = M.coresPerClusterY(), NXc = M.coresPerClusterX();
  std::int64_t CYc = M.clustersY(), CXc = M.clustersX();
  std::int64_t Run = L.runElems();
  std::int64_t C = M.numClusters();

  // Cluster sequence id by grid position (cy * c_x + cx).
  EmittedExpr E;
  std::string SeqName = ArrayName + "_seq";
  std::vector<std::int64_t> Seq;
  for (unsigned Cl = 0; Cl < M.numClusters(); ++Cl)
    Seq.push_back(M.sequenceId(Cl));
  E.Tables[SeqName] = std::move(Seq);

  // Phase-aligned block decomposition (Section 5.3's R(r_v)). The +B keeps
  // the division numerator non-negative so C truncation equals floor.
  std::string TVpB = "(" + T[0] + " - " + num(Phase) + " + " + num(B) + ")";
  std::string BetaRaw = "(" + TVpB + " / " + num(B) + " - 1)";
  std::string Beta = "min(max(" + BetaRaw + ", 0), " + num(NumBlocks - 1) +
                     ")";
  std::string InB = "(" + TVpB + " - " + Beta + "*" + num(B) + ")";
  std::string W = "(" + Beta + " % " + num(NY) + ")";
  std::string CY = "((" + Beta + " / " + num(NY) + ") % " + num(CYc) + ")";
  std::string XX = "((" + Beta + " / " + num(NY * CYc) + ") % " + num(NXc) +
                   ")";
  std::string CX = "(" + Beta + " / " + num(NY * CYc * NXc) + ")";
  std::string Q =
      SeqName + "[" + CY + "*" + num(CXc) + " + " + CX + "]";

  // Whole-block linearization mirrors PrivateL2Layout::offsetInBox.
  std::string Fast = InB;
  for (unsigned D = 1; D < Rank; ++D)
    Fast = "(" + Fast + "*" + num(L.box().extent(D)) + " + " + T[D] + ")";
  std::string LPart = "(" + Fast + " / " + num(Run) + ")";
  std::string On = "(" + Fast + " % " + num(Run) + ")";

  std::vector<std::string> Pre = {XX, W};
  std::string PreLin = hornerExpr(Pre, L.preExtents());

  E.Expr = "(((" + PreLin + "*" + num(L.numL()) + " + " + LPart + ")*" +
           num(C) + " + " + Q + ")*" + num(Run) + " + " + On + ")";
  return E;
}

EmittedExpr emitShared(const AffineRef &Ref, const SharedL2Layout &L,
                       const IntMatrix &U, const std::string &ArrayName) {
  const ClusterMapping &M = L.mapping();
  std::vector<std::string> T = transformedDimExprs(Ref, U, L.box());
  unsigned Rank = L.box().rank();
  std::int64_t B = L.blockSize();
  std::int64_t Phase = L.partitionPhase();
  unsigned N = M.mesh().numNodes();
  unsigned P = L.elementsPerUnit();

  // host_of_block[beta] = HostOfOwner[threadToNode(beta)].
  EmittedExpr E;
  std::string HostName = ArrayName + "_host";
  std::vector<std::int64_t> Host;
  for (unsigned Beta = 0; Beta < N; ++Beta)
    Host.push_back(L.hostOfOwner()[M.threadToNode(Beta)]);
  E.Tables[HostName] = std::move(Host);

  std::string TVpB = "(" + T[0] + " - " + num(Phase) + " + " + num(B) + ")";
  std::string BetaRaw = "(" + TVpB + " / " + num(B) + " - 1)";
  std::string Beta =
      "min(max(" + BetaRaw + ", 0), " + num(static_cast<std::int64_t>(N) - 1) +
      ")";
  std::string InB = "(" + TVpB + " - " + Beta + "*" + num(B) + ")";
  std::string Bank = HostName + "[" + Beta + "]";

  std::string Fast = InB;
  for (unsigned D = 1; D < Rank; ++D)
    Fast = "(" + Fast + "*" + num(L.box().extent(D)) + " + " + T[D] + ")";
  std::string Lp = "(" + Fast + " / " + num(P) + ")";
  std::string On = "(" + Fast + " % " + num(P) + ")";

  E.Expr = "((" + Lp + "*" + num(N) + " + " + Bank + ")*" + num(P) + " + " +
           On + ")";
  return E;
}

} // namespace

EmittedExpr offchip::emitReferenceOffset(const AffineRef &Ref,
                                         const ArrayLayoutResult &Result,
                                         const std::string &ArrayName,
                                         unsigned LoopDepth) {
  assert(Ref.loopDepth() == LoopDepth && "reference depth mismatch");
  (void)LoopDepth;
  if (const auto *L = dynamic_cast<const PrivateL2Layout *>(
          Result.Layout.get()))
    return emitPrivate(Ref, *L, Result.U, ArrayName);
  if (const auto *L = dynamic_cast<const SharedL2Layout *>(
          Result.Layout.get()))
    return emitShared(Ref, *L, Result.U, ArrayName);
  if (const auto *L = dynamic_cast<const RowMajorLayout *>(
          Result.Layout.get()))
    return emitRowMajor(Ref, L->decl());
  OFFCHIP_UNREACHABLE("unknown layout kind in code generation");
}

std::string offchip::emitProgram(const AffineProgram &Program,
                                 const LayoutPlan &Plan) {
  std::string Out;
  Out += "// Transformed program '" + Program.name() +
         "' (layout-customized references)\n";

  // Tables first.
  std::map<std::string, std::vector<std::int64_t>> Tables;
  auto EmitRef = [&](const AffineRef &Ref, unsigned Depth) {
    ArrayId Id = Ref.arrayId();
    const ArrayLayoutResult &R = Plan.PerArray[Id];
    const ArrayDecl &Decl = Program.array(Id);
    EmittedExpr E;
    (void)Decl;
    E = emitReferenceOffset(Ref, R, Decl.Name, Depth);
    for (auto &KV : E.Tables)
      Tables.emplace(KV.first, KV.second);
    return E.Expr;
  };

  std::string Body;
  for (const LoopNest &Nest : Program.nests()) {
    const IterationSpace &S = Nest.space();
    Body += "\n// nest " + Nest.name();
    if (Nest.repeatCount() > 1)
      Body += formatString(" (x%u)", Nest.repeatCount());
    Body += "\n";
    std::string Indent;
    for (unsigned D = 0; D < S.depth(); ++D) {
      Body += Indent +
              formatString("for (long i%u = %lld; i%u < %lld; ++i%u) {%s\n",
                           D, static_cast<long long>(S.lower(D)), D,
                           static_cast<long long>(S.upper(D)), D,
                           D == Nest.partitionDim() ? "  // parallel" : "");
      Indent += "  ";
    }
    for (const AffineRef &Ref : Nest.refs()) {
      const ArrayDecl &Decl = Program.array(Ref.arrayId());
      Body += Indent + (Ref.isWrite() ? "store " : "load  ") + Decl.Name +
              "_data[" + EmitRef(Ref, S.depth()) + "];\n";
    }
    for (const IndexedRef &IRef : Nest.indexedRefs()) {
      const ArrayDecl &IdxDecl = Program.array(IRef.IndexArray);
      const ArrayDecl &DataDecl = Program.array(IRef.DataArray);
      Body += Indent + "load  " + IdxDecl.Name + "_data[" +
              EmitRef(IRef.IndexAccess, S.depth()) + "];  // index\n";
      Body += Indent + (IRef.IsWrite ? "store " : "load  ") + DataDecl.Name +
              "_data[/* gathered through " + IdxDecl.Name + " */];\n";
    }
    for (unsigned D = S.depth(); D > 0; --D) {
      Indent.resize((D - 1) * 2);
      Body += Indent + "}\n";
    }
  }

  for (const auto &KV : Tables) {
    Out += "static const long " + KV.first +
           formatString("[%zu] = {", KV.second.size());
    for (std::size_t I = 0; I < KV.second.size(); ++I) {
      if (I)
        Out += ", ";
      Out += num(KV.second[I]);
    }
    Out += "};\n";
  }
  Out += Body;
  return Out;
}
