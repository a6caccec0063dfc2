//===- sim/ThreadStream.cpp -----------------------------------------------===//

#include "sim/ThreadStream.h"

#include <algorithm>

using namespace offchip;

ThreadStream::ThreadStream(const AddressMap &Map, unsigned ThreadId,
                           unsigned NumThreads)
    : Map(&Map), ThreadId(ThreadId), NumThreads(NumThreads),
      Lookahead(RefillBlock) {
  seekNest();
}

void ThreadStream::prepareCursors() {
  if (NestIdx == CursorNestIdx)
    return;
  const AffineProgram &P = Map->program();
  const LoopNest &Nest = P.nests()[NestIdx];
  unsigned Depth = Nest.space().depth();
  auto Build = [&](const AffineRef &Ref, bool IsWrite) {
    ArrayId Id = Ref.arrayId();
    const DataLayout &Layout = Map->layout(Id);
    const UnimodularBox &Box = Layout.box();
    AffineRef InBox = Ref.transformed(Box.matrix());
    Cursor C;
    C.Layout = &Layout;
    C.Base = Map->base(Id);
    C.ElementBytes = P.array(Id).ElementBytes;
    C.ToBox = InBox.accessMatrix();
    C.Const = InBox.offset();
    for (unsigned R = 0; R < Box.rank(); ++R)
      C.Const[R] += Box.shiftAt(R);
    C.Step = Depth != 0 ? C.ToBox.column(Depth - 1) : IntVector(Box.rank(), 0);
    C.T.assign(Box.rank(), 0);
    C.IsWrite = IsWrite;
    C.Transformed = Layout.isTransformed();
    return C;
  };
  Cursors.clear();
  Gathers.clear();
  for (const AffineRef &Ref : Nest.refs())
    Cursors.push_back(Build(Ref, Ref.isWrite()));
  for (const IndexedRef &IRef : Nest.indexedRefs()) {
    Cursors.push_back(Build(IRef.IndexAccess, /*IsWrite=*/false));
    const ArrayDecl &Decl = P.array(IRef.IndexArray);
    const IntMatrix &A = IRef.IndexAccess.accessMatrix();
    Gather G;
    G.SlotCoef.assign(Depth, 0);
    std::int64_t Stride = 1;
    for (unsigned D = Decl.rank(); D > 0; --D) {
      for (unsigned L = 0; L < Depth; ++L)
        G.SlotCoef[L] += A.at(D - 1, L) * Stride;
      G.SlotConst += IRef.IndexAccess.offset()[D - 1] * Stride;
      Stride *= Decl.Dims[D - 1];
    }
    G.Values = P.indexArrayValues(IRef.IndexArray);
    assert(G.Values && "indexed reference without index array contents");
    Gathers.push_back(G);
  }
  CursorNestIdx = NestIdx;
}

void ThreadStream::recompute(Cursor &C) {
  ++Recomputes;
  for (unsigned R = 0; R < C.T.size(); ++R) {
    std::int64_t V = C.Const[R];
    for (unsigned D = 0; D < Iter.size(); ++D)
      V += C.ToBox.at(R, D) * Iter[D];
    C.T[R] = V;
  }
  C.VA = C.Base + C.Layout->offsetInBox(C.T) * C.ElementBytes;
  AffineRun Run = C.Layout->runAlong(C.T, C.Step);
  C.StepsLeft = Run.Steps;
  C.DeltaBytes = Run.Delta * static_cast<std::int64_t>(C.ElementBytes);
}

bool ThreadStream::seekNest() {
  FastStep = false;
  const AffineProgram &P = Map->program();
  while (NestIdx < P.nests().size()) {
    const LoopNest &Nest = P.nests()[NestIdx];
    if (Rep >= Nest.repeatCount()) {
      Rep = 0;
      ++NestIdx;
      continue;
    }
    IterationChunk Chunk = chunkForThread(Nest.space(), Nest.partitionDim(),
                                          ThreadId, NumThreads);
    ChunkSpace =
        Nest.space().restricted(Nest.partitionDim(), Chunk.Begin, Chunk.End);
    if (ChunkSpace.isEmpty()) {
      ++Rep;
      continue;
    }
    Iter = ChunkSpace.firstIteration();
    InIteration = true;
    Slot = 0;
    prepareCursors();
    return true;
  }
  InIteration = false;
  return false;
}

void ThreadStream::advanceIteration() {
  Slot = 0;
  unsigned Depth = ChunkSpace.depth();
  std::int64_t PrevInner = Depth != 0 ? Iter[Depth - 1] : 0;
  if (ChunkSpace.nextIteration(Iter)) {
    // A pure innermost step leaves every outer iterator unchanged and
    // advances the last one by exactly 1. A carry can only land on
    // PrevInner + 1 if the innermost extent were zero — impossible for a
    // space that yielded PrevInner — so this test is exact.
    FastStep = Depth != 0 && Iter[Depth - 1] == PrevInner + 1;
    return;
  }
  ++Rep;
  seekNest();
}

bool ThreadStream::refill() {
  LookHead = 0;
  LookEnd = 0;
  fill(RefillBlock);
  return LookEnd != 0;
}

void ThreadStream::fill(std::size_t N) {
  while (LookEnd - LookHead < N) {
    // Grow only once a slot is needed, so the buffer tracks what was
    // actually generated, not the window asked for: a huge peek on a short
    // stream costs the stream's length, not N slots.
    if (LookEnd == Lookahead.size())
      Lookahead.resize(2 * Lookahead.size());
    if (!generate(Lookahead[LookEnd]))
      return;
    ++LookEnd;
  }
}

const AccessRequest *ThreadStream::peekSpan(std::size_t N, std::size_t *Avail) {
  // Compact the consumed prefix once it dominates the buffer: a consumer
  // that peeks ahead faster than it fully drains (the burst coalescer,
  // re-peeking on every off-chip miss) would otherwise grow the vector by
  // every access the stream ever produces, turning a window-sized working
  // set into an unbounded cold-memory walk.
  if (LookHead >= 1024 && LookHead >= LookEnd - LookHead) {
    std::copy(Lookahead.begin() + static_cast<std::ptrdiff_t>(LookHead),
              Lookahead.begin() + static_cast<std::ptrdiff_t>(LookEnd),
              Lookahead.begin());
    LookEnd -= LookHead;
    LookHead = 0;
  }
  fill(N);
  *Avail = LookEnd - LookHead;
  return Lookahead.data() + LookHead;
}

bool ThreadStream::generate(AccessRequest &Out) {
  if (HasPendingData) {
    // Field by field: PendingData was stored field by field one call ago,
    // and a whole-struct copy would read it back in one wider load.
    Out.VA = PendingData.VA;
    Out.IsWrite = PendingData.IsWrite;
    Out.Transformed = PendingData.Transformed;
    HasPendingData = false;
    return true;
  }
  const AffineProgram &P = Map->program();
  while (InIteration) {
    const LoopNest &Nest = P.nests()[NestIdx];
    unsigned NumAffine = static_cast<unsigned>(Nest.refs().size());
    unsigned NumIndexed = static_cast<unsigned>(Nest.indexedRefs().size());
    if (Slot >= NumAffine + NumIndexed) {
      advanceIteration();
      continue;
    }
    unsigned Ref = Slot++;
    Cursor &C = Cursors[Ref];
    Out.VA = advance(C);
    Out.IsWrite = C.IsWrite;
    Out.Transformed = C.Transformed;
    if (Ref < NumAffine)
      return true;
    // An indexed reference: the index-array read just produced, then the
    // dependent data access it names.
    const IndexedRef &IRef = Nest.indexedRefs()[Ref - NumAffine];
    const Gather &G = Gathers[Ref - NumAffine];
    std::int64_t SlotIdx = G.SlotConst;
    for (unsigned D = 0; D < Iter.size(); ++D)
      SlotIdx += G.SlotCoef[D] * Iter[D];
    assert(SlotIdx >= 0 &&
           static_cast<std::uint64_t>(SlotIdx) < G.Values->size() &&
           "index array contents too small");
    PendingData.VA = Map->vaOfFlat(
        IRef.DataArray, G.Values->at(static_cast<std::uint64_t>(SlotIdx)),
        Scratch);
    PendingData.IsWrite = IRef.IsWrite;
    PendingData.Transformed = Map->isTransformed(IRef.DataArray);
    HasPendingData = true;
    return true;
  }
  return false;
}
