//===- sim/ThreadStream.cpp -----------------------------------------------===//

#include "sim/ThreadStream.h"

using namespace offchip;

ThreadStream::ThreadStream(const AddressMap &Map, unsigned ThreadId,
                           unsigned NumThreads)
    : Map(&Map), ThreadId(ThreadId), NumThreads(NumThreads) {
  seekNest();
}

void ThreadStream::prepareFastRefs() {
  if (NestIdx == FastNestIdx)
    return;
  const LoopNest &Nest = Map->program().nests()[NestIdx];
  unsigned Depth = Nest.space().depth();
  Fast.assign(Nest.refs().size(), FastRef());
  for (std::size_t I = 0; I < Nest.refs().size(); ++I) {
    const AffineRef &Ref = Nest.refs()[I];
    FastRef &F = Fast[I];
    F.IsWrite = Ref.isWrite();
    F.Transformed = Map->isTransformed(Ref.arrayId());
    if (Depth != 0)
      F.HasDelta = Map->strideBytesAlong(Ref, Depth - 1, F.Delta);
  }
  FastNestIdx = NestIdx;
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
    prepareFastRefs();
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

bool ThreadStream::next(AccessRequest &Out) {
  if (LookHead < Lookahead.size()) {
    Out = Lookahead[LookHead++];
    if (LookHead == Lookahead.size()) {
      Lookahead.clear();
      LookHead = 0;
    }
    ++Generated;
    return true;
  }
  if (!generate(Out))
    return false;
  ++Generated;
  return true;
}

const AccessRequest *ThreadStream::peekSpan(std::size_t N, std::size_t *Avail) {
  // Compact the consumed prefix once it dominates the buffer: a consumer
  // that peeks ahead faster than it fully drains (the burst coalescer,
  // re-peeking on every off-chip miss) would otherwise grow the vector by
  // every access the stream ever produces, turning a window-sized working
  // set into an unbounded cold-memory walk.
  if (LookHead >= 1024 && LookHead >= Lookahead.size() - LookHead) {
    Lookahead.erase(Lookahead.begin(),
                    Lookahead.begin() + static_cast<std::ptrdiff_t>(LookHead));
    LookHead = 0;
  }
  while (Lookahead.size() - LookHead < N) {
    AccessRequest R;
    if (!generate(R))
      break;
    Lookahead.push_back(R);
  }
  *Avail = Lookahead.size() - LookHead;
  return Lookahead.data() + LookHead;
}

bool ThreadStream::generate(AccessRequest &Out) {
  if (HasPendingData) {
    Out = PendingData;
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
    if (Slot < NumAffine) {
      FastRef &F = Fast[Slot];
      if (FastStep && F.HasDelta) {
        // Unsigned wraparound makes negative deltas exact: the final VA is
        // in range, so the mod-2^64 sum equals the recomputed value.
        F.LastVA += static_cast<std::uint64_t>(F.Delta);
      } else {
        const AffineRef &Ref = Nest.refs()[Slot];
        F.LastVA = Map->vaOf(Ref.arrayId(), Ref.evaluate(Iter));
      }
      ++Slot;
      Out.VA = F.LastVA;
      Out.IsWrite = F.IsWrite;
      Out.Transformed = F.Transformed;
      return true;
    }
    const IndexedRef &IRef = Nest.indexedRefs()[Slot - NumAffine];
    ++Slot;
    // First the read of the index array element...
    IntVector IndexVec = IRef.IndexAccess.evaluate(Iter);
    Out.VA = Map->vaOf(IRef.IndexArray, IndexVec);
    Out.IsWrite = false;
    Out.Transformed = Map->isTransformed(IRef.IndexArray);
    // ...then the dependent data access it names.
    const std::vector<std::int64_t> *Values =
        P.indexArrayValues(IRef.IndexArray);
    assert(Values && "indexed reference without index array contents");
    std::uint64_t SlotIdx = P.array(IRef.IndexArray).linearize(IndexVec);
    assert(SlotIdx < Values->size() && "index array contents too small");
    PendingData.VA = Map->vaOfFlat(IRef.DataArray, (*Values)[SlotIdx]);
    PendingData.IsWrite = IRef.IsWrite;
    PendingData.Transformed = Map->isTransformed(IRef.DataArray);
    HasPendingData = true;
    return true;
  }
  return false;
}
