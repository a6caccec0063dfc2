//===- sim/ThreadStream.h - Per-thread access generation --------*- C++ -*-===//
///
/// \file
/// Lazily generates one thread's memory access stream from an affine
/// program: the thread executes its block-cyclic chunk of every nest in
/// program order, issuing each reference per iteration (indexed references
/// issue the index-array read followed by the dependent data access, as the
/// hardware would).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SIM_THREADSTREAM_H
#define OFFCHIP_SIM_THREADSTREAM_H

#include "sim/AddressMap.h"

namespace offchip {

/// One generated memory access.
struct AccessRequest {
  std::uint64_t VA = 0;
  bool IsWrite = false;
  /// True when the access went through a customized layout and must pay the
  /// address-computation overhead.
  bool Transformed = false;
};

/// Generator over a thread's access stream.
class ThreadStream {
public:
  /// \param ThreadId   in [0, NumThreads)
  /// \param NumThreads total threads sharing the program's iteration spaces
  ThreadStream(const AddressMap &Map, unsigned ThreadId, unsigned NumThreads);

  /// Produces the next access. \returns false when the stream is exhausted.
  /// Pops the lookahead buffer, which refill() tops up RefillBlock
  /// accesses at a time once it is drained.
  bool next(AccessRequest &Out) {
    if (LookHead == LookEnd && !refill())
      return false;
    Out = Lookahead[LookHead++];
    ++Generated;
    return true;
  }

  /// Looks ahead without consuming anything: fills the lookahead buffer
  /// with up to \p N future accesses (fewer only when the stream ends
  /// first) and returns a pointer to the first, with the valid count in
  /// \p *Avail (which may exceed \p N when earlier calls buffered further
  /// ahead). next() drains the buffer first, so peeking is invisible to the
  /// stream's consumers (generated() does not move). The pointer is
  /// invalidated by the next call to next() or peekSpan(). Used by the
  /// burst coalescer to scan the triggering thread's future window.
  const AccessRequest *peekSpan(std::size_t N, std::size_t *Avail);

  std::uint64_t generated() const { return Generated; }

  /// Cursor recomputes so far: the accesses whose address was evaluated
  /// from the iteration vector rather than stepped by a delta (run and
  /// block boundaries, outer-loop steps, nest starts). Deterministic, so a
  /// test can pin it to catch per-access general-path work coming back.
  std::uint64_t recomputes() const { return Recomputes; }

  /// Host bytes held by the lookahead buffer, counting capacity (what the
  /// process actually pays, including the consumed prefix awaiting
  /// compaction; at least RefillBlock requests). The peekSpan()
  /// consumed-prefix compaction keeps this bounded by ~2x the largest peek
  /// window regardless of how many accesses the stream produces — the
  /// memory regression tests pin that.
  std::size_t lookaheadBytes() const {
    return Lookahead.capacity() * sizeof(AccessRequest);
  }

private:
  /// Accesses next() generates per refill of a drained buffer. A fixed
  /// block keeps the program walk in one tight loop instead of one call
  /// per access, at RefillBlock * 16 bytes per stream.
  static constexpr std::size_t RefillBlock = 32;

  /// Produces the next access straight from the program walk, without
  /// consulting the lookahead buffer or counting it as consumed.
  bool generate(AccessRequest &Out);

  /// Restarts the drained buffer at slot 0 and fills it with up to
  /// RefillBlock accesses. \returns false when the stream is exhausted.
  bool refill();

  /// Generates straight into the buffer's slots until it holds \p N
  /// unconsumed accesses or the stream ends, doubling the slot count only
  /// when the next slot is past the end.
  void fill(std::size_t N);

  /// Positions the walk at the first non-empty (nest, repetition) at or
  /// after the current one. \returns false when the program is done.
  bool seekNest();

  /// Advances to the next iteration (and nest/repetition when exhausted).
  void advanceIteration();

  /// Address cursor of one affine reference: every affine reference of the
  /// nest, then each indexed reference's index-array read. The reference's
  /// box coordinates T = (U*A)*Iter + (U*o + shift) are affine in the
  /// iteration vector, and the layout's offset stays affine in T until T
  /// crosses a block or run boundary (DataLayout::runAlong). So along the
  /// innermost loop the VA moves by a constant DeltaBytes for StepsLeft
  /// more iterations; only at a boundary, after an outer-loop step or at a
  /// nest start is T recomputed (into a reused buffer) and the layout asked
  /// again. Row-major is the identity box with unbounded runs.
  struct Cursor {
    const DataLayout *Layout = nullptr;
    std::uint64_t Base = 0;
    std::uint64_t ElementBytes = 0;
    IntMatrix ToBox; // U*A: iteration vector -> box coordinates
    IntVector Const; // U*o + box shift
    IntVector Step;  // innermost column of ToBox
    IntVector T;     // box coordinates at the last recompute
    std::uint64_t VA = 0;
    std::int64_t DeltaBytes = 0;
    std::uint64_t StepsLeft = 0;
    bool IsWrite = false;
    bool Transformed = false;
  };

  /// The dependent half of an indexed reference: the index array's slot
  /// is the row-major linearization of the index reference's data vector,
  /// so it is affine in the iteration vector too.
  struct Gather {
    IntVector SlotCoef; // row-major strides * A
    std::int64_t SlotConst = 0;
    const IndexValues *Values = nullptr;
  };

  /// Rebuilds Cursors and Gathers for the current nest (no-op when
  /// unchanged).
  void prepareCursors();

  /// The VA of cursor \p C at the current iteration.
  std::uint64_t advance(Cursor &C) {
    if (FastStep && C.StepsLeft != 0) {
      --C.StepsLeft;
      // Unsigned wraparound makes negative deltas exact: the final VA is
      // in range, so the mod-2^64 sum equals the recomputed value.
      C.VA += static_cast<std::uint64_t>(C.DeltaBytes);
      return C.VA;
    }
    recompute(C);
    return C.VA;
  }

  /// Evaluates \p C's box coordinates at Iter and restarts its run there.
  void recompute(Cursor &C);

  const AddressMap *Map;
  unsigned ThreadId;
  unsigned NumThreads;

  unsigned NestIdx = 0;
  unsigned Rep = 0;
  IterationSpace ChunkSpace;
  IntVector Iter;
  bool InIteration = false;

  std::vector<Cursor> Cursors;
  std::vector<Gather> Gathers;
  /// Nest the cursors were built for (~0 before the first).
  unsigned CursorNestIdx = ~0u;
  /// True when the current iteration was reached by a pure innermost-loop
  /// step, so a cursor with StepsLeft may add its delta.
  bool FastStep = false;
  /// Reused buffers of the gathers' vaOfFlat().
  AddressMap::FlatScratch Scratch;
  std::uint64_t Recomputes = 0;

  /// Position within the current iteration's access list: affine refs come
  /// first, then each indexed ref expands to two slots.
  unsigned Slot = 0;
  /// Pending second half of an indexed reference.
  bool HasPendingData = false;
  AccessRequest PendingData;

  /// Accesses generated but not yet consumed by next(): [LookHead,
  /// LookEnd) of Lookahead, in generation order. Lookahead.size() is the
  /// slot count (never below RefillBlock), not the valid count.
  std::vector<AccessRequest> Lookahead;
  std::size_t LookHead = 0;
  std::size_t LookEnd = 0;

  std::uint64_t Generated = 0;
};

} // namespace offchip

#endif // OFFCHIP_SIM_THREADSTREAM_H
