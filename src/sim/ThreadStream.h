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
  bool next(AccessRequest &Out);

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

  /// Host bytes held by the lookahead buffer, counting capacity (what the
  /// process actually pays, including the consumed prefix awaiting
  /// compaction). The peekSpan() consumed-prefix compaction keeps this
  /// bounded by ~2x the largest peek window regardless of how many
  /// accesses the stream produces — the memory regression tests pin that.
  std::size_t lookaheadBytes() const {
    return Lookahead.capacity() * sizeof(AccessRequest);
  }

private:
  /// The former next() body: produces the next access straight from the
  /// program walk, without consulting the lookahead buffer or counting it
  /// as consumed.
  bool generate(AccessRequest &Out);

  /// Positions the cursor at the first non-empty (nest, repetition) at or
  /// after the current one. \returns false when the program is done.
  bool seekNest();

  /// Advances to the next iteration (and nest/repetition when exhausted).
  void advanceIteration();

  /// Per-affine-reference strength-reduction state. Along the innermost
  /// loop the VA of an untransformed reference moves by a constant byte
  /// delta, so successive iterations add Delta to the previous VA instead
  /// of re-running the full evaluate()/elementOffset() delinearization.
  /// Transformed and indexed references keep the general path.
  struct FastRef {
    std::int64_t Delta = 0;
    std::uint64_t LastVA = 0;
    bool HasDelta = false;
    bool IsWrite = false;
    bool Transformed = false;
  };

  /// Rebuilds Fast for the current nest (no-op when unchanged).
  void prepareFastRefs();

  const AddressMap *Map;
  unsigned ThreadId;
  unsigned NumThreads;

  unsigned NestIdx = 0;
  unsigned Rep = 0;
  IterationSpace ChunkSpace;
  IntVector Iter;
  bool InIteration = false;

  std::vector<FastRef> Fast;
  /// Nest the Fast deltas were computed for (~0 before the first).
  unsigned FastNestIdx = ~0u;
  /// True when the current iteration was reached by a pure innermost-loop
  /// step, making every LastVA + Delta valid.
  bool FastStep = false;

  /// Position within the current iteration's access list: affine refs come
  /// first, then each indexed ref expands to two slots.
  unsigned Slot = 0;
  /// Pending second half of an indexed reference.
  bool HasPendingData = false;
  AccessRequest PendingData;

  /// Accesses produced by peekSpan() but not yet consumed by next():
  /// [LookHead, Lookahead.size()) in generation order.
  std::vector<AccessRequest> Lookahead;
  std::size_t LookHead = 0;

  std::uint64_t Generated = 0;
};

} // namespace offchip

#endif // OFFCHIP_SIM_THREADSTREAM_H
