//===- noc/Network.cpp ----------------------------------------------------===//

#include "noc/Network.h"

#include "trace/TraceSink.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace offchip;

Network::Network(const Mesh &M, NocConfig Config)
    : Topology(M), Config(Config), XDiv(M.sizeX()),
      FlitDiv(Config.LinkBytes),
      Links(static_cast<std::size_t>(M.numNodes()) * 4) {}

std::uint64_t Network::LinkState::reserveSlow(std::uint64_t From,
                                              unsigned Flits,
                                              std::uint64_t Floor) {
  assert(From >= Floor && "reservation below the injection floor");
  ++SlowReserves;
  // Reclaim reservations that ended before the engine's time floor: no
  // future injection can land there. Pruning only advances Head; the dead
  // prefix is erased in bulk once it dominates the buffer, keeping the
  // amortized cost O(1) without deque's segmented storage.
  std::size_t N = Reserved.size();
  if (N - Head >= PruneMinLive) {
    while (Head < N && Reserved[Head].End <= Floor)
      ++Head;
    if (Head == N) {
      Reserved.clear();
      Head = 0;
      N = 0;
    } else if (Head >= 64 && Head * 2 >= N) {
      Reserved.erase(Reserved.begin(),
                     Reserved.begin() + static_cast<std::ptrdiff_t>(Head));
      N -= Head;
      Head = 0;
    }
  }
  if (N == Head) {
    Reserved.push_back({From, From + Flits});
    return From;
  }
  if (From >= Reserved.back().Start)
    return append(From, Flits);

  // FIFO by arrival: the message must queue behind every reservation whose
  // transmission starts at or before its own arrival (those messages are
  // already in the router), but may claim idle time ahead of reservations
  // that only start in the future (e.g. a response still waiting on DRAM) —
  // that keeps the link work-conserving without clairvoyant reordering.
  // Ends are monotone, so the last such reservation's End is the bound.
  std::size_t Pos = Head;
  while (Reserved[Pos].Start <= From)
    ++Pos; // stops inside the list: the back starts after From
  std::uint64_t Start =
      Pos > Head ? std::max(From, Reserved[Pos - 1].End) : From;
  for (; Pos < N; ++Pos) {
    const Interval &I = Reserved[Pos];
    if (Start + Flits <= I.Start)
      break; // fits in the gap before I
    Start = std::max(Start, I.End);
  }

  // Decide the merges with exactly adjacent neighbours before touching
  // storage: each case is at most one shift of the tail.
  std::uint64_t End = Start + Flits;
  bool JoinPrev = Pos > Head && Reserved[Pos - 1].End == Start;
  bool JoinNext = Pos < N && Reserved[Pos].Start == End;
  if (JoinPrev && JoinNext) {
    Reserved[Pos - 1].End = Reserved[Pos].End;
    Reserved.erase(Reserved.begin() + static_cast<std::ptrdiff_t>(Pos));
  } else if (JoinPrev) {
    Reserved[Pos - 1].End = End;
  } else if (JoinNext) {
    Reserved[Pos].Start = Start;
  } else {
    Reserved.insert(Reserved.begin() + static_cast<std::ptrdiff_t>(Pos),
                    {Start, End});
  }
  return Start;
}

std::uint64_t Network::slowLinkReserves() const {
  std::uint64_t N = 0;
  for (const LinkState &L : Links)
    N += L.SlowReserves;
  return N;
}

MessageResult Network::send(unsigned Src, unsigned Dst, unsigned Bytes,
                            std::uint64_t Time, MsgClass) {
  if (Src == Dst)
    return {Time, 0, 0};
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0;
  if (TimeCalls)
    T0 = Clock::now();

  // Iterative XY walk. Along each leg the direction — and therefore both
  // the node step and the link-index offset — is constant, so each hop is
  // one reservation at Links[Node * 4 + Dir] with no route materialization.
  // Direction encoding: 0 east, 1 west, 2 south, 3 north; X-adjacent node
  // ids differ by 1, Y-adjacent ids by the mesh width (row-major ids).
  Coord A{static_cast<unsigned>(XDiv.mod(Src)),
          static_cast<unsigned>(XDiv.div(Src))};
  Coord B{static_cast<unsigned>(XDiv.mod(Dst)),
          static_cast<unsigned>(XDiv.div(Dst))};
  unsigned Flits = flitsFor(Bytes);
  std::uint64_t Cur = Time;
  unsigned Node = Src;
  unsigned Hops = 0;

  if (B.X != A.X) {
    bool East = B.X > A.X;
    unsigned Dir = East ? 0u : 1u;
    int Step = East ? 1 : -1;
    unsigned N = East ? B.X - A.X : A.X - B.X;
    for (unsigned I = 0; I < N; ++I) {
      std::uint64_t Booked = Links[Node * 4 + Dir].reserve(Cur, Flits, Floor);
      if (Sink)
        Sink->emit(TraceKind::NocHop, Booked, Flits, 0, Node * 4 + Dir);
      Cur = Booked + Config.PerHopCycles;
      Node = static_cast<unsigned>(static_cast<int>(Node) + Step);
    }
    Hops += N;
  }
  if (B.Y != A.Y) {
    bool South = B.Y > A.Y;
    unsigned Dir = South ? 2u : 3u;
    int Step = South ? static_cast<int>(Topology.sizeX())
                     : -static_cast<int>(Topology.sizeX());
    unsigned N = South ? B.Y - A.Y : A.Y - B.Y;
    for (unsigned I = 0; I < N; ++I) {
      std::uint64_t Booked = Links[Node * 4 + Dir].reserve(Cur, Flits, Floor);
      if (Sink)
        Sink->emit(TraceKind::NocHop, Booked, Flits, 0, Node * 4 + Dir);
      Cur = Booked + Config.PerHopCycles;
      Node = static_cast<unsigned>(static_cast<int>(Node) + Step);
    }
    Hops += N;
  }
  LinkBusyCycles += static_cast<std::uint64_t>(Hops) * Flits;
  LinkReserves += Hops;

  // Tail flit trails the head by Flits - 1 cycles once pipelined.
  std::uint64_t Arrival = Cur + (Flits - 1);
  if (TimeCalls) {
    TimedSeconds += std::chrono::duration<double>(Clock::now() - T0).count();
    ++TimedCalls;
  }
  return {Arrival, Arrival - Time, Hops};
}

MessageResult Network::sendIdeal(unsigned Src, unsigned Dst, unsigned Bytes,
                                 std::uint64_t Time) const {
  if (Src == Dst)
    return {Time, 0, 0};
  unsigned Hops = Topology.manhattan(Src, Dst);
  unsigned Flits = flitsFor(Bytes);
  std::uint64_t Arrival =
      Time + static_cast<std::uint64_t>(Hops) * Config.PerHopCycles +
      (Flits - 1);
  return {Arrival, Arrival - Time, Hops};
}

bool Network::checkCalendars(std::string *Why) const {
  auto Fail = [Why](std::size_t Link, std::size_t Pos, const char *What) {
    if (Why)
      *Why = "link " + std::to_string(Link) + " reservation " +
             std::to_string(Pos) + ": " + What;
    return false;
  };
  for (std::size_t L = 0; L < Links.size(); ++L) {
    const LinkState &S = Links[L];
    if (S.Head > S.Reserved.size())
      return Fail(L, S.Head, "head past the end of the calendar");
    for (std::size_t I = S.Head; I < S.Reserved.size(); ++I) {
      const LinkState::Interval &Iv = S.Reserved[I];
      if (Iv.Start >= Iv.End)
        return Fail(L, I, "empty or inverted interval");
      if (I > S.Head && S.Reserved[I - 1].End > Iv.Start)
        return Fail(L, I, "overlaps the previous reservation");
    }
  }
  return true;
}
