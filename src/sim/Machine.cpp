//===- sim/Machine.cpp ----------------------------------------------------===//

#include "sim/Machine.h"

#include "check/Invariants.h"
#include "sim/ThreadStream.h"
#include "support/HostClock.h"
#include "trace/TraceSink.h"

#include <algorithm>
#include <bit>

using namespace offchip;

namespace {

/// Initial directory size: the lines of the data the run reserved, capped
/// at 1 << 14 (an app at the scaled sizes tracks more, and grows from
/// there). The sparse directory keeps the fixed 1 << 14 start: its victim
/// rotation walks the table's slots, so the table's size is part of its
/// results.
std::size_t directoryLines(const MachineConfig &Config,
                           const VirtualMemory &VM) {
  constexpr std::uint64_t Cap = 1 << 14;
  if (Config.Coherence.SparseDirectory)
    return Cap;
  return static_cast<std::size_t>(
      std::min(VM.reservedBytes() / Config.L2LineBytes, Cap));
}

} // namespace

Machine::Machine(const MachineConfig &Config, const ClusterMapping &Mapping,
                 VirtualMemory &VM)
    : Config(Config), InterleaveDiv(Config.interleaveBytes()),
      MCDiv(Config.NumMCs), L1LineDiv(Config.L1LineBytes),
      L2LineDiv(Config.L2LineBytes), NodeDiv(Config.numNodes()),
      Mapping(&Mapping), VM(&VM), Topology(Config.MeshX, Config.MeshY),
      Net(Topology, Config.Noc), MCNodes(Mapping.mcNodes()),
      Dir(Config.numNodes(), directoryLines(Config, VM)), CohLedger(Config.numNodes()) {
  assert(MCNodes.size() == Config.NumMCs &&
         "mapping MC count must match the machine");
  if (Config.CollectPhaseTimes)
    Net.enableCallTiming();
  MCs.reserve(Config.NumMCs);
  for (unsigned I = 0; I < Config.NumMCs; ++I) {
    MCs.emplace_back(I, Config.Dram);
    if (Config.CollectPhaseTimes)
      MCs.back().enableCallTiming();
  }

  unsigned N = Config.numNodes();
  L1s.reserve(N);
  L2s.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    L1s.emplace_back(Config.L1SizeBytes, Config.L1LineBytes, Config.L1Ways);
    L2s.emplace_back(Config.L2SizeBytes, Config.L2LineBytes, Config.L2Ways);
  }

  NearestMCOfNode.resize(N);
  FirstTouchMCOfNode.resize(N);
  for (unsigned Node = 0; Node < N; ++Node) {
    NearestMCOfNode[Node] = nearestMC(Topology, MCNodes, Node);
    FirstTouchMCOfNode[Node] = Mapping.preferredMC(Node);
  }
}

std::uint64_t Machine::physFor(std::uint64_t VA, unsigned Node) {
  // Under cache-line interleaving the MC-select bits sit below the page
  // offset, so translation cannot change them (Section 3); identity mapping
  // models that without page-table cost.
  if (Config.Granularity == InterleaveGranularity::CacheLine)
    return VA;
  return VM->translate(VA, FirstTouchMCOfNode[Node]);
}

unsigned Machine::mcForPhys(std::uint64_t PA) const {
  return static_cast<unsigned>(MCDiv.mod(InterleaveDiv.div(PA)));
}

std::uint64_t Machine::access(unsigned Node, std::uint64_t VA, bool IsWrite,
                              std::uint64_t Time, SimResult &R,
                              ThreadStream *Lookahead, std::uint64_t Key) {
  if (Sink)
    Sink->beginAccess(Node, Key);
  Net.advanceFloor(Time);
  ++R.TotalAccesses;
  // Coherent mode: the protocol does its own L1/L2 probes (permission
  // checks, not just presence).
  if (coherent())
    return accessCoherent(Node, VA, IsWrite, Time, R);

  std::uint64_t T1 = Time + Config.L1LatencyCycles;
  if (L1s[Node].access(L1LineDiv.div(VA), IsWrite)) {
    if (Sink)
      Sink->emit(TraceKind::L1Hit, Time, Config.L1LatencyCycles, VA, 0);
    ++R.L1Hits;
    R.AccessLatency.addSample(static_cast<double>(T1 - Time));
    return T1;
  }
  if (Sink)
    Sink->emit(TraceKind::L1Miss, Time, Config.L1LatencyCycles, VA, 0);
  std::uint64_t PA = physFor(VA, Node);
  if (Config.SharedL2)
    return completeL1Miss(Node, VA, IsWrite, Time,
                          accessShared(Node, PA, IsWrite, T1, R), R);

  std::uint64_t T2 = T1 + Config.L2LatencyCycles;
  bool Hit = L2s[Node].access(L2LineDiv.div(PA), IsWrite);
  if (Sink)
    Sink->emit(Hit ? TraceKind::L2Hit : TraceKind::L2Miss, T1,
               Config.L2LatencyCycles, PA, Node);
  if (!Hit)
    return completeL1Miss(
        Node, VA, IsWrite, Time,
        privateMissTail(Node, PA, VA, IsWrite, T2, R, Lookahead), R);
  ++R.LocalL2Hits;
  // No Complete for cache-line own-L2 hits: keeps existing traces' bytes.
  return completeL1Miss(Node, VA, IsWrite, Time, T2, R,
                        Config.Granularity != InterleaveGranularity::CacheLine);
}

std::uint64_t Machine::completeL1Miss(unsigned Node, std::uint64_t VA,
                                      bool IsWrite, std::uint64_t Time,
                                      std::uint64_t Done, SimResult &R,
                                      bool TraceComplete) {
  fillL1(Node, VA, IsWrite, Done);
  if (Sink) {
    Sink->emit(TraceKind::L1Fill, Done, 0, VA, 0);
    if (TraceComplete)
      Sink->emit(TraceKind::Complete, Time,
                 static_cast<std::uint32_t>(Done - Time), VA, 0);
  }
  R.AccessLatency.addSample(static_cast<double>(Done - Time));
  return Done;
}

void Machine::fillL1(unsigned Node, std::uint64_t VA, bool IsWrite,
                     std::uint64_t Done) {
  // Dirty victims write back into the next level.
  Cache::Eviction Ev = L1s[Node].insert(L1LineDiv.div(VA), IsWrite);
  if (Ev.Valid && Ev.Dirty) {
    std::uint64_t VictimVA = Ev.LineAddr * Config.L1LineBytes;
    std::uint64_t VictimPA = physFor(VictimVA, Node);
    std::uint64_t VictimL2Line = L2LineDiv.div(VictimPA);
    if (Config.SharedL2) {
      unsigned Home = static_cast<unsigned>(NodeDiv.mod(VictimL2Line));
      // Fire-and-forget writeback to the home bank: occupies links but no
      // one waits for it.
      Net.send(Node, Home, Config.L1LineBytes, Done);
      L2s[Home].markDirty(VictimL2Line);
    } else {
      L2s[Node].markDirty(VictimL2Line);
    }
  }
}

void Machine::retireL2Victim(unsigned Node, const Cache::Eviction &Ev,
                             std::uint64_t T) {
  if (!Ev.Valid)
    return;
  // A no-op for the SNUCA banks, which never enter the directory.
  Dir.removeSharer(Ev.LineAddr, Node);
  if (Ev.Dirty) {
    std::uint64_t VictimPA = Ev.LineAddr * Config.L2LineBytes;
    unsigned VictimMC = mcForPhys(VictimPA);
    MessageResult WB = Net.send(Node, MCNodes[VictimMC], Config.L2LineBytes, T);
    MCs[VictimMC].writeback(VictimPA, WB.ArrivalTime);
  }
}

std::uint64_t Machine::forwardFromL2(unsigned Node, unsigned Source,
                                     unsigned DirNode, std::uint64_t PA,
                                     const MessageResult &Req,
                                     std::uint64_t T, SimResult &R) {
  MessageResult Fwd = Net.send(DirNode, Source, Config.RequestBytes, T);
  if (Sink)
    Sink->emit(TraceKind::RemoteL2Hit, Fwd.ArrivalTime,
               Config.L2LatencyCycles, PA, Source);
  T = Fwd.ArrivalTime + Config.L2LatencyCycles;
  MessageResult Data = Net.send(Source, Node, Config.L2LineBytes, T);
  ++R.RemoteL2Hits;
  R.OnChipNetLatency.addSample(static_cast<double>(
      Req.NetworkCycles + Fwd.NetworkCycles + Data.NetworkCycles));
  R.OnChipMsgHops.addSample(Req.Hops);
  R.OnChipMsgHops.addSample(Fwd.Hops);
  R.OnChipMsgHops.addSample(Data.Hops);
  return Data.ArrivalTime;
}

void Machine::recordOffChip(unsigned Node, unsigned MC,
                            const MessageResult &Req,
                            const DramAccessResult &Dram,
                            const MessageResult &Data, SimResult &R) {
  ++R.OffChipAccesses;
  R.OffChipNetLatency.addSample(
      static_cast<double>(Req.NetworkCycles + Data.NetworkCycles));
  R.MemLatency.addSample(
      static_cast<double>(Dram.QueueCycles + Dram.ServiceCycles));
  R.OffChipMsgHops.addSample(Req.Hops);
  R.OffChipMsgHops.addSample(Data.Hops);
  R.NodeToMCTraffic[static_cast<std::size_t>(Node) * Config.NumMCs + MC]++;
}

void Machine::collectBurst(unsigned MC, std::uint64_t TriggerLine,
                           std::uint64_t TriggerVA, ThreadStream &Lookahead,
                           std::vector<std::uint64_t> &Run) {
  Run.clear();
  Run.push_back(TriggerLine);
  const bool LineInterleave =
      Config.Granularity == InterleaveGranularity::CacheLine;
  // Adjacent same-MC lines differ by NumMCs lines under cache-line
  // interleaving; under page interleaving lines are physically contiguous
  // at stride 1 (and the MC filter below bounds runs at page borders,
  // where the interleave moves to another controller).
  const std::uint64_t Stride = LineInterleave ? Config.NumMCs : 1;
  const std::uint64_t MaxK = Config.Burst.MaxLines;
  const std::uint64_t W = Config.Burst.WindowAccesses;

  // Windows of successive triggers overlap almost completely, so the scan
  // is incremental: a per-stream cursor (ScannedTo) guarantees every
  // generated access is examined exactly once over the whole run, and the
  // line table remembers where each virtual line was last seen. A table
  // entry is inside the current window iff its LastSeen index is past the
  // stream's consumed position — exactly the membership a per-trigger
  // window rescan would compute, at a fraction of the host cost (this
  // runs on every off-chip miss). Virtual lines keep the scan to a few
  // operations per access and need no speculative translation (a
  // first-touch stream's future pages are not mapped yet).
  BurstScanState &SS = BurstScans[&Lookahead];
  const std::uint64_t G = Lookahead.generated();
  auto SlotFor = [&SS](std::uint64_t Line) -> BurstScanState::Slot & {
    return SS.Table[(Line * 0x9E3779B97F4A7C15ull) >> 55];
  };
  if (SS.ScannedTo < G + W) {
    std::size_t Avail = 0;
    const AccessRequest *Window = Lookahead.peekSpan(W, &Avail);
    std::size_t End = std::min<std::size_t>(Avail, W);
    std::size_t I =
        SS.ScannedTo > G ? static_cast<std::size_t>(SS.ScannedTo - G) : 0;
    for (; I < End; ++I) {
      const std::uint64_t VLine = L2LineDiv.div(Window[I].VA);
      BurstScanState::Slot &S = SlotFor(VLine);
      S.Line = VLine;
      S.LastSeen = G + I + 1;
    }
    SS.ScannedTo = G + End;
  }

  // The candidate physical line TriggerLine +/- K*Stride maps back to a
  // virtual line by the same delta: under cache-line interleaving
  // translation is the identity, and under page interleaving the run is
  // confined to the trigger's page (physical contiguity across page
  // borders is an allocator accident, not locality), within which virtual
  // and physical offsets agree. The page confinement also makes the MC
  // filter implicit for page interleaving.
  const std::uint64_t TriggerVLine = L2LineDiv.div(TriggerVA);
  const std::uint64_t TriggerPage =
      InterleaveDiv.div(TriggerLine * Config.L2LineBytes);
  auto Coalescable = [&](std::uint64_t Line) {
    std::uint64_t VCand;
    if (LineInterleave) {
      VCand = Line;
      if (mcForPhys(Line * Config.L2LineBytes) != MC)
        return false;
    } else {
      if (InterleaveDiv.div(Line * Config.L2LineBytes) != TriggerPage)
        return false;
      VCand = TriggerVLine + (Line - TriggerLine);
    }
    const BurstScanState::Slot &S = SlotFor(VCand);
    if (S.Line != VCand || S.LastSeen <= G)
      return false;
    // A line any L2 already holds would be served on-chip, not from DRAM;
    // the directory is exact (checkDirectoryAgainstL2s), so one probe
    // covers every private L2 including the requester's own.
    return Dir.findSharer(Line) < 0;
  };
  // Extend toward higher addresses first (the window is the thread's own
  // future, which usually walks upward), then lower.
  for (std::uint64_t K = 1; Run.size() < MaxK && K <= MaxK; ++K) {
    std::uint64_t L = TriggerLine + K * Stride;
    if (!Coalescable(L))
      break;
    Run.push_back(L);
  }
  for (std::uint64_t K = 1; Run.size() < MaxK && K <= MaxK; ++K) {
    if (TriggerLine < K * Stride)
      break;
    std::uint64_t L = TriggerLine - K * Stride;
    if (!Coalescable(L))
      break;
    Run.push_back(L);
  }
  std::sort(Run.begin(), Run.end());
}

std::uint64_t Machine::privateMissTail(unsigned Node, std::uint64_t PA,
                                       std::uint64_t VA, bool IsWrite,
                                       std::uint64_t T, SimResult &R,
                                       ThreadStream *Lookahead) {
  std::uint64_t Line = L2LineDiv.div(PA);
  // The optimal scheme of Section 2: every request is served by the
  // nearest MC over an uncontended route, and the redirection incurs no
  // additional bank-contention latency — the banks themselves still behave
  // normally, so the memory-latency improvement comes from the better
  // locality of the redirected streams, not from waiving queueing.
  bool Optimal = Config.OptimalScheme;
  unsigned MC = Optimal ? NearestMCOfNode[Node] : mcForPhys(PA);
  unsigned DirNode = MCNodes[MC];

  // Path 1: request to the tag directory cached at the owning MC.
  MessageResult Req = Optimal
                          ? Net.sendIdeal(Node, DirNode, Config.RequestBytes, T)
                          : Net.send(Node, DirNode, Config.RequestBytes, T);
  if (Sink)
    Sink->emit(TraceKind::DirLookup, Req.ArrivalTime,
               Config.DirectoryLatencyCycles, PA, DirNode);
  T = Req.ArrivalTime + Config.DirectoryLatencyCycles;

  int Sharer = Dir.findSharer(Line);
  if (Sharer >= 0 && static_cast<unsigned>(Sharer) != Node) {
    // On-chip access: forward to the sharing L2, which responds with data.
    T = forwardFromL2(Node, static_cast<unsigned>(Sharer), DirNode, PA, Req,
                      T, R);
  } else {
    // Off-chip access: path 2 (DRAM) then path 3 (data back to the L2).
    // With Config.Burst enabled, adjacent future lines of the same thread
    // headed to this MC ride along as one wide DRAM transaction and one
    // wide data return; the trigger access is accounted exactly as a
    // normal off-chip access so every existing conservation identity
    // holds, and the ridealongs surface only in the line-level counters
    // (BurstTransactions / BurstLines / PerMCLines).
    unsigned BurstK = 1;
    if (Config.Burst.Enabled && !Optimal && Lookahead) {
      collectBurst(MC, Line, VA, *Lookahead, BurstRun);
      BurstK = static_cast<unsigned>(BurstRun.size());
    }
    DramAccessResult Dram;
    if (BurstK >= 2) {
      BurstPAs.clear();
      for (std::uint64_t RL : BurstRun)
        BurstPAs.push_back(RL * Config.L2LineBytes);
      Dram = MCs[MC].accessBurst(BurstPAs.data(), BurstK, T);
      ++R.BurstTransactions;
      R.BurstLines += BurstK;
      if (Sink)
        Sink->emit(TraceKind::BurstCoalesce,
                   Dram.CompleteTime - Dram.ServiceCycles,
                   static_cast<std::uint32_t>(Dram.ServiceCycles), PA,
                   (MC << 8) | (BurstK & 0xffu));
    } else {
      Dram = MCs[MC].access(PA, T);
    }
    T = Dram.CompleteTime;
    MessageResult Data =
        Optimal ? Net.sendIdeal(DirNode, Node, Config.L2LineBytes, T)
                : Net.send(DirNode, Node,
                           static_cast<std::uint64_t>(BurstK) *
                               Config.L2LineBytes,
                           T);
    T = Data.ArrivalTime;
    recordOffChip(Node, MC, Req, Dram, Data, R);

    // Ridealong lines fill the requester's L2 clean so their future
    // touches become local L2 hits; the directory stays exact.
    if (BurstK >= 2) {
      for (std::uint64_t RL : BurstRun) {
        if (RL == Line)
          continue;
        retireL2Victim(Node, L2s[Node].insert(RL, false), T);
        Dir.addSharer(RL, Node);
      }
    }
  }

  // Fill the private L2 and keep the directory exact.
  retireL2Victim(Node, L2s[Node].insert(Line, IsWrite), T);
  Dir.addSharer(Line, Node);
  return T;
}

std::uint64_t Machine::accessShared(unsigned Node, std::uint64_t PA,
                                    bool IsWrite, std::uint64_t Time,
                                    SimResult &R) {
  std::uint64_t Line = L2LineDiv.div(PA);
  unsigned Home = static_cast<unsigned>(NodeDiv.mod(Line));

  // Path 1: L1 miss request to the home bank.
  MessageResult Req = Net.send(Node, Home, Config.RequestBytes, Time);
  std::uint64_t T = Req.ArrivalTime + Config.L2LatencyCycles;

  bool HomeHit = L2s[Home].access(Line, IsWrite);
  if (Sink)
    Sink->emit(HomeHit ? TraceKind::L2Hit : TraceKind::L2Miss,
               Req.ArrivalTime, Config.L2LatencyCycles, PA, Home);
  if (HomeHit) {
    // Path 5: data back to the requesting L1.
    MessageResult Resp = Net.send(Home, Node, Config.L1LineBytes, T);
    T = Resp.ArrivalTime;
    ++R.RemoteL2Hits;
    R.OnChipNetLatency.addSample(
        static_cast<double>(Req.NetworkCycles + Resp.NetworkCycles));
    R.OnChipMsgHops.addSample(Req.Hops);
    R.OnChipMsgHops.addSample(Resp.Hops);
    return T;
  }

  bool Optimal = Config.OptimalScheme;
  unsigned MC = Optimal ? NearestMCOfNode[Home] : mcForPhys(PA);
  unsigned MCNode = MCNodes[MC];

  // Paths 2-4: home bank fetches the line from memory.
  MessageResult ToMC = Optimal
                           ? Net.sendIdeal(Home, MCNode, Config.RequestBytes, T)
                           : Net.send(Home, MCNode, Config.RequestBytes, T);
  DramAccessResult Dram = MCs[MC].access(PA, ToMC.ArrivalTime);
  MessageResult FromMC =
      Optimal ? Net.sendIdeal(MCNode, Home, Config.L2LineBytes,
                              Dram.CompleteTime)
              : Net.send(MCNode, Home, Config.L2LineBytes, Dram.CompleteTime);
  T = FromMC.ArrivalTime;

  // Fill the home bank.
  retireL2Victim(Home, L2s[Home].insert(Line, IsWrite), T);

  // Path 5: data to the requesting L1.
  MessageResult Resp = Net.send(Home, Node, Config.L1LineBytes, T);
  T = Resp.ArrivalTime;

  ++R.OffChipAccesses;
  // Network latency of an off-chip access: all four legs (paths 1, 2, 4
  // and 5) — consistent with the private-L2 flow, which also charges its
  // full request/response network time.
  R.OffChipNetLatency.addSample(
      static_cast<double>(Req.NetworkCycles + ToMC.NetworkCycles +
                          FromMC.NetworkCycles + Resp.NetworkCycles));
  R.MemLatency.addSample(
      static_cast<double>(Dram.QueueCycles + Dram.ServiceCycles));
  R.OffChipMsgHops.addSample(ToMC.Hops);
  R.OffChipMsgHops.addSample(FromMC.Hops);
  R.OnChipMsgHops.addSample(Req.Hops);
  R.OnChipMsgHops.addSample(Resp.Hops);
  R.NodeToMCTraffic[static_cast<std::size_t>(Node) * Config.NumMCs + MC]++;
  return T;
}

//===----------------------------------------------------------------------===//
// Coherence protocol flow (MachineConfig::Coherence)
//===----------------------------------------------------------------------===//

std::uint64_t Machine::accessCoherent(unsigned Node, std::uint64_t VA,
                                      bool IsWrite, std::uint64_t Time,
                                      SimResult &R) {
  assert(!Config.SharedL2 && "coherence runs on the private-L2 flow only");
  std::uint64_t T = Time + Config.L1LatencyCycles;

  // L1 probe. A write probe sets the dirty bit before write permission is
  // confirmed — harmless and deterministic, because upgrades never fail:
  // by the time this access completes the line is Modified.
  bool L1Hit = L1s[Node].access(L1LineDiv.div(VA), IsWrite);
  if (L1Hit && !IsWrite) {
    if (Sink)
      Sink->emit(TraceKind::L1Hit, Time, Config.L1LatencyCycles, VA, Node);
    ++R.L1Hits;
    R.AccessLatency.addSample(static_cast<double>(T - Time));
    return T;
  }

  // Everything below needs the physical line. On the write-hit path the
  // page is already mapped (the L1 fill translated it), so this never
  // perturbs first-touch allocation order.
  std::uint64_t PA = physFor(VA, Node);
  std::uint64_t Line = L2LineDiv.div(PA);

  if (L1Hit) {
    // Write hit: permission comes from the node's own L2 state (inclusion
    // holds — back-invalidation drops L1 chunks whenever the L2 line goes).
    int St = L2s[Node].stateOf(Line);
    if (St == static_cast<int>(LineState::Modified) ||
        St == static_cast<int>(LineState::Exclusive)) {
      if (St == static_cast<int>(LineState::Exclusive))
        L2s[Node].setState(Line, LineState::Modified); // silent E->M (MESI)
      L2s[Node].markDirty(Line);
      if (Sink)
        Sink->emit(TraceKind::L1Hit, Time, Config.L1LatencyCycles, VA, Node);
      ++R.L1Hits;
      R.AccessLatency.addSample(static_cast<double>(T - Time));
      return T;
    }
    if (St == static_cast<int>(LineState::Shared)) {
      // Upgrade: a directory round trip invalidating every other copy.
      std::uint64_t Done = coherentUpgrade(Node, Line, T, R);
      ++R.CoherenceUpgrades;
      if (Sink)
        Sink->emit(TraceKind::Complete, Time,
                   static_cast<std::uint32_t>(Done - Time), VA, 0);
      R.AccessLatency.addSample(static_cast<double>(Done - Time));
      return Done;
    }
    assert(St >= 0 && "L1 hit on a line the node's L2 does not hold");
    // Release fallback for broken inclusion: run the full miss flow below
    // (the L2 probe misses and the line is refetched).
  }

  if (Sink)
    Sink->emit(TraceKind::L1Miss, Time, Config.L1LatencyCycles, VA, Node);
  std::uint64_t T2 = T + Config.L2LatencyCycles;
  bool L2Hit = L2s[Node].access(Line, IsWrite);
  if (Sink)
    Sink->emit(L2Hit ? TraceKind::L2Hit : TraceKind::L2Miss, T,
               Config.L2LatencyCycles, PA, Node);
  if (!L2Hit)
    return completeL1Miss(Node, VA, IsWrite, Time,
                          coherentMissTail(Node, PA, IsWrite, T2, R), R);
  int St = L2s[Node].stateOf(Line);
  if (IsWrite && St == static_cast<int>(LineState::Shared)) {
    // Write to a Shared copy in the own L2: upgrade.
    ++R.CoherenceUpgrades;
    return completeL1Miss(Node, VA, IsWrite, Time,
                          coherentUpgrade(Node, Line, T2, R), R);
  }
  if (IsWrite && St == static_cast<int>(LineState::Exclusive))
    L2s[Node].setState(Line, LineState::Modified); // silent E->M (MESI)
  ++R.LocalL2Hits;
  return completeL1Miss(Node, VA, IsWrite, Time, T2, R);
}

std::uint64_t Machine::coherentUpgrade(unsigned Node, std::uint64_t Line,
                                       std::uint64_t T, SimResult &R) {
  std::uint64_t LinePA = Line * Config.L2LineBytes;
  unsigned MC = mcForPhys(LinePA);
  unsigned DirNode = MCNodes[MC];
  MessageResult Req = Net.send(Node, DirNode, Config.RequestBytes, T);
  if (Sink)
    Sink->emit(TraceKind::DirLookup, Req.ArrivalTime,
               Config.DirectoryLatencyCycles, LinePA, DirNode);
  T = Req.ArrivalTime + Config.DirectoryLatencyCycles;
  // The grant leaves only once every other copy is gone.
  T = invalidateSharers(Line, Node, DirNode, T, R);
  MessageResult Grant = Net.send(DirNode, Node, Config.Coherence.AckBytes, T);
  R.CohMsgHops.addSample(Req.Hops);
  R.CohMsgHops.addSample(Grant.Hops);
  L2s[Node].setState(Line, LineState::Modified);
  L2s[Node].markDirty(Line);
  Dir.setExclusive(Line, Node);
  return Grant.ArrivalTime;
}

std::uint64_t Machine::invalidateSharers(std::uint64_t Line, unsigned Except,
                                         unsigned DirNode, std::uint64_t T,
                                         SimResult &R) {
  std::uint64_t Mask = Dir.sharerMask(Line);
  if (Except < 64)
    Mask &= ~(1ull << Except);
  std::uint64_t LinePA = Line * Config.L2LineBytes;
  std::uint64_t Done = T;
  while (Mask != 0) {
    unsigned S = static_cast<unsigned>(std::countr_zero(Mask));
    Mask &= Mask - 1;
    MessageResult Inv =
        Net.send(DirNode, S, Config.Coherence.InvalidateBytes, T);
    if (Sink)
      Sink->emit(TraceKind::Invalidate, Inv.ArrivalTime, 0, LinePA, S);
    bool WasM =
        L2s[S].stateOf(Line) == static_cast<int>(LineState::Modified);
    CohLedger.invSent(S);
    if (invalidateLineAt(S, Line))
      CohLedger.ackReceived(S);
    // A Modified holder's ack carries the dirty line home to its MC; clean
    // copies ack with a header-sized message.
    MessageResult Ack =
        WasM ? Net.send(S, DirNode, Config.L2LineBytes, Inv.ArrivalTime)
             : Net.send(S, DirNode, Config.Coherence.AckBytes, Inv.ArrivalTime);
    if (WasM) {
      MCs[mcForPhys(LinePA)].writeback(LinePA, Ack.ArrivalTime);
      ++R.CoherenceWritebacks;
    }
    if (Sink)
      Sink->emit(TraceKind::InvAck, Ack.ArrivalTime, 0, LinePA, S);
    ++R.Invalidations;
    ++R.InvalidationAcks;
    R.CohMsgHops.addSample(Inv.Hops);
    R.CohMsgHops.addSample(Ack.Hops);
    Dir.removeSharer(Line, S);
    Done = std::max(Done, Ack.ArrivalTime);
  }
  int Owner = Dir.exclusiveOwner(Line);
  if (Owner >= 0 && static_cast<unsigned>(Owner) != Except)
    Dir.clearExclusive(Line);
  return Done;
}

bool Machine::invalidateLineAt(unsigned Node, std::uint64_t Line) {
  bool Held = L2s[Node].invalidate(Line);
  backInvalidateL1(Node, Line);
  return Held;
}

void Machine::backInvalidateL1(unsigned Node, std::uint64_t Line) {
  std::uint64_t BasePA = Line * Config.L2LineBytes;
  unsigned Chunks =
      std::max(1u, Config.L2LineBytes / Config.L1LineBytes);
  if (Config.Granularity == InterleaveGranularity::CacheLine) {
    // VA == PA under cache-line interleaving.
    for (unsigned K = 0; K < Chunks; ++K)
      L1s[Node].invalidate(L1LineDiv.div(
          BasePA + static_cast<std::uint64_t>(K) * Config.L1LineBytes));
    return;
  }
  // Page interleaving: L1s are virtually indexed, so each chunk's physical
  // address is reverse-translated (chunks can straddle pages when the page
  // is smaller than an L2 line). An unmapped chunk cannot be L1-resident.
  unsigned Shift = VM->pageShift();
  std::uint64_t PageMask = Config.PageBytes - 1;
  for (unsigned K = 0; K < Chunks; ++K) {
    std::uint64_t PAk =
        BasePA + static_cast<std::uint64_t>(K) * Config.L1LineBytes;
    std::uint64_t VPN;
    if (!VM->peekReverse(PAk >> Shift, &VPN))
      continue;
    L1s[Node].invalidate(L1LineDiv.div((VPN << Shift) | (PAk & PageMask)));
  }
}

std::uint64_t Machine::coherentMissTail(unsigned Node, std::uint64_t PA,
                                        bool IsWrite, std::uint64_t T,
                                        SimResult &R) {
  std::uint64_t Line = L2LineDiv.div(PA);
  unsigned MC = mcForPhys(PA);
  unsigned DirNode = MCNodes[MC];
  const bool MESI =
      Config.Coherence.Protocol == MachineConfig::CoherenceProtocol::MESI;

  MessageResult Req = Net.send(Node, DirNode, Config.RequestBytes, T);
  if (Sink)
    Sink->emit(TraceKind::DirLookup, Req.ArrivalTime,
               Config.DirectoryLatencyCycles, PA, DirNode);
  T = Req.ArrivalTime + Config.DirectoryLatencyCycles;
  std::uint64_t DirT = T;

  std::uint64_t Holders = Dir.sharerMask(Line);
  assert((Holders & (1ull << Node)) == 0 &&
         "the requester's L2 missed, so it cannot be a recorded holder");

  if (Holders != 0) {
    // Some L2 holds the line: serve on-chip with the same three-leg
    // forward as the coherence-free flow, plus whatever protocol actions
    // the request type requires.
    unsigned Source = static_cast<unsigned>(std::countr_zero(Holders));
    int Owner = Dir.exclusiveOwner(Line);
    T = forwardFromL2(Node, Source, DirNode, PA, Req, T, R);

    if (IsWrite) {
      // Write miss: the source's invalidation rides the forward (its dirty
      // data — if any — transfers with the line, no DRAM writeback), every
      // other holder is invalidated explicitly, and the write completes
      // only after their acks.
      invalidateLineAt(Source, Line);
      Dir.removeSharer(Line, Source);
      if (Owner >= 0)
        Dir.clearExclusive(Line);
      T = std::max(T, invalidateSharers(Line, Node, DirNode, DirT, R));
      coherentL2Insert(Node, Line, true, LineState::Modified, T, R);
      Dir.setExclusive(Line, Node);
    } else if (Owner >= 0) {
      // Read miss on an exclusively held line: the owner (== Source, its
      // only holder) downgrades to Shared and notifies the directory — a
      // dirty line rides the notify home (DRAM writeback), a clean one
      // acks with a header.
      bool WasM =
          L2s[Source].stateOf(Line) == static_cast<int>(LineState::Modified);
      L2s[Source].setState(Line, LineState::Shared);
      ++R.Downgrades;
      MessageResult Notify =
          WasM ? Net.send(Source, DirNode, Config.L2LineBytes, T)
               : Net.send(Source, DirNode, Config.Coherence.AckBytes, T);
      if (WasM) {
        MCs[MC].writeback(Line * Config.L2LineBytes, Notify.ArrivalTime);
        ++R.CoherenceWritebacks;
      }
      R.CohMsgHops.addSample(Notify.Hops);
      if (Sink)
        Sink->emit(TraceKind::Downgrade, Notify.ArrivalTime, 0, PA, Source);
      Dir.clearExclusive(Line);
      coherentL2Insert(Node, Line, false, LineState::Shared, T, R);
    } else {
      // Read miss with Shared holders: plain forward, no protocol traffic.
      coherentL2Insert(Node, Line, false, LineState::Shared, T, R);
    }
    return T;
  }

  // No on-chip copy: off-chip access, identical in shape and accounting to
  // the coherence-free two-leg DRAM path.
  DramAccessResult Dram = MCs[MC].access(PA, T);
  T = Dram.CompleteTime;
  MessageResult Data = Net.send(DirNode, Node, Config.L2LineBytes, T);
  T = Data.ArrivalTime;
  recordOffChip(Node, MC, Req, Dram, Data, R);

  LineState St = LineState::Shared;
  if (IsWrite) {
    St = LineState::Modified;
  } else if (MESI) {
    // MESI: a read miss nobody else holds is granted Exclusive, so the
    // node's eventual first write upgrades silently.
    St = LineState::Exclusive;
    ++R.ExclusiveGrants;
  }
  coherentL2Insert(Node, Line, IsWrite, St, T, R);
  if (St != LineState::Shared)
    Dir.setExclusive(Line, Node);
  return T;
}

void Machine::coherentL2Insert(unsigned Node, std::uint64_t Line, bool IsWrite,
                               LineState St, std::uint64_t T, SimResult &R) {
  Cache::Eviction Ev = L2s[Node].insert(Line, IsWrite, St);
  retireL2Victim(Node, Ev, T);
  if (Ev.Valid) {
    if (Dir.exclusiveOwner(Ev.LineAddr) == static_cast<int>(Node))
      Dir.clearExclusive(Ev.LineAddr);
    // Inclusion: the L1 must not outlive the L2 line that covers it.
    backInvalidateL1(Node, Ev.LineAddr);
  }
  coherentTrack(Line, Node, T, R);
}

void Machine::coherentTrack(std::uint64_t Line, unsigned Node, std::uint64_t T,
                            SimResult &R) {
  if (Config.Coherence.SparseDirectory && !Dir.tracksLine(Line) &&
      Dir.atCapacity(Config.Coherence.SparseEntries)) {
    std::uint64_t Victim;
    if (Dir.pickVictim(&Victim)) {
      // Evict the victim entry by broadcast-invalidating every holder of
      // its line. Fire-and-forget: the access being tracked does not wait
      // on the acks (an opaque directory trades precision for area; the
      // cost surfaces as the invalidation traffic itself).
      unsigned VictimMC = mcForPhys(Victim * Config.L2LineBytes);
      invalidateSharers(Victim, ~0u, MCNodes[VictimMC], T, R);
      Dir.eraseLine(Victim);
      ++R.DirEvictions;
    }
  }
  Dir.addSharer(Line, Node);
}

std::vector<std::string> Machine::checkInvariants(const SimResult &R) const {
  std::vector<std::string> Out;
  auto Expect = [&Out](std::uint64_t Got, std::uint64_t Want,
                       const char *What) {
    if (Got != Want)
      Out.push_back(std::string(What) + ": " + std::to_string(Got) +
                    " != expected " + std::to_string(Want));
  };

  // Every access lands in exactly one class (under coherence a write to a
  // Shared line is its own class: the upgrade; the counter is zero with
  // the protocol off, so this is the pre-coherence identity there).
  Expect(R.L1Hits + R.LocalL2Hits + R.RemoteL2Hits + R.OffChipAccesses +
             R.CoherenceUpgrades,
         R.TotalAccesses, "access classes must partition TotalAccesses");

  // Each class samples its latency accumulators a fixed number of times.
  Expect(R.AccessLatency.count(), R.TotalAccesses,
         "one end-to-end latency sample per access");
  Expect(R.MemLatency.count(), R.OffChipAccesses,
         "one memory-latency sample per off-chip access");
  Expect(R.OffChipNetLatency.count(), R.OffChipAccesses,
         "one off-chip network-latency sample per off-chip access");
  Expect(R.OnChipNetLatency.count(), R.RemoteL2Hits,
         "one on-chip network-latency sample per remote L2 hit");
  Expect(R.OffChipMsgHops.total(), 2 * R.OffChipAccesses,
         "two off-chip hop samples (request, data) per off-chip access");
  // Private and coherent flows: three on-chip messages per remote hit
  // (request, forward, data). SNUCA: two per home-bank hit and two (the L1
  // request/response legs) per off-chip access.
  if (Config.SharedL2)
    Expect(R.OnChipMsgHops.total(), 2 * (R.RemoteL2Hits + R.OffChipAccesses),
           "two on-chip hop samples per home-bank transaction");
  else
    Expect(R.OnChipMsgHops.total(), 3 * R.RemoteL2Hits,
           "three on-chip hop samples per remote L2 hit");

  std::string Why;
  if (!Net.checkCalendars(&Why))
    Out.push_back("NoC reservation calendar malformed: " + Why);

  checkMcConservation(R.PerMCAccesses, R.NodeToMCTraffic, Config.numNodes(),
                      Config.NumMCs, R.OffChipAccesses, Out);

  // Line-level conservation of the burst coalescer: every off-chip access
  // moves one line except burst transactions, which move BurstLines across
  // BurstTransactions trigger accesses.
  checkBurstConservation(R.PerMCLines, R.OffChipAccesses, R.BurstTransactions,
                         R.BurstLines, Out);

  // The SNUCA flow never consults the directory, so its sharer sets are
  // only maintained (and checkable) for private-L2 machines.
  if (!Config.SharedL2)
    checkDirectoryAgainstL2s(Dir, L2s, Out);

  if (Config.Coherence.enabled()) {
    Expect(R.InvalidationAcks, R.Invalidations,
           "every invalidation pairs with exactly one ack");
    Expect(R.CohMsgHops.total(),
           2 * R.CoherenceUpgrades + 2 * R.Invalidations + R.Downgrades,
           "coherence hop samples: two per upgrade (request, grant), two "
           "per inv/ack pair, one per downgrade notify");
    if (R.CoherenceWritebacks > R.Invalidations + R.Downgrades)
      Out.push_back("more coherence writebacks (" +
                    std::to_string(R.CoherenceWritebacks) +
                    ") than invalidations plus downgrades (" +
                    std::to_string(R.Invalidations + R.Downgrades) + ")");
    if (Config.Coherence.Protocol == MachineConfig::CoherenceProtocol::MSI)
      Expect(R.ExclusiveGrants, 0, "MSI never grants Exclusive");
    if (!Config.Coherence.SparseDirectory)
      Expect(R.DirEvictions, 0,
             "an unbounded directory never evicts entries");
    for (const std::string &Msg : CohLedger.verify())
      Out.push_back(Msg);
    checkCoherenceStates(Dir, L2s, Out);

    // L1 inclusion: every L1-resident line's covering L2 line must still
    // be resident in the same node's L2 (back-invalidation maintains it —
    // write permission is derived from the L2 state, so a stale L1 line
    // would dodge the protocol entirely).
    std::size_t InclusionBreaks = 0;
    for (unsigned Node = 0; Node < L1s.size(); ++Node) {
      L1s[Node].forEachLine([&](std::uint64_t L1Line) {
        std::uint64_t LVA = L1Line * Config.L1LineBytes;
        std::uint64_t LPA = LVA;
        if (Config.Granularity != InterleaveGranularity::CacheLine &&
            !VM->peekTranslate(LVA, &LPA))
          return;
        if (!L2s[Node].contains(L2LineDiv.div(LPA)) &&
            InclusionBreaks++ < 8)
          Out.push_back("node " + std::to_string(Node) + " L1 holds line " +
                        std::to_string(L1Line) +
                        " whose covering L2 line is not resident "
                        "(inclusion violated)");
      });
    }
    if (InclusionBreaks > 8)
      Out.push_back("... and " + std::to_string(InclusionBreaks - 8) +
                    " more inclusion violations");
  } else {
    Expect(R.CoherenceUpgrades + R.Invalidations + R.InvalidationAcks +
               R.Downgrades + R.CoherenceWritebacks + R.ExclusiveGrants +
               R.DirEvictions + R.CohMsgHops.total(),
           0, "coherence counters must stay zero with the protocol off");
  }

  if (R.RedirectedPages > R.AllocatedPages)
    Out.push_back("more pages redirected (" +
                  std::to_string(R.RedirectedPages) + ") than allocated (" +
                  std::to_string(R.AllocatedPages) + ")");
  return Out;
}

void Machine::finalize(SimResult &R, std::uint64_t Now) const {
  R.NumNodes = Config.numNodes();
  R.NumMCs = Config.NumMCs;
  R.PerMCQueueOccupancy.clear();
  R.PerMCAccesses.clear();
  R.PerMCLines.clear();
  double OccSum = 0.0;
  std::uint64_t Hits = 0, Total = 0;
  for (const MemoryController &MC : MCs) {
    double Occ = MC.averageQueueOccupancy(Now);
    R.PerMCQueueOccupancy.push_back(Occ);
    R.PerMCAccesses.push_back(MC.accesses());
    R.PerMCLines.push_back(MC.linesTransferred());
    OccSum += Occ;
    Hits += MC.rowHits();
    Total += MC.accesses();
  }
  R.AvgBankQueueOccupancy = OccSum / static_cast<double>(MCs.size());
  R.RowHitRate =
      Total == 0 ? 0.0
                 : static_cast<double>(Hits) / static_cast<double>(Total);
  R.RedirectedPages = VM->redirectedPages();
  R.AllocatedPages = VM->allocatedPages();
  R.LinkBusyCycles = Net.totalLinkBusyCycles();

  R.Phases.Enabled = Config.CollectPhaseTimes;
  if (Config.CollectPhaseTimes) {
    // Subtract the calibrated clock-read overhead: each timed call leaks
    // ~one clock-read's worth of time into its accumulator, which at tens
    // of millions of calls inflates the phases (and their sum) well past
    // the untimed wall time.
    R.Phases.NetworkSeconds =
        correctedPhaseSeconds(Net.timedSeconds(), Net.timedCalls());
    R.Phases.DramSeconds = 0.0;
    R.Phases.TimedClockCalls = Net.timedCalls();
    double DramRaw = 0.0;
    std::uint64_t DramCalls = 0;
    for (const MemoryController &MC : MCs) {
      DramRaw += MC.timedSeconds();
      DramCalls += MC.timedCalls();
    }
    R.Phases.DramSeconds = correctedPhaseSeconds(DramRaw, DramCalls);
    R.Phases.TimedClockCalls += DramCalls;
  }
}
