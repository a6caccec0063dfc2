//===- perfbench/src/Layers.cpp -------------------------------------------===//

#include "Layers.h"

#include "Bench.h"
#include "Host.h"
#include "Trace.h"

#include "affine/ProgramText.h"
#include "cache/Cache.h"
#include "core/CodeGen.h"
#include "dram/MemoryController.h"
#include "harness/Experiment.h"
#include "noc/Network.h"
#include "sim/AddressMap.h"
#include "sim/Engine.h"
#include "sim/ThreadStream.h"
#include "vm/VirtualMemory.h"
#include "workloads/AppModel.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace offchip;
using namespace perfbench;

const char *perfbench::tinyProgramText() {
  return R"(
program tinylet
array a dims 64 64 elem 8

nest sweep bounds 0:64 1:63 parallel 0
  read  a [ i1-1, i0 ]
  write a [ i1, i0 ]
end
)";
}

namespace {

/// Accesses replayed through the cache, noc, dram and vm layers per program:
/// the head of the program's access streams, interleaved across threads the
/// way the simulator issues them.
constexpr std::size_t ReplayAccesses = 1u << 18;

struct Access {
  unsigned Node;
  std::uint64_t VA;
  bool Write;
};

/// Host-time totals of the replays, summed over programs.
struct Replay {
  double StreamSec = 0, VmSec = 0, CacheSec = 0, NocSec = 0, DramSec = 0;
  std::uint64_t Streamed = 0, Translated = 0, Probed = 0, Sent = 0,
                DramAccesses = 0;
  double StreamShareNum = 0, StreamShareDen = 0;
};

VmConfig vmConfigOf(const MachineConfig &C) {
  VmConfig V;
  V.PageBytes = C.PageBytes;
  V.NumMCs = C.NumMCs;
  V.BytesPerMC = C.BytesPerMC;
  return V;
}

void replayProgram(const SimProgram &P, const ClusterMapping &Mapping,
                   Replay &R) {
  const MachineConfig &C = P.Config;
  unsigned Threads = C.numThreads();
  std::uint64_t Group = trace::newGroup();

  // sim: every thread's stream drained through ThreadStream::next.
  {
    VirtualMemory VM(vmConfigOf(C), C.PagePolicy);
    AddressMap Map(*P.Program, *P.Plan, VM, C);
    std::uint64_t N = 0;
    double T0 = nowSeconds();
    {
      ScopedSpan Span("sim.stream_drain", Group);
      for (unsigned T = 0; T < Threads; ++T) {
        ThreadStream S(Map, T, Threads);
        AccessRequest A;
        while (S.next(A))
          ++N;
      }
    }
    double Sec = nowSeconds() - T0;
    R.StreamSec += Sec;
    R.Streamed += N;
    if (N)
      R.StreamShareNum += Sec / static_cast<double>(N) *
                          static_cast<double>(P.Reference.TotalAccesses);
    R.StreamShareDen += P.SampleP10;
  }

  // The replay input: the streams' head, round-robin over threads.
  VirtualMemory VM(vmConfigOf(C), C.PagePolicy);
  AddressMap Map(*P.Program, *P.Plan, VM, C);
  std::vector<ThreadStream> Streams;
  Streams.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Streams.emplace_back(Map, T, Threads);
  std::vector<Access> Trace;
  Trace.reserve(ReplayAccesses);
  for (bool Any = true; Any && Trace.size() < ReplayAccesses;) {
    Any = false;
    for (unsigned T = 0; T < Threads && Trace.size() < ReplayAccesses; ++T) {
      AccessRequest A;
      if (Streams[T].next(A)) {
        Trace.push_back({Mapping.threadToNode(T), A.VA, A.IsWrite});
        Any = true;
      }
    }
  }

  // vm: first-touch translation of every replayed address.
  std::vector<std::uint64_t> PA(Trace.size());
  double T0 = nowSeconds();
  {
    ScopedSpan Span("vm.translate", Group);
    for (std::size_t I = 0; I < Trace.size(); ++I) {
      unsigned Cluster = Mapping.clusterOfNode(Trace[I].Node);
      PA[I] = VM.translate(Trace[I].VA, Mapping.clusterMCs(Cluster).front());
    }
  }
  R.VmSec += nowSeconds() - T0;
  R.Translated += Trace.size();

  // cache: each node's L1, probed and filled on a miss.
  std::vector<Cache> L1;
  for (unsigned N = 0; N < C.numNodes(); ++N)
    L1.emplace_back(C.L1SizeBytes, C.L1LineBytes, C.L1Ways);
  std::vector<std::size_t> Misses;
  Misses.reserve(Trace.size());
  T0 = nowSeconds();
  {
    ScopedSpan Span("cache.access", Group);
    for (std::size_t I = 0; I < Trace.size(); ++I) {
      // The simulator's L1s are indexed by virtual address.
      Cache &L = L1[Trace[I].Node];
      std::uint64_t Line = L.lineOf(Trace[I].VA);
      if (!L.access(Line, Trace[I].Write)) {
        L.insert(Line, Trace[I].Write);
        Misses.push_back(I);
      }
    }
  }
  R.CacheSec += nowSeconds() - T0;
  R.Probed += Trace.size();

  // The replayed misses are spaced as the reference run spaced its L1
  // misses, so the mesh and the banks see the run's offered load.
  const SimResult &Ref = P.Reference;
  std::uint64_t L1Misses = Ref.TotalAccesses - Ref.L1Hits;
  std::uint64_t Step =
      L1Misses ? std::max<std::uint64_t>(1, Ref.ExecutionCycles / L1Misses)
               : 1;

  // noc: a request to the owning MC and the line back, per L1 miss.
  Network Net(Mesh(C.MeshX, C.MeshY), C.Noc);
  const std::vector<unsigned> &MCNodes = Mapping.mcNodes();
  T0 = nowSeconds();
  {
    ScopedSpan Span("noc.send", Group);
    std::uint64_t Now = 0;
    for (std::size_t I : Misses) {
      // Nothing is sent before Now any more, so the calendars may drop
      // older reservations, as the simulator lets them.
      Net.advanceFloor(Now);
      unsigned Node = Trace[I].Node;
      unsigned MCNode = MCNodes[VM.mcOfPhysAddr(PA[I])];
      MessageResult Req =
          Net.send(Node, MCNode, C.RequestBytes, Now, MsgClass::Request);
      Net.send(MCNode, Node, C.L2LineBytes, Req.ArrivalTime, MsgClass::Data);
      Now += Step;
    }
  }
  R.NocSec += nowSeconds() - T0;
  R.Sent += 2 * Misses.size();

  // dram: the same misses at their memory controllers.
  std::vector<MemoryController> MCs;
  for (unsigned M = 0; M < C.NumMCs; ++M)
    MCs.emplace_back(M, C.Dram);
  T0 = nowSeconds();
  {
    ScopedSpan Span("dram.access", Group);
    std::uint64_t Now = 0;
    for (std::size_t I : Misses) {
      MCs[VM.mcOfPhysAddr(PA[I])].access(PA[I], Now);
      Now += Step;
    }
  }
  R.DramSec += nowSeconds() - T0;
  R.DramAccesses += Misses.size();
}

double perCall(double Sec, std::uint64_t Calls) {
  return Calls ? Sec * 1e9 / static_cast<double>(Calls) : 0.0;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

void perfbench::addBuildLayerMetrics(const std::vector<AppSize> &Apps,
                                     bool Optimized,
                                     const MachineConfig &Config,
                                     const ClusterMapping &Mapping,
                                     Report &Out) {
  RunVariant Variant = Optimized ? RunVariant::Optimized : RunVariant::Original;
  double BuildS = 0, LayoutS = 0, EmitS = 0;
  for (const AppSize &App : Apps) {
    std::uint64_t Group = trace::newGroup();
    double T0 = nowSeconds();
    std::optional<AppModel> Model;
    {
      ScopedSpan Span("workloads.build", Group);
      Model.emplace(buildApp(App.Name, App.Scale));
    }
    double T1 = nowSeconds();
    LayoutPlan Plan;
    {
      ScopedSpan Span("core.layout", Group);
      Plan = planForVariant(*Model, Config, Mapping, Variant);
    }
    double T2 = nowSeconds();
    {
      ScopedSpan Span("core.emit", Group);
      std::string Code = emitProgram(Model->Program, Plan);
    }
    double T3 = nowSeconds();
    BuildS += T1 - T0;
    LayoutS += T2 - T1;
    EmitS += T3 - T2;
  }
  Out.add("workloads.build_ms", BuildS * 1e3, "ms", Apps.size());
  Out.add("core.layout_ms", LayoutS * 1e3, "ms", Apps.size());
  Out.add("core.emit_ms", EmitS * 1e3, "ms", Apps.size());
}

double perfbench::offchipLatencyCycles(
    const std::vector<const SimResult *> &Results) {
  double Net = 0, NetN = 0, Mem = 0, MemN = 0;
  for (const SimResult *R : Results) {
    Net += R->OffChipNetLatency.sum();
    NetN += static_cast<double>(R->OffChipNetLatency.count());
    Mem += R->MemLatency.sum();
    MemN += static_cast<double>(R->MemLatency.count());
  }
  return ratio(Net, NetN) + ratio(Mem, MemN);
}

void perfbench::addSimLayerMetrics(const std::vector<SimProgram> &Programs,
                                   const ClusterMapping &Mapping,
                                   Report &Out) {
  Replay R;
  for (const SimProgram &P : Programs)
    replayProgram(P, Mapping, R);

  // Where a simulation's host time goes, from the simulator's own phase
  // timers (one extra run per program; the timers perturb the run, which
  // is why the gated samples never enable them).
  double Stream = 0, NetSec = 0, Dram = 0, Total = 0;
  for (const SimProgram &P : Programs) {
    MachineConfig C = P.Config;
    C.CollectPhaseTimes = true;
    ScopedSpan Span("sim.phase_run", trace::newGroup());
    SimResult Timed =
        runSingle(*P.Program, *P.Plan, C, Mapping, P.ComputeGapCycles);
    Stream += Timed.Phases.StreamGenSeconds;
    NetSec += Timed.Phases.NetworkSeconds;
    Dram += Timed.Phases.DramSeconds;
    Total += Timed.Phases.TotalSeconds;
  }

  // Modeled counts, pooled over programs.
  double Acc = 0, L1 = 0, L2 = 0, Off = 0, HopsSum = 0, HopsN = 0,
         LinkBusy = 0, OffNetSum = 0, OffNetN = 0, MemSum = 0, MemN = 0,
         RowHits = 0, QueueOcc = 0, Allocated = 0, Redirected = 0;
  for (const SimProgram &P : Programs) {
    const SimResult &S = P.Reference;
    double O = static_cast<double>(S.OffChipAccesses);
    Acc += static_cast<double>(S.TotalAccesses);
    L1 += static_cast<double>(S.L1Hits);
    L2 += static_cast<double>(S.LocalL2Hits + S.RemoteL2Hits);
    Off += O;
    HopsSum += S.OffChipMsgHops.mean() *
               static_cast<double>(S.OffChipMsgHops.total());
    HopsN += static_cast<double>(S.OffChipMsgHops.total());
    LinkBusy += static_cast<double>(S.LinkBusyCycles);
    OffNetSum += S.OffChipNetLatency.sum();
    OffNetN += static_cast<double>(S.OffChipNetLatency.count());
    MemSum += S.MemLatency.sum();
    MemN += static_cast<double>(S.MemLatency.count());
    RowHits += S.RowHitRate * O;
    QueueOcc += S.AvgBankQueueOccupancy * O;
    Allocated += static_cast<double>(S.AllocatedPages);
    Redirected += static_cast<double>(S.RedirectedPages);
  }

  // The simulate class of serve-mix: one small program, dominated by the
  // per-simulation machine set-up.
  std::vector<double> TinyMs;
  {
    std::string Err;
    std::optional<AffineProgram> Tiny =
        parseProgramText(tinyProgramText(), &Err);
    if (!Tiny) {
      std::fprintf(stderr, "error: tiny program: %s\n", Err.c_str());
      std::exit(1);
    }
    MachineConfig C = paperMachine();
    ClusterMapping M = makeM1Mapping(C);
    LayoutPlan Plan = LayoutTransformer::originalPlan(*Tiny);
    for (int I = 0; I < 15; ++I) {
      ScopedSpan Span("sim.tiny_run", trace::newGroup());
      double T0 = nowSeconds();
      SimResult Res = runSingle(*Tiny, Plan, C, M);
      TinyMs.push_back((nowSeconds() - T0) * 1e3);
    }
  }

  std::size_t N = Programs.size();
  Out.add("sim.stream_ns_per_acc", perCall(R.StreamSec, R.Streamed), "ns",
          R.Streamed);
  Out.add("sim.stream_share", ratio(R.StreamShareNum, R.StreamShareDen), "1",
          N);
  Out.add("sim.phase.stream_s", Stream, "s", N);
  Out.add("sim.phase.network_s", NetSec, "s", N);
  Out.add("sim.phase.dram_s", Dram, "s", N);
  Out.add("sim.phase.other_s", Total - Stream - NetSec - Dram, "s", N);
  Out.add("sim.tiny_run_ms", quantile(TinyMs, 0.5), "ms", TinyMs.size());
  Out.add("cache.access_ns", perCall(R.CacheSec, R.Probed), "ns", R.Probed);
  Out.add("cache.l1_hit_frac", ratio(L1, Acc), "1");
  Out.add("cache.l2_hit_frac", ratio(L2, Acc), "1");
  Out.add("noc.send_ns", perCall(R.NocSec, R.Sent), "ns", R.Sent);
  Out.add("noc.offchip_hops", ratio(HopsSum, HopsN), "hops");
  Out.add("noc.link_busy_mcycles", LinkBusy / 1e6, "Mcycles");
  Out.add("noc.offchip_net_lat_cyc", ratio(OffNetSum, OffNetN), "cycles");
  Out.add("dram.access_ns", perCall(R.DramSec, R.DramAccesses), "ns",
          R.DramAccesses);
  Out.add("dram.mem_lat_cyc", ratio(MemSum, MemN), "cycles");
  Out.add("dram.row_hit_rate", ratio(RowHits, Off), "1");
  Out.add("dram.bank_queue_occ", ratio(QueueOcc, Off), "requests");
  Out.add("dram.offchip_frac", ratio(Off, Acc), "1");
  Out.add("vm.translate_ns", perCall(R.VmSec, R.Translated), "ns",
          R.Translated);
  Out.add("vm.pages_allocated", Allocated, "count");
  Out.add("vm.pages_redirected", Redirected, "count");
}
