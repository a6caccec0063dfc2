//===- sim/Engine.cpp -----------------------------------------------------===//

#include "sim/Engine.h"

#include "check/Invariants.h"
#include "support/Error.h"
#include "support/HostClock.h"
#include "support/Pow2.h"
#include "support/Random.h"
#include "support/TournamentTree.h"
#include "trace/ChromeExport.h"
#include "trace/TimeSeries.h"
#include "trace/TraceSink.h"

#include <algorithm>
#include <chrono>
#include <memory>

using namespace offchip;

namespace {

/// One simulated thread's execution state.
struct EngineThread {
  ThreadStream Stream;
  unsigned Node;
  unsigned App;
  unsigned GapCycles;
  /// Reduces a jitter draw into [0, GapCycles].
  Pow2Divider GapDiv;
  /// Per-thread jitter source: real iterations do variable amounts of
  /// work. Without it, identical streams phase-lock through the shared
  /// queues and every iteration emits one synchronized 64-miss burst.
  SplitMix64 Jitter;
  std::uint64_t FinishTime = 0;

  EngineThread(const AddressMap &Map, unsigned Id, unsigned NumThreads,
               unsigned Node, unsigned App, unsigned GapCycles)
      : Stream(Map, Id, NumThreads), Node(Node), App(App),
        GapCycles(GapCycles), GapDiv(GapCycles + 1ull),
        Jitter(0x5eed0000ull + Id * 1000003ull + App) {}

  /// Uniform in [Gap/2, 3*Gap/2]; mean == GapCycles. One draw per access,
  /// in program order.
  std::uint64_t nextGap() {
    if (GapCycles == 0)
      return 0;
    return GapCycles / 2 + GapDiv.mod(Jitter.next());
  }
};

/// The event loop: one packed key per thread in a tournament tree, popped in
/// (time, thread) order. Keys pack (Time << ThreadShift) | ThreadId with
/// ThreadId below 2^ThreadShift, which orders exactly like (Time, ThreadId)
/// lexicographic; every thread has exactly one pending event until its
/// stream ends, so keys are unique and the pop order is fully determined.
/// Popping a thread and scheduling its next event is one leaf update; a
/// finished thread's leaf goes Empty, and the loop ends when the root is
/// Empty. The key doubles as the trace key of the access it pops (see
/// trace/TraceEvent.h).
void runEventLoop(Machine &M, const MachineConfig &Config,
                  std::vector<EngineThread> &Threads, unsigned ThreadShift,
                  SimResult &R, std::uint64_t &LastTime,
                  double &StreamSeconds, std::uint64_t &StreamCalls,
                  RequestLedger *Ledger) {
  const std::uint64_t ThreadMask = (1ull << ThreadShift) - 1;
  auto PackEvent = [ThreadShift](std::uint64_t Time, unsigned Thread) {
    return (Time << ThreadShift) | Thread;
  };
  TournamentTree Events(static_cast<unsigned>(Threads.size()));
  for (unsigned T = 0; T < Threads.size(); ++T)
    // Stagger thread starts (OS scheduling jitter); identical streams
    // otherwise march in lockstep and issue perfectly aligned miss bursts.
    Events.set(T, PackEvent((static_cast<std::uint64_t>(T) * 389) % 1024, T));

  using Clock = std::chrono::steady_clock;
  const bool Timing = Config.CollectPhaseTimes;

  AccessRequest Req;
  while (true) {
    std::uint64_t Packed = Events.top();
    if (Packed == TournamentTree::Empty)
      break;
    std::uint64_t Time = Packed >> ThreadShift;
    unsigned ThreadId = static_cast<unsigned>(Packed & ThreadMask);
    EngineThread &T = Threads[ThreadId];
    bool Has;
    if (Timing) {
      Clock::time_point T0 = Clock::now();
      Has = T.Stream.next(Req);
      StreamSeconds += std::chrono::duration<double>(Clock::now() - T0).count();
      ++StreamCalls;
    } else {
      Has = T.Stream.next(Req);
    }
    if (!Has) {
      T.FinishTime = Time;
      LastTime = std::max(LastTime, Time);
      Events.set(ThreadId, TournamentTree::Empty);
      continue;
    }

    if (Ledger)
      Ledger->issue(ThreadId, Packed);
    std::uint64_t Done =
        M.access(T.Node, Req.VA, Req.IsWrite, Time, R, &T.Stream, Packed);
    // Scheduling the thread's next event is this access's retirement.
    if (Ledger)
      Ledger->retire(ThreadId, Packed);
    std::uint64_t Next = Done + T.nextGap();
    if (Req.Transformed)
      Next += Config.TransformOverheadCycles;
    assert(PackEvent(Next, ThreadId) != TournamentTree::Empty &&
           "event time overflows the packed key");
    Events.set(ThreadId, PackEvent(Next, ThreadId));
  }
}

} // namespace

SimResult offchip::runSimulation(const std::vector<AppInstance> &Apps,
                                 const MachineConfig &Config,
                                 const ClusterMapping &Mapping,
                                 RunOutputs *Out) {
  // Reject invalid machines before any derived quantity is computed: the
  // constructors below divide by, take logs of and index with these fields,
  // and an invalid value surfaces as a crash (or a silent wrap) far from
  // the mistake. Tools validate earlier and print all diagnostics; this is
  // the last line of defense for programmatic callers.
  {
    std::vector<ConfigDiagnostic> Diags = Config.validate();
    if (!Diags.empty())
      reportFatalError(renderDiagnostics(Diags).c_str());
  }

  VmConfig VC;
  VC.PageBytes = Config.PageBytes;
  VC.NumMCs = Config.NumMCs;
  VC.BytesPerMC = Config.BytesPerMC;
  VirtualMemory VM(VC, Config.PagePolicy);

  // Build address maps and thread streams.
  std::vector<std::unique_ptr<AddressMap>> Maps;
  std::vector<EngineThread> Threads;
  for (unsigned A = 0; A < Apps.size(); ++A) {
    const AppInstance &App = Apps[A];
    assert(App.Program && App.Plan && !App.Nodes.empty() &&
           "incomplete app instance");
    Maps.push_back(std::make_unique<AddressMap>(*App.Program, *App.Plan, VM,
                                                Config));
    unsigned NumThreads =
        static_cast<unsigned>(App.Nodes.size()) * Config.ThreadsPerCore;
    unsigned Gap = App.ComputeGapCycles != 0 ? App.ComputeGapCycles
                                              : Config.ComputeGapCycles;
    for (unsigned T = 0; T < NumThreads; ++T)
      Threads.emplace_back(*Maps.back(), T, NumThreads,
                           App.Nodes[T / Config.ThreadsPerCore], A, Gap);
  }

  Machine M(Config, Mapping, VM);

  // Tracing: one sink for the whole run, attached to the machine and its
  // substrates.
  std::unique_ptr<TraceSink> Sink;
  if (Config.Trace.Enabled) {
    Sink = std::make_unique<TraceSink>(Config.Trace, Config.numNodes(),
                                       Config.MeshX, Config.NumMCs,
                                       M.mcNodes());
    M.setTraceSink(Sink.get());
  }

  SimResult R;
  R.NodeToMCTraffic.assign(
      static_cast<std::size_t>(Config.numNodes()) * Config.NumMCs, 0);

  const unsigned ThreadShift = [&] {
    unsigned S = 0;
    while ((1ull << S) < Threads.size())
      ++S;
    return S;
  }();

  using Clock = std::chrono::steady_clock;
  const bool Timing = Config.CollectPhaseTimes;
  Clock::time_point RunStart;
  if (Timing)
    RunStart = Clock::now();

  std::unique_ptr<RequestLedger> Ledger;
  if (Config.CheckInvariants)
    Ledger = std::make_unique<RequestLedger>(
        static_cast<unsigned>(Threads.size()));

  std::uint64_t LastTime = 0;
  double StreamSeconds = 0.0;
  std::uint64_t StreamCalls = 0;
  runEventLoop(M, Config, Threads, ThreadShift, R, LastTime, StreamSeconds,
               StreamCalls, Ledger.get());

  R.ExecutionCycles = LastTime;
  R.ThreadFinishCycles.reserve(Threads.size());
  for (const EngineThread &T : Threads)
    R.ThreadFinishCycles.push_back(T.FinishTime);

  if (Out) {
    Out->AppFinishCycles.assign(Apps.size(), 0);
    Out->AppAccesses.assign(Apps.size(), 0);
    for (const EngineThread &T : Threads) {
      Out->AppFinishCycles[T.App] =
          std::max(Out->AppFinishCycles[T.App], T.FinishTime);
      Out->AppAccesses[T.App] += T.Stream.generated();
    }
    Out->LinkReserves = M.network().linkReserves();
    Out->SlowLinkReserves = M.network().slowLinkReserves();
  }

  M.finalize(R, LastTime == 0 ? 1 : LastTime);

  if (Config.CheckInvariants) {
    std::vector<std::string> Violations = M.checkInvariants(R);
    if (Ledger) {
      std::vector<std::string> L = Ledger->verify(R.TotalAccesses);
      Violations.insert(Violations.end(), L.begin(), L.end());
    }
    if (!Violations.empty()) {
      std::string Msg = "simulation invariant violated:";
      for (const std::string &V : Violations)
        Msg += "\n  " + V;
      reportFatalError(Msg.c_str());
    }
  }

  if (Sink) {
    M.setTraceSink(nullptr);
    auto Trace =
        std::make_shared<TraceData>(Sink->take(ThreadShift));
    // Exports are best-effort: a failed write must not change the run's
    // result (callers can stat the files; stdout stays byte-identical).
    if (!Trace->Config.ChromeOutPath.empty())
      writeChromeTrace(*Trace, Trace->Config.ChromeOutPath);
    if (!Trace->Config.SeriesOutPath.empty())
      writeTimeSeriesCsv(*Trace, Trace->Config.SeriesOutPath);
    R.Trace = std::move(Trace);
  }

  if (Timing) {
    R.Phases.StreamGenSeconds =
        correctedPhaseSeconds(StreamSeconds, StreamCalls);
    R.Phases.TimedClockCalls += StreamCalls;
    R.Phases.TotalSeconds = correctedTotalSeconds(
        std::chrono::duration<double>(Clock::now() - RunStart).count(),
        R.Phases.TimedClockCalls);
  }
  return R;
}

SimResult offchip::runSingle(const AffineProgram &Program,
                             const LayoutPlan &Plan,
                             const MachineConfig &Config,
                             const ClusterMapping &Mapping,
                             unsigned ComputeGapCycles) {
  AppInstance App;
  App.Program = &Program;
  App.Plan = &Plan;
  App.ComputeGapCycles = ComputeGapCycles;
  unsigned N = Config.numNodes();
  App.Nodes.reserve(N);
  for (unsigned T = 0; T < N; ++T)
    App.Nodes.push_back(Mapping.threadToNode(T));
  return runSimulation({App}, Config, Mapping, nullptr);
}
