//===- api/Execute.cpp ----------------------------------------------------===//

#include "api/Execute.h"

#include "affine/ProgramText.h"
#include "core/CodeGen.h"
#include "harness/Experiment.h"
#include "support/Format.h"
#include "support/ThreadPool.h"
#include "workloads/AppModel.h"

#include <chrono>
#include <future>
#include <utility>

using namespace offchip;

namespace {

PlanSummary summarizePlan(const AffineProgram &Program,
                          const LayoutPlan &Plan,
                          const ClusterMapping &Mapping) {
  PlanSummary S;
  S.ProgramName = Program.name();
  S.NumClusters = Mapping.numClusters();
  S.CoresPerClusterX = Mapping.coresPerClusterX();
  S.CoresPerClusterY = Mapping.coresPerClusterY();
  S.MCsPerCluster = Mapping.mcsPerCluster();
  for (ArrayId Id = 0; Id < Program.numArrays(); ++Id) {
    const ArrayLayoutResult &R = Plan.PerArray[Id];
    if (!R.Accessed)
      continue;
    PlanArrayRow Row;
    Row.Name = Program.array(Id).Name;
    Row.Optimized = R.Optimized;
    Row.U = R.Optimized ? R.U.toString() : "-";
    Row.Note = R.Note;
    S.Arrays.push_back(std::move(Row));
  }
  S.ArraysOptimizedFraction = Plan.arraysOptimizedFraction();
  S.RefsSatisfiedFraction = Plan.refsSatisfiedFraction();
  S.TransformedSource = emitProgram(Program, Plan);
  return S;
}

/// The shared body: \p Helpers null runs the simulate pair serially on this
/// thread.
SimResponse execute(const SimRequest &R, ThreadPool *Helpers,
                    const std::string &TracePrefix) {
  auto Start = std::chrono::steady_clock::now();
  SimResponse Resp;
  Resp.Id = R.Id;

  // The config gate first — same order as the CLI, which rejects impossible
  // machines before it even reads the program file.
  if (std::vector<ConfigDiagnostic> Diags = R.Config.validate();
      !Diags.empty()) {
    Resp.Status = ResponseStatus::Error;
    Resp.Diagnostics = std::move(Diags);
    return Resp;
  }
  // Grouped (M2-style) mappings additionally assume each contiguous MC
  // group is spatially tight; an Explicit placement can violate that
  // silently, so it gets a structured rejection rather than a quietly
  // pessimized mapping.
  if (std::vector<ConfigDiagnostic> Diags =
          R.Config.validateGrouping(R.MCsPerCluster);
      !Diags.empty()) {
    Resp.Status = ResponseStatus::Error;
    Resp.Diagnostics = std::move(Diags);
    return Resp;
  }

  // Resolve the workload. Table apps carry their modeled compute gap;
  // inline programs use the machine default (gap 0 = fall back to
  // MachineConfig::ComputeGapCycles), matching the historical CLI path.
  std::optional<AffineProgram> Program;
  unsigned GapCycles = 0;
  if (R.Workload.isApp()) {
    const AppInfo *App = findApp(R.Workload.App);
    if (!App) {
      Resp.Status = ResponseStatus::Error;
      Resp.ErrorText =
          formatString("unknown application '%s' (registered: %s)",
                       R.Workload.App.c_str(), appNameList().c_str());
      return Resp;
    }
    AppModel M = App->Build(R.Workload.SizeScale);
    GapCycles = M.ComputeGapCycles;
    Program = std::move(M.Program);
  } else {
    std::string Err;
    Program = parseProgramText(R.Workload.ProgramText, &Err);
    if (!Program) {
      Resp.Status = ResponseStatus::Error;
      Resp.ErrorText = std::move(Err);
      return Resp;
    }
  }

  const MachineConfig &Config = R.Config;
  const bool Simulate = R.Kind == RequestKind::Simulate;
  ClusterMapping Mapping = makeM2Mapping(Config, R.MCsPerCluster);
  MachineConfig BaseConfig = Config;
  MachineConfig OptConfig = optimizedConfig(Config);
  if (Simulate && !TracePrefix.empty()) {
    BaseConfig.Trace.Enabled = true;
    BaseConfig.Trace.ChromeOutPath = TracePrefix + "-original.trace.json";
    BaseConfig.Trace.SeriesOutPath = TracePrefix + "-original.series.csv";
    OptConfig.Trace.Enabled = true;
    OptConfig.Trace.ChromeOutPath = TracePrefix + "-optimized.trace.json";
    OptConfig.Trace.SeriesOutPath = TracePrefix + "-optimized.series.csv";
  }

  // The original variant needs no layout pass, so it starts now and
  // overlaps everything below. The task reads this frame: Join waits for
  // it on every way out, a throw included.
  std::future<SimResult> Original;
  struct Join {
    std::future<SimResult> &F;
    ~Join() {
      if (F.valid())
        F.wait();
    }
  } JoinOriginal{Original};
  if (Simulate) {
    std::packaged_task<SimResult()> Task(
        [&Program, &BaseConfig, &Mapping, GapCycles] {
          LayoutPlan Plan = LayoutTransformer::originalPlan(*Program);
          return runSingle(*Program, Plan, BaseConfig, Mapping, GapCycles);
        });
    Original = Task.get_future();
    if (Helpers)
      Helpers->submit(std::move(Task));
    else
      Task();
  }

  LayoutTransformer Pass(Mapping, Config.layoutOptions());
  LayoutPlan Plan = Pass.run(*Program);
  Resp.Plan = summarizePlan(*Program, Plan, Mapping);

  if (Simulate) {
    Resp.Optimized = runSingle(*Program, Plan, OptConfig, Mapping, GapCycles);
    Resp.Original = Original.get();
  }

  Resp.ServerSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Resp;
}

} // namespace

SimResponse offchip::executeRequest(const SimRequest &R, unsigned Jobs,
                                    const std::string &TracePrefix) {
  if (Jobs == 1)
    return execute(R, nullptr, TracePrefix);
  ThreadPool Helper(1);
  return execute(R, &Helper, TracePrefix);
}

SimResponse offchip::executeRequest(const SimRequest &R, ThreadPool &Helpers) {
  return execute(R, &Helpers, "");
}
