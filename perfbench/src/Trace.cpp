//===- perfbench/src/Trace.cpp --------------------------------------------===//

#include "Trace.h"

#include "Host.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

using namespace perfbench;

namespace {

std::atomic<bool> Enabled{false};
std::atomic<std::uint64_t> NextGroup{1};
std::mutex Mu;
std::vector<Span> Spans; // guarded by Mu
/// Spans open on this thread, innermost last.
thread_local std::vector<std::size_t> Open;

std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

} // namespace

void trace::enable() { Enabled.store(true); }
bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

std::uint64_t trace::newGroup() { return NextGroup.fetch_add(1); }

std::size_t trace::begin(const char *Name, std::uint64_t Group) {
  Span S;
  S.Name = Name;
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Open.empty()) {
    S.Parent = static_cast<std::int64_t>(Open.back());
    if (Group == 0)
      Group = Spans[Open.back()].Group;
  }
  S.Group = Group;
  S.Start = nowSeconds();
  Spans.push_back(std::move(S));
  Open.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void trace::end(std::size_t Index) {
  double T = nowSeconds();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Index].End = T;
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

std::vector<Span> trace::spans() {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

std::map<std::string, double> trace::selfSecondsByLayer() {
  std::vector<Span> All = spans();
  std::vector<double> Self(All.size());
  for (std::size_t I = 0; I < All.size(); ++I)
    Self[I] = All[I].End - All[I].Start;
  for (const Span &S : All)
    if (S.Parent >= 0)
      Self[static_cast<std::size_t>(S.Parent)] -= S.End - S.Start;
  std::map<std::string, double> ByLayer;
  for (std::size_t I = 0; I < All.size(); ++I)
    ByLayer[layerOf(All[I].Name)] += std::max(0.0, Self[I]);
  return ByLayer;
}

bool trace::write(const std::string &Path) {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double Origin = All.empty() ? 0.0 : All.front().Start;
  std::fputs("[\n", F);
  for (std::size_t I = 0; I < All.size(); ++I)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"group\":%llu,\"parent\":%lld,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 All[I].Name.c_str(),
                 static_cast<unsigned long long>(All[I].Group),
                 static_cast<long long>(All[I].Parent),
                 (All[I].Start - Origin) * 1e6, (All[I].End - Origin) * 1e6,
                 I + 1 < All.size() ? "," : "");
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}
