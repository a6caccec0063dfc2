//===- perfbench/src/Trace.h - In-memory spans ------------------*- C++ -*-===//
///
/// \file
/// The traced run's span recorder. A span has a name ("<layer>.<call>"), a
/// start, an end, the span that was open on the same thread when it began
/// (its parent) and a group id shared by every span of one sample or
/// request. Spans stay in memory and are written once, at exit. Recording
/// is off unless enable() was called, so the gated run pays one branch per
/// span site.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  std::uint64_t Group = 0;
  /// Index of the parent span, -1 for a root.
  std::int64_t Parent = -1;
  double Start = 0.0; // steady-clock seconds
  double End = 0.0;
};

namespace trace {

void enable();
bool enabled();

/// Opens a span; \p Group 0 inherits the parent's group. \returns its index.
std::size_t begin(const char *Name, std::uint64_t Group = 0);
void end(std::size_t Index);

/// A fresh group id for one sample or request.
std::uint64_t newGroup();

/// Copy of every recorded span.
std::vector<Span> spans();

/// Per layer (the span name up to its first '.'), the summed self time in
/// seconds: each span's duration minus the part its children cover.
std::map<std::string, double> selfSecondsByLayer();

/// Writes every span as one JSON array. False if the file cannot be
/// written.
bool write(const std::string &Path);

} // namespace trace

/// Records one span over its scope when tracing is on.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, std::uint64_t Group = 0)
      : Active(trace::enabled()),
        Index(Active ? trace::begin(Name, Group) : 0) {}
  ~ScopedSpan() {
    if (Active)
      trace::end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  bool Active;
  std::size_t Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
