//===- trace.h - In-memory span recorder for the benchmark ------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans around the library's public pipeline calls, recorded from the
/// benchmark's side of each call: name, start, end, parent span, and the id
/// of the program or request the span belongs to. Spans stay in memory
/// until the run ends. A disabled tracer reads no clock and stores nothing,
/// so untraced runs pay one branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_PERFBENCH_TRACE_H
#define SPECAI_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
inline double now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Origin).count();
}

class Tracer {
public:
  struct Span {
    const char *Name = "";
    double Start = 0;
    double End = 0;
    int32_t Parent = -1;
    uint64_t Id = 0;
  };

  /// Closes its span on destruction; inert when the tracer is off.
  class Scope {
  public:
    Scope(Tracer *T, const char *Name, uint64_t Id) : T(T) {
      if (!T)
        return;
      Index = static_cast<int32_t>(T->Spans.size());
      T->Spans.push_back({Name, now(), 0, T->Open, Id});
      T->Open = Index;
    }
    ~Scope() {
      if (!T)
        return;
      T->Spans[Index].End = now();
      T->Open = T->Spans[Index].Parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int32_t Index = -1;
  };

  explicit Tracer(bool On) : On(On) {}

  bool on() const { return On; }

  /// Opens a span that lasts until the returned scope dies.
  Scope span(const char *Name, uint64_t Id) {
    return Scope(On ? this : nullptr, Name, Id);
  }

  /// Adds a top-level span timed elsewhere, e.g. on a client thread.
  void record(const char *Name, double Start, double End, uint64_t Id) {
    if (On)
      Spans.push_back({Name, Start, End, -1, Id});
  }

  /// Adds \p By to the boundary counter \p Name (traced runs only).
  void count(const std::string &Name, double By) {
    if (On)
      Counts[Name] += By;
  }
  double counter(const std::string &Name) const {
    auto It = Counts.find(Name);
    return It == Counts.end() ? 0 : It->second;
  }

  /// Per span name: total duration minus the part its child spans cover.
  std::map<std::string, double> selfSeconds() const;

  /// Per id: self seconds by span name, for spans whose nearest ancestor
  /// named \p Group carries that id (one row per program).
  std::map<uint64_t, std::map<std::string, double>>
  selfSecondsBy(const char *Group) const;

  /// Writes one JSON object per span to \p Path. False on I/O failure.
  bool write(const std::string &Path) const;

private:
  bool On;
  int32_t Open = -1;
  std::vector<Span> Spans;
  std::map<std::string, double> Counts;
};

} // namespace perfbench

#endif // SPECAI_PERFBENCH_TRACE_H
