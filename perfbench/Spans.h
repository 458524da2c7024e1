//===- perfbench/Spans.h - In-memory layer spans of traced runs -*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The benchmark wraps each call into a
/// layer (generateProgram, parseSource, ConstraintGenerator::run, finalize,
/// ServerCore::addLine, ReadView::build, ...) in a span: name, start, end,
/// parent and operation id, kept in memory on one thread and written out
/// as Chrome trace events when the run ends. A layer's self time is its
/// span's duration minus the time its direct children cover.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_PERFBENCH_SPANS_H
#define POCE_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace poce {
namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanRecorder {
public:
  struct Span {
    const char *Name; ///< A string literal: the layer call it wraps.
    uint64_t StartNs = 0, EndNs = 0;
    int64_t Parent = -1; ///< Index of the enclosing span, -1 at the root.
    uint64_t Op = 0;     ///< Operation id shared by one request's spans.
    uint64_t ChildNs = 0; ///< Time covered by direct children.
  };

  /// Opens a span under the innermost open one; returns its index.
  size_t begin(const char *Name, uint64_t Op) {
    Span S;
    S.Name = Name;
    S.Op = Op;
    S.Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
    Spans.push_back(S);
    Open.push_back(Spans.size() - 1);
    Spans.back().StartNs = nowNs();
    return Spans.size() - 1;
  }

  /// Closes the innermost span, which must be \p Index.
  void end(size_t Index) {
    Span &S = Spans[Index];
    S.EndNs = nowNs();
    Open.pop_back();
    if (S.Parent >= 0)
      Spans[static_cast<size_t>(S.Parent)].ChildNs += S.EndNs - S.StartNs;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Durations (ns) of every span named \p Name, in recording order.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (Name == S.Name)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
    return Out;
  }

  /// Self time (ns) summed per span name.
  std::map<std::string, uint64_t> selfTimes() const {
    std::map<std::string, uint64_t> Out;
    for (const Span &S : Spans)
      Out[S.Name] += (S.EndNs - S.StartNs) - S.ChildNs;
    return Out;
  }

  /// Writes every span as a Chrome trace-event ("ph":"X") JSON file.
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *File = std::fopen(Path.c_str(), "w");
    if (!File)
      return false;
    uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
    std::fprintf(File, "{\"traceEvents\": [\n");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(File,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %lld, \"op\": %llu}}\n",
                   I ? "," : "", S.Name, (S.StartNs - Origin) / 1e3,
                   (S.EndNs - S.StartNs) / 1e3, I,
                   static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.Op));
    }
    std::fprintf(File, "]}\n");
    return std::fclose(File) == 0;
  }

private:
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes it a no-op, so untraced code paths share the call sites.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *Rec, const char *Name, uint64_t Op = 0)
      : Rec(Rec), Index(Rec ? Rec->begin(Name, Op) : 0) {}
  ~ScopedSpan() {
    if (Rec)
      Rec->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *Rec;
  size_t Index;
};

} // namespace perfbench
} // namespace poce

#endif // POCE_PERFBENCH_SPANS_H
