// Span recorder and the tracing Index decorator of the traced run.
//
// A span is one call into a layer: name, start, end, parent span and the
// request (operation) id it serves. Each thread keeps its own open-span
// stack, so a span's parent is the span open around it on that thread.
// Spans stay in memory (up to a cap; the per-name aggregates are exact
// regardless) and are written out when the run ends. A span's self time
// is its duration minus the part its child spans cover.
//
// Nothing here is compiled into the library: spans are taken around the
// calls the benchmark makes into the library's public functions, and
// around Index probes through TracedIndex, which the traced run passes
// to the engine through EngineOptions::indexes in place of the plain
// indexes the untraced run passes.
#ifndef JOINBENCH_TRACE_H_
#define JOINBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "index/index.h"

namespace joinbench {

struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  /// Turns recording on for the whole process (before any thread starts).
  static void Enable();
  static bool enabled() { return enabled_; }
  /// Request id stamped on the spans this thread opens from now on.
  static void SetRequest(int64_t id);
  static void Begin(const char* name);
  static void End();
  /// Adds `n` to the named counter of this thread.
  static void Count(const char* name, int64_t n);
  /// Per-name totals merged over all threads. Call once threads are done.
  static std::map<std::string, SpanTotals> Spans();
  static std::map<std::string, int64_t> Counters();
  /// This thread's totals for one span name so far.
  static SpanTotals LocalSpans(const char* name);
  /// Zeroes every aggregate and drops the recorded spans (used to keep
  /// set-up work out of the timed run's figures).
  static void Reset();
  /// Writes the kept spans as JSON lines; returns the number written.
  static size_t WriteSpans(const std::string& path);

 private:
  static bool enabled_;
};

/// RAII span; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : on_(Tracer::enabled()) {
    if (on_) Tracer::Begin(name);
  }
  ~ScopedSpan() {
    if (on_) Tracer::End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

/// Index decorator: forwards every call to `inner` inside a span and
/// counts probes and the gap boxes they return.
class TracedIndex : public tetris::Index {
 public:
  explicit TracedIndex(const tetris::Index* inner) : inner_(inner) {}

  int arity() const override { return inner_->arity(); }
  int depth() const override { return inner_->depth(); }
  bool Contains(const tetris::Tuple& t) const override;
  void GapsContaining(const tetris::Tuple& t,
                      std::vector<tetris::DyadicBox>* out) const override;
  void AllGaps(std::vector<tetris::DyadicBox>* out) const override;
  void GapsIntersecting(const tetris::DyadicBox& box,
                        std::vector<tetris::DyadicBox>* out) const override;
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  std::string Describe() const override { return inner_->Describe(); }

 private:
  const tetris::Index* inner_;
};

}  // namespace joinbench

#endif  // JOINBENCH_TRACE_H_
