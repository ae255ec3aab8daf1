#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace joinbench {
namespace {

// Spans kept per thread for the written trace; aggregates stay exact
// past the cap.
constexpr size_t kKeptSpansPerThread = 200000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t id;
  int64_t parent;  // -1 at the root
  int64_t request;
};

struct Open {
  const char* name;
  int64_t start_ns;
  int64_t id;
  int64_t child_ns;
};

struct ThreadTrace {
  int64_t thread_index = 0;
  int64_t next_id = 0;
  int64_t request = -1;
  std::vector<Open> stack;
  std::vector<Span> spans;
  // Keyed by the literal's address; merged by string in Spans().
  std::map<const char*, SpanTotals> totals;
  std::map<const char*, int64_t> counters;
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;  // guarded by g_mu

ThreadTrace& Local() {
  thread_local ThreadTrace* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::make_unique<ThreadTrace>());
    local = g_threads.back().get();
    local->thread_index = static_cast<int64_t>(g_threads.size() - 1);
  }
  return *local;
}

}  // namespace

bool Tracer::enabled_ = false;

void Tracer::Enable() { enabled_ = true; }

void Tracer::SetRequest(int64_t id) { Local().request = id; }

void Tracer::Begin(const char* name) {
  ThreadTrace& t = Local();
  const int64_t id = (t.thread_index << 40) | t.next_id++;
  t.stack.push_back({name, NowNs(), id, 0});
}

void Tracer::End() {
  const int64_t end = NowNs();
  ThreadTrace& t = Local();
  const Open o = t.stack.back();
  t.stack.pop_back();
  const int64_t dur = end - o.start_ns;
  SpanTotals& agg = t.totals[o.name];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur - o.child_ns;
  const int64_t parent = t.stack.empty() ? -1 : t.stack.back().id;
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (t.spans.size() < kKeptSpansPerThread) {
    t.spans.push_back({o.name, o.start_ns, end, o.id, parent, t.request});
  }
}

void Tracer::Count(const char* name, int64_t n) { Local().counters[name] += n; }

std::map<std::string, SpanTotals> Tracer::Spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, SpanTotals> out;
  for (const auto& t : g_threads) {
    for (const auto& [name, agg] : t->totals) {
      SpanTotals& o = out[name];
      o.count += agg.count;
      o.total_ns += agg.total_ns;
      o.self_ns += agg.self_ns;
    }
  }
  return out;
}

SpanTotals Tracer::LocalSpans(const char* name) {
  const ThreadTrace& t = Local();
  for (const auto& [n, agg] : t.totals) {
    if (std::strcmp(n, name) == 0) return agg;
  }
  return SpanTotals{};
}

std::map<std::string, int64_t> Tracer::Counters() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, int64_t> out;
  for (const auto& t : g_threads) {
    for (const auto& [name, n] : t->counters) out[name] += n;
  }
  return out;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) {
    t->spans.clear();
    t->totals.clear();
    t->counters.clear();
  }
}

size_t Tracer::WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  size_t n = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) {
    for (const Span& s : t->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%lld,\"parent\":%lld,\"request\":%lld}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

bool TracedIndex::Contains(const tetris::Tuple& t) const {
  ScopedSpan span("index.Contains");
  return inner_->Contains(t);
}

void TracedIndex::GapsContaining(const tetris::Tuple& t,
                                 std::vector<tetris::DyadicBox>* out) const {
  const size_t before = out->size();
  {
    ScopedSpan span("index.GapsContaining");
    inner_->GapsContaining(t, out);
  }
  Tracer::Count("index.probe_gaps", static_cast<int64_t>(out->size() - before));
}

void TracedIndex::AllGaps(std::vector<tetris::DyadicBox>* out) const {
  const size_t before = out->size();
  {
    ScopedSpan span("index.AllGaps");
    inner_->AllGaps(out);
  }
  Tracer::Count("index.enumerated_gaps",
                static_cast<int64_t>(out->size() - before));
}

void TracedIndex::GapsIntersecting(const tetris::DyadicBox& box,
                                   std::vector<tetris::DyadicBox>* out) const {
  const size_t before = out->size();
  {
    ScopedSpan span("index.GapsIntersecting");
    inner_->GapsIntersecting(box, out);
  }
  Tracer::Count("index.enumerated_gaps",
                static_cast<int64_t>(out->size() - before));
}

}  // namespace joinbench
