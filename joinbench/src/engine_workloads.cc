// The two engine workloads. Both run one query at a time on the calling
// thread, unsharded, through the RunJoin facade, over indexes built at
// set-up (the paper assumes the data already sits in B-trees).
//
//   worst-case         AGM- and fhtw-tight inputs, and the KB-bound MSB
//                      triangles (Figure 6 and Figure 5 over B-trees), on
//                      tetris-preloaded (plus the Balance lift on the
//                      smaller ones): the time goes to KB lookup,
//                      resolution and KB insert; the index layer only
//                      enumerates gaps once.
//   beyond-worst-case  large-N, small-certificate inputs on
//                      tetris-reloaded over B-trees, k-d trees, quad-trees
//                      and a multi-index far larger than a core's L2: the
//                      only workload whose queries probe indexes
//                      (GapsContaining), with a KB of a few thousand boxes.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/join_engine.h"
#include "engine/join_runner.h"
#include "hash_join.h"
#include "index/dyadic_index.h"
#include "index/kdtree_index.h"
#include "index/multi_index.h"
#include "index/sorted_index.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace joinbench {
namespace {

using tetris::EngineKind;
using tetris::Index;
using tetris::JoinQuery;
using tetris::Relation;
using tetris::Tuple;

enum class Expect { kGrid, kEmpty, kHashJoin };

// One generated input, loaded (shuffled rows, canonicalized) and bound.
struct Instance {
  std::string label;
  std::vector<std::unique_ptr<Relation>> rels;
  JoinQuery query = JoinQuery::Build({});
  int depth = 0;
  std::vector<int> sao;  // empty: the engine's default
  Expect expect = Expect::kHashJoin;
  uint64_t grid_m = 0;
  int stripes_log2 = -1;  // striped instances: the planted stripe count
  int width = 0;          // striped instances: treewidth of the query
};

// One entry of the query mix: an instance, an engine and its indexes.
struct Entry {
  std::string label;
  const Instance* inst = nullptr;
  EngineKind engine = EngineKind::kTetrisPreloaded;
  std::vector<std::unique_ptr<Index>> owned;
  std::vector<std::unique_ptr<Index>> traced;
  std::vector<const Index*> plain_ptrs;
  std::vector<const Index*> traced_ptrs;
  uint64_t expect_fp = 0;
  size_t expect_count = 0;
};

struct SetupTimes {
  double total_s = 0;
  double canonicalize_ms = 0;
  double build_ns = 0;
  double rows_indexed = 0;
  double index_bytes = 0;
};

struct Workload {
  std::vector<std::unique_ptr<Instance>> instances;
  std::vector<Entry> entries;
};

// Builds the instance the way a loader ingesting unsorted rows would:
// the generated rows in a seeded random order, then Canonicalize (timed
// as the relation layer).
std::unique_ptr<Instance> Load(std::string label,
                               const std::vector<const Relation*>& generated,
                               int depth, uint64_t seed, SetupTimes* times) {
  auto inst = std::make_unique<Instance>();
  inst->label = std::move(label);
  tetris::Rng rng(seed);
  std::vector<const Relation*> bound;
  for (const Relation* g : generated) {
    std::vector<size_t> order(g->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    auto rel = std::make_unique<Relation>(g->name(), g->attrs());
    rel->Reserve(g->size());
    for (size_t i : order) rel->AddRow(g->row(i).data());
    const auto t0 = Clock::now();
    rel->Canonicalize();
    times->canonicalize_ms += MsSince(t0);
    bound.push_back(rel.get());
    inst->rels.push_back(std::move(rel));
  }
  inst->query = JoinQuery::Build(bound);
  inst->depth = depth > 0 ? depth : inst->query.MinDepth();
  return inst;
}

std::unique_ptr<Instance> LoadGenerated(std::string label,
                                        const tetris::QueryInstance& qi,
                                        uint64_t seed, SetupTimes* times) {
  std::vector<const Relation*> gen;
  for (const auto& r : qi.storage) gen.push_back(r.get());
  return Load(std::move(label), gen, qi.depth, seed, times);
}

// The full m x m grid on every edge of a 4-cycle: output [0,m)^4.
std::unique_ptr<Instance> GridCycle(uint64_t m, uint64_t seed,
                                    SetupTimes* times) {
  std::vector<Tuple> grid;
  for (uint64_t a = 0; a < m; ++a) {
    for (uint64_t b = 0; b < m; ++b) grid.push_back({a, b});
  }
  const Relation r = Relation::Make("R", {"A", "B"}, grid);
  const Relation s = Relation::Make("S", {"B", "C"}, grid);
  const Relation t = Relation::Make("T", {"C", "D"}, grid);
  const Relation u = Relation::Make("U", {"D", "A"}, grid);
  auto inst = Load("grid-4cycle m=" + std::to_string(m), {&r, &s, &t, &u}, 0,
                   seed, times);
  inst->expect = Expect::kGrid;
  inst->grid_m = m;
  return inst;
}

// The Appendix B bowtie R(A) ⋈ S(A,B) ⋈ T(B): S holds only low-half A
// values and R only high-half ones, so the join is empty and an index
// that can read S A-first certifies it with O(1) gaps.
std::unique_ptr<Instance> Bowtie(size_t n, int d, uint64_t seed,
                                 SetupTimes* times) {
  tetris::Rng rng(seed);
  const uint64_t dom = uint64_t{1} << d;
  const uint64_t half = dom / 2;
  Relation r("R", {"A"}), s("S", {"A", "B"}), t("T", {"B"});
  for (size_t i = 0; i < n; ++i) {
    s.Add({rng.Below(half), rng.Below(dom)});
    r.Add({half + rng.Below(half)});
    t.Add({rng.Below(dom)});
  }
  auto inst = Load("bowtie N=" + std::to_string(n), {&r, &s, &t}, d,
                   seed + 1, times);
  inst->expect = Expect::kEmpty;
  inst->sao = {0, 1};
  return inst;
}

// Index builders; each returns one index per atom and adds its build
// time, indexed rows and resident bytes to `times`.
using IndexMaker = std::function<std::vector<std::unique_ptr<Index>>(
    const Instance&)>;

std::vector<std::unique_ptr<Index>> Timed(const Instance& inst,
                                          const IndexMaker& make,
                                          size_t structures_per_row,
                                          SetupTimes* times) {
  const auto t0 = Clock::now();
  auto idx = make(inst);
  times->build_ns += MsSince(t0) * 1e6;
  for (size_t i = 0; i < idx.size(); ++i) {
    times->index_bytes += static_cast<double>(idx[i]->MemoryBytes());
    const size_t rows = inst.rels[i]->size();
    // A multi-index over S builds two structures over the same rows.
    times->rows_indexed += static_cast<double>(
        rows * (i == 1 ? structures_per_row : 1));
  }
  return idx;
}

std::vector<std::unique_ptr<Index>> SaoIndexes(const Instance& inst) {
  std::vector<int> sao = inst.sao;
  if (sao.empty()) sao = inst.query.AcyclicSao();
  return tetris::MakeSaoConsistentIndexes(inst.query, sao, inst.depth);
}

std::vector<std::unique_ptr<Index>> QuadTrees(const Instance& inst) {
  std::vector<std::unique_ptr<Index>> v;
  for (const auto& r : inst.rels) {
    v.push_back(std::make_unique<tetris::DyadicTreeIndex>(*r, inst.depth));
  }
  return v;
}

// The bowtie's S index is the variable part; R and T get plain B-trees.
IndexMaker BowtieWith(std::function<std::unique_ptr<Index>(const Relation&, int)>
                          make_s) {
  return [make_s](const Instance& inst) {
    std::vector<std::unique_ptr<Index>> v;
    v.push_back(std::make_unique<tetris::SortedIndex>(*inst.rels[0], inst.depth));
    v.push_back(make_s(*inst.rels[1], inst.depth));
    v.push_back(std::make_unique<tetris::SortedIndex>(*inst.rels[2], inst.depth));
    return v;
  };
}

void AddEntry(Workload* w, const Instance* inst, EngineKind engine,
              std::string index_label,
              std::vector<std::unique_ptr<Index>> indexes) {
  Entry e;
  e.label = inst->label + " " + tetris::EngineKindName(engine) +
            (index_label.empty() ? "" : " [" + index_label + "]");
  e.inst = inst;
  e.engine = engine;
  e.owned = std::move(indexes);
  for (const auto& ix : e.owned) {
    e.plain_ptrs.push_back(ix.get());
    e.traced.push_back(std::make_unique<TracedIndex>(ix.get()));
    e.traced_ptrs.push_back(e.traced.back().get());
  }
  w->entries.push_back(std::move(e));
}

// ---- worst-case ----------------------------------------------------------

constexpr uint64_t kGridTriangleM = 32;
constexpr uint64_t kGridCycleM = 14;
constexpr size_t kRandomTriangleN = 4000;
constexpr int kRandomTriangleD = 10;
constexpr size_t kRandomCycleN = 2000;
constexpr int kRandomCycleD = 9;
constexpr int kMsbClosedD = 5;  // non-empty Figure 6 variant
constexpr int kMsbBtreeD = 7;   // Figure 5 over B-trees: 3 * 2^d gaps
constexpr uint64_t kLbGridM = 16;
constexpr size_t kLbRandomTriangleN = 1000;
constexpr int kLbRandomTriangleD = 8;

void BuildWorstCase(uint64_t seed, Workload* w, SetupTimes* times) {
  using tetris::FullGridTriangle;
  auto add = [&](std::unique_ptr<Instance> inst) {
    w->instances.push_back(std::move(inst));
    return w->instances.back().get();
  };
  Instance* grid3 = add(LoadGenerated(
      "grid-triangle m=" + std::to_string(kGridTriangleM),
      FullGridTriangle(kGridTriangleM), seed, times));
  grid3->expect = Expect::kGrid;
  grid3->grid_m = kGridTriangleM;
  Instance* grid4 = add(GridCycle(kGridCycleM, seed + 1, times));
  Instance* tri1 = add(LoadGenerated(
      "random-triangle#1 N=" + std::to_string(kRandomTriangleN),
      tetris::RandomTriangle(kRandomTriangleN, kRandomTriangleD, seed * 7 + 1),
      seed + 2, times));
  Instance* tri2 = add(LoadGenerated(
      "random-triangle#2 N=" + std::to_string(kRandomTriangleN),
      tetris::RandomTriangle(kRandomTriangleN, kRandomTriangleD, seed * 7 + 4),
      seed + 3, times));
  Instance* cyc = add(LoadGenerated(
      "random-4cycle N=" + std::to_string(kRandomCycleN),
      tetris::RandomCycle(4, kRandomCycleN, kRandomCycleD, seed * 7 + 2),
      seed + 4, times));
  Instance* lb_grid = add(LoadGenerated(
      "grid-triangle m=" + std::to_string(kLbGridM),
      FullGridTriangle(kLbGridM), seed + 5, times));
  lb_grid->expect = Expect::kGrid;
  lb_grid->grid_m = kLbGridM;
  Instance* lb_tri = add(LoadGenerated(
      "random-triangle N=" + std::to_string(kLbRandomTriangleN),
      tetris::RandomTriangle(kLbRandomTriangleN, kLbRandomTriangleD,
                             seed * 7 + 3),
      seed + 6, times));
  // The MSB triangles whose certificate is large: Figure 6's closed
  // variant (output-heavy) and Figure 5 over B-trees (one gap per key).
  Instance* fig6 = add(LoadGenerated(
      "msb-triangle-closed d=" + std::to_string(kMsbClosedD),
      tetris::MsbTriangle(kMsbClosedD, true), seed + 7, times));
  fig6->sao = fig6->query.MinWidthSao();
  Instance* fig5_btree = add(LoadGenerated(
      "msb-triangle d=" + std::to_string(kMsbBtreeD),
      tetris::MsbTriangle(kMsbBtreeD, false), seed + 8, times));
  fig5_btree->expect = Expect::kEmpty;
  fig5_btree->sao = fig5_btree->query.MinWidthSao();
  for (Instance* inst : {grid3, grid4, tri1, tri2, cyc, fig5_btree}) {
    AddEntry(w, inst, EngineKind::kTetrisPreloaded, "",
             Timed(*inst, SaoIndexes, 1, times));
  }
  AddEntry(w, fig6, EngineKind::kTetrisPreloaded, "quad-tree",
           Timed(*fig6, QuadTrees, 1, times));
  for (Instance* inst : {lb_grid, lb_tri}) {
    AddEntry(w, inst, EngineKind::kTetrisPreloadedLB, "",
             Timed(*inst, SaoIndexes, 1, times));
  }
}

// ---- beyond-worst-case ---------------------------------------------------

constexpr int kStripesLog2 = 8;
constexpr size_t kStripedN = 100000;
constexpr int kStripedD = 20;
constexpr int kMsbEmptyD = 9;    // 2^17 tuples per relation
constexpr size_t kBowtieN = 100000;
constexpr int kBowtieD = 20;
// The certificate check reruns the striped inputs at N / kShrink.
constexpr size_t kShrink = 16;

std::unique_ptr<Instance> StripedPath(size_t n, uint64_t seed,
                                      SetupTimes* times) {
  auto inst = LoadGenerated(
      "striped-path N=" + std::to_string(n),
      tetris::StripedEmptyPath(kStripesLog2, n, kStripedD, seed), seed + 1,
      times);
  inst->expect = Expect::kEmpty;
  inst->sao = {1, 0, 2};  // B first: the stripes carry the certificate
  inst->stripes_log2 = kStripesLog2;
  inst->width = 1;
  return inst;
}

std::unique_ptr<Instance> StripedCycle(size_t n, uint64_t seed,
                                       SetupTimes* times) {
  auto inst = LoadGenerated(
      "striped-4cycle N=" + std::to_string(n),
      tetris::StripedEmptyCycle(kStripesLog2, n, kStripedD, seed), seed + 1,
      times);
  inst->expect = Expect::kEmpty;
  inst->sao = {1, 3, 0, 2};  // the striped attributes A1, A3 first
  inst->stripes_log2 = kStripesLog2;
  inst->width = 2;
  return inst;
}

void BuildBeyondWorstCase(uint64_t seed, Workload* w, SetupTimes* times) {
  auto add = [&](std::unique_ptr<Instance> inst) {
    w->instances.push_back(std::move(inst));
    return w->instances.back().get();
  };
  Instance* path = add(StripedPath(kStripedN, seed * 5 + 1, times));
  Instance* cyc = add(StripedCycle(kStripedN, seed * 5 + 2, times));
  Instance* fig5 = add(LoadGenerated(
      "msb-triangle d=" + std::to_string(kMsbEmptyD),
      tetris::MsbTriangle(kMsbEmptyD, false), seed + 3, times));
  fig5->expect = Expect::kEmpty;
  Instance* bow = add(Bowtie(kBowtieN, kBowtieD, seed * 5 + 5, times));
  const EngineKind rl = EngineKind::kTetrisReloaded;
  for (Instance* inst : {path, cyc}) {
    AddEntry(w, inst, rl, "", Timed(*inst, SaoIndexes, 1, times));
  }
  // Figure 5: six dyadic gap boxes certify the empty join, which only a
  // quad-tree exposes (a B-tree needs one gap per key; that variant runs
  // in worst-case).
  fig5->sao = fig5->query.MinWidthSao();
  AddEntry(w, fig5, rl, "quad-tree", Timed(*fig5, QuadTrees, 1, times));
  AddEntry(w, bow, rl, "btree(A,B)", Timed(*bow, SaoIndexes, 1, times));
  AddEntry(w, bow, rl, "kd-tree",
           Timed(*bow,
                 BowtieWith([](const Relation& r, int d) {
                   return std::make_unique<tetris::KdTreeIndex>(r, d, 4);
                 }),
                 1, times));
  AddEntry(w, bow, rl, "quad-tree",
           Timed(*bow,
                 BowtieWith([](const Relation& r, int d) {
                   return std::make_unique<tetris::DyadicTreeIndex>(r, d);
                 }),
                 1, times));
  AddEntry(w, bow, rl, "multi-index",
           Timed(*bow,
                 BowtieWith([](const Relation& r, int d) {
                   std::vector<std::unique_ptr<Index>> parts;
                   parts.push_back(std::make_unique<tetris::SortedIndex>(
                       r, std::vector<int>{0, 1}, d));
                   parts.push_back(std::make_unique<tetris::SortedIndex>(
                       r, std::vector<int>{1, 0}, d));
                   return std::make_unique<tetris::MultiIndex>(std::move(parts));
                 }),
                 2, times));
}

// ---- shared driver -------------------------------------------------------

tetris::EngineResult Execute(const Entry& e, bool traced) {
  tetris::EngineOptions opt;
  opt.indexes = traced ? e.traced_ptrs : e.plain_ptrs;
  opt.depth = e.inst->depth;
  if (e.engine != EngineKind::kTetrisPreloadedLB &&
      e.engine != EngineKind::kTetrisReloadedLB) {
    opt.order = e.inst->sao;
  }
  return tetris::RunJoin(e.inst->query, e.engine, opt);
}

// The expected output, computed apart from the library.
void ComputeExpectation(Entry* e) {
  const Instance& inst = *e->inst;
  std::vector<Tuple> expect;
  if (inst.expect == Expect::kGrid) {
    const size_t k = static_cast<size_t>(inst.query.num_attrs());
    Tuple t(k, 0);
    for (;;) {  // odometer over [0,m)^k, emitted in sorted order
      expect.push_back(t);
      size_t i = k;
      while (i > 0 && ++t[i - 1] == inst.grid_m) t[--i] = 0;
      if (i == 0) break;
    }
  } else if (inst.expect == Expect::kHashJoin) {
    std::vector<NamedRows> rows;
    for (const auto& r : inst.rels) rows.push_back(RowsOf(*r));
    expect = HashJoin(rows);
  }
  e->expect_fp = Fingerprint(expect);
  e->expect_count = expect.size();
}

using Builder = void (*)(uint64_t, Workload*, SetupTimes*);

void RunEngineWorkload(const Args& args, Builder build, Report* report) {
  // Set-up is repeated at least kMinSetupReps times and until a second of
  // it has been timed, and the median is reported: one set-up of the
  // worst-case inputs takes ~40 ms, too short to time once.
  constexpr int kMinSetupReps = 5;
  constexpr int kMaxSetupReps = 100;
  std::vector<double> setup_s, canon_ms, build_ns_per_row;
  Workload w;
  SetupTimes kept;
  double setup_total_s = 0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || setup_total_s < 1.0);
       ++rep) {
    Workload fresh;
    SetupTimes times;
    const auto t0 = Clock::now();
    build(args.seed, &fresh, &times);
    times.total_s = MsSince(t0) / 1e3;
    setup_s.push_back(times.total_s);
    setup_total_s += times.total_s;
    canon_ms.push_back(times.canonicalize_ms);
    build_ns_per_row.push_back(times.build_ns / times.rows_indexed);
    w = std::move(fresh);
    kept = times;
  }
  for (Entry& e : w.entries) ComputeExpectation(&e);

  Tracer::Reset();
  std::vector<double> lat_ms, lb_ms;
  // Traced run: per entry, the share of its query time spent in probes.
  std::vector<double> entry_ms(w.entries.size()), entry_probe_ns(w.entries.size());
  double timed_ms = 0;
  int64_t queries = 0, failed = 0, rounds = 0;
  tetris::TetrisStats tstats;
  int64_t oracle_probes = 0, input_gap_boxes = 0, kb_peak = 0;
  const auto start = Clock::now();
  while (MsSince(start) < args.seconds * 1e3) {
    for (size_t ei = 0; ei < w.entries.size(); ++ei) {
      const Entry& e = w.entries[ei];
      Tracer::SetRequest(queries);
      const int64_t probe_ns0 =
          args.trace ? Tracer::LocalSpans("index.GapsContaining").total_ns : 0;
      const auto t0 = Clock::now();
      tetris::EngineResult r;
      {
        ScopedSpan span("engine.RunJoin");
        r = Execute(e, args.trace);
      }
      const double ms = MsSince(t0);
      entry_ms[ei] += ms;
      if (args.trace) {
        entry_probe_ns[ei] +=
            Tracer::LocalSpans("index.GapsContaining").total_ns - probe_ns0;
      }
      ++queries;
      timed_ms += ms;
      lat_ms.push_back(ms);
      if (e.engine == EngineKind::kTetrisPreloadedLB) lb_ms.push_back(ms);
      if (!r.ok) {
        ++failed;
        continue;
      }
      if (r.tuples.size() != e.expect_count ||
          Fingerprint(r.tuples) != e.expect_fp) {
        report->Fail(e.label + ": output differs from the expected " +
                     std::to_string(e.expect_count) + " tuples (got " +
                     std::to_string(r.tuples.size()) + ")");
      }
      tstats.Accumulate(r.stats.tetris);
      kb_peak = std::max(kb_peak, r.stats.tetris.kb_peak_bytes);
      oracle_probes += r.stats.oracle_probes;
      input_gap_boxes += static_cast<int64_t>(r.stats.input_gap_boxes);
    }
    ++rounds;
  }
  report->attempted["query"] = queries;
  report->failed["query"] = failed;
  const double nq = static_cast<double>(queries);
  const double qps = nq / (timed_ms / 1e3);

  // Certificate bound (§4.4), outside the timed region: at a fixed stripe
  // count, reloaded resolutions stay within |C|^{w+1} and do not grow
  // with N. |C| is the planted certificate: one band per stripe in each
  // of the two striped relations.
  for (const Entry& e : w.entries) {
    if (e.inst->stripes_log2 < 0) continue;
    SetupTimes scratch;
    const size_t small_n = kStripedN / kShrink;
    const uint64_t s = args.seed * 5 + (e.inst->width == 1 ? 1 : 2);
    auto small = e.inst->width == 1 ? StripedPath(small_n, s, &scratch)
                                    : StripedCycle(small_n, s, &scratch);
    Workload tmp;
    AddEntry(&tmp, small.get(), e.engine, "", SaoIndexes(*small));
    const int64_t res_small = Execute(tmp.entries[0], false).stats.tetris.resolutions;
    const int64_t res_big = Execute(e, false).stats.tetris.resolutions;
    const double cert = 2.0 * static_cast<double>(1 << e.inst->stripes_log2);
    const double bound = std::pow(cert, e.inst->width + 1);
    report->Detail("resolutions." + e.inst->label, static_cast<double>(res_big));
    report->Detail("resolutions_at_N/16." + e.inst->label,
                   static_cast<double>(res_small));
    if (static_cast<double>(res_big) > bound) {
      report->Fail(e.label + ": " + std::to_string(res_big) +
                   " resolutions exceed |C|^(w+1) = " + std::to_string(bound));
    }
    if (res_big > res_small) {
      report->Fail(e.label + ": resolutions grew with N (" +
                   std::to_string(res_small) + " at N/" +
                   std::to_string(kShrink) + ", " + std::to_string(res_big) +
                   " at N)");
    }
  }

  report->Detail("setup_reps", static_cast<double>(setup_s.size()));
  report->Detail("queries", nq);
  report->Detail("rounds", static_cast<double>(rounds));
  report->Detail("resolutions_per_query",
                 static_cast<double>(tstats.resolutions) / nq);
  if (queries >= 1000) report->Detail("query_ms_p99", Quantile(lat_ms, 0.99));
  for (size_t i = 0; i < w.entries.size(); ++i) {
    std::vector<double> mine;
    for (size_t j = i; j < lat_ms.size(); j += w.entries.size()) {
      mine.push_back(lat_ms[j]);
    }
    report->Detail("ms_p50." + w.entries[i].label, Quantile(mine, 0.5));
    if (args.trace) {
      report->Detail("probe_share." + w.entries[i].label,
                     entry_probe_ns[i] / 1e6 / entry_ms[i]);
    }
  }

  if (!args.trace) {
    report->Set("setup_s", Quantile(setup_s, 0.5), "s");
    report->Set("queries_per_s", qps, "1/s");
    report->Set("query_ms_p50", Quantile(lat_ms, 0.5), "ms");
    report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }

  // Traced run: per-layer metrics from spans and the program's counters.
  const auto spans = Tracer::Spans();
  const auto counters = Tracer::Counters();
  auto span = [&](const char* n) {
    auto it = spans.find(n);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  auto counter = [&](const char* n) {
    auto it = counters.find(n);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const SpanTotals probe = span("index.GapsContaining");
  const SpanTotals all_gaps = span("index.AllGaps");
  const SpanTotals intersecting = span("index.GapsIntersecting");
  const SpanTotals run = span("engine.RunJoin");
  const double probes = static_cast<double>(probe.count);

  // ns per resolution is taken from one untraced pass over the mix.
  double untraced_ms = 0;
  int64_t untraced_res = 0;
  for (const Entry& e : w.entries) {
    const auto t0 = Clock::now();
    tetris::EngineResult r = Execute(e, false);
    untraced_ms += MsSince(t0);
    untraced_res += r.stats.tetris.resolutions;
  }

  report->Set("relation.canonicalize_ms", Quantile(canon_ms, 0.5), "ms");
  report->Set("index.build_ns_per_row", Quantile(build_ns_per_row, 0.5), "ns");
  report->Set("index.bytes_per_row", ratio(kept.index_bytes, kept.rows_indexed),
              "bytes");
  report->Set("index.probes_per_query", probes / nq, "count");
  report->Set("index.probe_ns", ratio(static_cast<double>(probe.total_ns), probes),
              "ns");
  report->Set("index.gaps_per_probe", ratio(counter("index.probe_gaps"), probes),
              "count");
  report->Set("index.enumerate_ms_per_query",
              static_cast<double>(all_gaps.total_ns + intersecting.total_ns) /
                  1e6 / nq,
              "ms");
  report->Set("index.enumerations_per_gap_box",
              ratio(counter("index.enumerated_gaps"),
                    static_cast<double>(input_gap_boxes)),
              "ratio");
  report->Set("kb.inserts_per_query", static_cast<double>(tstats.kb_inserts) / nq,
              "count");
  report->Set("kb.boxes_loaded_per_query",
              static_cast<double>(tstats.boxes_loaded) / nq, "count");
  report->Set("kb.peak_bytes", static_cast<double>(kb_peak), "bytes");
  report->Set("engine.tetris.self_ms_per_query",
              static_cast<double>(run.self_ns) / 1e6 / nq, "ms");
  report->Set("engine.tetris.ns_per_resolution",
              ratio(untraced_ms * 1e6, static_cast<double>(untraced_res)), "ns");
  report->Set("engine.tetris.skeleton_nodes_per_query",
              static_cast<double>(tstats.skeleton_nodes) / nq, "count");
  report->Set("engine.tetris.resolutions_per_query",
              static_cast<double>(tstats.resolutions) / nq, "count");
  report->Set("engine.join_runner.oracle_probes_per_query",
              static_cast<double>(oracle_probes) / nq, "count");
  report->Set("engine.balance.query_ms_p50", Quantile(lb_ms, 0.5), "ms");
  report->Set("trace.queries_per_s", qps, "1/s");
}

}  // namespace

void RunWorstCase(const Args& args, Report* report) {
  RunEngineWorkload(args, BuildWorstCase, report);
}

void RunBeyondWorstCase(const Args& args, Report* report) {
  RunEngineWorkload(args, BuildBeyondWorstCase, report);
}

}  // namespace joinbench
