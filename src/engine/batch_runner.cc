#include "engine/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "engine/cost_model.h"
#include "engine/index_cache.h"
#include "engine/parallel_executor.h"
#include "engine/shard_planner.h"
#include "geometry/box_restrict.h"
#include "index/index_view.h"

namespace tetris {

std::string OutputSpaceSignature(
    const JoinQuery& query, int depth,
    const std::function<std::string(const Relation&)>& stamp) {
  std::string sig = std::to_string(depth) + "|" +
                    std::to_string(query.num_attrs());
  for (const Atom& atom : query.atoms()) {
    sig += "|" + stamp(*atom.rel) + ":";
    for (int v : atom.var_ids) sig += std::to_string(v) + ",";
  }
  return sig;
}

namespace {

// RunBatch's plan-sharing signature: OutputSpaceSignature with atoms
// stamped by Relation address. Address identity is exactly right within
// one call (the pool pins every relation) and deliberately NOT durable
// across calls — the server's ResultCache stamps by name@epoch instead.
std::string PlanSignature(const JoinQuery& query, int depth) {
  return OutputSpaceSignature(query, depth, [](const Relation& rel) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%p", static_cast<const void*>(&rel));
    return std::string(buf);
  });
}

// The index layout an atom wants under an order hint: the atom's
// columns sorted by SAO position (join_runner's MakeSaoConsistentIndexes
// derivation), normalized to the empty layout when that comes out as the
// relation's own column order — so hinted and unhinted queries share the
// default-layout entry.
IndexLayout LayoutFor(const Atom& atom, const std::vector<int>& sao_pos,
                      int depth) {
  IndexLayout layout;
  layout.depth = depth;
  if (sao_pos.empty()) return layout;
  std::vector<int> cols(atom.var_ids.size());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = static_cast<int>(c);
  std::sort(cols.begin(), cols.end(), [&](int x, int y) {
    return sao_pos[atom.var_ids[x]] < sao_pos[atom.var_ids[y]];
  });
  bool identity = true;
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c] != static_cast<int>(c)) identity = false;
  }
  if (!identity) layout.columns = std::move(cols);
  return layout;
}

constexpr const char kDeadlineError[] =
    "deadline exceeded: task abandoned before it started";

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Appends `s` to `*note` with "; " separation; no-op when `s` is empty.
void AppendNote(std::string* note, const std::string& s) {
  if (s.empty()) return;
  if (!note->empty()) *note += "; ";
  *note += s;
}

// Shared zero-copy state of one Tetris-family query: base indexes over
// the *original* relations, restricted per shard through IndexViews.
// Shards read the bases concurrently under the Index const-probe
// contract; the bases belong to the index cache or the caller.
struct TetrisShardContext {
  const JoinQuery* query = nullptr;
  JoinAlgorithm algo = JoinAlgorithm::kTetrisPreloaded;
  int depth = 0;
  std::vector<int> order;
  std::vector<const Index*> base;  // one per atom
  size_t base_index_bytes = 0;
};

// One shard of a Tetris-family run: per-atom IndexViews confine every
// probe and gap scan to the shard's box — no tuple is copied, no index
// rebuilt — and are dropped when the shard finishes.
EngineResult RunTetrisViewShard(const TetrisShardContext& ctx,
                                const DyadicBox& shard_box,
                                EngineKind kind) {
  EngineResult result;
  result.stats.engine = kind;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Atom>& atoms = ctx.query->atoms();
  std::vector<IndexView> views;
  views.reserve(atoms.size());
  for (size_t a = 0; a < atoms.size(); ++a) {
    const Atom& atom = atoms[a];
    DyadicBox abox =
        DyadicBox::Universal(static_cast<int>(atom.var_ids.size()));
    for (size_t c = 0; c < atom.var_ids.size(); ++c) {
      abox[static_cast<int>(c)] = shard_box[atom.var_ids[c]];
    }
    views.emplace_back(ctx.base[a], abox);
  }
  std::vector<const Index*> ptrs;
  ptrs.reserve(views.size());
  for (const IndexView& v : views) ptrs.push_back(&v);
  JoinRunResult run =
      RunTetrisJoin(*ctx.query, ptrs, ctx.depth, ctx.algo, ctx.order);
  result.tuples = std::move(run.tuples);
  std::sort(result.tuples.begin(), result.tuples.end());
  result.tuples.erase(
      std::unique(result.tuples.begin(), result.tuples.end()),
      result.tuples.end());
  result.stats.tetris = run.stats;
  result.stats.input_gap_boxes = run.input_gap_boxes;
  result.stats.oracle_probes = run.oracle_probes;
  result.stats.memory.kb_bytes = static_cast<size_t>(run.stats.kb_peak_bytes);
  result.stats.memory.index_bytes = run.index_bytes;  // views: a few words
  result.stats.output_tuples = result.tuples.size();
  result.stats.memory.output_bytes =
      EstimateAtomBytes(result.tuples.size(), ctx.query->num_attrs());
  result.ok = true;
  result.stats.wall_ms = MsSince(start);
  return result;
}

// The baselines' lazy path: the restricted copy exists only inside this
// call — materialized when the worker picks the shard up, dropped when
// it finishes — so at most `threads` shard copies are resident at once
// instead of all 2^k.
EngineResult RunMaterializedShard(const JoinQuery& query,
                                  const ShardPlan& plan, int shard_id,
                                  EngineKind kind,
                                  const EngineOptions& shard_opts) {
  MaterializedShard ms = MaterializeShard(query, plan, shard_id);
  EngineResult r = RunJoin(ms.query, kind, shard_opts);
  // The materialized copy is this shard's resident input structure for
  // the whole run — count it, or the budget check would certify shards
  // whose input copy alone dwarfs the budget. (Unsharded baseline runs
  // scan the caller's relations and rightly report 0 here.)
  r.stats.memory.index_bytes = std::max(
      r.stats.memory.index_bytes, plan.shards[shard_id].payload_bytes);
  return r;
}

// Merges one shard's counters into the query total. Work counters add
// up; the memory fields keep the per-shard *peak* — shards build and
// release their resident structures independently, and the peak is what
// the budget constrains.
void AccumulateShardStats(RunStats* into, const RunStats& s) {
  into->tetris.Accumulate(s.tetris);
  into->input_gap_boxes += s.input_gap_boxes;
  into->oracle_probes += s.oracle_probes;
  into->probes += s.probes;
  into->seeks += s.seeks;
  into->baseline.max_intermediate =
      std::max(into->baseline.max_intermediate, s.baseline.max_intermediate);
  into->baseline.total_intermediate += s.baseline.total_intermediate;
  into->baseline.max_intermediate_bytes =
      std::max(into->baseline.max_intermediate_bytes,
               s.baseline.max_intermediate_bytes);
  into->memory.kb_bytes = std::max(into->memory.kb_bytes, s.memory.kb_bytes);
  into->memory.index_bytes =
      std::max(into->memory.index_bytes, s.memory.index_bytes);
  into->memory.intermediate_bytes =
      std::max(into->memory.intermediate_bytes, s.memory.intermediate_bytes);
  into->max_shard_peak_bytes =
      std::max(into->max_shard_peak_bytes, s.memory.PeakBytes());
}

// One probe-shard run kept around for reuse: probe shards are real
// shards of the output space, so when the final plan contains the same
// subcube the probe's result IS that shard's result.
struct ProbeRun {
  DyadicBox box;
  EngineResult result;
};

// Calibrates the per-engine-family cost model from up to two probe
// passes (a ~1/8-scale and a ~1/4-scale shard, each run exactly the way
// the real shards will run: `tctx` non-null = zero-copy views, null =
// lazy materialization with `shard_opts`). Appends every successful
// probe to `probe_runs` so the caller can reuse the outputs. A probe is
// skipped when the domain cannot split or skew concentrates (almost)
// everything in one subcube — a hidden near-full run would double wall
// time without teaching the model anything; with one usable probe the
// fit degrades to one-point, with none to the payload proxy.
ShardCostModel CalibrateShardCostModel(const JoinQuery& query,
                                       EngineKind kind,
                                       const TetrisShardContext* tctx,
                                       const EngineOptions& shard_opts,
                                       int depth,
                                       std::vector<ProbeRun>* probe_runs) {
  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  struct Point {
    size_t payload = 0;
    RunStats stats;
  };
  std::vector<Point> points;
  // Two scales: an 8-way plan (~1/8-scale probe) and a 4-way plan
  // (~1/4-scale probe) — two points of the same curve the real shards
  // lie on, so superlinear growth shows up as a steeper secant.
  for (int scale_shards : {8, 4}) {
    ShardPlanOptions probe_opts;
    probe_opts.shards = scale_shards;
    probe_opts.depth = depth;
    ShardPlan probe = PlanShards(query, probe_opts);
    int pick = -1;
    size_t best = 0;
    size_t total_payload = 0;
    for (const Shard& s : probe.shards) {
      total_payload += s.payload_bytes;
      if (!s.empty && s.payload_bytes > best) {
        best = s.payload_bytes;
        pick = s.id;
      }
    }
    // A probe worth running must be a fraction of the data: when the
    // domain cannot split, or skew concentrates (almost) everything in
    // one subcube, the "probe" would be a hidden near-full run that
    // doubles wall time without teaching the model anything the real
    // run won't — skip this scale.
    if (probe.split_bits == 0 || best * 2 > total_payload) continue;
    // Two clamped plans can degenerate to the same split; a repeated
    // point teaches nothing.
    bool duplicate = false;
    for (const ProbeRun& pr : *probe_runs) {
      if (pr.box == probe.shards[pick].box) duplicate = true;
    }
    if (duplicate) continue;
    EngineResult pr =
        tctx != nullptr
            ? RunTetrisViewShard(*tctx, probe.shards[pick].box, kind)
            : RunMaterializedShard(query, probe, pick, kind, shard_opts);
    if (!pr.ok) continue;
    points.push_back({probe.shards[pick].payload_bytes, pr.stats});
    probe_runs->push_back({probe.shards[pick].box, std::move(pr)});
  }
  if (points.size() >= 2) {
    model = FitShardCostModelAffine(kind, points[0].payload, points[0].stats,
                                    points[1].payload, points[1].stats);
  } else if (points.size() == 1) {
    model = FitShardCostModel(kind, points[0].payload, points[0].stats);
  }
  return model;
}

// One query's way through the pipeline.
struct QueryRun {
  bool live = false;  // validated, and needs shards run
  EngineOptions opts;  // depth + order hint, for the shards' engine runs
  const BatchQueryInputs* inputs = nullptr;
  TetrisShardContext ctx;  // Tetris family only
  size_t plan = 0;
  std::vector<EngineResult> shards;  // by shard id
  // Patch mode: shards disjoint from every touched box, whose output is
  // the patch base's tuples inside them.
  std::vector<bool> kept;
  std::string note;
};

// Deterministic by-shard-id merge of one query's shard results into one
// facade EngineResult: concatenates tuples (then canonicalizes), splices
// in the patch base's tuples of the kept shards, accumulates RunStats,
// fills shard_runs / the estimator fields from `plan`, reports shards
// whose actual peak overran `memory_budget_bytes` (0 = no budget) in
// shard_note, and surfaces the shared base indexes of a zero-copy run in
// the merged memory counters. A failed shard fails the merge.
EngineResult MergeShardRuns(const JoinQuery& query, EngineKind kind,
                            const ShardPlan& plan, QueryRun* run,
                            size_t memory_budget_bytes) {
  EngineResult result;
  result.stats.engine = kind;
  const size_t m = plan.shards.size();
  result.stats.shards = m;
  result.stats.estimated_max_shard_peak_bytes = plan.max_estimated_peak_bytes;
  result.stats.plan_bytes = plan.PlanningBytes();
  size_t over_budget = 0;
  size_t worst_peak = 0;
  size_t worst_shard = 0;
  for (size_t i = 0; i < m; ++i) {
    ShardRunInfo info;
    info.shard_id = static_cast<int>(i);
    info.box = plan.shards[i].box.ToString();
    if (!run->kept.empty() && run->kept[i]) {
      info.kept = true;
      result.shard_runs.push_back(std::move(info));
      continue;
    }
    if (plan.shards[i].empty) {
      info.skipped_empty = true;
      result.shard_runs.push_back(std::move(info));
      continue;
    }
    EngineResult& r = run->shards[i];
    if (!r.ok) {
      result.error = "shard " + std::to_string(i) + ": " + r.error;
      result.shard_runs.clear();
      return result;
    }
    result.tuples.insert(result.tuples.end(),
                         std::make_move_iterator(r.tuples.begin()),
                         std::make_move_iterator(r.tuples.end()));
    AccumulateShardStats(&result.stats, r.stats);
    info.output_tuples = r.tuples.size();
    info.stats = r.stats;
    if (memory_budget_bytes > 0 &&
        r.stats.memory.PeakBytes() > memory_budget_bytes) {
      ++over_budget;
      if (r.stats.memory.PeakBytes() > worst_peak) {
        worst_peak = r.stats.memory.PeakBytes();
        worst_shard = i;
      }
    }
    result.shard_runs.push_back(std::move(info));
  }
  if (run->inputs != nullptr && run->inputs->patch_base != nullptr) {
    // Splice: a kept shard's restricted instance is unchanged by the
    // delta, so its output is the base's tuples inside it. A point's
    // shard id is its prefix bits along the plan's split dimensions,
    // most significant level first (the planner's ShardBox layout).
    std::vector<std::pair<int, int>> levels;  // (dimension, value shift)
    std::vector<int> splits(static_cast<size_t>(query.num_attrs()), 0);
    for (int dim : plan.split_dims) {
      levels.push_back({dim, plan.depth - 1 - splits[dim]++});
    }
    size_t kept_tuples = 0;
    for (const Tuple& t : *run->inputs->patch_base) {
      size_t id = 0;
      for (const auto& [dim, shift] : levels) {
        id = (id << 1) | ((t[dim] >> shift) & 1);
      }
      if (!run->kept[id]) continue;
      result.tuples.push_back(t);
      ++result.shard_runs[id].output_tuples;
      ++kept_tuples;
    }
    const size_t rerun = static_cast<size_t>(
        std::count(run->kept.begin(), run->kept.end(), false));
    AppendNote(&result.shard_note,
               "patched " + std::to_string(rerun) + "/" + std::to_string(m) +
                   " shards from " +
                   std::to_string(run->inputs->touched.size()) +
                   " touched box(es); kept " + std::to_string(kept_tuples) +
                   " tuples");
  }
  // The shared base indexes of a zero-copy run stay resident for the
  // whole run (the per-shard views are a few words each): surface them
  // in the run-level counter so the unsharded/sharded numbers compare.
  result.stats.memory.index_bytes =
      std::max(result.stats.memory.index_bytes, run->ctx.base_index_bytes);
  if (over_budget > 0) {
    AppendNote(&result.shard_note,
               std::to_string(over_budget) + " of " + std::to_string(m) +
                   " shards exceeded the " +
                   std::to_string(memory_budget_bytes) +
                   "B budget at run time (worst: shard " +
                   std::to_string(worst_shard) + " peaked at " +
                   std::to_string(worst_peak) + "B)");
  }

  // Shards are disjoint subcubes, so concatenation has no duplicates,
  // but sorting restores the canonical facade order.
  std::sort(result.tuples.begin(), result.tuples.end());
  result.tuples.erase(
      std::unique(result.tuples.begin(), result.tuples.end()),
      result.tuples.end());
  result.ok = true;
  result.stats.output_tuples = result.tuples.size();
  result.stats.memory.intermediate_bytes =
      std::max(result.stats.memory.intermediate_bytes,
               result.stats.baseline.max_intermediate_bytes);
  result.stats.memory.output_bytes =
      EstimateAtomBytes(result.tuples.size(), query.num_attrs());
  return result;
}

}  // namespace

BatchResult RunBatch(const std::vector<const Relation*>& relations,
                     const std::vector<JoinQuery>& queries, EngineKind kind,
                     const BatchOptions& options,
                     const std::vector<BatchQueryInputs>& inputs) {
  BatchResult batch;
  const auto start = std::chrono::steady_clock::now();
  auto finish = [&start, &batch]() -> BatchResult& {
    batch.stats.wall_ms = MsSince(start);
    return batch;
  };
  auto append_note = [&batch](const std::string& s) {
    AppendNote(&batch.note, s);
  };

  batch.results.resize(queries.size());
  batch.stats.queries = queries.size();
  for (EngineResult& r : batch.results) r.stats.engine = kind;
  if (options.shards < kAutoShards) {
    batch.error = "shards: want -1 (auto), 0/1 (off), or >= 2";
    return finish();
  }
  if (options.threads < 0) {
    batch.error = "threads: want 0 (the executor's full width) or >= 1";
    return finish();
  }
  if (!options.orders.empty() && options.orders.size() != queries.size()) {
    batch.error = "orders: want one entry per query (or none)";
    return finish();
  }
  if (!inputs.empty() && inputs.size() != queries.size()) {
    batch.error = "inputs: want one entry per query (or none)";
    return finish();
  }
  if (queries.empty()) {
    batch.ok = true;
    return finish();
  }

  // The relation universe: every atom must reference a declared pool
  // relation (that identity is what makes index/plan sharing sound). An
  // empty pool infers the universe from the queries themselves.
  std::unordered_set<const Relation*> pool(relations.begin(),
                                           relations.end());
  std::unordered_set<const Relation*> seen;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const Atom& atom : queries[q].atoms()) {
      if (!relations.empty() && pool.count(atom.rel) == 0) {
        batch.error = "query " + std::to_string(q) + ": atom relation '" +
                      atom.rel->name() +
                      "' is not in the batch's relation pool";
        return finish();
      }
      seen.insert(atom.rel);
    }
  }
  batch.stats.relations = seen.size();

  // One grid depth for the whole batch, so one index per relation can
  // serve every query.
  int depth = options.depth;
  for (size_t q = 0; q < queries.size(); ++q) {
    const int min_depth = !inputs.empty() && inputs[q].min_depth > 0
                              ? inputs[q].min_depth
                              : queries[q].MinDepth();
    if (options.depth > 0 && min_depth > options.depth) {
      batch.error = "depth: too small for the data "
                    "(need at least every query's MinDepth())";
      return finish();
    }
    depth = std::max(depth, min_depth);
  }

  WorkStealingPool& pool_exec =
      options.executor != nullptr ? *options.executor
                                  : WorkStealingPool::Global();
  const int requested = options.threads == 0
                            ? pool_exec.threads()
                            : std::max(1, options.threads);

  // Per-query validation, with RunJoin's checks and wording so a query
  // fails the same way batched or not — and fails alone: the rest of
  // the batch still runs.
  const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind);
  std::vector<QueryRun> runs(queries.size());
  size_t live_count = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryRun& run = runs[q];
    run.inputs = inputs.empty() ? nullptr : &inputs[q];
    run.opts.depth = depth;
    if (!options.orders.empty()) run.opts.order = options.orders[q];
    std::string error = QueryError(kind, queries[q], run.opts.order);
    if (error.empty() && run.inputs != nullptr &&
        !run.inputs->indexes.empty()) {
      error = algo.has_value()
                  ? IndexesError(queries[q], run.inputs->indexes, depth)
                  : "indexes: only the Tetris family combines custom "
                    "indexes with sharded execution (views restrict "
                    "probes to the shard box; the baselines rescan "
                    "materialized shard copies)";
    }
    if (!error.empty()) {
      batch.results[q].error = std::move(error);
      continue;
    }
    if (run.inputs != nullptr && run.inputs->patch_base != nullptr &&
        run.inputs->touched.empty()) {
      // Nothing touched: the old result is the new result, no planning.
      EngineResult& r = batch.results[q];
      r.ok = true;
      r.tuples = *run.inputs->patch_base;
      r.stats.output_tuples = r.tuples.size();
      r.shard_note = "empty delta: result unchanged, 0 shards re-run";
      continue;
    }
    run.live = true;
    ++live_count;
  }
  if (live_count == 0) {
    batch.ok = true;  // every per-query result is already final
    return finish();
  }

  // (a) Shared base indexes through the (relation, layout) cache: one
  // build per distinct layout a batch touches, no matter how many
  // (query, atom) slots want it — and zero builds when the caller's
  // long-lived cache (BatchOptions::index_cache) is already warm, or the
  // caller passed the indexes in. Only the Tetris family probes
  // indexes; the baselines scan relations.
  IndexCache local_cache;
  IndexCache& cache =
      options.index_cache != nullptr ? *options.index_cache : local_cache;
  std::vector<std::shared_ptr<const SortedIndex>> pinned;  // keep alive
  std::unordered_set<const Index*> counted;
  if (algo.has_value()) {
    for (size_t q = 0; q < queries.size(); ++q) {
      QueryRun& run = runs[q];
      if (!run.live) continue;
      TetrisShardContext& ctx = run.ctx;
      ctx.query = &queries[q];
      ctx.algo = *algo;
      ctx.depth = depth;
      ctx.order = run.opts.order;
      if (run.inputs != nullptr && !run.inputs->indexes.empty()) {
        ctx.base = run.inputs->indexes;
      } else {
        std::vector<int> sao_pos;
        if (!ctx.order.empty()) {
          sao_pos.resize(queries[q].num_attrs());
          for (size_t i = 0; i < ctx.order.size(); ++i) {
            sao_pos[ctx.order[i]] = static_cast<int>(i);
          }
        }
        for (const Atom& atom : queries[q].atoms()) {
          bool built = false;
          std::shared_ptr<const SortedIndex> ix =
              cache.Get(atom.rel, LayoutFor(atom, sao_pos, depth), &built);
          if (built) ++batch.stats.indexes_built;
          else ++batch.stats.index_cache_hits;
          ctx.base.push_back(ix.get());
          pinned.push_back(std::move(ix));
        }
      }
      for (const Index* ix : ctx.base) {
        ctx.base_index_bytes += ix->MemoryBytes();
        if (counted.insert(ix).second) {
          batch.stats.index_bytes += ix->MemoryBytes();
        }
      }
      // The shared base indexes stay resident for the whole run no
      // matter how fine the split — a budget below them is
      // unsatisfiable by sharding, and pretending per-shard peaks
      // settle it would be lying. Say so up front.
      if (options.memory_budget_bytes > 0 &&
          ctx.base_index_bytes > options.memory_budget_bytes) {
        run.note =
            "budget " + std::to_string(options.memory_budget_bytes) +
            "B is below the shared base indexes (" +
            std::to_string(ctx.base_index_bytes) +
            "B), which stay resident for the whole run regardless of the "
            "split — the budget can only constrain per-shard peaks on "
            "top of them";
      }
    }
  }

  // (d) One calibration for the whole batch: probe on the first live
  // query, share the fitted model with every plan, and keep the probe
  // outputs for reuse as that query's shard results.
  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  std::vector<ProbeRun> probes;
  size_t calib_query = queries.size();
  if (options.memory_budget_bytes > 0) {
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!runs[q].live) continue;
      calib_query = q;
      model = CalibrateShardCostModel(
          queries[q], kind, algo.has_value() ? &runs[q].ctx : nullptr,
          runs[q].opts, depth, &probes);
      break;
    }
    append_note("cost model calibrated once for the batch (" +
                std::string(EngineFamilyName(model.family)) + ", " +
                model.source + ")");
  }

  // (b) One ShardPlan per distinct output-space signature. The plan's
  // row buckets are the expensive part — queries sharing a signature
  // share them instead of re-bucketing every relation. (Order hints
  // don't enter the signature: they steer traversal, not the output
  // space.)
  ShardPlanOptions popt;
  // EngineOptions::shards semantics: 0/1 plan a single shard per
  // signature, kAutoShards (the BatchOptions default) lets the planner
  // choose, >= 2 is explicit.
  popt.shards = options.shards;
  // Auto mode sizes each plan so the whole batch has at least one task
  // per worker; with many queries, query-level parallelism already
  // covers the machine and plans stay single-shard.
  popt.threads_hint = std::max(
      1, static_cast<int>((static_cast<size_t>(requested) + live_count - 1) /
                          live_count));
  popt.memory_budget_bytes = options.memory_budget_bytes;
  popt.depth = depth;
  popt.cost_model = &model;
  std::vector<std::unique_ptr<ShardPlan>> plans;
  std::map<std::string, size_t> plan_of_signature;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!runs[q].live) continue;
    const std::string sig = PlanSignature(queries[q], depth);
    auto it = plan_of_signature.find(sig);
    if (it == plan_of_signature.end()) {
      plans.push_back(
          std::make_unique<ShardPlan>(PlanShards(queries[q], popt)));
      batch.stats.plan_bytes += plans.back()->PlanningBytes();
      it = plan_of_signature.emplace(sig, plans.size() - 1).first;
    }
    runs[q].plan = it->second;
  }
  batch.stats.plans = plans.size();

  // (c) The cross-product task set: every non-empty (query, shard) pair
  // that must run becomes one executor task — no per-query barrier
  // anywhere. A patch keeps the shards its touched boxes miss; probe
  // results pre-fill the calibration query's matching shards.
  struct TaskRef {
    size_t q = 0;
    int shard = 0;
  };
  std::vector<TaskRef> tasks;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryRun& run = runs[q];
    if (!run.live) continue;
    const ShardPlan& plan = *plans[run.plan];
    run.shards.resize(plan.shards.size());
    const bool patch =
        run.inputs != nullptr && run.inputs->patch_base != nullptr;
    if (patch) run.kept.assign(plan.shards.size(), false);
    // Probe reuse, keyed on the final plan's shard id: dyadic splits
    // nest, so a probe with the same subcube as a plan shard ran that
    // shard's restricted instance.
    std::map<int, size_t> probe_of_shard;
    if (q == calib_query) {
      for (size_t p = 0; p < probes.size(); ++p) {
        for (const Shard& shard : plan.shards) {
          if (shard.box == probes[p].box) probe_of_shard[shard.id] = p;
        }
      }
    }
    size_t probes_reused = 0;
    for (const Shard& shard : plan.shards) {
      const size_t id = static_cast<size_t>(shard.id);
      if (patch && !IntersectsAny(shard.box, run.inputs->touched)) {
        run.kept[id] = true;
        continue;
      }
      if (shard.empty) continue;
      auto it = probe_of_shard.find(shard.id);
      if (it != probe_of_shard.end()) {
        run.shards[id] = std::move(probes[it->second].result);
        ++probes_reused;
        continue;
      }
      tasks.push_back({q, shard.id});
    }
    if (probes_reused > 0) {
      AppendNote(&run.note, "reused " + std::to_string(probes_reused) +
                                " probe result" +
                                (probes_reused == 1 ? "" : "s") +
                                " as shard output");
    }
  }
  batch.stats.tasks = tasks.size();

  const int workers = std::max(
      1, std::min({requested, pool_exec.threads(),
                   static_cast<int>(tasks.size())}));
  batch.stats.threads = static_cast<size_t>(workers);
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point{};
  auto run_task = [&](int t) {
    const TaskRef& task = tasks[static_cast<size_t>(t)];
    QueryRun& run = runs[task.q];
    const ShardPlan& plan = *plans[run.plan];
    EngineResult& slot = run.shards[static_cast<size_t>(task.shard)];
    // Cooperative deadline, checked at task granularity: an unstarted
    // task is abandoned and fails its query; a running task completes.
    if (has_deadline &&
        std::chrono::steady_clock::now() >= options.deadline) {
      slot.stats.engine = kind;
      slot.error = kDeadlineError;
      return;
    }
    if (algo.has_value()) {
      slot = RunTetrisViewShard(run.ctx, plan.shards[task.shard].box, kind);
    } else if (plan.split_bits == 0) {
      // A single-shard plan covers the whole output space: scan the
      // original relations directly instead of materializing a full
      // restricted copy that would equal them.
      slot = RunJoin(queries[task.q], kind, run.opts);
    } else {
      slot = RunMaterializedShard(queries[task.q], plan, task.shard, kind,
                                  run.opts);
    }
  };
  const auto exec_start = std::chrono::steady_clock::now();
  if (workers <= 1) {
    for (size_t t = 0; t < tasks.size(); ++t) {
      run_task(static_cast<int>(t));
    }
  } else {
    ParallelFor(&pool_exec, workers, static_cast<int>(tasks.size()),
                run_task);
  }
  const double exec_ms = MsSince(exec_start);

  // Wall-time attribution. The shard tasks of different queries ran
  // concurrently, so summing a query's shard walls would let one
  // query's "time" exceed the whole batch wall. Instead: the raw summed
  // task time is the batch's occupancy (stats.cpu_ms), and each query
  // is attributed the execution wall *split by its share of that
  // occupancy* — attributed times are comparable, and their sum can
  // never exceed the batch wall.
  std::vector<double> task_ms(queries.size(), 0.0);
  std::vector<size_t> abandoned(queries.size(), 0);
  double total_task_ms = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!runs[q].live) continue;
    for (const EngineResult& r : runs[q].shards) {
      if (!r.ok && r.error == kDeadlineError) {
        ++abandoned[q];
        continue;
      }
      task_ms[q] += r.stats.wall_ms;
    }
    total_task_ms += task_ms[q];
  }
  batch.stats.cpu_ms = total_task_ms;

  // Deterministic per-query merge, in input order.
  size_t deadline_failures = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryRun& run = runs[q];
    if (!run.live) continue;
    if (abandoned[q] > 0) {
      EngineResult failed;
      failed.stats.engine = kind;
      failed.error = "deadline exceeded: " + std::to_string(abandoned[q]) +
                     " of " + std::to_string(run.shards.size()) +
                     " shard tasks abandoned";
      batch.results[q] = std::move(failed);
      ++deadline_failures;
      continue;
    }
    const ShardPlan& plan = *plans[run.plan];
    const double attributed_ms =
        total_task_ms > 0.0 ? exec_ms * (task_ms[q] / total_task_ms)
                            : exec_ms / static_cast<double>(live_count);
    EngineResult merged = MergeShardRuns(queries[q], kind, plan, &run,
                                         options.memory_budget_bytes);
    merged.stats.threads = static_cast<size_t>(workers);
    merged.stats.wall_ms = attributed_ms;
    std::string query_note = std::move(run.note);
    AppendNote(&query_note, plan.note);
    AppendNote(&query_note, merged.shard_note);
    if (merged.ok && options.memory_budget_bytes > 0) {
      // Post-run estimator verification: the prediction is auditable,
      // not just plausible — the reporter surfaces both numbers.
      AppendNote(&query_note,
                 "estimator(" + std::string(EngineFamilyName(model.family)) +
                     ", " + model.source + "): predicted max shard peak " +
                     std::to_string(plan.max_estimated_peak_bytes) +
                     "B, actual " +
                     std::to_string(merged.stats.max_shard_peak_bytes) +
                     "B");
    }
    merged.shard_note = std::move(query_note);
    batch.stats.sum_query_ms += attributed_ms;
    batch.results[q] = std::move(merged);
  }
  std::string serve_note =
      std::to_string(batch.stats.plans) + " plan" +
      (batch.stats.plans == 1 ? "" : "s") + " and " +
      std::to_string(batch.stats.indexes_built) +
      " base index builds served " + std::to_string(live_count) +
      (live_count == 1 ? " query" : " queries");
  if (batch.stats.index_cache_hits > 0) {
    serve_note += " (" + std::to_string(batch.stats.index_cache_hits) +
                  " index cache hits)";
  }
  append_note(serve_note);
  if (deadline_failures > 0) {
    append_note(std::to_string(deadline_failures) +
                (deadline_failures == 1 ? " query" : " queries") +
                " failed on the deadline");
  }
  batch.ok = true;
  return finish();
}

EngineResult RunOneQueryBatch(const JoinQuery& query, EngineKind kind,
                              const EngineOptions& options,
                              BatchQueryInputs inputs) {
  BatchOptions bopts;
  bopts.depth = options.depth > 0 || options.indexes.empty()
                    ? options.depth
                    : options.indexes[0]->depth();
  bopts.shards = options.shards;
  bopts.threads = options.threads;
  bopts.memory_budget_bytes = options.memory_budget_bytes;
  bopts.executor = options.executor;
  if (!options.order.empty()) bopts.orders.assign(1, options.order);
  std::vector<BatchQueryInputs> per_query(1);
  per_query[0] = std::move(inputs);
  per_query[0].indexes = options.indexes;
  BatchResult batch = RunBatch({}, {query}, kind, bopts, per_query);
  EngineResult result;
  if (batch.ok) {
    result = std::move(batch.results[0]);
  } else {
    result.stats.engine = kind;
    result.error = std::move(batch.error);
  }
  result.stats.wall_ms = batch.stats.wall_ms;
  return result;
}

}  // namespace tetris
