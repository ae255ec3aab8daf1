// The serving workload: one JoinService over the shared pool
// {R(A,B), S(B,C), T(A,C)}, driven by closed-loop clients (each sends its
// next op only once the last one returned) beside a private executor.
// Ops are triangle / 2-hop path queries on three engines with skewed
// popularity, cache-bypassing queries, and appends and deletes of a few
// rows that keep relation sizes stationary. The result cache is smaller
// than the live result working set, so LRU evictions happen.
//
// Each round appends fresh rows to one relation and deletes as many rows
// of its initial pool. The deleted rows are never re-added by the client,
// so the promoted indexes' overlays grow until they compact.
//
// Every op is rendered as its JSONL protocol line and parsed with
// ParseJson before it is executed, as a served session would.
//
// Correctness: every response must equal the benchmark's own join over
// the relation contents at the response's epoch. Contents are rebuilt
// after the run by replaying the effective deltas the clients got back,
// in to_epoch order; at each distinct epoch the benchmark's hash join
// runs once per query shape.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "engine/parallel_executor.h"
#include "hash_join.h"
#include "server/join_service.h"
#include "server/protocol.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace joinbench {

namespace {

using tetris::EngineKind;
using tetris::Tuple;

constexpr size_t kPoolRows = 800;
constexpr int kPoolD = 8;
constexpr size_t kMutationRows = 8;
// One client round of 48 ops: 44 cached queries, 2 cache-bypassing ones,
// an append at slot 5 and, at slot 29, the delete of as many rows of the
// initial pool.
constexpr int kSlotAppend = 5;
constexpr int kSlotDelete = 29;
// Result-cache capacity as a share of the live result working set.
constexpr double kCacheShare = 0.9;

const char* const kRelNames[3] = {"R", "S", "T"};

struct Shape {
  const char* name;
  std::vector<std::string> rels;
};
const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> s = {
      {"triangle", {"R", "S", "T"}}, {"path-RS", {"R", "S"}},
      {"path-ST", {"S", "T"}}};
  return s;
}

struct QueryKind {
  int shape;
  EngineKind engine;
};
// In popularity order (see kRoundCounts).
const std::vector<QueryKind>& Kinds() {
  static const std::vector<QueryKind> k = {
      {0, EngineKind::kTetrisPreloaded}, {1, EngineKind::kTetrisReloaded},
      {2, EngineKind::kGenericJoin},     {1, EngineKind::kTetrisPreloaded},
      {0, EngineKind::kGenericJoin},     {2, EngineKind::kTetrisReloaded},
      {0, EngineKind::kTetrisReloaded},  {1, EngineKind::kGenericJoin},
      {2, EngineKind::kTetrisPreloaded}};
  return k;
}

// Cached queries per kind in one round: Zipf(1) shares of 44 slots.
constexpr int kRoundCounts[9] = {15, 8, 5, 4, 3, 3, 2, 2, 2};
// The two cache-bypassing queries of a round: the most popular triangle
// and path kinds.
constexpr int kBypassKinds[2] = {0, 1};

// One round's op list: a query kind (bypassing the cache when `bypass` is
// set) or a mutation. The composition is the same every round; the order
// is shuffled per round.
constexpr int kAppend = -1, kDelete = -2;
struct RoundOp {
  int kind;
  bool bypass;
};
std::vector<RoundOp> MakeRound(tetris::Rng* rng) {
  std::vector<RoundOp> ops;
  for (int k = 0; k < 9; ++k) {
    for (int i = 0; i < kRoundCounts[k]; ++i) ops.push_back({k, false});
  }
  for (int k : kBypassKinds) ops.push_back({k, true});
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng->Below(i)]);
  }
  ops.insert(ops.begin() + kSlotAppend, {kAppend, false});
  ops.insert(ops.begin() + kSlotDelete, {kDelete, false});
  return ops;
}

std::string TuplesJson(const std::vector<Tuple>& ts) {
  std::string s = "[";
  for (size_t i = 0; i < ts.size(); ++i) {
    s += i ? ",[" : "[";
    for (size_t c = 0; c < ts[i].size(); ++c) {
      s += (c ? "," : "") + std::to_string(ts[i][c]);
    }
    s += "]";
  }
  return s + "]";
}

std::string QueryLine(const QueryKind& k, bool use_cache) {
  std::string s = "{\"op\":\"query\",\"relations\":[";
  const Shape& sh = Shapes()[k.shape];
  for (size_t i = 0; i < sh.rels.size(); ++i) {
    s += (i ? ",\"" : "\"") + sh.rels[i] + "\"";
  }
  s += "],\"engine\":\"" + std::string(tetris::EngineKindName(k.engine)) +
       "\",\"depth\":" + std::to_string(kPoolD) +
       ",\"cache\":" + (use_cache ? "true" : "false") + "}";
  return s;
}

std::string MutationLine(const char* op, const std::string& name,
                         const std::vector<Tuple>& ts) {
  return std::string("{\"op\":\"") + op + "\",\"name\":\"" + name +
         "\",\"tuples\":" + TuplesJson(ts) + "}";
}

// The request fields this workload sends, read back from the parsed line.
bool ToRequest(const tetris::JsonValue& v, tetris::QueryRequest* req) {
  const tetris::JsonValue* rels = v.Find("relations");
  const tetris::JsonValue* engine = v.Find("engine");
  const tetris::JsonValue* depth = v.Find("depth");
  const tetris::JsonValue* cache = v.Find("cache");
  if (!rels || !engine || !depth || !cache) return false;
  for (const auto& r : rels->array) req->relations.push_back(r.string);
  bool found = false;
  for (EngineKind k : tetris::AllEngineKinds()) {
    if (engine->string == tetris::EngineKindName(k)) {
      req->engine = k;
      found = true;
    }
  }
  req->depth = static_cast<int>(depth->number);
  req->use_cache = cache->boolean;
  return found && !req->relations.empty();
}

bool ToTuples(const tetris::JsonValue& v, std::string* name,
              std::vector<Tuple>* out) {
  const tetris::JsonValue* n = v.Find("name");
  const tetris::JsonValue* ts = v.Find("tuples");
  if (!n || !ts) return false;
  *name = n->string;
  for (const auto& row : ts->array) {
    Tuple t;
    for (const auto& x : row.array) t.push_back(static_cast<uint64_t>(x.number));
    out->push_back(std::move(t));
  }
  return true;
}

// What one client saw; merged after the clients are joined.
struct QueryRecord {
  int kind = 0;
  bool use_cache = true;
  double ms = 0;
  bool ok = false;
  bool hit = false;
  bool patched = false;
  size_t shards_rerun = 0, shards_total = 0;
  double shard_ms_sum = 0, shard_ms_max = 0, wall_ms = 0;
  size_t shards_run = 0;
  uint64_t epoch = 0;
  uint64_t fp = 0;
  size_t count = 0;
};

struct ClientLog {
  std::vector<QueryRecord> queries;
  std::vector<double> mutation_ms;
  std::vector<tetris::RelationDelta> deltas;
  std::vector<double> retired;
  int64_t attempted_append = 0, failed_append = 0;
  int64_t attempted_delete = 0, failed_delete = 0;
  int64_t failed_query = 0, failed_bypass = 0;
  int64_t attempted_query = 0, attempted_bypass = 0;
  double elapsed_s = 0;  ///< the client's own closed-loop time
};

struct Pool {
  std::vector<std::unique_ptr<tetris::Relation>> rels;
};

Pool MakePool(uint64_t seed) {
  Pool p;
  const std::vector<std::vector<std::string>> attrs = {
      {"A", "B"}, {"B", "C"}, {"A", "C"}};
  for (int i = 0; i < 3; ++i) {
    p.rels.push_back(std::make_unique<tetris::Relation>(tetris::RandomRelation(
        kRelNames[i], attrs[i], kPoolRows, kPoolD, seed * 3 + i)));
  }
  return p;
}

int RelIndex(const std::string& name) {
  int rel = 0;
  while (name != kRelNames[rel]) ++rel;
  return rel;
}

// The benchmark's join of one shape over the given relation contents
// (rel 0 = R(A,B), 1 = S(B,C), 2 = T(A,C)). Output columns follow the
// library's first-appearance order: triangle and path-RS are (A,B,C),
// path-ST is (B,C,A).
std::vector<Tuple> JoinOf(int shape, const std::set<Tuple> (&live)[3]) {
  const std::vector<std::vector<std::string>> attrs = {
      {"A", "B"}, {"B", "C"}, {"A", "C"}};
  std::vector<NamedRows> in;
  for (const std::string& name : Shapes()[shape].rels) {
    const int rel = RelIndex(name);
    in.push_back({attrs[rel], {live[rel].begin(), live[rel].end()}});
  }
  return HashJoin(in);
}

void LoadPool(const Pool& p, std::set<Tuple> (&live)[3]) {
  for (int i = 0; i < 3; ++i) {
    for (auto row : p.rels[i]->rows()) live[i].insert(row.ToTuple());
  }
}

struct Service {
  std::unique_ptr<tetris::JoinService> service;
  Pool pool;
  uint64_t base_epoch = 0;
};

void RecordResponse(const tetris::QueryResponse& resp, QueryRecord* rec) {
  const tetris::EngineResult& r = *resp.result;
  rec->ok = r.ok && !resp.rejected;
  rec->hit = resp.cache_hit;
  rec->patched = resp.patched;
  rec->shards_rerun = resp.shards_rerun;
  rec->shards_total = resp.shards_total;
  rec->epoch = resp.epoch;
  rec->wall_ms = r.stats.wall_ms;
  for (const auto& s : r.shard_runs) {
    if (s.skipped_empty) continue;
    rec->shard_ms_sum += s.stats.wall_ms;
    rec->shard_ms_max = std::max(rec->shard_ms_max, s.stats.wall_ms);
    ++rec->shards_run;
  }
  rec->fp = Fingerprint(r.tuples);
  rec->count = r.tuples.size();
}

// Client `c` of `clients` deletes only initial-pool rows whose position is
// `c` modulo `clients`, in a seeded order, so no two clients delete the
// same pool row.
void Client(tetris::JoinService* svc, const Pool* pool, int c, int clients,
            uint64_t seed, double seconds, ClientLog* log) {
  tetris::Rng rng(seed);
  std::vector<size_t> delete_order[3];
  size_t delete_next[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    for (size_t j = c; j < pool->rels[i]->size(); j += clients) {
      delete_order[i].push_back(j);
    }
    std::vector<size_t>& o = delete_order[i];
    for (size_t k = o.size(); k > 1; --k) std::swap(o[k - 1], o[rng.Below(k)]);
  }
  std::vector<Tuple> rows;
  int64_t op = static_cast<int64_t>(seed) << 32;
  const auto start = Clock::now();
  for (int round = 0; MsSince(start) < seconds * 1e3; ++round) {
    for (const RoundOp& rop : MakeRound(&rng)) {
      ++op;
      std::string line;
      QueryRecord rec;
      bool is_query = true;
      if (rop.kind == kAppend) {
        is_query = false;
        rows.clear();
        for (size_t j = 0; j < kMutationRows; ++j) {
          rows.push_back({rng.Below(uint64_t{1} << kPoolD),
                          rng.Below(uint64_t{1} << kPoolD)});
        }
        line = MutationLine("append", kRelNames[round % 3], rows);
      } else if (rop.kind == kDelete) {
        is_query = false;
        const int rel = round % 3;
        const tetris::Relation& base = *pool->rels[rel];
        rows.clear();
        for (size_t j = 0; j < kMutationRows; ++j) {
          const std::vector<size_t>& o = delete_order[rel];
          rows.push_back(base.row(o[delete_next[rel]++ % o.size()]).ToTuple());
        }
        line = MutationLine("delete", kRelNames[rel], rows);
      } else {
        rec.kind = rop.kind;
        rec.use_cache = !rop.bypass;
        line = QueryLine(Kinds()[rec.kind], rec.use_cache);
      }
      Tracer::SetRequest(op);
      ScopedSpan op_span("op");
      const auto t0 = Clock::now();
      tetris::JsonValue v;
      std::string error;
      bool parsed;
      {
        ScopedSpan span("protocol.ParseJson");
        parsed = tetris::ParseJson(line, &v, &error);
      }
      if (is_query) {
        tetris::QueryRequest req;
        bool ok = parsed && ToRequest(v, &req);
        if (ok) {
          tetris::QueryResponse resp;
          {
            ScopedSpan span("server.Execute");
            resp = svc->Execute(req);
          }
          rec.ms = MsSince(t0);
          RecordResponse(resp, &rec);
          ok = rec.ok;
        }
        (rec.use_cache ? log->attempted_query : log->attempted_bypass)++;
        if (!ok) (rec.use_cache ? log->failed_query : log->failed_bypass)++;
        if (ok) log->queries.push_back(rec);
        continue;
      }
      const bool append = rop.kind == kAppend;
      std::string name;
      std::vector<Tuple> tuples;
      bool ok = parsed && ToTuples(v, &name, &tuples);
      tetris::RelationDelta delta;
      if (ok) {
        ScopedSpan span(append ? "server.AppendRows" : "server.DeleteRows");
        ok = append ? svc->AppendRows(name, tuples, &error, &delta)
                    : svc->DeleteRows(name, tuples, &error, &delta);
      }
      const double ms = MsSince(t0);
      (append ? log->attempted_append : log->attempted_delete)++;
      if (!ok) {
        (append ? log->failed_append : log->failed_delete)++;
        continue;
      }
      log->mutation_ms.push_back(ms);
      log->deltas.push_back(std::move(delta));
      log->retired.push_back(static_cast<double>(svc->registry().retired()));
    }
  }
  log->elapsed_s = MsSince(start) / 1e3;
}

}  // namespace

void RunServing(const Args& args, Report* report) {
  const int total =
      std::max(2, std::min(4, tetris::WorkStealingPool::HardwareThreads()));
  const int clients = total / 2;
  const int workers = total - clients;
  report->Detail("clients", clients);
  report->Detail("executor_workers", workers);
  tetris::WorkStealingPool executor(workers);

  // Result-cache capacity: a share of the bytes the nine query kinds'
  // results take, from the benchmark's own joins over the initial pool.
  size_t working_set = 0;
  {
    std::set<Tuple> live[3];
    LoadPool(MakePool(args.seed), live);
    for (int shape = 0; shape < 3; ++shape) {
      tetris::EngineResult r;
      r.ok = true;
      r.tuples = JoinOf(shape, live);
      working_set += 3 * tetris::ResultCache::EstimateBytes(r);
    }
  }
  const size_t cache_bytes = static_cast<size_t>(working_set * kCacheShare);
  report->Detail("result_working_set_bytes", static_cast<double>(working_set));
  report->Detail("cache_bytes", static_cast<double>(cache_bytes));

  constexpr int kSetupReps = 3;
  std::vector<double> setup_s;
  Service s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Service();  // the previous service goes before the next is timed
    const auto t0 = Clock::now();
    tetris::ServiceOptions opt;
    opt.executor = &executor;
    opt.cache_bytes = cache_bytes;
    s.service = std::make_unique<tetris::JoinService>(opt);
    s.pool = MakePool(args.seed);
    std::string error;
    for (const auto& r : s.pool.rels) {
      if (!s.service->Register(*r, &error)) report->Fail("register: " + error);
    }
    for (const QueryKind& k : Kinds()) {
      tetris::JsonValue v;
      tetris::QueryRequest req;
      if (!tetris::ParseJson(QueryLine(k, true), &v, &error) ||
          !ToRequest(v, &req) || !s.service->Execute(req).result->ok) {
        report->Fail("warm-up query failed");
      }
    }
    setup_s.push_back(MsSince(t0) / 1e3);
    s.base_epoch = s.service->registry().epoch();
  }
  tetris::JoinService& svc = *s.service;
  tetris::ResultCache& cache = svc.cache();
  tetris::IndexCache& icache = svc.registry().index_cache();
  const size_t survivals0 = cache.survivals(), evictions0 = cache.evictions();
  const size_t builds0 = icache.builds(), compactions0 = icache.compactions();

  Tracer::Reset();
  std::vector<ClientLog> logs(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(Client, &svc, &s.pool, c, clients,
                         args.seed * 1000 + c + 1, args.seconds, &logs[c]);
  }
  for (std::thread& t : threads) t.join();

  // Merge.
  std::vector<QueryRecord> queries;
  std::vector<double> mutation_ms, retired;
  std::vector<tetris::RelationDelta> deltas;
  int64_t att_q = 0, att_b = 0, att_a = 0, att_d = 0;
  int64_t fail_q = 0, fail_b = 0, fail_a = 0, fail_d = 0;
  // Throughput: each client's completed queries over its own loop time,
  // summed (the run's tail, where one client has finished its last round
  // and the other has not, does not count against it).
  double qps = 0;
  for (ClientLog& l : logs) {
    qps += static_cast<double>(l.queries.size()) / l.elapsed_s;
    queries.insert(queries.end(), l.queries.begin(), l.queries.end());
    mutation_ms.insert(mutation_ms.end(), l.mutation_ms.begin(),
                       l.mutation_ms.end());
    retired.insert(retired.end(), l.retired.begin(), l.retired.end());
    for (auto& d : l.deltas) deltas.push_back(std::move(d));
    att_q += l.attempted_query;
    att_b += l.attempted_bypass;
    att_a += l.attempted_append;
    att_d += l.attempted_delete;
    fail_q += l.failed_query;
    fail_b += l.failed_bypass;
    fail_a += l.failed_append;
    fail_d += l.failed_delete;
  }
  report->attempted = {{"query", att_q},
                       {"cache-bypass query", att_b},
                       {"append", att_a},
                       {"delete", att_d}};
  report->failed = {{"query", fail_q},
                    {"cache-bypass query", fail_b},
                    {"append", fail_a},
                    {"delete", fail_d}};

  // Correctness, outside the timed region: replay deltas by to_epoch and
  // compare every response with the hash join at its epoch.
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) { return a.to_epoch < b.to_epoch; });
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return queries[a].epoch < queries[b].epoch;
  });
  {
    std::set<Tuple> live[3];
    LoadPool(s.pool, live);
    // The expected (count, fingerprint) per shape at the current epoch.
    std::map<int, std::pair<size_t, uint64_t>> expected;
    size_t next = 0, joins = 0;
    uint64_t epoch = s.base_epoch;
    for (size_t i : order) {
      const QueryRecord& q = queries[i];
      if (q.epoch != epoch) {
        while (next < deltas.size() && deltas[next].to_epoch <= q.epoch) {
          const tetris::RelationDelta& d = deltas[next++];
          std::set<Tuple>& rel = live[RelIndex(d.name)];
          for (const Tuple& t : d.removed) rel.erase(t);
          for (const Tuple& t : d.added) rel.insert(t);
        }
        expected.clear();
        epoch = q.epoch;
      }
      const int shape = Kinds()[q.kind].shape;
      auto it = expected.find(shape);
      if (it == expected.end()) {
        const std::vector<Tuple> out = JoinOf(shape, live);
        it = expected.emplace(shape, std::make_pair(out.size(), Fingerprint(out)))
                 .first;
        ++joins;
      }
      if (q.count != it->second.first || q.fp != it->second.second) {
        report->Fail(std::string(Shapes()[shape].name) + " on " +
                     tetris::EngineKindName(Kinds()[q.kind].engine) +
                     " at epoch " + std::to_string(q.epoch) + ": " +
                     std::to_string(q.count) + " tuples, expected " +
                     std::to_string(it->second.first));
      }
    }
    report->Detail("checked_responses", static_cast<double>(queries.size()));
    report->Detail("checking_hash_joins", static_cast<double>(joins));
  }

  // Metrics.
  std::vector<double> all_ms, hit_ms, cold_ms, baseline_ms, patched_ms;
  double shard_sum = 0, shard_wall = 0, imbalance_sum = 0;
  int64_t imbalance_n = 0, hits = 0, cached = 0;
  size_t rerun = 0, rerun_total = 0;
  for (const QueryRecord& q : queries) {
    all_ms.push_back(q.ms);
    if (q.use_cache) {
      ++cached;
      hits += q.hit;
    }
    if (q.hit) {
      hit_ms.push_back(q.ms);
      continue;
    }
    if (q.patched) {
      patched_ms.push_back(q.ms);
      rerun += q.shards_rerun;
      rerun_total += q.shards_total;
      continue;
    }
    const bool baseline = Kinds()[q.kind].engine == EngineKind::kGenericJoin;
    (baseline ? baseline_ms : cold_ms).push_back(q.ms);
    if (q.shards_run > 0) {
      shard_sum += q.shard_ms_sum;
      shard_wall += q.wall_ms;
      imbalance_sum += q.shard_ms_max / (q.shard_ms_sum / q.shards_run);
      ++imbalance_n;
    }
  }
  for (size_t k = 0; k < Kinds().size(); ++k) {
    std::vector<double> miss_ms;
    for (const QueryRecord& q : queries) {
      if (q.kind == static_cast<int>(k) && !q.hit && !q.patched) {
        miss_ms.push_back(q.ms);
      }
    }
    report->Detail(std::string("miss_ms_p50.") + Shapes()[Kinds()[k].shape].name +
                       " " + tetris::EngineKindName(Kinds()[k].engine),
                   Quantile(miss_ms, 0.5));
  }
  const double nq = static_cast<double>(queries.size());
  report->Detail("queries", nq);
  report->Detail("mutations", static_cast<double>(mutation_ms.size()));
  report->Detail("mutation_ms_p50", Quantile(mutation_ms, 0.5));
  if (queries.size() >= 1000) report->Detail("query_ms_p99", Quantile(all_ms, 0.99));
  report->Detail("cache_hits", static_cast<double>(hits));
  report->Detail("patched", static_cast<double>(patched_ms.size()));
  report->Detail("cold_tetris", static_cast<double>(cold_ms.size()));
  report->Detail("cold_generic_join", static_cast<double>(baseline_ms.size()));

  if (!args.trace) {
    report->Set("setup_s", Quantile(setup_s, 0.5), "s");
    report->Set("queries_per_s", qps, "1/s");
    report->Set("query_ms_p50", Quantile(all_ms, 0.5), "ms");
    report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }
  const auto spans = Tracer::Spans();
  const auto parse = spans.count("protocol.ParseJson")
                         ? spans.at("protocol.ParseJson")
                         : SpanTotals{};
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report->Set("engine.parallel_executor.parallelism", ratio(shard_sum, shard_wall),
              "ratio");
  report->Set("engine.shard_planner.shard_imbalance",
              ratio(imbalance_sum, static_cast<double>(imbalance_n)), "ratio");
  report->Set("engine.incremental.patched_ms_p50", Quantile(patched_ms, 0.5), "ms");
  report->Set("engine.incremental.rerun_shard_share",
              ratio(static_cast<double>(rerun), static_cast<double>(rerun_total)),
              "ratio");
  report->Set("engine.index_cache.builds",
              static_cast<double>(icache.builds() - builds0), "count");
  report->Set("engine.index_cache.compactions",
              static_cast<double>(icache.compactions() - compactions0), "count");
  report->Set("engine.index_cache.bytes", static_cast<double>(icache.MemoryBytes()),
              "bytes");
  report->Set("server.result_cache.hit_ratio",
              ratio(static_cast<double>(hits), static_cast<double>(cached)),
              "ratio");
  report->Set("server.result_cache.hit_ms_p50", Quantile(hit_ms, 0.5), "ms");
  report->Set("server.result_cache.survivals",
              static_cast<double>(cache.survivals() - survivals0), "count");
  report->Set("server.result_cache.evictions",
              static_cast<double>(cache.evictions() - evictions0), "count");
  report->Set("server.join_service.cold_ms_p50", Quantile(cold_ms, 0.5), "ms");
  report->Set("baseline.cold_ms_p50", Quantile(baseline_ms, 0.5), "ms");
  report->Set("server.relation_registry.retired_versions", Mean(retired), "count");
  report->Set("server.protocol.parse_us_per_op",
              ratio(static_cast<double>(parse.total_ns) / 1e3,
                    static_cast<double>(parse.count)),
              "us");
  report->Set("trace.queries_per_s", qps, "1/s");
}

}  // namespace joinbench
