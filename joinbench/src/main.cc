// joinbench — runs one workload and prints its metrics.
//
//   joinbench --workload <worst-case|beyond-worst-case|serving>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-out <file>]
//
// Output: a `header` JSON line (commit, compiler, build type, nproc,
// seed), a `report` JSON line (per-op-kind attempted/failed, every
// workload-specific figure, failed checks), then the result line:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exit status 0 iff every correctness check passed and the
// arguments were valid.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "engine/parallel_executor.h"
#include "trace.h"

namespace joinbench {

uint64_t TupleHash(const tetris::Tuple& t) {
  uint64_t h = 0x243f6a8885a308d3ull ^ t.size();
  for (uint64_t v : t) {
    h ^= v;
    h *= 0x9e3779b97f4a7c15ull;  // splitmix64 finalizer steps
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
  }
  return h;
}

uint64_t Fingerprint(const std::vector<tetris::Tuple>& tuples) {
  uint64_t fp = 0;
  for (const tetris::Tuple& t : tuples) fp += TupleHash(t);
  return fp;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"relation.canonicalize_ms", "ms"},
      {"index.build_ns_per_row", "ns"},
      {"index.bytes_per_row", "bytes"},
      {"index.probes_per_query", "count"},
      {"index.probe_ns", "ns"},
      {"index.gaps_per_probe", "count"},
      {"index.enumerate_ms_per_query", "ms"},
      {"index.enumerations_per_gap_box", "ratio"},
      {"kb.inserts_per_query", "count"},
      {"kb.boxes_loaded_per_query", "count"},
      {"kb.peak_bytes", "bytes"},
      {"engine.tetris.self_ms_per_query", "ms"},
      {"engine.tetris.ns_per_resolution", "ns"},
      {"engine.tetris.skeleton_nodes_per_query", "count"},
      {"engine.tetris.resolutions_per_query", "count"},
      {"engine.join_runner.oracle_probes_per_query", "count"},
      {"engine.balance.query_ms_p50", "ms"},
      {"engine.parallel_executor.parallelism", "ratio"},
      {"engine.shard_planner.shard_imbalance", "ratio"},
      {"engine.incremental.patched_ms_p50", "ms"},
      {"engine.incremental.rerun_shard_share", "ratio"},
      {"engine.index_cache.builds", "count"},
      {"engine.index_cache.compactions", "count"},
      {"engine.index_cache.bytes", "bytes"},
      {"server.result_cache.hit_ratio", "ratio"},
      {"server.result_cache.hit_ms_p50", "ms"},
      {"server.result_cache.survivals", "count"},
      {"server.result_cache.evictions", "count"},
      {"server.join_service.cold_ms_p50", "ms"},
      {"baseline.cold_ms_p50", "ms"},
      {"server.relation_registry.retired_versions", "count"},
      {"server.protocol.parse_us_per_op", "us"},
      {"trace.queries_per_s", "1/s"},
  };
  return m;
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "joinbench: %s\nusage: joinbench --workload "
               "<worst-case|beyond-worst-case|serving> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace joinbench

int main(int argc, char** argv) {
  using namespace joinbench;
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    if (flag == "--workload") {
      args.workload = val;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (flag == "--trace") {
      args.trace = val == "1";
    } else if (flag == "--commit") {
      commit = val;
    } else if (flag == "--trace-out") {
      args.trace_out = val;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "worst-case") run = RunWorstCase;
  if (args.workload == "beyond-worst-case") run = RunBeyondWorstCase;
  if (args.workload == "serving") run = RunServing;
  if (run == nullptr) return Usage("unknown --workload");

  std::printf(
      "{\"header\":{\"workload\":\"%s\",\"commit\":\"%s\",\"compiler\":"
      "\"gcc %s\",\"build_type\":\"%s\",\"nproc\":%d,\"seed\":%llu,"
      "\"seconds\":%s,\"trace\":%d}}\n",
      Escape(args.workload).c_str(), Escape(commit).c_str(), __VERSION__,
      JOINBENCH_BUILD_TYPE, tetris::WorkStealingPool::HardwareThreads(),
      static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(),
      args.trace ? 1 : 0);
  std::fflush(stdout);

  if (args.trace) Tracer::Enable();
  Report report;
  run(args, &report);

  if (args.trace) {
    // Every per-layer metric is reported; a layer this workload does not
    // exercise reads 0.
    for (const auto& [name, unit] : PerLayerMetrics()) {
      bool present = false;
      for (const auto& m : report.metrics) present |= m.first == name;
      if (!present) report.Set(name, 0.0, unit);
    }
    if (!args.trace_out.empty()) {
      report.Detail("spans_written",
                    static_cast<double>(Tracer::WriteSpans(args.trace_out)));
    }
  }

  int64_t attempted = 0, failed = 0;
  std::string kinds;
  for (const auto& [kind, n] : report.attempted) {
    attempted += n;
    failed += report.failed[kind];
    kinds += (kinds.empty() ? "" : ",") + std::string("\"") + kind +
             "\":{\"attempted\":" + std::to_string(n) +
             ",\"failed\":" + std::to_string(report.failed[kind]) + "}";
  }
  std::string details, errors;
  for (const auto& [name, v] : report.details) {
    details += (details.empty() ? "" : ",") + std::string("\"") +
               Escape(name) + "\":" + Num(v);
  }
  for (const std::string& e : report.errors) {
    errors += (errors.empty() ? "\"" : ",\"") + Escape(e) + "\"";
  }
  std::printf("{\"report\":{\"ops\":{%s},\"figures\":{%s},\"errors\":[%s]}}\n",
              kinds.c_str(), details.c_str(), errors.c_str());

  std::string metrics;
  for (const auto& [name, vu] : report.metrics) {
    metrics += (metrics.empty() ? "" : ",") + std::string("\"") + name +
               "\":{\"value\":" + Num(vu.first) + ",\"unit\":\"" + vu.second +
               "\"}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
