// Shared pieces of the joinbench driver: run arguments, the run report
// (metrics, per-op-kind accounting, correctness), timing and summary
// statistics, and the output fingerprint the correctness checks compare.
#ifndef JOINBENCH_BENCH_H_
#define JOINBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace joinbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Quantile by linear interpolation between closest ranks (q in [0,1]);
/// 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// 64-bit hash of one tuple.
uint64_t TupleHash(const tetris::Tuple& t);

/// Order-independent fingerprint of a tuple set: the wrapping sum of its
/// tuples' hashes, so it can also be maintained under inserts and
/// deletes. Two outputs are treated as equal iff count and fingerprint
/// match.
uint64_t Fingerprint(const std::vector<tetris::Tuple>& tuples);

/// getrusage max resident set of this process, in MiB.
double PeakRssMb();

/// What one run reports. `metrics` is the last stdout line's payload;
/// `details` and the per-kind counts go on the line before it.
struct Report {
  bool correct = true;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::map<std::string, int64_t> attempted;  ///< per op kind
  std::map<std::string, int64_t> failed;     ///< per op kind
  /// name -> (value, unit), in insertion order of first Set.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> details;

  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.first == name) {
        m.second = {value, unit};
        return;
      }
    }
    metrics.push_back({name, {value, unit}});
  }
  void Detail(const std::string& name, double value) {
    details.push_back({name, value});
  }
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// Entry points of the three workloads. Each fills `report` (end-to-end
/// metrics with args.trace == false, per-layer metrics otherwise).
void RunWorstCase(const Args& args, Report* report);
void RunBeyondWorstCase(const Args& args, Report* report);
void RunServing(const Args& args, Report* report);

/// Every per-layer metric name with its unit; a traced run reports all of
/// them, 0 where the workload does not exercise that layer.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace joinbench

#endif  // JOINBENCH_BENCH_H_
