#!/usr/bin/env python3
"""Compares two sets of joinbench runs of the same host (A = base, B = change).

    python3 joinbench/compare.py A_DIR B_DIR
    python3 joinbench/compare.py --overhead UNTRACED_DIR TRACED_DIR
    python3 joinbench/compare.py --self-test

A run set is a directory holding the stdout of `joinbench/run.py` runs, one
file per run (its header line names the workload and seed, its last line is
the result JSON); files without a header line are ignored. For every
workload and every end-to-end metric of BENCHMARK.json the comparison prints
both sets' medians and quartiles, the share of pairs B wins (runs paired by
seed, else by order; ties count for neither side) and a verdict. A change
is measured on a ratio scale that treats both directions alike: B is worse
by B/A - 1 for a lower-is-better metric and by A/B - 1 for a
higher-is-better one, so a 1.3x slowdown reads 0.3 worse either way.

  worse       B's median is worse than A's by more than the metric's bound
  better      B's median is better by more than A's own quartile spread and
              B wins at least 9 of 10 pairs
  unchanged   neither, with both sets' spreads within the bound
  unresolved  a set's quartile spread exceeds the bound, unless every run of
              B reads better (or worse) than every run of A

It exits 1 when any verdict is worse, and 2 when a run failed its checks or
lacks a metric. --overhead prints, per workload, untraced queries_per_s
against the traced runs' trace.queries_per_s.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class RunSetError(Exception):
    pass


def load_runs(directory):
    """{workload: [(seed, {metric: value}, correct, attempted, failed)]}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        header = result = None
        for line in lines:
            if line.startswith('{"header"'):
                header = json.loads(line)["header"]
        if header is None:
            continue  # not a run output (a log, a build transcript)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if not isinstance(result, dict) or "metrics" not in result:
            raise RunSetError("%s: the run printed no result line" % path)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(header["workload"], []).append(
            (header["seed"], values, result["correct"], result["attempted"],
             result["failed"]))
    if not runs:
        raise RunSetError("%s: no run outputs" % directory)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a_runs, b_runs):
    b_by_seed = {r[0]: r for r in b_runs}
    if all(r[0] in b_by_seed for r in a_runs) and len(a_runs) == len(b_runs):
        return [(r, b_by_seed[r[0]]) for r in a_runs]
    return list(zip(a_runs, b_runs))


def verdict(a, b, better, bound, win_share):
    """a, b: value lists; better: 'lower' or 'higher'."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if am <= 0 or bm <= 0:
        worse_by = 0.0
    else:
        worse_by = (bm / am if better == "lower" else am / bm) - 1.0
    spread_a = (a3 - a1) / abs(am) if am else 0.0
    spread_b = (b3 - b1) / abs(bm) if bm else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread_a, spread_b) > bound:
        if all_better:
            return "better"
        if all_worse:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread_a and win_share >= 0.9:
        return "better"
    return "unchanged"


def compare(bench, a_runs, b_runs, out=sys.stdout):
    """Returns (rows, exit_code). rows: dicts, one per workload x metric."""
    rows = []
    code = 0
    for workload in sorted(set(a_runs) | set(b_runs)):
        if workload not in a_runs or workload not in b_runs:
            raise RunSetError("workload %s is missing from one set" % workload)
        for side, runs in (("A", a_runs[workload]), ("B", b_runs[workload])):
            for seed, values, correct, attempted, failed in runs:
                if not correct:
                    raise RunSetError("%s %s seed %s failed its correctness "
                                      "checks" % (side, workload, seed))
                for m in bench["end_to_end"]:
                    if m["name"] not in values:
                        raise RunSetError("%s %s seed %s lacks metric %s" %
                                          (side, workload, seed, m["name"]))
        fail_a = [r[4] / r[3] for r in a_runs[workload]]
        fail_b = [r[4] / r[3] for r in b_runs[workload]]
        print("%s  (A: %d runs, failed share %.4g; B: %d runs, failed share "
              "%.4g)" % (workload, len(a_runs[workload]), max(fail_a),
                         len(b_runs[workload]), max(fail_b)), file=out)
        for m in bench["end_to_end"]:
            name = m["name"]
            pr = pairs(a_runs[workload], b_runs[workload])
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(1 for x, y in pr
                       if sign * (y[1][name] - x[1][name]) < 0)
            win_share = wins / len(pr) if pr else 0.0
            a = [r[1][name] for r in a_runs[workload]]
            b = [r[1][name] for r in b_runs[workload]]
            v = verdict(a, b, m["better"], m["bound"], win_share)
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            rows.append({"workload": workload, "metric": name, "verdict": v,
                         "a_median": am, "b_median": bm, "win_share": win_share})
            print("  %-14s %-10s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  "
                  "B/A %.4f  B wins %.0f%%  bound %g" %
                  (name, v, am, a1, a3, bm, b1, b3, bm / am if am else 0.0,
                   100 * win_share, m["bound"]), file=out)
            if v == "worse":
                code = 1
    return rows, code


def overhead(untraced, traced, out=sys.stdout):
    for workload in sorted(untraced):
        if workload not in traced:
            continue
        u = statistics.median(r[1]["queries_per_s"] for r in untraced[workload])
        t = statistics.median(r[1]["trace.queries_per_s"]
                              for r in traced[workload])
        print("%-18s untraced %.6g/s  traced %.6g/s  overhead %+.1f%%" %
              (workload, u, t, 100 * (u / t - 1)), file=out)


def self_test():
    """Synthetic run sets under the real bounds of BENCHMARK.json."""
    with open(BENCHMARK) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    def runs(worsen=None, factor=1.3, drop=None):
        """Ten runs per workload; `worsen` shifts one metric by `factor` in
        its own worse direction (a factor below 1 improves it)."""
        out = {}
        for workload in ("worst-case", "serving"):
            out[workload] = []
            for seed in range(1, 11):
                jitter = 1.0 + 0.01 * ((seed * 7) % 5 - 2)
                values = {}
                for i, m in enumerate(metrics):
                    v = (i + 1) * 10.0 * jitter
                    if m["name"] == worsen:
                        v = v * factor if m["better"] == "lower" else v / factor
                    values[m["name"]] = v
                if drop:
                    del values[drop]
                out[workload].append((seed, values, True, 100, 0))
        return out

    sink = open(os.devnull, "w")
    rows, code = compare(bench, runs(), runs(), out=sink)
    assert code == 0 and all(r["verdict"] == "unchanged" for r in rows), rows
    for m in metrics:
        rows, code = compare(bench, runs(), runs(worsen=m["name"]), out=sink)
        by = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
        for (workload, name), v in by.items():
            want = "worse" if name == m["name"] else "unchanged"
            assert v == want, (m["name"], workload, name, v)
        assert code == 1, m["name"]
        rows, code = compare(bench, runs(),
                             runs(worsen=m["name"], factor=1 / 1.3), out=sink)
        by = {r["metric"]: r["verdict"] for r in rows}
        assert code == 0 and by[m["name"]] == "better", (m["name"], by)
    try:
        compare(bench, runs(), runs(drop=metrics[-1]["name"]), out=sink)
    except RunSetError:
        pass
    else:
        raise AssertionError("a missing metric must fail the comparison")
    print("compare.py self-test: ok (%d end-to-end metrics, bounds of %s)" %
          (len(metrics), os.path.basename(BENCHMARK)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dirs", nargs="*")
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if len(args.dirs) != 2:
        ap.error("want two run-set directories")
    try:
        a, b = load_runs(args.dirs[0]), load_runs(args.dirs[1])
        if args.overhead:
            overhead(a, b)
            return 0
        with open(BENCHMARK) as f:
            bench = json.load(f)
        return compare(bench, a, b)[1]
    except RunSetError as e:
        print("compare.py: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
