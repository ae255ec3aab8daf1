#!/usr/bin/env python3
"""Builds joinbench from source and runs one workload in its own process.

    python3 joinbench/run.py --workload <worst-case|beyond-worst-case|serving>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/joinbench (default .bench_build/joinbench): a Release
build of the library sources and the driver, without the test, bench or
example targets. Build output goes to stderr; stdout carries the driver's
header line, its report line and, last, the result JSON line. A traced run
(--trace 1) also writes its spans to <build>/traces/<workload>-seed<n>.jsonl.
The exit status is the driver's (0 = every correctness check passed), or 1
when the build fails or the run overstays its time limit.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("worst-case", "beyond-worst-case", "serving")
# A run must end well inside three minutes, set-up and checks included.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "joinbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """The commit when run inside a git checkout, else a hash of src/."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if (rev.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    out = build_dir()
    if not build(out):
        return 1
    cmd = [os.path.join(out, "joinbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", source_id()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # One malloc arena: with per-thread arenas the serving run's max RSS
    # moves by a quarter from run to run with no change in live memory.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
