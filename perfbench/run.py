#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

    python3 perfbench/run.py --workload avl_churn|sheet_sessions|alf_avl \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The benchmark program (perfbench/*.cpp over src/)
is built in Release under .bench_build/perfbench; later runs rebuild only
what changed. Everything the run writes stays under .bench_build.

The workload's own report goes to standard output; the last line is one
JSON object with "correct", "attempted", "failed" and "metrics", where the
metrics are the end_to_end ones of BENCHMARK.json (--trace 0) or its
per_layer ones (--trace 1). The exit code is 0 only when every check of
the run passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("avl_churn", "sheet_sessions", "alf_avl")
# Overrides that would change the program's configuration behind the
# benchmark's back; a run never sees them.
CLEARED_ENV = ("ALPHONSE_JOBS", "ALPHONSE_AUDIT", "ALPHONSE_NO_BYTECODE",
               "ALPHONSE_NO_STATIC_GRAPH")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_ALL "


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env():
    env = dict(os.environ)
    for name in CLEARED_ENV:
        if env.pop(name, None) is not None:
            print("cleared %s from the environment" % name)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build(env):
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die("build step %s failed: %s" % (cmd[:2], e))
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            die("build step %s failed" % " ".join(cmd[:2]))
    return os.path.join(BUILD_DIR, "perfbench")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/CMakeLists.txt under %s: not a source tree" % ROOT)
    env = clean_env()
    binary = build(env)
    names = metric_names(args.trace)

    work = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--alf", os.path.join(BENCH_DIR, "alf_avl.alf")]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(BUILD_DIR, "trace-%s.json" % args.workload)]
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload %s did not finish within %d s"
            % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = None
    for line in p.stdout.splitlines():
        print(line)
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
    if result is None:
        die("workload %s printed no result (exit code %d)"
            % (args.workload, p.returncode))
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        die("workload %s did not measure %s" % (args.workload,
                                                ", ".join(missing)))
    correct = bool(result["correct"]) and p.returncode == 0
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names},
    }
    print(json.dumps(out))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
