#!/usr/bin/env python3
"""Check that the benchmark repeats within its own bounds.

    python3 perfbench/steadiness.py [--commit REV] [--runs 10] \
        [--seconds 10] [--workloads avl_churn,...] [--work DIR]

Exports one commit (or, by default, the working tree as git would commit
it) twice into two directories under --work, so each copy builds on its
own, then alternates runs of the two copies:
run i of either side uses seed --seed-base + i, and the side that goes
first alternates. For every end-to-end metric of BENCHMARK.json and every
workload it prints each side's median and quartiles, the spread (the
distance between the quartiles over the median) and whether both spreads
and the shift between the medians, either way, stay within the metric's
bound. It also checks that the share of failed operations is the same on
both sides.

    python3 perfbench/steadiness.py --overhead [--runs 5] ...

instead alternates untraced and traced runs of one copy and prints how
much the traced run's update_p50_us and updates_per_s differ from the
untraced run's: the tracing overhead.

Run from the root of a git checkout. Exit code 0 when everything agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PREFIX = "PERFBENCH_ALL "
# Counts that must repeat exactly between two runs at one seed.
EXACT = ("graph.execs_per_update", "graph.edges_created_per_update",
         "graph.edges_removed_per_update", "graph.edges_deduped_per_update",
         "graph.cutoffs_per_update", "graph.static_calls_per_update",
         "graph.undo_entries_per_batch", "graph.bytes",
         "graph.bytes_per_session", "attempted")


def export(commit, dest):
    """Copies the tree into dest: the files of commit, or without one the
    working tree as git would commit it (nothing .gitignore names)."""
    if os.path.isdir(os.path.join(dest, "src")):
        return
    os.makedirs(dest, exist_ok=True)
    if commit:
        archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                                 stdout=subprocess.PIPE, check=True).stdout
    else:
        listed = subprocess.run(
            ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], stdout=subprocess.PIPE, check=True)
        files = [f for f in listed.stdout.split(b"\0")
                 if f and os.path.isfile(os.path.join(ROOT.encode(), f))]
        archive = subprocess.run(["tar", "-c", "-C", ROOT, "--null", "-T",
                                  "-"], input=b"\0".join(files),
                                 stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    full = None
    for line in lines:
        if line.startswith(RESULT_PREFIX):
            full = json.loads(line[len(RESULT_PREFIX):])
    if p.returncode != 0 or full is None:
        sys.stderr.write(p.stdout[-3000:])
        raise SystemExit("run failed: %s in %s (exit %d)"
                         % (" ".join(cmd), tree, p.returncode))
    last = json.loads(lines[-1])
    values = {k: v["value"] for k, v in full["metrics"].items()}
    values["attempted"] = last["attempted"]
    return values, last["failed"] / last["attempted"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def steadiness(args, spec):
    trees = [os.path.join(args.work, side) for side in ("a", "b")]
    for tree in trees:
        export(args.commit, tree)
    ok = True
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for workload in args.workloads:
        samples = [[], []]
        fail_share = [set(), set()]
        for i in range(args.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                t0 = time.time()
                values, share = run_once(trees[side], workload,
                                         args.seed_base + i, args.seconds, 0)
                samples[side].append(values)
                fail_share[side].add(share)
                print("  %s run %d side %s (%.0f s): %s" % (
                    workload, i, "ab"[side], time.time() - t0,
                    " ".join("%s=%.4g" % (n, values[n]) for n in bounds)),
                    flush=True)
        print("\n%s (%d runs per side, %g s each)" % (workload, args.runs,
                                                     args.seconds))
        print("  %-18s %-30s %-30s %7s %7s %7s  %s" % (
            "metric", "A q1/median/q3", "B q1/median/q3", "sprA", "sprB",
            "shift", "verdict"))
        for name, (bound, better) in bounds.items():
            a = [s[name] for s in samples[0]]
            b = [s[name] for s in samples[1]]
            qa, qb = quartiles(a), quartiles(b)
            sa, sb = spread(a), spread(b)
            # How much worse side B's median is than side A's. Both sides
            # run the same code, so a shift either way counts.
            worse = (qb[1] - qa[1]) / qa[1]
            if better == "higher":
                worse = -worse
            steady = sa <= bound and sb <= bound
            agree = abs(worse) <= bound
            ok &= steady and agree
            verdict = "ok" if steady and agree else "NOT STEADY"
            if verdict == "ok" and max(sa, sb) > bound / 3:
                verdict = "ok, spread above a third of the bound"
            print("  %-18s %-30s %-30s %7.3f %7.3f %+7.3f  %s (bound %.2f)"
                  % (name, "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb,
                     sa, sb, worse, verdict, bound))
        differ = sorted({k for a, b in zip(*samples) for k in EXACT
                         if k in a and a[k] != b.get(k)})
        ok &= not differ
        print("  counts at equal seeds: %s" % (
            "identical" if not differ else "DIFFER: " + ", ".join(differ)))
        same = fail_share[0] == fail_share[1] and len(fail_share[0]) == 1
        ok &= same
        print("  failed share: A %s, B %s: %s" % (
            sorted(fail_share[0]), sorted(fail_share[1]),
            "same" if same else "DIFFERS"), flush=True)
    return ok


def overhead(args):
    tree = os.path.join(args.work, "a")
    export(args.commit, tree)
    for workload in args.workloads:
        runs = [[], []]
        for i in range(args.runs):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                values, _ = run_once(tree, workload, args.seed_base + i,
                                     args.seconds, trace)
                runs[trace].append(values)
        for name in ("update_p50_us", "updates_per_s"):
            off = statistics.median(r[name] for r in runs[0])
            on = statistics.median(r[name] for r in runs[1])
            print("%s %s: untraced %.4g, traced %.4g (%+.1f%%)"
                  % (workload, name, off, on, 100 * (on - off) / off),
                  flush=True)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--commit", default=None,
                    help="default: the working tree as git would commit it")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--work", default=os.path.join(ROOT, ".bench_build",
                                                   "steadiness"))
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.workloads = (args.workloads.split(",") if args.workloads
                      else [w["name"] for w in spec["workloads"]])
    args.work = os.path.abspath(args.work)
    ok = overhead(args) if args.overhead else steadiness(args, spec)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
