#!/usr/bin/env python3
"""Runs the benchmark in sets of seeded runs and checks that it is steady.

For every workload in BENCHMARK.json this runs the benchmark command
`--runs` times per set (each run with its own seed) for `--sets` sets, then
prints, per end-to-end metric and set, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread (q3 - q1) /
median. With two or more sets it also checks that every set agrees with the
first: each spread within the metric's bound, each median within the bound
of the first set's (either way), and the same share of failed operations.
Spreads at or above a third of the bound are flagged. Exit status 0 means
every check held.

    python3 perfbench/repeat.py                       # 2 sets x 10 runs, all workloads
    python3 perfbench/repeat.py --sets 1 --runs 5 --workloads serve

Run it from the repository root. The raw results are kept in
perfbench/out/repeat-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = elapsed
    return result


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def change(first, other):
    """How far `other` lies from `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if other == first else float("inf")
    return abs(other - first) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    metrics = bench["end_to_end"]

    results = {}
    ok = True
    for w in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                r = run_once(bench, w, seed, seconds, 0)
                print(f"{w} set {k + 1} seed {seed}: {r['wall_s']:.1f}s attempted {r['attempted']} "
                      f"failed {r['failed']} correct {r['correct']}", flush=True)
                ok &= bool(r["correct"])
                runs.append(r)
            sets.append(runs)
        results[w] = sets
        print(f"\n== {w} ==")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print("failed share per set: " + ", ".join(f"{x:.6f}" for x in shares))
        if len(set(shares)) > 1:
            print("  DISAGREE: the failed share differs between sets")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            summaries = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
            cells = []
            verdict = "ok"
            for k, (med, q1, q3, spread) in enumerate(summaries):
                cells.append(f"set{k + 1} med {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}")
                if spread > bound:
                    verdict = "SPREAD"
                if k > 0 and change(summaries[0][0], med) > bound:
                    verdict = "DRIFT"
            steady = all(s[3] < bound / 3 for s in summaries)
            if verdict != "ok":
                ok = False
            note = "" if steady else " (spread at or above a third of the bound)"
            print(f"  {name:30s} bound {bound:<5} {verdict:6s} " + " | ".join(cells) + note)
        print(flush=True)

    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    path = os.path.join(ROOT, "perfbench", "out", f"repeat-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
