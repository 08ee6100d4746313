#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command from BENCHMARK.json once per seed on each workload, then
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance as a share of the median) next to the metric's
bound. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --workloads sweep,serve
    python3 perfbench/steady.py --runs 10 --out runs.json
    python3 perfbench/steady.py --runs 10 --compare runs.json

A spread should stay below a third of its bound (setup_s is exempt), and a
median should not be worse than an earlier set's by more than its bound.
Every run must report correct = true and failed = 0.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="", help="an earlier --out file: report each median's drift against it")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = json.load(open(args.compare)) if args.compare else {}
    record = {}
    ok = True
    for w in names:
        values = {m: [] for m in bounds}
        walls = []
        for i in range(args.runs):
            res, wall = run_once(bench["command"], w, args.seed_base + i, bench["run_seconds"], 0)
            walls.append(wall)
            print(f"  {w} seed {args.seed_base + i}: {wall:.1f} s " + " ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
            if not res["correct"] or res["failed"] != 0:
                ok = False
                print(f"{w} seed {args.seed_base + i}: correct={res['correct']} failed={res['failed']}")
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        record[w] = {"values": values, "wall_s": walls}
        print(f"{w}: {args.runs} runs, wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':20s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = m == "setup_s" or spread < bounds[m] / 3
            ok = ok and steady
            flag = "" if steady else "  <-- above bound/3"
            if w in earlier:
                old = statistics.median(earlier[w]["values"][m])
                worse = (med - old) / old if lower[m] else (old - med) / old
                ok = ok and worse <= bounds[m]
                flag += f"  median worse than earlier by {worse:+.4f}" + ("" if worse <= bounds[m] else " (beyond bound)")
            print(f"  {m:20s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bounds[m]:6.3f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
