#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs each workload repeatedly, each time with another seed, and prints
min, quartiles, median and max of every metric next to its bound. The
spread column is (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`; a metric is steady when its spread
stays under a third of its bound.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--trace]

Run it from the repository root. Run k uses seed k, every workload of
BENCHMARK.json runs, and every run lasts its `run_seconds`. Every
end-to-end metric gets a verdict, `setup_s` too: ok (spread under a
third of the bound), WIDE (under the bound) or FAIL.

`--sets 2` makes two sets of runs of the same code, alternating seed by
seed (set 1 seed 1, set 2 seed 1, set 1 seed 2, ...), prints each set's
table, and then how far each metric's median in the second set is from
the first, against the metric's bound (FAIL when it is worse by more).

`--trace` runs the traced run instead (once: it covers every workload
group whatever `--workload` says): it reports the per-layer metrics and
checks that every count metric repeats exactly when seed 1 is run a
second time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}\n{proc.stderr[-2000:]}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    seconds = bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    if args.trace:
        workloads = workloads[:1]
    print(f"{args.runs} runs per workload and set, {args.sets} set(s), seeds 1..{args.runs}, "
          f"{seconds} s each, {'traced' if args.trace else 'end-to-end'}")
    for workload in workloads:
        sets = [{m["name"]: [] for m in metrics} for _ in range(args.sets)]
        first = None
        for k in range(args.runs):
            for values in sets:
                result = run_once(bench["command"], workload, k + 1, seconds, args.trace)
                first = first or result
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
        medians = []
        for i, values in enumerate(sets):
            print(f"\n== {workload}" + (f", set {i + 1}" if args.sets > 1 else ""))
            medians.append(table(metrics, values))
        for i in range(1, args.sets):
            print(f"\n== {workload}, set {i + 1} against set 1 (median change, + is worse)")
            for m in metrics:
                a, b = medians[0][m["name"]], medians[i][m["name"]]
                worse = (b - a) / a * (-1 if m["better"] == "higher" else 1)
                bound = m.get("bound")
                flag = "" if bound is None else ("ok" if worse <= bound else "FAIL")
                print(f"{m['name']:<40} {a:>11.4g} {b:>11.4g} {worse:>+8.3f} "
                      f"{bound if bound is not None else '-':>6} {flag}")
        if args.trace:
            again = run_once(bench["command"], workload, 1, seconds, True)
            counts = [m["name"] for m in metrics if m["unit"] == "count"]
            diff = [c for c in counts
                    if again["metrics"][c]["value"] != first["metrics"][c]["value"]]
            print(f"counts repeat exactly with seed 1: "
                  f"{'yes' if not diff else 'NO: ' + ', '.join(diff)}")


def table(metrics, values):
    """Prints one set's table; returns each metric's median."""
    print(f"{'metric':<40} {'min':>11} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'max':>11} {'spread':>7} {'bound':>6}")
    medians = {}
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        medians[m["name"]] = med
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "FAIL")
        print(f"{m['name']:<40} {min(v):>11.4g} {q1:>11.4g} {med:>11.4g} {q3:>11.4g} "
              f"{max(v):>11.4g} {spread:>7.3f} {bound if bound is not None else '-':>6} {flag}")
    return medians

if __name__ == "__main__":
    main()
