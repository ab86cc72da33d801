#!/usr/bin/env python3
"""Steadiness of the benchmark: run every workload N times, each with its
own seed, and print each metric's median, quartiles and worst deviation.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]
                                [--trace 0|1] [--seed-base 1000]

The spread is (q3 - q1) / median with Python's statistics.quantiles(n=4);
the worst deviation is max |value - median| / median. With --sets 2 the
runs are made twice (set B uses fresh seeds) and the command also prints,
per metric, how far set B's median moved from set A's, against the
metric's bound in BENCHMARK.json, and whether both sets failed the same
share of operations. Exit status 1 when a spread (setup_s excepted) or a
drift exceeds its bound, or an operation failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    spread = (q3 - q1) / abs(med) if med else float("inf")
    worst = max(abs(v - med) for v in values) / abs(med) if med else float("inf")
    return med, q1, q3, spread, worst


def run_set(workloads, runs, seconds, trace, seed0):
    results = {}
    for w in workloads:
        results[w] = [run_once(w, seed0 + i, seconds, trace) for i in range(runs)]
        print(f"  {w}: {runs} runs done", file=sys.stderr)
    return results


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = [run_set(workloads, args.runs, args.seconds, args.trace,
                    args.seed_base + 100 * s) for s in range(args.sets)]
    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'worst':>7} {'bound':>6}")
        for s, by_workload in enumerate(sets):
            results = by_workload[w]
            att = sum(r["attempted"] for r in results)
            fail = sum(r["failed"] for r in results)
            print(f"  set {'AB'[s]}: {att} operations attempted, {fail} failed, "
                  f"correct={all(r['correct'] for r in results)}")
            ok &= fail == 0 and all(r["correct"] for r in results)
            for name in sorted(results[0]["metrics"]):
                values = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, spread, worst = summarise(values)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" and spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.2%} {worst:7.2%} "
                      f"{'' if bound is None else format(bound, '.0%'):>6}{flag}")
        if len(sets) == 2:
            a, b = sets[0][w], sets[1][w]
            share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                     for s in (a, b)]
            print(f"  failed share A {share[0]:.6f}, B {share[1]:.6f}")
            ok &= share[0] == share[1]
            for m in bench["end_to_end"] if args.trace == 0 else []:
                ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
                mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
                worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
                flag = " WORSE>BOUND" if worse > m["bound"] else ""
                ok &= not flag
                print(f"  drift {m['name']:28} A {ma:12.6g} B {mb:12.6g} "
                      f"worse by {worse:7.2%} (bound {m['bound']:.0%}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
