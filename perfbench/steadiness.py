#!/usr/bin/env python3
"""Checks that the benchmark repeats on one commit.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seconds 20]
                                    [--workload NAME ...]

Runs every workload `runs` times per set, each run on its own seed, with
the sets interleaved run by run (set A seeds 1..runs, set B seeds
runs+1..2*runs, ...). For each end-to-end metric it prints each set's
median, quartiles and spread (Q3 - Q1 as a share of the median, quartiles
as statistics.quantiles(n=4) gives them). The sets agree when every
spread except setup_s's stays within the metric's bound from
BENCHMARK.json, no set's median differs from the first set's, better or
worse, by more than the bound, and every run fails exactly the same share
of its operations. setup_s is held to its median only: it times a few
milliseconds of allocation per round, whose spread over runs is the
host's, while work moved into set-up shows in the median.
Exits 0 when they agree and 1 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's runner, same directory)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, other, better):
    """How much worse `other` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0
    change = (other - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    out = run.build()
    if out is None:
        print("build failed", file=sys.stderr)
        return 1
    binary = out / "sbqa_perfbench"

    # results[workload][set] -> list of result objects
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for i in range(args.runs):
        for s in range(args.sets):
            for workload in workloads:
                seed = s * args.runs + i + 1
                _, result = run.run_workload(binary, workload, seed, seconds,
                                             0)
                results[workload][s].append(result)
                print(f"# {workload} set {s} seed {seed}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)

    agree = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':24s} {'set':>3s} {'median':>14s} {'q1':>14s} "
              f"{'q3':>14s} {'spread':>7s} {'bound':>6s} {'worse':>7s}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, runs in enumerate(results[workload]):
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, spread = summarize(values)
                first = median if first is None else first
                worse = worse_by(first, median, metric["better"])
                ok = abs(worse) <= bound and (
                    name == "setup_s" or spread <= bound)
                agree &= ok
                print(f"  {name:24s} {s:3d} {median:14.6g} {q1:14.6g} "
                      f"{q3:14.6g} {spread:7.4f} {bound:6.2f} {worse:+7.4f}"
                      f"{'' if ok else '  DISAGREE'}")
        shares = {
            tuple(sorted({r["failed"] / r["attempted"] for r in runs}))
            for runs in results[workload]}
        correct = all(r["correct"] for runs in results[workload] for r in runs)
        print(f"  failed share per run: {sorted(shares)}; all correct: "
              f"{correct}")
        agree &= len(shares) == 1 and len(next(iter(shares))) == 1 and correct
    print("\nsets agree" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
