#!/usr/bin/env python3
"""Builds the SbQA benchmark from source and runs it.

    python3 perfbench/run.py --workload serve-replay --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The library and the benchmark are built
(Release) into $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench. A single workload runs in its own process and the
last line printed is its JSON result: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). With
--workload all each workload runs in turn, in its own process.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-replay", "sim-paper", "sim-sharded-faults")
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def cmake(*args):
    # Build chatter goes to stderr: stdout ends with the JSON result.
    return subprocess.run(["cmake", *args], stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for attempt in range(2):
        if ((out / "CMakeCache.txt").exists() or
                cmake("-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release")):
            if cmake("--build", str(out), "-j", jobs):
                return out
        if attempt == 0 and (out / "CMakeCache.txt").exists():
            # A cache from another checkout location: start afresh once.
            shutil.rmtree(out)
            continue
        break
    return None


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (output lines, result)."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: malformed result line")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    out = build()
    if out is None:
        print("build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")]).returncode

    binary = out / "sbqa_perfbench"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            lines, results[workload] = run_workload(
                binary, workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines if len(workloads) == 1 else lines[:-1]),
                  flush=True)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if len(workloads) > 1:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
