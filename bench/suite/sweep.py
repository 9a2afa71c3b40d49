#!/usr/bin/env python3
"""Runs the benchmark over many seeds and keeps the results as one set.

    python3 bench/suite/sweep.py --seeds 1-10 --out SET.json \\
        [--workloads subplan_stream,adhoc_wide] [--seconds 10] [--trace 0] \\
        [--other-root CHECKOUT --other-out OTHER.json]

Every (workload, seed) pair runs through run.py exactly as the benchmark's
command does. With --other-root, every pair also runs in a second checkout
(a parent commit, or the same tree again), alternating which side goes
first, and that side's set goes to --other-out; compare.py then sees two
sets that the host's drift affected alike. A set holds each run's result
line, and the provenance and details (window rates, sample counts) of its
BENCH_suite.json record, one run per line. The script prints, per workload
and metric, the median over seeds and the spread (interquartile range over
median, quartiles as statistics.quantiles(n=4) gives them) next to the
metric's bound; a spread above a third of the bound is flagged. Exit status
1 if a run failed or a spread other than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def run_one(root, workload, seed, seconds, trace):
    command = [sys.executable, str(root / "bench" / "suite" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"workload": workload, "seed": seed, "correct": False,
                "error": f"no result (exit {proc.returncode})", "wall_s": wall}
    try:
        record = json.loads((root / "BENCH_suite.json").read_text())
        record = record["runs"][workload]
    except (OSError, ValueError, KeyError):
        record = {}
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "correct": result["correct"] and proc.returncode == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "provenance": record.get("provenance", {}),
            "details": record.get("details", {})}


def write_set(path, seconds, trace, runs):
    """One run per line, so sets stay readable and diff well."""
    rows = ",\n".join(json.dumps(run) for run in runs)
    Path(path).write_text(f'{{"seconds": {json.dumps(seconds)}, '
                          f'"trace": {trace}, "runs": [\n{rows}\n]}}\n')


def report(benchmark, runs, trace):
    specs = benchmark["per_layer" if trace else "end_to_end"]
    ok = True
    print(f"{'workload':16} {'metric':36} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for w in benchmark["workloads"]:
        mine = [r for r in runs
                if r["workload"] == w["name"] and "metrics" in r]
        for spec in specs:
            values = [r["metrics"][spec["name"]] for r in mine]
            if not values:
                continue
            s = spread(values)
            bound = spec.get("bound")
            flag = ""
            if bound is not None:
                if s > bound and spec["name"] != "setup_s":
                    flag, ok = "OVER", False
                elif s > bound / 3:
                    flag = "> bound/3"
            print(f"{w['name']:16} {spec['name']:36} "
                  f"{statistics.median(values):12.6g} {s:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--other-root", type=Path, default=None)
    parser.add_argument("--other-out", default=None)
    args = parser.parse_args()
    if (args.other_root is None) != (args.other_out is None):
        parser.error("--other-root and --other-out go together")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    seconds = args.seconds or benchmark["run_seconds"]
    sides = [(ROOT, args.out, [])]
    if args.other_root is not None:
        sides.append((args.other_root.resolve(), args.other_out, []))
    for workload in workloads:
        for k, seed in enumerate(parse_seeds(args.seeds)):
            for root, _, runs in sides[k % 2:] + sides[:k % 2]:
                run = run_one(root, workload, seed, seconds, args.trace)
                runs.append(run)
                status = "ok" if run["correct"] else "FAILED"
                print(f"# {root.name} {workload} seed {seed}: {status} "
                      f"({run['wall_s']:.1f} s)", flush=True)
    ok = True
    for root, out, runs in sides:
        write_set(out, seconds, args.trace, runs)
        print(f"== {out}")
        ok = report(benchmark, runs, args.trace) and ok
        ok = ok and all(r["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
