#!/usr/bin/env python3
"""Builds condsel_bench from source and runs one workload.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

The library and the benchmark are built with CMake into
$CARGO_TARGET_DIR/condsel_bench-<key> (CARGO_TARGET_DIR defaults to
.bench_build, relative to the checkout root; the key names the source tree).
Build output goes to stderr. The benchmark's own report goes to stdout, and
the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1. The full record of the run (provenance,
window rates, all metrics) is merged into BENCH_suite.json, and a traced run
writes its spans to TRACE_<workload>.json, both at the checkout root.

Exit status: 0 when the outputs checked out; 1 when they did not (the result
line is still printed, with "correct": false); 2, with no result line, when
nothing could be measured: the sources are missing, the build failed, or the
run produced no complete result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    # Keyed by the source tree, so checkouts sharing one target directory
    # never reuse each other's CMake cache.
    key = hashlib.sha1(str(SUITE).encode()).hexdigest()[:8]
    return base / f"condsel_bench-{key}"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(SUITE), "-B", str(bdir), *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", str(bdir), "--target", "condsel_bench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "condsel_bench"


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env():
    # The library reads CONDSEL_* knobs (auditing, lock-order checks,
    # scale); a benchmark run uses none of them.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("CONDSEL_")}


def merge_suite_record(record):
    path = ROOT / "BENCH_suite.json"
    try:
        suite = json.loads(path.read_text())
    except (OSError, ValueError):
        suite = {}
    if not isinstance(suite.get("runs"), dict):
        suite = {"runs": {}}
    suite["runs"][record["workload"]] = record
    path.write_text(json.dumps(suite, indent=1) + "\n")


def selected_metrics(record, specs):
    """The result line's metrics; None if one is missing or malformed."""
    out = {}
    for spec in specs:
        got = record.get("metrics", {}).get(spec["name"])
        if (not isinstance(got, dict) or got.get("unit") != spec["unit"]
                or not isinstance(got.get("value"), (int, float))
                or not math.isfinite(got["value"])):
            print(f"run.py: metric {spec['name']} missing or malformed",
                  file=sys.stderr)
            return None
        out[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; expected one of {names}")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    binary = build(bdir)
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}.json"
    if out.exists():
        out.unlink()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out),
               "--trace-out", str(ROOT / f"TRACE_{args.workload}.json"),
               "--git-sha", git_sha()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"condsel_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    try:
        record = json.loads(out.read_text())
    except (OSError, ValueError):
        fail(f"condsel_bench exited {proc.returncode} without a result")

    merge_suite_record(record)
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = selected_metrics(record, specs)
    if metrics is None:
        fail("the result does not match BENCHMARK.json")
    correct = bool(record.get("correct")) and proc.returncode == 0
    line = {"correct": correct,
            "attempted": int(record.get("attempted", 0)),
            "failed": int(record.get("failed", 0)),
            "metrics": metrics}
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
