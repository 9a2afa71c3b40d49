#!/usr/bin/env python3
"""Fail when the benchmark suite's allocations per request exceed a ceiling.

Reads one result record per workload of tools/bench_alloc_ceiling.toml,
as written by the suite's traced pass,

  build-suite/condsel_bench --workload W --seed 1 --seconds 1 --trace 1 \\
      --out suite_W.json

from --bench-dir (default the current directory), and compares each
record's metrics["alloc.per_request"].value against the workload's
ceiling. Exits non-zero, naming each offending workload, when a value
exceeds its ceiling. A missing record, a record without the metric and a
record of a broken run ("correct": false or failed > 0) fail too: a
broken suite run must never read as a pass.

Allocation counts are deterministic for a fixed seed and build, unlike
wall-clock numbers, which is what makes a hard CI gate viable.

Usage: python3 tools/check_bench_budget.py [--bench-dir DIR]
       python3 tools/check_bench_budget.py --self-test
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import sys
import tempfile
import tomllib

REPO = pathlib.Path(__file__).resolve().parent.parent
CEILING_FILE = REPO / "tools" / "bench_alloc_ceiling.toml"
BENCHMARK_FILE = REPO / "BENCHMARK.json"
METRIC = "alloc.per_request"


def load_ceilings() -> dict[str, float]:
    """The ceilings, which must name exactly BENCHMARK.json's workloads."""
    ceilings = tomllib.loads(CEILING_FILE.read_text())["ceilings"]
    workloads = {w["name"] for w in
                 json.loads(BENCHMARK_FILE.read_text())["workloads"]}
    if set(ceilings) != workloads:
        raise SystemExit(
            f"check_bench_budget: {CEILING_FILE.name} has ceilings for "
            f"{sorted(ceilings)}, BENCHMARK.json has workloads "
            f"{sorted(workloads)}")
    return ceilings


def record_path(bench_dir: pathlib.Path, workload: str) -> pathlib.Path:
    return bench_dir / f"suite_{workload}.json"


def check(bench_dir: pathlib.Path, ceilings: dict[str, float]) -> list[str]:
    """Returns one error per workload that fails, each naming it."""
    errors: list[str] = []
    for workload, ceiling in ceilings.items():
        path = record_path(bench_dir, workload)
        if not path.is_file():
            errors.append(f"{workload}: missing record {path}")
            continue
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            errors.append(f"{workload}: unreadable record {path}: {e}")
            continue
        if record.get("correct") is not True or record.get("failed") != 0:
            errors.append(
                f"{workload}: broken run (correct={record.get('correct')}, "
                f"failed={record.get('failed')}, "
                f"problems={record.get('problems')})")
            continue
        metric = record.get("metrics", {}).get(METRIC)
        if metric is None or "value" not in metric:
            errors.append(f"{workload}: no {METRIC} in {path.name} "
                          "(was it run with --trace 1?)")
            continue
        measured = metric["value"]
        if not measured <= ceiling:  # NaN fails too
            errors.append(f"{workload}: {METRIC} = {measured:.1f} exceeds "
                          f"ceiling {ceiling:.1f}")
        else:
            print(f"ok: {workload} {METRIC} {measured:.1f} <= {ceiling:.1f}")
    return errors


def self_test(ceilings: dict[str, float]) -> int:
    """Checks the gate on synthetic records: a clean set passes, and each
    kind of broken record, on each workload, fails and names it."""

    def record(value: float | None, correct=True, failed=0) -> str:
        metrics = {} if value is None else {
            METRIC: {"value": value, "unit": "count"}}
        return json.dumps({"correct": correct, "failed": failed,
                           "problems": [], "metrics": metrics})

    cases = {
        "over ceiling": lambda c: record(c * 1.01),
        "missing record": lambda c: None,
        "truncated record": lambda c: record(c / 2)[:20],
        f"missing {METRIC}": lambda c: record(None),
        "correct false": lambda c: record(c / 2, correct=False),
        "failed > 0": lambda c: record(c / 2, failed=1),
    }
    problems: list[str] = []
    with (tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stdout(io.StringIO())):
        bench_dir = pathlib.Path(tmp)

        def write_clean() -> None:
            for workload, ceiling in ceilings.items():
                record_path(bench_dir, workload).write_text(
                    record(ceiling / 2))

        write_clean()
        if errors := check(bench_dir, ceilings):
            problems.append(f"clean records failed: {errors}")
        for target, ceiling in ceilings.items():
            for name, make_bad in cases.items():
                write_clean()
                path = record_path(bench_dir, target)
                bad = make_bad(ceiling)
                if bad is None:
                    path.unlink()
                else:
                    path.write_text(bad)
                errors = check(bench_dir, ceilings)
                if not errors:
                    problems.append(f"{target} {name}: passed")
                elif not all(e.startswith(f"{target}:") for e in errors):
                    problems.append(f"{target} {name}: does not name only "
                                    f"{target}: {errors}")
    for p in problems:
        print(f"check_bench_budget self-test: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_bench_budget self-test: clean records pass; "
          f"{len(cases)} broken cases fail on each of {len(ceilings)} "
          "workloads")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--bench-dir", type=pathlib.Path,
                        default=pathlib.Path("."),
                        help="directory holding the suite_<workload>.json "
                             "records")
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate itself on synthetic records")
    args = parser.parse_args()

    ceilings = load_ceilings()
    if args.self_test:
        return self_test(ceilings)
    errors = check(args.bench_dir, ceilings)
    for e in errors:
        print(f"check_bench_budget: {e}", file=sys.stderr)
    if errors:
        print("check_bench_budget: a ceiling in "
              "tools/bench_alloc_ceiling.toml was exceeded, or a record is "
              "missing or broken. If the regression is intended, raise the "
              "ceiling in the same change and say why.", file=sys.stderr)
        return 1
    print("check_bench_budget: every workload within its ceiling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
