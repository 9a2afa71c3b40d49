#!/usr/bin/env python3
"""Compares two result sets of the benchmark, metric by metric.

    python3 bench/suite/compare.py PARENT.json CHANGE.json

Both files come from sweep.py, best recorded together with its --other-root
so that the two sides alternate seed by seed: sets recorded one after the
other also differ by however much the host's speed drifted in between. For
every workload and every metric of the sets' kind (end-to-end, or per-layer
for traced sets) the script prints the two medians, their relative
difference (positive = worse, by the metric's "better" direction), each
side's spread (interquartile range over median) and a verdict:

  improved    CHANGE wins at least nine tenths of the runs paired by seed
              (ties count for neither), and the medians differ by more than
              PARENT's spread;
  regressed   CHANGE's median is worse than PARENT's by more than the bound;
  unresolved  neither, and a spread exceeds the bound, so "unchanged" cannot
              be claimed;
  unchanged   otherwise.

Per-layer metrics have no bound; their verdict uses 0.10. Exit status 1 if
any verdict is "regressed".
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
LAYER_BOUND = 0.10


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(parent, change, higher_is_better, bound):
    """Returns (verdict, relative worsening, parent spread, change spread).

    `parent` and `change` map seed -> value."""
    sign = -1.0 if higher_is_better else 1.0
    p_med = statistics.median(parent.values())
    c_med = statistics.median(change.values())
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    p_spread = spread(list(parent.values()))
    c_spread = spread(list(change.values()))
    seeds = parent.keys() & change.keys()
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and -worse > p_spread:
        return "improved", worse, p_spread, c_spread
    if worse > bound:
        return "regressed", worse, p_spread, c_spread
    if max(p_spread, c_spread) > bound:
        return "unresolved", worse, p_spread, c_spread
    return "unchanged", worse, p_spread, c_spread


def values_by_key(result_set):
    """(workload, metric) -> {seed: value}."""
    out = {}
    for run in result_set["runs"]:
        for name, value in run.get("metrics", {}).items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = value
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent = json.loads(Path(argv[1]).read_text())
    change = json.loads(Path(argv[2]).read_text())
    if parent.get("trace") != change.get("trace"):
        print("compare.py: one set is traced and the other is not",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = benchmark["per_layer" if parent.get("trace") else "end_to_end"]
    p_values, c_values = values_by_key(parent), values_by_key(change)

    print(f"{'workload':16} {'metric':36} {'parent':>12} {'change':>12} "
          f"{'worse':>8} {'spread p/c':>15}  verdict")
    regressed = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        for spec in specs:
            key = (workload, spec["name"])
            if key not in p_values or key not in c_values:
                continue
            bound = spec.get("bound", LAYER_BOUND)
            name, worse, ps, cs = verdict(
                p_values[key], c_values[key], spec["better"] == "higher",
                bound)
            regressed |= name == "regressed"
            print(f"{workload:16} {spec['name']:36} "
                  f"{statistics.median(p_values[key].values()):12.6g} "
                  f"{statistics.median(c_values[key].values()):12.6g} "
                  f"{worse:+8.3f} {ps:7.3f}/{cs:<7.3f}  {name}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
