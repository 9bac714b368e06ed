"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

A result set is a directory of the records run.py writes (--out DIR), one
per workload and seed. For each workload and end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, and the spread
(quartile distance over the median). With two sets it also gives a verdict:

  unresolved  a side's spread is wider than the metric's bound, and not every
              run of the change reads better than every run of the base
  worse       the change's median is worse than the base median by more
              than the bound
  better      the change wins at least nine tenths of the runs paired by
              seed, and the medians differ by more than the base's quartile
              distance
  same        anything else

With one set it prints the spreads only. The exit code is 1 when any
verdict is "worse" or "unresolved", else 0.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory) -> dict:
    """workload -> metric -> {seed: value}, from the untraced records."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        for name, value in record.get("metrics", {}).items():
            out.setdefault(record["workload"], {}).setdefault(name, {})[record["seed"]] = value
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: dict, change: dict, bound, lower_is_better) -> str:
    sign = 1 if lower_is_better else -1
    b_values, c_values = list(base.values()), list(change.values())
    all_better = max(sign * v for v in c_values) < min(sign * v for v in b_values)
    if (spread(b_values) > bound or spread(c_values) > bound) and not all_better:
        return "unresolved"
    b_med, c_med = statistics.median(b_values), statistics.median(c_values)
    if sign * (c_med - b_med) > bound * b_med:
        return "worse"
    paired = sorted(set(base) & set(change))
    wins = sum(sign * change[s] < sign * base[s] for s in paired)
    b_q1, _, b_q3 = quartiles(b_values)
    if paired and wins >= 0.9 * len(paired) and sign * (b_med - c_med) > b_q3 - b_q1:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sides = [load(d) for d in argv]
    failing = False
    header = f"{'workload':14s} {'metric':14s} {'bound':>6s}"
    for label in ("base", "change")[: len(sides)]:
        header += f" | {label + ' q1':>10s} {'median':>10s} {'q3':>10s} {'spread':>7s} {'n':>3s}"
    print(header + (" | verdict" if len(sides) == 2 else ""))
    for workload in sorted(set().union(*sides)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            columns = [side.get(workload, {}).get(name) for side in sides]
            if any(not c for c in columns):
                continue
            line = f"{workload:14s} {name:14s} {metric['bound']:6.2f}"
            for by_seed in columns:
                values = list(by_seed.values())
                q1, median, q3 = quartiles(values)
                line += f" | {q1:10.4g} {median:10.4g} {q3:10.4g} {spread(values):7.3f} {len(values):3d}"
            if len(sides) == 2:
                result = verdict(columns[0], columns[1], metric["bound"], metric["better"] == "lower")
                failing |= result in ("worse", "unresolved")
                line += f" | {result}"
            print(line)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
