"""Compare two sets of benchmark runs metric by metric.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out`` appends, any number of runs
per workload. For every workload and metric it prints each side's median
and quartiles over its runs, and a verdict for the end-to-end metrics:
"unresolved" when either side's spread (quartile distance over median)
exceeds the metric's bound in BENCHMARK.json, unless every new run beats
every base run; "worse" when the new median is worse than the base by more
than the bound; otherwise "ok". With one file it prints the summary of
that file alone. The exit code is 1 when a metric is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over runs (accuracy figures included,
    prefixed ``accuracy.``)."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        values = dict(rec["metrics"])
        values.update({f"accuracy.{k}": v for k, v in rec["accuracy"].items()})
        for name, v in values.items():
            out[rec["workload"]][name].append(float(v))
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], spec: dict) -> str:
    bound, lower = spec["bound"], spec["better"] == "lower"
    if spread(base) > bound or spread(new) > bound:
        beats_all = max(new) < min(base) if lower else min(new) > max(base)
        return "better in every run" if beats_all else "unresolved"
    b, n = summary(base)[0], summary(new)[0]
    worse = (n - b) / abs(b) if lower else (b - n) / abs(b)
    return "worse" if worse > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = {s["name"]: s for s in spec["end_to_end"]}
    units = run.units(spec)
    sides = [load(Path(p)) for p in argv]
    any_worse = False
    for workload in sorted(set().union(*sides)):
        counts = " vs ".join(str(len(next(iter(s[workload].values()), []))) for s in sides)
        print(f"{workload}  (runs: {counts})")
        names = sorted(set().union(*(s[workload] for s in sides)),
                       key=lambda n: (n not in bounded, n.startswith("accuracy."), n))
        for name in names:
            cols = []
            for side in sides:
                vals = side[workload].get(name)
                if vals:
                    med, q1, q3 = summary(vals)
                    cols.append(f"{med:11.5g} [{q1:.4g}, {q3:.4g}]")
                else:
                    cols.append(f"{'-':>11s}")
            line = f"  {name:30s} {units.get(name, '1'):6s} " + "  ".join(f"{c:34s}" for c in cols)
            if len(sides) == 2 and name in bounded and all(name in s[workload] for s in sides):
                base, new = (s[workload][name] for s in sides)
                v = verdict(base, new, bounded[name])
                any_worse |= v == "worse"
                change = (summary(new)[0] - summary(base)[0]) / abs(summary(base)[0])
                line += f" {change:+7.1%}  {v}"
            elif name in bounded:
                line += f" spread {spread(sides[0][workload][name]):.1%}"
            print(line)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
