#!/usr/bin/env python3
"""Compare the result files of two commits.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of result files written by
perfbench/run.py (its .perfbench/results/ directory in each checkout), or
single result files.  For each workload, and for untraced and traced runs
apart, it prints every metric's median over the runs with its quartiles,
the change from BEFORE to AFTER, and for an end-to-end metric whether the
change stays within the bound that BENCHMARK.json fixes.  A metric whose
spread among BEFORE's own runs exceeds its bound is reported as
unresolved.  It also reports whether the two commits wrote the same data
outputs for each (workload, seed) both ran.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(location: str) -> list[dict]:
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    runs = {side: load(where) for side, where in zip(("before", "after"), sys.argv[1:])}

    groups = defaultdict(lambda: {"before": defaultdict(list), "after": defaultdict(list)})
    digests = defaultdict(lambda: {"before": set(), "after": set()})
    for side, records in runs.items():
        for r in records:
            if r["failed"]:
                print(f"{side}: {r['workload']} seed {r['seed']} failed {r['failed']} of {r['attempted']}: {r['problems']}")
                continue
            for name, row in r["metrics"].items():
                groups[(r["workload"], r["trace"])][side][name].append(row["value"])
            digests[(r["workload"], r["seed"])][side].add(r["digest"])

    for (workload, trace), sides in sorted(groups.items()):
        print(f"\n{workload}  {'traced' if trace else 'untraced'}  runs: "
              f"{len(next(iter(sides['before'].values()), []))} before, {len(next(iter(sides['after'].values()), []))} after")
        for name in sides["before"]:
            if name not in sides["after"]:
                continue
            b1, b, b3 = quartiles(sides["before"][name])
            a1, a, a3 = quartiles(sides["after"][name])
            change = (a - b) / b if b else float("nan")
            verdict = ""
            if name in bounds:
                worse = change if better[name] == "lower" else -change
                if (b3 - b1) / b > bounds[name]["bound"]:
                    verdict = "unresolved (spread above bound)"
                else:
                    verdict = "WORSE beyond bound" if worse > bounds[name]["bound"] else "within bound"
            print(f"  {name:34s} {b:12.6g} [{b1:.4g}, {b3:.4g}] -> {a:12.6g} [{a1:.4g}, {a3:.4g}]"
                  f"  {change:+8.2%}  {verdict}")

    print()
    for (workload, seed), sides in sorted(digests.items()):
        if sides["before"] and sides["after"]:
            same = sides["before"] == sides["after"] and len(sides["before"]) == 1
            print(f"{workload} seed {seed}: data outputs {'identical' if same else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
