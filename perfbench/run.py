#!/usr/bin/env python3
"""Benchmark of autopatch: compile, reconfigure, simulate and fabric Monte Carlo.

Run from the repository root; it imports autopatch from this checkout's src/:

    python3 perfbench/run.py --workload lorenz_rk4 --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py        # every workload in turn, seed 42, 35 s, untraced

A run repeats measurement rounds of one workload for about --seconds seconds
and checks every output.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 traces every other round and reports its
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
above it are a table.  Every run also writes a result file with all samples,
each stage's count, deciles and median, the Python version and the CPU count
to .perfbench/results/.  The exit code is 0 only if every operation and
every output check passed.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench" / "results"


def load_autopatch():
    """Import autopatch from the checkout's src/, never from an installed copy."""
    if not (SRC / "autopatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'autopatch'} is missing; run from the root of an autopatch checkout")
    sys.path.insert(0, str(SRC))
    import autopatch
    import autopatch.cli  # noqa: F401  (compiles its bytecode before any child imports it)

    if not Path(autopatch.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: autopatch was imported from {autopatch.__file__}, not from {SRC}")
    return autopatch


def run_all(args, names) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in names:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return worst


def main() -> int:
    autopatch = load_autopatch()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(harness.WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args, harness.WORKLOADS)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = harness.WORKLOADS[args.workload]
    started = time.perf_counter()
    result = harness.run_workload(w, args.seed, args.seconds, bool(args.trace))
    measured_s = time.perf_counter() - started

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    if result["failed"] == 0:
        metrics = {m["name"]: {"value": result[kind][m["name"]], "unit": m["unit"]} for m in declared[kind]}
    fail_frac = result["failed"] / max(result["attempted"], 1)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record.write_text(json.dumps({
        "workload": w.name,
        "seed": args.seed,
        "seed_used": result["seed_used"],
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "rounds": result["rounds"],
        "host_slowdown": result["host_slowdown"],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "autopatch_version": autopatch.__version__,
        "digest": result["digest"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_frac": fail_frac,
        "problems": result["problems"],
        "metrics": metrics,
        "end_to_end": result["end_to_end"],
        "per_layer": result["per_layer"],
        "distribution": result["distribution"],
        "samples": result["samples"],
        "spans": [list(s) for s in result["spans"]],
    }, indent=1) + "\n", encoding="utf-8")

    seed_note = "" if result["seed_used"] else " (deterministic: the seed does not reach the inputs)"
    print(f"{w.name}  seed {args.seed}{seed_note}  trace {args.trace}  {result['rounds']} rounds"
          f"  python {platform.python_version()}  {os.cpu_count()} cpus"
          f"  host slowdown {result['host_slowdown'] or float('nan'):.3f}")
    for name, row in metrics.items():
        print(f"  {name:34s} {row['value']:>14.6g} {row['unit']}")
    print(f"  {'fail_frac':34s} {fail_frac:>14.6g} ratio  ({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  result file: {record.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
