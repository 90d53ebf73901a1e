#!/usr/bin/env python3
"""Fresh-interpreter helper of perfbench/run.py; imports autopatch from the
checkout's src/, never from an installed copy.

    child.py setup PROGRAM.odedsl MACHINE
        Import autopatch, compile and route the program onto MACHINE
        (lucidac or redac), build the simulator's evaluator and the simstar
        fabric spec, then print "ready <CLOCK_MONOTONIC ns> <states>
        <elements>" and exit.  The parent takes set-up time from its own
        spawn time to the ready stamp.

    child.py cli ARGS...
        Run the autopatch command line with ARGS, as the installed
        `autopatch` script does, and print "import_s <seconds>" (the time
        of `import autopatch.cli`) as the last line of stderr.
"""

import importlib
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_from_checkout(name: str):
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(name)
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"child.py: {name} was imported from {module.__file__}, not from {SRC}")
    return module


def setup(program_path: str, machine_name: str) -> int:
    autopatch = _import_from_checkout("autopatch")
    spec = {"lucidac": autopatch.lucidac_spec, "redac": autopatch.redac_tile_spec}[machine_name]()
    program = autopatch.compile_source(Path(program_path).read_text(encoding="utf-8"))
    system = autopatch.normalize(program)
    graph = autopatch.build_circuit(system, program)
    autopatch.detect_algebraic_loops(graph)
    design = autopatch.route_design(graph, spec)
    model = autopatch.build_dynamics(design.config)
    autopatch.simstar_spec()
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    print(f"ready {ready_ns} {len(model.state_labels)} {len(model.element_labels)}")
    return 0


def cli(args: list[str]) -> int:
    started = time.perf_counter()
    autopatch_cli = _import_from_checkout("autopatch.cli")
    import_s = time.perf_counter() - started
    code = autopatch_cli.main(args)
    print(f"import_s {import_s!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    raise SystemExit(setup(*rest) if mode == "setup" else cli(rest))
