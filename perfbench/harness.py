"""Workloads, measurement rounds, output checks and tracing of the autopatch
benchmark.

Import this module only once the checkout's src/ is first on sys.path;
perfbench/run.py does that and makes sure autopatch came from there.
"""

from __future__ import annotations

import array
import dataclasses
import gc
import hashlib
import importlib.util
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Optional

from autopatch import bitstream, circuit, dsl, fabric, machine, router, sim

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_ROOT = ROOT / ".perfbench" / "work"

DEFAULT_SEED = 42
DT = 1e-3
FABRIC_LOAD = 320
RECONFIG_LANES = 64       # lanes whose coefficient redac500's second image changes
CLI_COMMANDS = ("route", "simulate", "diff", "apply", "fabric")
CLI_PER_ROUND = 3         # commands per round, taken from CLI_COMMANDS in turn
CHILD_TIMEOUT_S = 120
PEAK_BOUND = 0.80                  # frozen machine bound of the Lorenz acceptance criterion
FROZEN_BLOCKING = (0.977, 313.1)   # simstar, load 320, 1000 trials, seed 42
ORACLE_TOLERANCE = 1e-9
SPECS = {"lucidac": machine.lucidac_spec, "redac": machine.redac_tile_spec}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    program: str              # programs/<program>.odedsl, or "synthetic500"
    target: str               # second image of the reconfiguration: programs/<target>.odedsl, or "seeded"
    machine: str              # lucidac or redac
    t_end: float              # of each timed hardware and reference run, dt = 1e-3
    clip: Optional[float]
    trials: int               # of each timed simstar blocking experiment at load 320
    repeats: int              # compile and reconfiguration calls per timed stage
    seeded: bool              # False: the inputs do not depend on --seed


# Every workload runs every stage, so every metric is defined on each; the
# sizes decide which layer does the work.  Each timed operation is kept
# short (README.md says why); the full-size runs are output checks.  A
# compile or reconfiguration of a small program takes under 2 ms, so its
# stage repeats it a fixed number of times, to last about as long as
# host_kernel.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lorenz_rk4", "lorenz", "decay", "lucidac", 10.0, None, 20, 10, seeded=False),
        Workload("redac500", "synthetic500", "seeded", "redac", 0.1, 1.0, 20, 1, seeded=True),
        Workload("simstar_blocking", "decay", "lorenz", "lucidac", 1.0, None, 100, 25, seeded=True),
    )
}


class Tracer:
    """Spans around calls into autopatch, kept in memory until the run ends.

    A span is (name, start_ns, end_ns, parent, round): `parent` indexes the
    enclosing span (-1 for none) and `round` is the measurement round that
    all spans of one round share.  While `on` is false, `call` adds nothing.
    """

    def __init__(self):
        self.on = False
        self.round = -1
        self.spans: list = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.round)


class Ledger:
    """Operations attempted and failed, with a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclasses.dataclass
class Inputs:
    """What one run feeds autopatch, generated before any timing."""

    text: str                 # DSL source
    program_path: Path        # the same source as a file, for the CLI and the set-up child
    spec: machine.MachineSpec
    image_path: Path          # routed program: first image of the reconfiguration
    target_image: bytes       # second image of the reconfiguration
    target_path: Path
    delta_path: Path          # reconfiguration script from the first image to the second
    fabric_seed: int
    settings: sim.SimSettings
    model_shape: tuple[int, int]   # (states, elements) of the evaluator
    tokens: int


@dataclasses.dataclass
class Round:
    seconds: dict             # stage or command -> seconds of its one call in this round
    import_s: list            # their `import autopatch.cli` times
    facts: dict               # counts and output statistics
    digest: str               # of the in-process data outputs
    traced: bool
    kernel: dict              # stage or command -> mean seconds of the host_kernel calls around it


# --------------------------------------------------------------------------
# host speed

HOST_KERNEL_REF_S = 0.008  # seconds of host_kernel on the calm reference VM (README.md)


def host_kernel() -> float:
    """Fixed pure-Python work that calls no autopatch code, timed beside the
    stages to measure how fast the host runs the interpreter right now:
    RK4 steps of a three-state system through a nested function, string
    keys in a dict, and a sort."""
    def f(x, y, z):
        return 10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z

    h = 1e-3
    x, y, z = 1.0, 1.0, 1.0
    for _ in range(2500):
        a = f(x, y, z)
        b = f(x + h / 2 * a[0], y + h / 2 * a[1], z + h / 2 * a[2])
        c = f(x + h / 2 * b[0], y + h / 2 * b[1], z + h / 2 * b[2])
        d = f(x + h * c[0], y + h * c[1], z + h * c[2])
        x += h / 6 * (a[0] + 2 * b[0] + 2 * c[0] + d[0])
        y += h / 6 * (a[1] + 2 * b[1] + 2 * c[1] + d[1])
        z += h / 6 * (a[2] + 2 * b[2] + 2 * c[2] + d[2])
    counts: dict = {}
    for i in range(6000):
        key = f"n{i * 7919 % 251}"
        counts[key] = counts.get(key, 0) + 1
    return x + y + z + len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


def kernel_seconds() -> float:
    """Collect garbage, then time one host_kernel call."""
    gc.collect()
    started = time.perf_counter()
    host_kernel()
    return time.perf_counter() - started


def paired(kernel: dict, stage: str, fn, *args):
    """Call fn(*args) between two host_kernel calls, put their mean seconds
    in kernel[stage], and return fn's result."""
    before = kernel_seconds()
    result = fn(*args)
    kernel[stage] = (before + kernel_seconds()) / 2
    return result


# --------------------------------------------------------------------------
# stages


def compile_stage(tr: Tracer, text: str, spec):
    """DSL text to encoded .acfg bytes."""
    program = tr.call("dsl.compile_source", dsl.compile_source, text)
    system = tr.call("circuit.normalize", circuit.normalize, program)
    graph = tr.call("circuit.build_circuit", circuit.build_circuit, system, program)
    tr.call("circuit.detect_algebraic_loops", circuit.detect_algebraic_loops, graph)
    design = tr.call("router.route_design", router.route_design, graph, spec)
    image = tr.call("bitstream.encode", bitstream.encode, design.config)
    return program, system, graph, design, image


def reconfig_stage(tr: Tracer, image: bytes, target_image: bytes, spec):
    """One reconfiguration round from `image` to `target_image`."""
    a = tr.call("bitstream.decode", bitstream.decode, image, spec)
    b = tr.call("bitstream.decode", bitstream.decode, target_image, spec)
    script = tr.call("bitstream.diff", bitstream.diff, a, b)
    delta = tr.call("bitstream.encode_delta", bitstream.encode_delta, script)
    received = tr.call("bitstream.decode_delta", bitstream.decode_delta, delta)
    updated = tr.call("bitstream.apply", bitstream.apply, a, received)
    return a, script, delta, tr.call("bitstream.encode", bitstream.encode, updated)


def fresh_setup(w: Workload, inp: Inputs, tr: Tracer, ledger: Ledger) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to run
    the workload."""
    ledger.attempted += 1
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = tr.call(
        "stage.setup", subprocess.run,
        [sys.executable, str(CHILD), "setup", str(inp.program_path), w.machine],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    _, ready, states, elements = proc.stdout.split()
    ledger.check("the set-up child builds the same evaluator", (int(states), int(elements)) == inp.model_shape)
    return (int(ready) - spawned) / 1e9


def run_cli(tr: Tracer, ledger: Ledger, name: str, args: list[str]):
    """Run one autopatch command in a subprocess; return its wall seconds,
    stdout and import time."""
    ledger.attempted += 1
    started = time.perf_counter()
    proc = tr.call(
        "cli." + name, subprocess.run,
        [sys.executable, str(CHILD), "cli", name, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - started
    if proc.returncode:
        raise RuntimeError(f"autopatch {name} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc.stdout, float(proc.stderr.rsplit("import_s ", 1)[1])


# --------------------------------------------------------------------------
# inputs and the full-size output checks


def program_text(name: str) -> str:
    if name == "synthetic500":
        # the large-machine generator the test suite uses
        location = ROOT / "tests" / "support.py"
        spec = importlib.util.spec_from_file_location("perfbench_support", location)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.synthetic_large_program(500)
    return (ROOT / "programs" / f"{name}.odedsl").read_text(encoding="utf-8")


def seeded_target(config: machine.MachineConfig, rng: random.Random) -> machine.MachineConfig:
    """`config` with the coefficient of RECONFIG_LANES active lanes, drawn
    from rng, changed to another valid code."""
    spec = config.spec
    codes = list(config.coefficients)
    for lane in sorted(rng.sample(config.active_lanes(), RECONFIG_LANES)):
        old = codes[lane].code
        if lane in spec.lowres_lanes:
            code = rng.randrange(0, 7)
            codes[lane] = machine.CoefficientCode.lowres(code + (code >= old))
        else:
            code = rng.randrange(machine.HIGHRES_MIN, machine.HIGHRES_MAX)
            codes[lane] = machine.CoefficientCode.highres(code + (code >= old))
    return dataclasses.replace(config, coefficients=tuple(codes))


def prepare(w: Workload, seed: int, work: Path, tr: Tracer, ledger: Ledger) -> Inputs:
    """Generate the run's inputs and make the output checks that need one
    run per process."""
    work.mkdir(parents=True)
    spec = SPECS[w.machine]()
    text = program_text(w.program)
    program_path = work / f"{w.program}.odedsl"
    program_path.write_text(text, encoding="utf-8")
    _, system, _, design, image = compile_stage(tr, text, spec)
    if w.target == "seeded":
        target = seeded_target(design.config, random.Random(seed))
    else:
        target = compile_stage(tr, program_text(w.target), spec)[3].config
    image_path, target_path, delta_path = work / "a.acfg", work / "b.acfg", work / "ab.acdl"
    image_path.write_bytes(image)
    target_image = bitstream.encode(target)
    target_path.write_bytes(target_image)
    delta_path.write_bytes(bitstream.encode_delta(bitstream.diff(design.config, target)))
    settings = sim.SimSettings(dt=DT, t_end=w.t_end, clip=w.clip)
    model = sim.build_dynamics(design.config)

    bypass = sim.build_dynamics(design.config, lane_weights=design.lane_weight_map())
    deviation = sim.max_abs_deviation(sim.run(bypass, bypass.initial, settings), sim.run_reference(system, settings))
    ledger.check(f"bypass-vs-reference deviation {deviation:.3g} <= {ORACLE_TOLERANCE}", deviation <= ORACLE_TOLERANCE)
    full_size_check(w, model, ledger)
    return Inputs(
        text=text,
        program_path=program_path,
        spec=spec,
        image_path=image_path,
        target_image=target_image,
        target_path=target_path,
        delta_path=delta_path,
        fabric_seed=seed if w.seeded else DEFAULT_SEED,
        settings=settings,
        model_shape=(len(model.state_labels), len(model.element_labels)),
        tokens=len(dsl.tokenize(text)),
    )


def full_size_check(w: Workload, model, ledger: Ledger) -> None:
    """The workload's job at its full size, once per process, untimed."""
    if w.name == "lorenz_rk4":
        trace = sim.run(model, model.initial, sim.SimSettings(dt=DT, t_end=100.0))
        peak = max(trace.peaks.values())
        ledger.check(f"Lorenz peak |v| {peak} over 100k steps <= frozen bound {PEAK_BOUND}", peak <= PEAK_BOUND)
    elif w.name == "redac500":
        trace = sim.run(model, model.initial, sim.SimSettings(dt=DT, t_end=1.0, clip=w.clip))
        ledger.check("no clip events in 1000 clipped steps, so the run equals the unclipped one", not trace.clip_events)
    else:
        frozen = fabric.blocking_experiment(fabric.simstar_spec(), FABRIC_LOAD, 1000, 42)
        ledger.check(
            f"simstar blocking at seed 42 is {frozen.blocked_fraction} / {frozen.mean_routed}, frozen {FROZEN_BLOCKING}",
            (frozen.blocked_fraction, frozen.mean_routed) == FROZEN_BLOCKING,
        )


# --------------------------------------------------------------------------
# one round


def _trace_bytes(trace: sim.Trace) -> bytes:
    parts = [array.array("d", trace.times).tobytes()]
    for name in sorted(trace.signals):
        parts += [name.encode(), array.array("d", trace.signals[name]).tobytes()]
    parts.append(repr((sorted(trace.peaks.items()), trace.clip_events)).encode())
    return b"".join(parts)


def timed(tr: Tracer, ledger: Ledger, seconds: dict, kernel: dict, stage: str, fn, *args, repeats: int = 1):
    """Call fn(*args) `repeats` times under a stage span, between two
    host_kernel calls; put the seconds of one call in `seconds` and those of
    the kernel in `kernel`, and return fn's last result."""
    ledger.attempted += 1

    def call():
        started = time.perf_counter()
        for _ in range(repeats):
            result = tr.call("stage." + stage, fn, *args)
        seconds[stage] = (time.perf_counter() - started) / repeats
        return result

    return paired(kernel, stage, call)


def one_round(w: Workload, inp: Inputs, tr: Tracer, ledger: Ledger, work: Path, index: int) -> Round:
    """One call of every in-process stage and the next CLI_PER_ROUND CLI
    commands."""
    check = ledger.check
    kernel: dict = {}
    seconds = {"setup": paired(kernel, "setup", fresh_setup, w, inp, tr, ledger)}

    program, system, graph, design, image = timed(
        tr, ledger, seconds, kernel, "compile", compile_stage, tr, inp.text, inp.spec, repeats=w.repeats
    )
    ledger.attempted += 1
    problems = tr.call("machine.validate_config", machine.validate_config, design.config)
    check("validate_config finds the routed configuration valid", problems == [])

    a, script, delta, updated_image = timed(
        tr, ledger, seconds, kernel, "reconfig", reconfig_stage, tr, image, inp.target_image, inp.spec, repeats=w.repeats
    )
    check("decode(encode(cfg)) == cfg", a == design.config)
    check("apply(a, diff(a, b)) encodes to b's bytes", updated_image == inp.target_image)

    ledger.attempted += 1
    model = tr.call("sim.build_dynamics", sim.build_dynamics, design.config)
    trace = timed(tr, ledger, seconds, kernel, "sim", tr.call, "sim.run", sim.run, model, model.initial, inp.settings)
    ref = timed(tr, ledger, seconds, kernel, "reference", tr.call, "sim.reference_run", sim.run_reference, system, inp.settings)
    ledger.attempted += 1
    emit_dir = work / "emit"
    written = tr.call("sim.emit_traces", sim.emit_traces, trace, program, emit_dir)
    sim.write_csv(emit_dir / "ref_out.csv", ["t", *program.outputs], [ref.times, *(ref.signals[n] for n in program.outputs)])
    blocking = timed(
        tr, ledger, seconds, kernel, "fabric", tr.call, "fabric.blocking_experiment",
        fabric.blocking_experiment, fabric.simstar_spec(), FABRIC_LOAD, w.trials, inp.fabric_seed,
    )

    deviation = sim.max_abs_deviation(trace, ref)
    report = design.report
    facts = {
        "dsl.tokens": inp.tokens,
        "circuit.terms": system.term_count(),
        "circuit.nodes": len(graph.nodes),
        "circuit.edges": len(graph.edges),
        "router.integrators_used": report.integrators_used,
        "router.multipliers_used": report.multipliers_used,
        "router.lanes_used": report.lanes_used,
        "router.lowres_lanes_used": report.lowres_lanes_used,
        "router.clamp_warnings": len(report.clamp_warnings),
        "router.max_quant_error": max((err for _, err in report.quantization_errors), default=0.0),
        "bitstream.image_bytes": len(image),
        "bitstream.delta_ops": len(script.ops),
        "bitstream.delta_bytes": len(delta),
        "sim.steps": len(trace.times) - 1,
        "sim.rows_written": len(trace.times) * len(written),
        "sim.peak_abs": max(trace.peaks.values()),
        "sim.clip_events": len(trace.clip_events),
        "sim.max_abs_deviation": deviation,
        "fabric.trials": w.trials,
        "fabric.requests": FABRIC_LOAD * w.trials,
        "fabric.routed": round(blocking.mean_routed * w.trials),
        "fabric.blocked_fraction": blocking.blocked_fraction,
    }
    facts["fabric.routed_ratio"] = facts["fabric.routed"] / facts["fabric.requests"]
    check_workload(w, facts, ledger)

    cli_dir = work / "cli"
    cli_dir.mkdir(exist_ok=True)
    program_file, machine_name = str(inp.program_path), w.machine
    clip = [] if w.clip is None else ["--clip", repr(w.clip)]
    import_s = []
    for k in range(CLI_PER_ROUND):
        name = CLI_COMMANDS[(CLI_PER_ROUND * index + k) % len(CLI_COMMANDS)]
        args = {
            "route": [program_file, "--machine", machine_name, "-o", str(cli_dir / "a.acfg")],
            "simulate": [program_file, "--machine", machine_name, "--dt", repr(DT), "--t-end", repr(w.t_end), *clip,
                         "--reference", "--out-dir", str(cli_dir)],
            "diff": [str(inp.image_path), str(inp.target_path), "-o", str(cli_dir / "ab.acdl"), "--machine", machine_name],
            "apply": [str(inp.image_path), str(inp.delta_path), "-o", str(cli_dir / "b.acfg"), "--machine", machine_name],
            "fabric": ["--spec", "simstar", "--experiment", "--load", str(FABRIC_LOAD), "--trials", str(w.trials),
                       "--seed", str(inp.fabric_seed)],
        }[name]
        seconds["cli." + name], stdout, imported = paired(kernel, "cli." + name, run_cli, tr, ledger, name, args)
        import_s.append(imported)
        if name == "route":
            check("autopatch route writes the in-process image", (cli_dir / "a.acfg").read_bytes() == image)
        elif name == "simulate":
            for path in [*written, emit_dir / "ref_out.csv"]:
                check(f"autopatch simulate writes the in-process {path.name}",
                      (cli_dir / path.name).read_bytes() == path.read_bytes())
            check("autopatch simulate prints the in-process deviation", stdout == f"max_abs_deviation: {deviation:.17g}\n")
        elif name == "diff":
            check("autopatch diff writes the in-process delta", (cli_dir / "ab.acdl").read_bytes() == delta)
        elif name == "apply":
            check("autopatch apply writes the target image", (cli_dir / "b.acfg").read_bytes() == inp.target_image)
        else:
            check("autopatch fabric prints the in-process result",
                  stdout == f"blocked_fraction: {blocking.blocked_fraction:.17g}\nmean_routed: {blocking.mean_routed:.17g}\n")

    digest = hashlib.sha256()
    for part in (image, delta, updated_image, _trace_bytes(trace), _trace_bytes(ref),
                 *(path.read_bytes() for path in [*written, emit_dir / "ref_out.csv"]), repr((blocking, deviation)).encode()):
        digest.update(part)
    return Round(seconds, import_s, facts, digest.hexdigest(), tr.on, kernel)


def check_workload(w: Workload, facts: dict, ledger: Ledger) -> None:
    shape = (facts["router.integrators_used"], facts["router.multipliers_used"], facts["router.lanes_used"])
    if w.program == "synthetic500":
        ledger.check("routing uses 500 integrators", shape[0] == 500)
        ledger.check("the system has 1500 terms", facts["circuit.terms"] == 1500)
        ledger.check("no clip events, so the clipped run equals the unclipped one", facts["sim.clip_events"] == 0)
    elif w.program == "lorenz":
        ledger.check("Lorenz routes to 3 integrators, 2 multipliers and 11 lanes", shape == (3, 2, 11))
        ledger.check(f"peak |v| {facts['sim.peak_abs']} <= frozen bound {PEAK_BOUND}", facts["sim.peak_abs"] <= PEAK_BOUND)
    else:
        ledger.check("decay routes to 1 integrator and 1 lane", shape == (1, 0, 1))


# --------------------------------------------------------------------------
# a whole run

IN_PROCESS = ("compile", "reconfig", "sim", "reference", "fabric")


def stage_seconds(rounds: list[Round]) -> dict:
    """The seconds of each stage and command over `rounds`, as measured."""
    seconds = defaultdict(list)
    for r in rounds:
        for stage, value in r.seconds.items():
            seconds[stage].append(value)
    return seconds


def host_slowdown(rounds: list[Round]) -> float:
    """How much slower than the reference VM the host ran host_kernel over
    `rounds`: the median of its calls over HOST_KERNEL_REF_S."""
    return statistics.median(k for r in rounds for k in r.kernel.values()) / HOST_KERNEL_REF_S


def reference_seconds(rounds: list[Round]) -> dict:
    """The time of each stage and command at the reference VM's speed: the
    median over `rounds` of its seconds divided by those of the host_kernel
    calls around it, times HOST_KERNEL_REF_S."""
    ratios = defaultdict(list)
    for r in rounds:
        for stage, value in r.seconds.items():
            ratios[stage].append(value / r.kernel[stage])
    return {stage: statistics.median(values) * HOST_KERNEL_REF_S for stage, values in ratios.items()}


def distribution(rounds: list[Round]) -> dict:
    """Count, lower decile, median and upper decile of each stage's and
    command's seconds over `rounds`, as measured, for the result file."""
    out = {}
    kernel = [k for r in rounds for k in r.kernel.values()]
    for stage, values in {**stage_seconds(rounds), "host_kernel": kernel}.items():
        values = sorted(values)
        out[stage] = {"n": len(values), "p10": values[len(values) // 10], "median": statistics.median(values),
                      "p90": values[-1 - len(values) // 10]}
    return out


def end_to_end(rounds: list[Round], facts: dict) -> dict:
    """The run's end-to-end figures, each from its stage's time at the
    reference VM's speed."""
    seconds = reference_seconds(rounds)
    return {
        "setup_s": seconds["setup"],
        "compile_s": seconds["compile"],
        "reconfig_s": seconds["reconfig"],
        "sim_steps_per_s": facts["sim.steps"] / seconds["sim"],
        "ref_steps_per_s": facts["sim.steps"] / seconds["reference"],
        "trials_per_s": facts["fabric.trials"] / seconds["fabric"],
        "cli_s": sum(seconds["cli." + name] for name in CLI_COMMANDS),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds: list[Round], tr: Tracer, facts: dict) -> dict:
    """Per-layer figures of the traced rounds: the median duration of each
    autopatch call at the reference VM's speed, rates derived from it and
    the API's return values, the counts, and the tracing overhead.  A call's
    seconds are divided by the median host_kernel time of its round."""
    slowdown = [statistics.median(r.kernel.values()) / HOST_KERNEL_REF_S for r in rounds]
    durations = defaultdict(list)
    for name, start, end, _, index in tr.spans:
        if name != "round" and not name.startswith("stage."):
            durations[name + "_s"].append((end - start) / 1e9 / slowdown[index])
    out = {name: statistics.median(values) for name, values in durations.items()}
    out.update(facts)
    out["cli.import_s"] = statistics.median(s / slowdown[i] for i, r in enumerate(rounds) if r.traced for s in r.import_s)
    out["dsl.tokens_per_s"] = facts["dsl.tokens"] / out["dsl.compile_source_s"]
    out["bitstream.decode_mb_per_s"] = facts["bitstream.image_bytes"] / 1e6 / out["bitstream.decode_s"]
    out["sim.us_per_step"] = out["sim.run_s"] / facts["sim.steps"] * 1e6
    out["sim.reference_us_per_step"] = out["sim.reference_run_s"] / facts["sim.steps"] * 1e6
    out["fabric.ms_per_trial"] = out["fabric.blocking_experiment_s"] * 1e3 / facts["fabric.trials"]
    with_tracing = reference_seconds([r for r in rounds if r.traced])
    without = reference_seconds([r for r in rounds if not r.traced])
    out["trace.overhead_pct"] = (
        sum(with_tracing[s] for s in IN_PROCESS) / sum(without[s] for s in IN_PROCESS) - 1.0
    ) * 100.0
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure `w` for about `seconds` seconds, in at least one round per
    CLI command.  With `trace`, even rounds are traced and odd rounds are
    not, which yields the per-layer figures and the tracing overhead; the
    minimum doubles so that the traced rounds run every CLI command."""
    tr, ledger = Tracer(), Ledger()
    work = WORK_ROOT / f"{w.name}-{os.getpid()}"
    rounds: list[Round] = []
    min_rounds = len(CLI_COMMANDS) * (2 if trace else 1)
    try:
        inp = prepare(w, seed, work, tr, ledger)
        started = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - started < seconds:
            tr.on, tr.round = trace and len(rounds) % 2 == 0, len(rounds)
            rounds.append(tr.call("round", one_round, w, inp, tr, ledger, work, len(rounds)))
            ledger.check("the data outputs are identical in every round", rounds[-1].digest == rounds[0].digest)
    except Exception as exc:  # a failed operation ends the run and is reported
        traceback.print_exc(file=sys.stderr)
        ledger.attempted += 1
        ledger.failed += 1
        ledger.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        tr.on = False
        shutil.rmtree(work, ignore_errors=True)

    complete = ledger.failed == 0 and len(rounds) >= min_rounds
    facts = rounds[-1].facts if rounds else {}
    return {
        "rounds": len(rounds),
        "seed_used": w.seeded,
        "digest": rounds[0].digest if rounds else None,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "end_to_end": end_to_end(rounds, facts) if complete else {},
        "per_layer": per_layer(rounds, tr, facts) if complete and trace else {},
        "host_slowdown": host_slowdown(rounds) if rounds else None,
        "distribution": distribution(rounds) if rounds else {},
        "samples": [dataclasses.asdict(r) for r in rounds],
        "spans": tr.spans,
    }
