"""Command-line entry point wiring the whole pipeline.

Subcommands: `compile` (DSL to circuit IR), `route` (DSL to configuration
image), `simulate` (DSL or image to CSV traces), `diff`/`apply` (sparse
reconfiguration scripts), `fabric` (switch-fabric economics and blocking
experiments).  Diagnostics go to stderr with exit code 1; data goes to
files or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__, bitstream, circuit, dsl, fabric, machine, router, sim

_PIPELINE_ERRORS = (
    dsl.SourceError,
    circuit.DegreeError,
    circuit.LoopError,
    router.CapacityError,
    router.ConstUnavailableError,
    bitstream.FormatError,
    bitstream.SpecMismatchError,
    bitstream.RangeError,
    bitstream.ValidationError,
    sim.UnroutedTapError,
    sim.NonFiniteError,
    ValueError,
    OSError,
)


def _parse_machine(text: str) -> machine.MachineSpec:
    if text == "lucidac":
        return machine.lucidac_spec()
    if text == "redac":
        return machine.redac_tile_spec()
    if text.startswith("custom:"):
        expected = "expected custom:i=<n>,m=<n>,l=<n>"
        fields: dict[str, str] = {}
        for item in text[len("custom:"):].split(","):
            key, _, value = item.partition("=")
            if key in fields or key not in ("i", "m", "l"):
                kind = "repeated" if key in fields else "unknown"
                raise ValueError(f"malformed machine spec {text!r}: {kind} field {key!r} ({expected})")
            fields[key] = value
        try:
            i, m, l = (int(fields[key]) for key in "iml")
        except (KeyError, ValueError):
            raise ValueError(f"malformed machine spec {text!r} ({expected})") from None
        return machine.custom_spec(i, m, l)
    raise ValueError(f"unknown machine {text!r} (expected lucidac, redac, or custom:i=<n>,m=<n>,l=<n>)")


def _parse_fabric(text: str):
    """Returns ('fabric', FabricSpec) or ('crossbar', StageSpec)."""
    if text == "simstar":
        return ("fabric", fabric.simstar_spec())
    if text.startswith("crossbar:"):
        try:
            n, m = (int(v) for v in text[len("crossbar:"):].split("x"))
        except ValueError:
            raise ValueError(f"malformed fabric spec {text!r} (expected crossbar:<n>x<m>)") from None
        return ("crossbar", fabric.StageSpec(1, n, m))
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        try:
            (b1, n1, m1), (b2, n2, m2), (b3, n3, m3) = (map(int, part.split("x")) for part in parts)
        except ValueError:
            raise ValueError(f"malformed fabric spec {text!r} (expected custom:BxNxM,BxNxM,BxNxM)") from None
        stages = fabric.StageSpec(b1, n1, m1), fabric.StageSpec(b2, n2, m2), fabric.StageSpec(b3, n3, m3)
        return ("fabric", fabric.FabricSpec(*stages))
    raise ValueError(f"unknown fabric spec {text!r} (expected simstar, crossbar:<n>x<m>, or custom:BxNxM,BxNxM,BxNxM)")


def _parse_clip(text: str):
    if text == "off":
        return None
    return float(text)


def _compile_file(path: str) -> tuple[dsl.Program, circuit.PolySystem, circuit.CircuitGraph]:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from None
    try:
        program = dsl.compile_source(source)
    except dsl.SourceError as exc:
        raise ValueError(f"{path}:{exc}") from None
    system = circuit.normalize(program)
    graph = circuit.build_circuit(system, program)
    circuit.detect_algebraic_loops(graph)
    return program, system, graph


def _cmd_compile(args) -> int:
    _, _, graph = _compile_file(args.source)
    if args.emit_ir:
        print(circuit.format_circuit(graph))
    return 0


def _cmd_route(args) -> int:
    _, _, graph = _compile_file(args.source)
    spec = _parse_machine(args.machine)
    design = router.route_design(graph, spec)
    Path(args.output).write_bytes(bitstream.encode(design.config))
    print(router.format_report(design.report))
    if args.emit_config:
        dump = machine.format_config(design.config)
        if dump:
            print(dump)
    return 0


def _used_integrators(config: machine.MachineConfig) -> list[int]:
    """Ascending slots of the integrators touched by an active lane.  A
    configuration decoded from an image carries no signal names, so these
    are tapped as I<slot>."""
    spec = config.spec
    used = set()
    for lane in config.active_lanes():
        role, k = spec.out_row_role(config.u_source[lane])
        if role is machine.RowRole.INTEGRATOR_OUT:
            used.add(k)
        role, k = spec.in_row_role(config.i_dest[lane])
        if role is machine.RowRole.INTEGRATOR_IN:
            used.add(k)
    return sorted(used)


def _cmd_simulate(args) -> int:
    settings = sim.SimSettings(
        dt=args.dt,
        t_end=args.t_end,
        method=sim.Method(args.method),
        clip=args.clip,
        record_stride=args.stride,
    )
    out_dir = Path(args.out_dir)

    if args.input.endswith(".acfg"):
        if args.reference:
            raise ValueError("--reference needs DSL input (an image carries no equations)")
        spec = _parse_machine(args.machine)
        config = bitstream.decode(Path(args.input).read_bytes(), spec)
        used = _used_integrators(config)
        initial = list(config.initial_states)
        if args.ic is not None:
            values = [float(v) for v in args.ic.split(",")]
            if len(values) != len(used):
                raise ValueError(f"--ic lists {len(values)} values for {len(used)} used integrators")
            for k, v in zip(used, values):
                initial[k] = v
        taps = tuple((f"I{k}", spec.integrator_out_row(k)) for k in used)
        config = dataclasses.replace(config, initial_states=tuple(initial), taps=taps)
        model = sim.build_dynamics(config)
        trace = sim.run(model, model.initial, settings)
        out_dir.mkdir(parents=True, exist_ok=True)
        names = sorted(trace.signals)
        sim.write_csv(out_dir / "out.csv", ["t"] + names, [trace.times] + [trace.signals[n] for n in names])
        return 0

    if args.ic is not None:
        raise ValueError("--ic applies to .acfg inputs; DSL programs define their own initial conditions")
    program, system, graph = _compile_file(args.input)
    spec = _parse_machine(args.machine)
    design = router.route_design(graph, spec)
    overrides = design.lane_weight_map() if args.quantize == "off" else None
    model = sim.build_dynamics(design.config, lane_weights=overrides)
    trace = sim.run(model, model.initial, settings)
    sim.emit_traces(trace, program, out_dir)
    if args.reference:
        ref = sim.run_reference(system, settings)
        sim.write_csv(
            out_dir / "ref_out.csv",
            ["t"] + list(program.outputs),
            [ref.times] + [ref.signals[n] for n in program.outputs],
        )
        print(f"max_abs_deviation: {sim.max_abs_deviation(trace, ref):.17g}")
    return 0


def _cmd_diff(args) -> int:
    spec = _parse_machine(args.machine)
    old = bitstream.decode(Path(args.old).read_bytes(), spec)
    new = bitstream.decode(Path(args.new).read_bytes(), spec)
    script = bitstream.diff(old, new)
    Path(args.output).write_bytes(bitstream.encode_delta(script))
    print(f"ops: {len(script.ops)}")
    return 0


def _cmd_apply(args) -> int:
    spec = _parse_machine(args.machine)
    base = bitstream.decode(Path(args.base).read_bytes(), spec)
    script = bitstream.decode_delta(Path(args.delta).read_bytes())
    updated = bitstream.apply(base, script)
    Path(args.output).write_bytes(bitstream.encode(updated))
    return 0


def _cmd_fabric(args) -> int:
    kind, spec = _parse_fabric(args.spec)
    if args.count and args.experiment:
        raise ValueError("--count and --experiment are separate runs; give one of them")
    if args.count:
        if kind == "crossbar":
            print(spec.switch_count())
        else:
            print(fabric.switch_count(spec))
        return 0
    if args.experiment:
        if kind == "crossbar":
            raise ValueError("blocking experiments need a three-stage fabric (a crossbar never blocks)")
        if args.load is None:
            raise ValueError("--experiment requires --load")
        result = fabric.blocking_experiment(spec, args.load, args.trials, args.seed)
        print(f"blocked_fraction: {result.blocked_fraction:.17g}")
        print(f"mean_routed: {result.mean_routed:.17g}")
        return 0
    raise ValueError("fabric needs --count or --experiment")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autopatch",
        description="Compile ODE programs onto a switched analog interconnect, "
        "simulate them, and analyze switch fabrics.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"autopatch {__version__} (bitstream format v{bitstream.FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="parse, check, and build the circuit IR")
    p.add_argument("source", help="DSL source file (.odedsl)")
    p.add_argument("--emit-ir", action="store_true", help="print the circuit text dump")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("route", help="place and route onto a machine, writing a config image")
    p.add_argument("source", help="DSL source file (.odedsl)")
    p.add_argument("--machine", default="lucidac", help="lucidac, redac, or custom:i=<n>,m=<n>,l=<n>")
    p.add_argument("-o", "--output", required=True, help="output image (.acfg)")
    p.add_argument("--emit-config", action="store_true", help="also print the lane-by-lane dump")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("simulate", help="run a program or config image, writing CSV traces")
    p.add_argument("input", help="DSL source (.odedsl) or config image (.acfg)")
    p.add_argument("--machine", default="lucidac", help="machine profile for routing/decoding")
    p.add_argument("--dt", type=float, default=1e-3, help="integration step (machine time)")
    p.add_argument("--t-end", type=float, default=10.0, help="end time (machine time)")
    p.add_argument("--method", choices=["rk4", "euler"], default="rk4")
    p.add_argument("--clip", type=_parse_clip, default=None, metavar="V|off", help="saturate voltages at +-V")
    p.add_argument("--stride", type=int, default=1, help="record every Nth step")
    p.add_argument("--quantize", choices=["on", "off"], default="on", help="use quantized or exact coefficients")
    p.add_argument("--reference", action="store_true", help="also run the polynomial reference path")
    p.add_argument("--out-dir", default=".", help="directory for CSV output")
    p.add_argument("--ic", default=None, help="initial values for used integrators (.acfg inputs only)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diff", help="compute a sparse reconfiguration script between two images")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("-o", "--output", required=True, help="output script (.acdl)")
    p.add_argument("--machine", default="lucidac")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("apply", help="apply a reconfiguration script to an image")
    p.add_argument("base")
    p.add_argument("delta")
    p.add_argument("-o", "--output", required=True, help="output image (.acfg)")
    p.add_argument("--machine", default="lucidac")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("fabric", help="switch-count economics and blocking experiments")
    p.add_argument("--spec", required=True, help="simstar, crossbar:<n>x<m>, or custom:BxNxM,BxNxM,BxNxM")
    p.add_argument("--count", action="store_true", help="print the total switch count")
    p.add_argument("--experiment", action="store_true", help="run a Monte Carlo blocking experiment")
    p.add_argument("--load", type=int, default=None, help="requests per trial")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fabric)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PIPELINE_ERRORS as exc:
        print(f"autopatch: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
