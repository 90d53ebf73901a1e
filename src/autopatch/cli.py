"""Command-line entry point wiring the whole pipeline.

Subcommands: `compile` (DSL to circuit IR), `route` (DSL to configuration
image), `simulate` (DSL or image to CSV traces), `diff`/`apply` (sparse
reconfiguration scripts), `fabric` (switch-fabric economics and blocking
experiments).  Diagnostics go to stderr with exit code 1; data goes to
files or stdout.  Each command imports only the modules it runs, so
`diff`, `apply` and `fabric` never load the compiler or the simulator,
and `simulate IMAGE.acfg` loads the image layers and the simulator but
not the compiler (`dsl`, `circuit`, `router`).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from . import circuit, dsl, machine


def _parse_machine(text: str) -> machine.MachineSpec:
    from . import machine

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
        return machine.MachineSpec(i, m, l)
    raise ValueError(f"unknown machine {text!r} (expected lucidac, redac, or custom:i=<n>,m=<n>,l=<n>)")


def _parse_fabric(text: str):
    """A FabricSpec, or a StageSpec for a crossbar."""
    from . import fabric

    if text == "simstar":
        return fabric.simstar_spec()
    if text.startswith("crossbar:"):
        try:
            n, m = (int(v) for v in text[len("crossbar:"):].split("x"))
        except ValueError:
            raise ValueError(f"malformed fabric spec {text!r} (expected crossbar:<n>x<m>)") from None
        return fabric.StageSpec(1, n, m)
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        try:
            (b1, n1, m1), (b2, n2, m2), (b3, n3, m3) = (map(int, part.split("x")) for part in parts)
        except ValueError:
            raise ValueError(f"malformed fabric spec {text!r} (expected custom:BxNxM,BxNxM,BxNxM)") from None
        stages = fabric.StageSpec(b1, n1, m1), fabric.StageSpec(b2, n2, m2), fabric.StageSpec(b3, n3, m3)
        return fabric.FabricSpec(*stages)
    raise ValueError(f"unknown fabric spec {text!r} (expected simstar, crossbar:<n>x<m>, or custom:BxNxM,BxNxM,BxNxM)")


def _parse_clip(text: str):
    if text == "off":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value {text!r} (expected a number or 'off')") from None


def _read(path: str, text: bool = False):
    """The bytes of the file at `path`, or with `text` its UTF-8 text
    without a leading byte-order mark; a file that cannot be read is named
    in a one-line diagnostic."""
    try:
        # the mark is dropped after decoding, so a decode error names the byte's offset in the file
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff") if text else Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 text ({exc})") from None


@contextmanager
def _writing(path):
    """Run the block that writes `path` (a file, or a directory and the
    files in it); a write that fails is named in a one-line diagnostic,
    by the path that failed."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot write {exc.filename or path}: {exc.strerror}") from None


def _write(path: str, data: bytes) -> None:
    with _writing(path):
        Path(path).write_bytes(data)


def _compile_file(path: str) -> tuple[dsl.Program, circuit.PolySystem, circuit.CircuitGraph]:
    from . import circuit, dsl

    source = _read(path, text=True)
    try:
        program = dsl.compile_source(source)
    except dsl.SourceError as exc:
        raise ValueError(f"{path}:{exc}") from None
    system = circuit.normalize(program)
    graph = circuit.build_circuit(system, program)
    circuit.detect_algebraic_loops(graph)
    return program, system, graph


def _cmd_compile(args) -> int:
    from . import circuit

    _, _, graph = _compile_file(args.source)
    if args.emit_ir:
        print(circuit.format_circuit(graph))
    return 0


def _cmd_route(args) -> int:
    from . import bitstream, machine, router

    _, _, graph = _compile_file(args.source)
    spec = _parse_machine(args.machine)
    design = router.route_design(graph, spec)
    _write(args.output, bitstream.encode(design.config))
    print(router.format_report(design.report))
    if args.emit_config:
        dump = machine.format_config(design.config)
        if dump:
            print(dump)
    return 0


def _cmd_simulate(args) -> int:
    from . import sim

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
        if args.quantize == "off":
            raise ValueError("--quantize off needs DSL input (an image holds only quantized coefficients)")
        from . import bitstream

        spec = _parse_machine(args.machine)
        model = sim.build_dynamics(bitstream.decode(_read(args.input), spec))
        # an image carries no signal names, so the model labels its used integrators I<slot>
        model = model._replace(taps={label: i for i, label in enumerate(model.state_labels)})
        initial = model.initial
        if args.ic is not None:
            try:
                initial = [float(v) for v in args.ic.split(",")]
            except ValueError:
                raise ValueError(f"malformed --ic {args.ic!r} (expected comma-separated numbers)") from None
            if not all(map(math.isfinite, initial)):
                raise ValueError(f"non-finite value in --ic {args.ic!r} (expected finite numbers)")
            if len(initial) != len(model.taps):
                raise ValueError(f"--ic lists {len(initial)} values for {len(model.taps)} used integrators")
        trace = sim.run(model, initial, settings)
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
            sim.write_signals(out_dir / "out.csv", trace, list(model.taps))  # slot order, as --ic
        return 0

    from . import router

    if args.ic is not None:
        raise ValueError("--ic applies to .acfg inputs; DSL programs define their own initial conditions")
    program, system, graph = _compile_file(args.input)
    spec = _parse_machine(args.machine)
    design = router.route_design(graph, spec)
    overrides = design.lane_weight_map() if args.quantize == "off" else None
    model = sim.build_dynamics(design.config, lane_weights=overrides)
    trace = sim.run(model, model.initial, settings)
    # both runs finish before the first file is written, so a refused or
    # non-finite reference run leaves no outputs behind; the reference
    # trace records the hardware trace's taps only, as many values
    ref = None
    if args.reference:
        ref_model = sim.build_reference(system)
        ref_model = ref_model._replace(taps={name: ref_model.taps[name] for name in model.taps})
        ref = sim.run(ref_model, ref_model.initial, settings)
    with _writing(out_dir):
        sim.emit_traces(trace, program, out_dir)
        if ref is not None:
            sim.write_signals(out_dir / "ref_out.csv", ref, program.outputs)
    if ref is not None:
        print(f"max_abs_deviation: {sim.max_abs_deviation(trace, ref):.17g}")
    return 0


def _cmd_diff(args) -> int:
    from . import bitstream

    spec = _parse_machine(args.machine)
    old = bitstream.decode(_read(args.old), spec)
    new = bitstream.decode(_read(args.new), spec)
    script = bitstream.diff(old, new)
    _write(args.output, bitstream.encode_delta(script))
    print(f"ops: {len(script.ops)}")
    return 0


def _cmd_apply(args) -> int:
    from . import bitstream

    spec = _parse_machine(args.machine)
    base = bitstream.decode(_read(args.base), spec)
    script = bitstream.decode_delta(_read(args.delta))
    updated = bitstream.apply(base, script)
    _write(args.output, bitstream.encode(updated))
    return 0


def _cmd_fabric(args) -> int:
    from . import fabric

    spec = _parse_fabric(args.spec)
    crossbar = isinstance(spec, fabric.StageSpec)
    if args.count and args.experiment:
        raise ValueError("--count and --experiment are separate runs; give one of them")
    if args.count:
        print(spec.switch_count() if crossbar else fabric.switch_count(spec))
        return 0
    if args.experiment:
        if crossbar:
            raise ValueError("blocking experiments need a three-stage fabric (a crossbar never blocks)")
        if args.load is None:
            raise ValueError("--experiment requires --load")
        result = fabric.blocking_experiment(spec, args.load, args.trials, args.seed)
        print(f"blocked_fraction: {result.blocked_fraction:.17g}")
        print(f"mean_routed: {result.mean_routed:.17g}")
        return 0
    raise ValueError("fabric needs --count or --experiment")


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit code 1 like every diagnostic, not usage and exit code 2
        self.exit(1, f"autopatch: error: {message}\n")


class _VersionAction(argparse.Action):
    """--version, which loads the bitstream module for its format number
    only when the flag is given."""

    def __call__(self, parser, namespace, values, option_string=None):
        from .bitstream import FORMAT_VERSION

        print(f"autopatch {__version__} (bitstream format v{FORMAT_VERSION})")
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="autopatch",
        description="Compile ODE programs onto a switched analog interconnect, "
        "simulate them, and analyze switch fabrics.",
    )
    parser.add_argument(
        "--version", action=_VersionAction, nargs=0, default=argparse.SUPPRESS,
        help="show program's version number and exit",
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
    except (ValueError, OSError) as exc:
        # every autopatch error class is a ValueError; anything else is a bug
        # and keeps its traceback
        print(f"autopatch: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
