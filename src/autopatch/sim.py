"""Fixed-step simulation of a routed configuration and of the polynomial
reference system.

Both paths share one integrator core and one evaluation discipline, so
with quantization bypassed they are comparable step for step; residual
differences are floating-point reassociation only.  The hardware path
evaluates exactly what the interconnect wires up: element output voltages
fan out over lanes, each lane scales by its coefficient, currents sum per
input row, multipliers form products of their two row sums in dependency
order, and each integrator integrates its input row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .circuit import LoopError, PolySystem, dependency_order
from .dsl import Program
from .machine import MachineConfig, RowRole, decode, validate_config


class Method(Enum):
    RK4 = "rk4"
    EULER = "euler"


@dataclass(frozen=True)
class SimSettings:
    """Machine-time integration settings (time is dimensionless)."""

    dt: float
    t_end: float
    method: Method = Method.RK4
    clip: Optional[float] = None
    record_stride: int = 1
    max_steps: int = 10**8

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError("t_end must be nonnegative and finite")
        if self.clip is not None and not (math.isfinite(self.clip) and self.clip > 0):
            raise ValueError("clip threshold must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.t_end / self.dt > self.max_steps:
            raise ValueError(f"t_end/dt = {self.t_end / self.dt:.3g} exceeds the step cap of {self.max_steps}")


@dataclass(frozen=True)
class ClipEvent:
    t: float
    element: str


@dataclass
class Trace:
    """Sampled run: aligned time/signal rows, clip events, and the largest
    |voltage| seen per element over the recorded samples."""

    times: list[float]
    signals: dict[str, list[float]]
    clip_events: list[ClipEvent]
    peaks: dict[str, float] = field(default_factory=dict)


class UnroutedTapError(Exception):
    pass


class NonFiniteError(Exception):
    def __init__(self, t: float, element: str):
        super().__init__(f"{element} became non-finite at t={t}")
        self.t = t
        self.element = element


def _clamp(v: float, clip: float) -> float:
    if v > clip:
        return clip
    if v < -clip:
        return -clip
    return v


class DynamicsModel:
    """Compiled hardware evaluator.

    Elements are laid out as one voltage vector: used integrators first
    (ascending slot), then used multipliers, then the constant source if
    any active lane draws from it.  `taps` maps signal names to element
    positions.
    """

    def __init__(self, state_labels, initial, element_labels, taps, int_terms, mul_ops, const_index):
        self.state_labels: tuple[str, ...] = state_labels
        self.initial: tuple[float, ...] = initial
        self.element_labels: tuple[str, ...] = element_labels
        self.taps: dict[str, int] = taps
        self._int_terms = int_terms      # per state: ((gain, src element), ...)
        self._mul_ops = mul_ops          # topo order: (element, a terms, b terms)
        self._const_index = const_index

    @property
    def n_states(self) -> int:
        return len(self.state_labels)

    def voltages(self, y: Sequence[float], clip: Optional[float] = None, clipped: Optional[set] = None) -> list[float]:
        volts = [0.0] * len(self.element_labels)
        n = len(self.state_labels)
        for i in range(n):
            v = y[i]
            if clip is not None:
                c = _clamp(v, clip)
                if c != v and clipped is not None:
                    clipped.add(i)
                v = c
            volts[i] = v
        if self._const_index is not None:
            v = 1.0
            if clip is not None:
                c = _clamp(v, clip)
                if c != v and clipped is not None:
                    clipped.add(self._const_index)
                v = c
            volts[self._const_index] = v
        for elem, a_terms, b_terms in self._mul_ops:
            a = 0.0
            for gain, src in a_terms:
                a += gain * volts[src]
            b = 0.0
            for gain, src in b_terms:
                b += gain * volts[src]
            v = a * b
            if clip is not None:
                c = _clamp(v, clip)
                if c != v and clipped is not None:
                    clipped.add(elem)
                v = c
            volts[elem] = v
        return volts

    def rhs(self, y: Sequence[float], clip: Optional[float] = None, clipped: Optional[set] = None) -> list[float]:
        volts = self.voltages(y, clip, clipped)
        out = []
        for terms in self._int_terms:
            acc = 0.0
            for gain, src in terms:
                acc += gain * volts[src]
            out.append(acc)
        return out


def build_dynamics(config: MachineConfig, lane_weights: Optional[Mapping[int, float]] = None) -> DynamicsModel:
    """Compile a valid configuration into an evaluator.

    `lane_weights` substitutes exact pre-quantization gains for the decoded
    coefficient values (quantization bypass); lanes not listed fall back to
    their decoded value.  Lanes sourcing reserved rows contribute nothing
    (an undriven row idles at zero).
    """
    problems = validate_config(config)
    if problems:
        raise ValueError("configuration invalid: " + "; ".join(problems))
    spec = config.spec

    used_int: set[int] = set()
    used_mul: set[int] = set()
    const_used = False
    active = config.active_lanes()
    for lane in active:
        role, k = spec.out_row_role(config.u_source[lane])
        if role is RowRole.INTEGRATOR_OUT:
            used_int.add(k)
        elif role is RowRole.MULTIPLIER_OUT:
            used_mul.add(k)
        elif role is RowRole.CONST_ONE:
            const_used = True
        role, k = spec.in_row_role(config.i_dest[lane])
        if role is RowRole.INTEGRATOR_IN:
            used_int.add(k)
        else:
            used_mul.add(k)

    tap_name_of_row = {}
    for name, row in config.taps:
        role, k = spec.out_row_role(row)
        if role is RowRole.INTEGRATOR_OUT:
            used_int.add(k)
            tap_name_of_row.setdefault(row, name)
        elif role is RowRole.MULTIPLIER_OUT:
            used_mul.add(k)
        elif role is RowRole.CONST_ONE:
            const_used = True
        else:
            raise UnroutedTapError(f"tap {name} references reserved out-row {row}")

    ints = sorted(used_int)
    muls = sorted(used_mul)
    state_pos = {k: i for i, k in enumerate(ints)}
    mul_pos = {j: len(ints) + i for i, j in enumerate(muls)}
    const_index = len(ints) + len(muls) if const_used else None

    labels = []
    for k in ints:
        labels.append(tap_name_of_row.get(spec.integrator_out_row(k), f"I{k}"))
    labels.extend(f"M{j}" for j in muls)
    if const_used:
        labels.append("const")

    def source_index(row: int) -> Optional[int]:
        role, k = spec.out_row_role(row)
        if role is RowRole.INTEGRATOR_OUT:
            return state_pos[k]
        if role is RowRole.MULTIPLIER_OUT:
            return mul_pos[k]
        if role is RowRole.CONST_ONE:
            return const_index
        return None  # reserved row: idles at zero

    int_terms: list[list[tuple[float, int]]] = [[] for _ in ints]
    mul_a: dict[int, list[tuple[float, int]]] = {mul_pos[j]: [] for j in muls}
    mul_b: dict[int, list[tuple[float, int]]] = {mul_pos[j]: [] for j in muls}
    for lane in active:
        gain = decode(config.coefficients[lane])
        if lane_weights is not None and lane in lane_weights:
            gain = lane_weights[lane]
        src = source_index(config.u_source[lane])
        if src is None:
            continue
        role, k = spec.in_row_role(config.i_dest[lane])
        if role is RowRole.INTEGRATOR_IN:
            int_terms[state_pos[k]].append((gain, src))
        elif role is RowRole.MUL_A:
            mul_a[mul_pos[k]].append((gain, src))
        else:
            mul_b[mul_pos[k]].append((gain, src))

    # multipliers in dependency order; feedback among them (without an
    # integrator in between) is not evaluable
    reads = {pos: [src for _, src in mul_a[pos] + mul_b[pos]] for pos in mul_a}
    try:
        order = dependency_order(reads)
    except LoopError as exc:
        raise LoopError([labels[pos] for pos in exc.cycle]) from None
    mul_ops = tuple((pos, tuple(mul_a[pos]), tuple(mul_b[pos])) for pos in order)

    taps = {}
    for name, row in config.taps:
        idx = source_index(row)
        assert idx is not None
        taps[name] = idx

    return DynamicsModel(
        state_labels=tuple(labels[: len(ints)]),
        initial=tuple(config.initial_states[k] for k in ints),
        element_labels=tuple(labels),
        taps=taps,
        int_terms=tuple(tuple(t) for t in int_terms),
        mul_ops=mul_ops,
        const_index=const_index,
    )


class ReferenceModel:
    """Direct evaluator for an expanded polynomial system; same interface
    as DynamicsModel so both share the integrator core."""

    def __init__(self, system: PolySystem):
        self.state_labels = system.states
        self.element_labels = system.states
        self.initial = system.initial
        self.taps = {name: i for i, name in enumerate(system.states)}
        index = {name: i for i, name in enumerate(system.states)}
        self._terms = tuple(
            tuple((term.weight, tuple(index[f] for f in term.monomial.factors)) for term in terms)
            for terms in system.rhs
        )

    def voltages(self, y, clip=None, clipped=None):
        volts = list(y)
        if clip is not None:
            for i, v in enumerate(volts):
                c = _clamp(v, clip)
                if c != v and clipped is not None:
                    clipped.add(i)
                volts[i] = c
        return volts

    def rhs(self, y, clip=None, clipped=None):
        volts = self.voltages(y, clip, clipped)
        out = []
        for terms in self._terms:
            acc = 0.0
            for weight, factors in terms:
                prod = 1.0
                for i in factors:
                    prod *= volts[i]
                acc += weight * prod
            out.append(acc)
        return out


def _step(model, y, h, method, clip, clipped):
    k1 = model.rhs(y, clip, clipped)
    n = len(y)
    if method is Method.EULER:
        return [y[i] + h * k1[i] for i in range(n)]
    half = 0.5 * h
    y2 = [y[i] + half * k1[i] for i in range(n)]
    k2 = model.rhs(y2, clip, clipped)
    y3 = [y[i] + half * k2[i] for i in range(n)]
    k3 = model.rhs(y3, clip, clipped)
    y4 = [y[i] + h * k3[i] for i in range(n)]
    k4 = model.rhs(y4, clip, clipped)
    s = h / 6.0
    return [y[i] + s * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(n)]


def run(model, initial: Sequence[float], settings: SimSettings) -> Trace:
    """Integrate with a fixed step, sampling every `record_stride` steps.

    The trace always contains t = 0 and t = t_end; when t_end is not a
    whole number of steps away the final step is shortened to land on it
    exactly.  Clip events are recorded once per (element, step) with the
    step's start time.  Any non-finite state aborts the run.
    """
    if len(initial) != len(model.state_labels):
        raise ValueError(f"initial vector has {len(initial)} entries, model has {len(model.state_labels)} states")
    dt, t_end, stride, clip = settings.dt, settings.t_end, settings.record_stride, settings.clip

    n_steps = int(math.floor(t_end / dt + 1e-9))
    rem = t_end - n_steps * dt
    if rem <= dt * 1e-9:
        rem = 0.0
    total_steps = n_steps + (1 if rem else 0)
    if total_steps > settings.max_steps:
        raise ValueError(f"run needs {total_steps} steps, above the cap of {settings.max_steps}")

    trace = Trace(times=[], signals={name: [] for name in model.taps}, clip_events=[], peaks={})
    labels = model.element_labels
    peaks = dict.fromkeys(labels, 0.0)

    def record(t: float, y):
        volts = model.voltages(y, clip, None)
        trace.times.append(t)
        for name, idx in model.taps.items():
            trace.signals[name].append(volts[idx])
        for label, v in zip(labels, volts):
            a = abs(v)
            if a > peaks[label]:
                peaks[label] = a

    def advance(y, t_start, h):
        clipped = set() if clip is not None else None
        y = _step(model, y, h, settings.method, clip, clipped)
        if clipped:
            for idx in sorted(clipped):
                trace.clip_events.append(ClipEvent(t_start, labels[idx]))
        for i, v in enumerate(y):
            if not math.isfinite(v):
                raise NonFiniteError(t_start + h, model.state_labels[i])
        return y

    y = list(initial)
    record(0.0, y)
    for k in range(1, n_steps + 1):
        y = advance(y, (k - 1) * dt, dt)
        # the final landing step is recorded as t_end below, not here
        if k % stride == 0 and (k < n_steps or rem):
            record(k * dt, y)
    if rem:
        y = advance(y, n_steps * dt, rem)
        record(t_end, y)
    elif n_steps > 0:
        record(t_end, y)

    trace.peaks = peaks
    return trace


def run_reference(system: PolySystem, settings: SimSettings) -> Trace:
    """Integrate the expanded system directly, with unquantized weights."""
    model = ReferenceModel(system)
    return run(model, model.initial, settings)


def max_abs_deviation(a: Trace, b: Trace, names: Optional[Sequence[str]] = None) -> float:
    """Largest pointwise |difference| over the shared (or given) signals."""
    if names is None:
        names = sorted(set(a.signals) & set(b.signals))
    worst = 0.0
    for name in names:
        xs, ys = a.signals[name], b.signals[name]
        if len(xs) != len(ys):
            raise ValueError(f"signal {name}: traces have {len(xs)} vs {len(ys)} samples")
        for x, y in zip(xs, ys):
            d = abs(x - y)
            if d > worst:
                worst = d
    return worst


# --------------------------------------------------------------------------
# trace files


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence[float]]) -> None:
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(rows):
            fh.write(",".join(f"{col[r]:.17g}" for col in columns) + "\n")


def emit_traces(trace: Trace, program: Program, out_dir) -> list[Path]:
    """Write out.csv (time plus every `out` signal) and one
    plot_<x>_<y>.csv per plot statement.  17 significant digits, LF line
    endings."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in list(program.outputs) + [ax for pair in program.plots for ax in pair]:
        if name not in trace.signals:
            raise ValueError(f"trace does not tap signal {name}")
    written = []
    out_path = out_dir / "out.csv"
    write_csv(
        out_path,
        ["t"] + list(program.outputs),
        [trace.times] + [trace.signals[name] for name in program.outputs],
    )
    written.append(out_path)
    for x, y in program.plots:
        plot_path = out_dir / f"plot_{x}_{y}.csv"
        write_csv(plot_path, [x, y], [trace.signals[x], trace.signals[y]])
        written.append(plot_path)
    return written
