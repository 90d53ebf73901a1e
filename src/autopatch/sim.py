"""Fixed-step simulation of a routed configuration and of the polynomial
reference system.

Both paths build a `Model`, whose `step` is one Python function that
takes a whole block of RK4 or Euler steps, compiled with `exec` in the
manner of SymPy's `lambdify` or JiTCODE, which generates the integration
loop and not only the right-hand side.  One stage writer (`_write_step`)
writes the integrator: the loop over the steps, the state clamps, the
stage arithmetic, the recorded samples, the peaks, the clip events and
the finiteness test, around a stage evaluation that each path writes as
straight-line code.  Where the states are scalar locals, the four RK4
stages are written out one after another, each with its copy of the
evaluation, so a step runs no stage loop and tests no stage number;
where they travel in a list, the evaluation is written once, inside a
loop over the stages.  `run` only sizes the run, calls `step` once per
block, moves the samples into the trace and raises `NonFiniteError`.
Each distinct step source is compiled once per process, so a rerun of a
system or configuration at other settings reuses its code.
In clip mode a clamp runs only where a range test fails: a chained test
over the scalar states or a multiplier level guards its clamp, and
states kept in a list are tested one by one as the list is built, so a
stage with nothing out of range calls no clamp and builds no extra list.

The hardware path (`build_dynamics`) evaluates exactly what the
interconnect wires up: element output voltages fan out over lanes, each
lane scales by its coefficient, currents sum per input row, multipliers
form products of their two row sums level by level
(`machine.dependency_order`), and each integrator integrates its input
row.  The reference path (`build_reference`) evaluates the expanded
polynomial system from its own monomial table, independent of the
circuit and of the routed lanes, so it can check the hardware path; the
two share only the stage writer, the sum writer and `_clamper`.

Every sum keeps the term order of a loop that accumulates from 0.0, and
every stage, written out or looped, the arithmetic of the per-stage loop
that `loop_step` and `LoopModel` in tests/test_sim.py specify, so the
hardware path rounds exactly as a loop over its lanes and the reference
as a per-term product loop from 1.0; a unit gain is left out of its
product, since 1.0 * x is x bit for bit.  With quantization bypassed
the two paths are comparable step for step; residual differences are
floating-point reassociation only.

A trace's time and signal columns are `array('d')`, 8 bytes per value.
`write_signals` writes every time-plus-signals CSV, the time first and
the signals in the order given (an image's in slot order, as `--ic`).
"""

from __future__ import annotations

import math
import struct
from array import array
from collections import defaultdict
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional, Sequence

from . import _Record
from .machine import LoopError, MachineConfig, NodeKind, Port, decode, dependency_order, validate_config

if TYPE_CHECKING:  # annotations only: an image run never loads the compiler
    from .circuit import PolySystem
    from .dsl import Program

MAX_STEPS = 10**8  # most integration steps one run may take
MAX_VALUES = 10**8  # most values (times and tap samples) one trace may record: 0.8 GB of arrays


class Method(Enum):
    RK4 = "rk4"
    EULER = "euler"


class SimSettings(_Record):
    """Machine-time integration settings (time is dimensionless), checked
    when made.  No code assigns to a field."""

    __slots__ = ("dt", "t_end", "method", "clip", "record_stride")

    def __init__(
        self, dt: float, t_end: float, method: Method = Method.RK4, clip: Optional[float] = None, record_stride: int = 1
    ):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(t_end) and t_end >= 0):
            raise ValueError("t_end must be nonnegative and finite")
        if clip is not None and not (math.isfinite(clip) and clip > 0):
            raise ValueError("clip threshold must be positive and finite")
        if record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if t_end / dt > MAX_STEPS:
            raise ValueError(f"t_end/dt = {t_end / dt:.3g} exceeds the step cap of {MAX_STEPS}")
        self.dt = dt
        self.t_end = t_end
        self.method = method
        self.clip = clip
        self.record_stride = record_stride


class ClipEvent(NamedTuple):
    t: float
    element: str


class Trace(NamedTuple):
    """Sampled run: aligned time/signal rows, clip events, and the largest
    |voltage| seen per element over the recorded samples.

    `times` and each `signals` column are `array('d')`: they iterate and
    index like lists, but compare equal only to arrays, not to lists."""

    times: array[float]
    signals: dict[str, array[float]]
    clip_events: list[ClipEvent]
    peaks: dict[str, float]


class UnroutedTapError(ValueError):
    pass


class NonFiniteError(ValueError):
    def __init__(self, t: float, element: str):
        super().__init__(f"{element} became non-finite at t={t}")
        self.t = t
        self.element = element


def _clamper(clip: float, clipped: Optional[set]):
    """The clamp to +-clip of one element voltage; it records the element's
    index in `clipped` when that changes the value (a NaN always counts,
    as NaN != NaN)."""

    def clamp(v: float, index: int) -> float:
        c = clip if v > clip else -clip if v < -clip else v
        if c != v and clipped is not None:
            clipped.add(index)
        return c

    return clamp


# terms per generated sum expression: CPython's compiler recurses once per
# `+` of a chain, so a sum of thousands of terms does not compile in one piece
_SUM_CHUNK = 200

# Up to this count the states of a generated step are scalar locals, and its
# four RK4 stages are written out one after another.  Past it the states
# travel in lists and one stage body runs in a stage loop: on the 500-state
# synthetic machine scalar states with the stage loop grew the source from
# 49 to 158 kB, tripled its compile time and took the compiler's peak memory
# from 4.3 to 19.7 MB, and with the stages written out the source is 453 kB.
_SCALAR_STATES = 64


def _clamped(names: Sequence[str], positions: Sequence[int]) -> str:
    """A statement that clamps the locals `names` by the step's `clamp`,
    each at its element position in `positions`, which the statement
    writes out: as `enumerate`'s start for a contiguous run, as a literal
    tuple otherwise.  It runs in clip mode only, and only when one
    chained test `lo <= e0 <= clip and lo <= e1 <= clip and ...` fails,
    as it does for a NaN too; a voltage inside [lo, clip] would come out
    of the clamp as it went in, so the guard changes no value and no clip
    event, and a stage with nothing out of range builds no list."""
    values = "(" + "".join(f"{name}, " for name in names) + ")"
    first, positions = positions[0], tuple(positions)
    contiguous = positions == tuple(range(first, first + len(positions)))
    pairs = f"enumerate({values}, {first})" if contiguous else f"zip({positions}, {values})"
    test = " and ".join(f"lo <= {name} <= clip" for name in names)
    return f"if clipping and not ({test}): {values} = [v if lo <= v <= clip else clamp(v, k) for k, v in {pairs}]"


def _sum_writer(lines):
    """`row_sum(terms, acc)`: an expression for the sum of the (weight,
    slot) `terms` over the locals `e<slot>`.  The sum is written out as
    `0.0 + w*e<slot> + ...` in term order, so the additions happen in the
    same order, and round the same way, as a loop that accumulates from
    0.0; a long one is first accumulated into the local `acc`, one
    statement per `_SUM_CHUNK` terms appended to `lines`.  Weights are
    written with repr, which reads a finite weight back exactly and names
    a non-finite one `inf`, `-inf` or `nan`, globals of every step; a NaN
    weight so loses its sign and payload.  A unit weight is written as the
    bare `e<slot>`, as 1.0*x is x bit for bit for every double, +-0, +-inf
    and NaN included; the leading `0.0 +` stays, as it turns -0.0 into 0.0."""

    def row_sum(terms, acc: str) -> str:
        products = [f"e{src}" if g == 1.0 else f"{g!r}*e{src}" for g, src in terms]
        head = " + ".join(["0.0", *products[:_SUM_CHUNK]])
        if len(products) <= _SUM_CHUNK:
            return head
        lines.append(f"{acc} = {head}")
        for start in range(_SUM_CHUNK, len(products), _SUM_CHUNK):
            lines.append(f"{acc} = " + " + ".join([acc, *products[start : start + _SUM_CHUNK]]))
        return acc

    return row_sum


def _write_step(n_states, n_elements, head, evaluation, sums):
    """Source of a model's `step(y, start, stop, h, dt, stages, clip,
    stride, peaks, events, time, taps)`, whose contract `Model` states:
    one loop over the steps, each of which runs its stages, then
    appends the step's clip events in element order and tests the new
    state for finiteness.  The finiteness test adds the states and looks
    at them one by one only when that sum is not finite, so a sum that
    overflows over finite states goes on to the next step.

    Element k is the local `e<k>`, and the states are the first
    `n_states` elements.  The caller's `head` lines run once per step;
    per stage, its `evaluation` lines run after the states are clamped (in
    clip mode) and set, and `sums` are the expressions of the state
    derivatives.  With scalar states the stages are written out in order:
    the evaluation, the sample, then either the Euler update or the other
    three RK4 stages, each with its own copy of the evaluation, so a step
    runs no stage loop and makes no stage test.  With list states, whose
    written-out stages would cost compile time and compiler memory in
    proportion to four evaluations, the evaluation is written once inside
    a loop over the stages that dispatches on the stage number.
    Scalar states are clamped at the start of each stage by one guarded
    `_clamped` statement.  List states are clamped where their list is
    built, `v if lo <= (v := <input>) <= clip else clamp(v, i)` per
    state: after the step-start `x = y` and in each later stage's list.
    The first stage of a recorded step lists the element voltages for the
    taps and raises the peaks, written out per element when the states
    are scalar locals and as one loop over the voltages otherwise.  Each
    stage's arithmetic is that of the per-stage loop `loop_step` in
    tests/test_sim.py specifies, so a step rounds exactly as that loop
    would.
    """
    # A vector over the states is n scalar locals on a small machine and one
    # list on a large one; `{i}` in a template stands for the state index.
    scalar = 0 < n_states <= _SCALAR_STATES

    def vector(template):
        if scalar:
            return "(" + "".join(template.format(i=i) + ", " for i in range(n_states)) + ")"
        return "[" + template.replace("{i}", "[i]") + f" for i in range({n_states})]"

    def names(name):
        return vector(name + "{i}") if scalar else name

    def clamped(template):
        # the list of the states `template`, each clamped where it is out of range
        value = template.replace("{i}", "[i]")
        return f"[v if lo <= (v := {value}) <= clip else clamp(v, i) for i in range({n_states})]"

    # the stage's states: e0, e1, ... themselves, clamped at the stage's
    # start, or the list x they unpack from, clamped as it is built
    state = names("e") if scalar else "x"

    def stage_input(template):
        if scalar:
            return f"{state} = {vector(template)}"
        return f"x = {clamped(template)} if clipping else {vector(template)}"

    def indented(lines):
        return [f"    {line}" for line in lines]

    lines = ["clipped = set()", "clipping = clip is not None", "if clipping:"]
    lines += ["    lo, clamp = -clip, _clamper(clip, clipped)", "half, s = 0.5 * h, h / 6.0"]
    if scalar:
        lines.append(f"{names('y')} = y")
        body = [_clamped([f"e{i}" for i in range(n_states)], range(n_states))]
    else:
        body = ["".join(f"e{i}, " for i in range(n_states)) + "= x"] if n_states else []
    body += evaluation
    terms = "".join(f"{expr}, " for expr in sums)
    body.append(f"{names('d')} = " + (f"({terms})" if scalar else f"[{terms}]"))
    # a display of every state costs the compiler more memory than *x
    volts = f"[*{state}, " + "".join(f"e{k}, " for k in range(n_states, n_elements)) + "]"

    # a recorded step's sample, and each element's peak raised to its
    # |voltage|, written out per element where the states are scalar locals
    sample = ["time(index * dt)", f"volts = {volts}", "for append, i in taps: append(volts[i])"]
    if scalar:
        sample += [line for k in range(n_elements) for line in (f"a = abs(e{k})", f"if a > peaks[{k}]: peaks[{k}] = a")]
    elif n_elements:
        sample += ["for k, a in enumerate(map(abs, volts)):", "    if a > peaks[k]: peaks[k] = a"]
    sample = ["if not index % stride:", *indented(sample)]
    euler = f"if stages: {names('y')} = {vector('y{i} + h * d{i}')}"
    # the end of each RK4 stage: the first three keep their slope and set
    # the next stage's input, the fourth takes the step
    ends = [
        [f"{names('k1_')} = {names('d')}", stage_input("y{i} + half * d{i}")],
        [f"{names('k2_')} = {names('d')}", stage_input("y{i} + half * d{i}")],
        [f"{names('k3_')} = {names('d')}", stage_input("y{i} + h * d{i}")],
        [f"{names('y')} = {vector('y{i} + s * (k1_{i} + 2.0 * (k2_{i} + k3_{i}) + d{i})')}"],
    ]
    # a sum is non-finite if any state is, or if finite states overflow it
    total = " + ".join(f"y{i}" for i in range(n_states)) if scalar else "sum(y)"
    steps = [f"{state} = {names('y')}"]
    if not scalar:
        steps.append(f"if clipping: x = {clamped('y{i}')}")
    steps += head
    if scalar:
        rk4 = [*ends[0], *body, *ends[1], *body, *ends[2], *body, *ends[3]]
        steps += [*body, *sample, "if stages < 2:", f"    {euler}", "else:", *indented(rk4)]
    else:
        stage0 = [*sample, "if stages < 2:", f"    {euler}", "    break", *ends[0]]
        dispatch = ["if stage == 0:", *indented(stage0), "elif stage == 1:", *indented(ends[1])]
        dispatch += ["elif stage == 2:", *indented(ends[2]), "else:", *indented(ends[3])]
        steps += ["for stage in range(4):", *indented(body + dispatch)]
    steps += ["if clipped:", "    for i in sorted(clipped): events.append((index * dt, i))", "    clipped.clear()"]
    steps.append(f"if not stages: return {names('d')}, stop")
    steps.append(f"if not isfinite({total}) and not all(map(isfinite, {names('y')})): return {names('y')}, index")
    lines += ["for index in range(start, stop):", *indented(steps), f"return {names('y')}, stop"]
    args = "y, start, stop, h, dt, stages, clip, stride, peaks, events, time, taps"
    return f"def step({args}):\n" + "".join(f"    {line}\n" for line in lines)


# distinct step sources whose code objects `_compile_step` keeps; the code
# of one 500-state step holds at most 0.6 MB
_STEP_CACHE = 16


@lru_cache(maxsize=_STEP_CACHE)
def _step_code(source):
    return compile(source, "<autopatch step>", "exec")


def _compile_step(source):
    """The `step` function of `_write_step`'s source.  The source holds
    every gain and element position of its model and depends on the
    system alone, never on the run's settings, so its code object is
    compiled once and kept (`_step_code`).  Each call runs it in fresh
    globals, which hold only `_clamper`, `isfinite`, `inf` and `nan`;
    `step` is popped from them, and the cache holds code only, so a model
    is freed by reference counting, without waiting for the cyclic GC."""
    namespace = {"_clamper": _clamper, "isfinite": math.isfinite, "inf": math.inf, "nan": math.nan}
    exec(_step_code(source), namespace)
    return namespace.pop("step")


def _generate_evaluator(n_states, n_elements, int_terms, levels, const_index):
    """Source of the generated step (`_write_step`) of one routed machine:
    the element voltages of a stage, from the integrators' input rows
    (`int_terms`) and the multiplier levels (`levels`).

    The constant source, if it is an element, is set and clamped once per
    step.  Multipliers go level by level, as `dependency_order` groups
    them: level 0 reads only states and the constant, level j reads at
    least one multiplier of level j - 1.  Each multiplier is the product of
    its two row sums (`_sum_writer`, terms in lane order), and each level
    is clamped in one guarded statement (`_clamped`) before the next level
    reads it; a clamp statement per multiplier made up a third of the
    compile time.
    """
    head: list[str] = []
    if const_index is not None:
        head += [f"e{const_index} = 1.0", _clamped([f"e{const_index}"], [const_index])]
    evaluation: list[str] = []
    row_sum = _sum_writer(evaluation)
    for ops in levels:
        for k, a_terms, b_terms in ops:
            a = row_sum(a_terms, "_a")
            b = row_sum(b_terms, "_b")
            evaluation.append(f"e{k} = ({a}) * ({b})")
        evaluation.append(_clamped([f"e{k}" for k, _, _ in ops], [k for k, _, _ in ops]))
    sums = [row_sum(terms, f"_d{i}") for i, terms in enumerate(int_terms)]
    return _write_step(n_states, n_elements, head, evaluation, sums)


class Model(NamedTuple):
    """A compiled model of either path.  Its first `len(state_labels)`
    elements are the states, which start at `initial`; `element_labels`
    name every element, no two alike, and `taps` maps each signal name to
    an element position.

    `step(y, start, stop, h, dt, stages, clip, stride, peaks, events,
    time, taps)` is one Python function generated per model
    (`_write_step`).  It takes the RK4 (4 stages) or Euler (1 stage)
    steps `start` to `stop` - 1 of size h from the states y, step k
    starting at k * dt.  Every `stride`-th step it records the time with
    `time(t)` and each (append, element position) of `taps` with
    `append(voltage)`, the voltages at the step's start, and raises each
    entry of `peaks` (one per element) to that element's |voltage|.  In
    clip mode it clamps every stage's states and appends `(t, element
    position)` to `events` once per element and step.  It returns the
    state after its last step and `stop`, or the first non-finite state
    and the step k that made it.  With 0 stages it only evaluates and
    records step `start` and returns the state derivatives there.  `run`
    builds its `taps` from `model.taps`.
    """

    state_labels: tuple[str, ...]
    initial: tuple[float, ...]
    element_labels: tuple[str, ...]
    taps: dict[str, int]
    step: Callable


_LABELS = {NodeKind.INTEGRATOR: "I{}", NodeKind.MULTIPLIER: "M{}", NodeKind.CONST_ONE: "const"}


def build_dynamics(config: MachineConfig, lane_weights: Optional[Mapping[int, float]] = None) -> Model:
    """The model of what a valid configuration wires up.

    Elements are in output-row order, which the row convention makes used
    integrators first (ascending slot), then used multipliers, then the
    constant source if an active lane draws from it or a tap names it.
    `element_labels` name elements by slot (`I<k>`, `M<j>`, `const`), and
    `state_labels` name each integrator by its tap, or by its slot when it
    has none.  In clip mode a stage also clamps the constant and each
    multiplier's product.

    `lane_weights` substitutes exact pre-quantization gains for the decoded
    coefficient values (quantization bypass); lanes not listed fall back to
    their decoded value.  Lanes sourcing reserved rows contribute nothing
    (an undriven row idles at zero).
    """
    problems = validate_config(config)
    if problems:
        raise ValueError("configuration invalid: " + "; ".join(problems))
    spec = config.spec

    # An element is named by its output row.  The row convention puts
    # integrators first, then multipliers, then the constant, so the used
    # rows in ascending order are the element order.
    used: set[int] = set()
    wires = []  # (gain, source row or None, destination element's row, port) per lane
    for lane in config.active_lanes():
        gain = decode(config.coefficients[lane])
        if lane_weights is not None and lane in lane_weights:
            gain = lane_weights[lane]
        src = config.u_source[lane]
        if spec.out_row_role(src)[0] is None:
            src = None  # reserved row: idles at zero
        else:
            used.add(src)
        port, k = spec.in_row_role(config.i_dest[lane])
        dst = spec.out_row(NodeKind.INTEGRATOR if port is Port.INTEGRATOR_IN else NodeKind.MULTIPLIER, k)
        used.add(dst)
        wires.append((gain, src, dst, port))

    tap_name_of_row: dict[int, str] = {}
    for name, row in config.taps:
        if spec.out_row_role(row)[0] is None:
            raise UnroutedTapError(f"tap {name} references reserved out-row {row}")
        used.add(row)
        tap_name_of_row.setdefault(row, name)

    rows = sorted(used)
    position = {row: i for i, row in enumerate(rows)}
    roles = [spec.out_row_role(row) for row in rows]
    labels = [_LABELS[kind].format(k) for kind, k in roles]
    n_states = sum(kind is NodeKind.INTEGRATOR for kind, _ in roles)
    const_index = position.get(spec.out_row(NodeKind.CONST_ONE, 0))

    # each element port's (gain, source position) terms, in lane order
    sums: dict[tuple[int, Port], list[tuple[float, int]]] = defaultdict(list)
    for gain, src, dst, port in wires:
        if src is not None:
            sums[position[dst], port].append((gain, position[src]))
    int_terms = [sums[i, Port.INTEGRATOR_IN] for i in range(n_states)]
    muls = [i for i, (kind, _) in enumerate(roles) if kind is NodeKind.MULTIPLIER]
    mul_ports = {i: (sums[i, Port.MUL_A], sums[i, Port.MUL_B]) for i in muls}

    # multipliers in dependency levels; feedback among them (without an
    # integrator in between) is not evaluable
    reads = {pos: [src for _, src in a + b] for pos, (a, b) in mul_ports.items()}
    try:
        levels = [[(pos, *mul_ports[pos]) for pos in level] for level in dependency_order(reads)]
    except LoopError as exc:
        raise LoopError([labels[pos] for pos in exc.cycle]) from None

    step = _compile_step(_generate_evaluator(n_states, len(labels), int_terms, levels, const_index))
    return Model(
        state_labels=tuple(tap_name_of_row.get(row, labels[i]) for i, row in enumerate(rows[:n_states])),
        initial=tuple(config.initial_states[k] for _, k in roles[:n_states]),
        element_labels=tuple(labels),
        taps={name: position[row] for name, row in config.taps},
        step=step,
    )


def build_reference(system: PolySystem) -> Model:
    """The model of an expanded polynomial system, evaluated from its own
    monomial table.  Its elements are the states; in clip mode a stage
    clamps the states, and never the constant 1.0 or a product.

    Slot i < n of the table is state i's voltage and slot n the constant
    1.0; each later slot is a factor prefix of length >= 2, in (length,
    factors) order, the product of its prefix one factor shorter and its
    last factor.  A monomial is thus multiplied once per stage however many
    terms use it, left to right over its sorted factors, and a term is
    (weight, slot): the products and sums of a per-term loop that starts
    each product at 1.0, as 1.0 * x is x bit for bit."""
    n = len(system.states)
    taps = {name: i for i, name in enumerate(system.states)}
    slot = {(name,): i for name, i in taps.items()}
    slot[()] = n
    prefixes = {t.factors[:k] for terms in system.rhs for t in terms for k in range(2, len(t.factors) + 1)}
    evaluation = []  # slot k = slot a * slot b, in slot order
    for k, prefix in enumerate(sorted(prefixes, key=lambda p: (len(p), p)), n + 1):
        slot[prefix] = k
        evaluation.append(f"e{k} = e{slot[prefix[:-1]]} * e{slot[prefix[-1:]]}")
    row_sum = _sum_writer(evaluation)
    sums = [row_sum([(t.weight, slot[t.factors]) for t in terms], f"_d{i}") for i, terms in enumerate(system.rhs)]
    step = _compile_step(_write_step(n, n, [f"e{n} = 1.0"], evaluation, sums))
    return Model(system.states, system.initial, system.states, taps, step)


# steps per call of a model's `step`, after each of which `run` moves the
# buffered samples into the trace arrays
_BLOCK = 4096


def run(model: Model, initial: Sequence[float], settings: SimSettings) -> Trace:
    """Integrate with a fixed step, sampling every `record_stride` steps.

    The trace always contains t = 0 and t = t_end; when t_end is not a
    whole number of steps away the final step is shortened to land on it
    exactly.  A sample's voltages come from the first stage of the step
    that starts at it; only the final sample, with no step after it, costs
    an evaluation of its own, and only recorded samples raise the peaks.
    Clip events are recorded once per (element, step) with the step's
    start time.  Any non-finite state aborts the run, named by the first
    such state.  A run that would record more than `MAX_VALUES` values is
    refused before its first step.

    `model.step` takes `_BLOCK` steps per call, appending each recorded
    sample to plain lists, which are moved into the trace's arrays after
    each call, with its clip events: a list append costs a third of an
    array append or less, and an array holds a value in 8 bytes, not ~35.
    The shortened landing step and the final sample take one call each.
    """
    if len(initial) != len(model.state_labels):
        raise ValueError(f"initial vector has {len(initial)} entries, model has {len(model.state_labels)} states")
    dt, t_end, stride, clip = settings.dt, settings.t_end, settings.record_stride, settings.clip

    n_steps = int(math.floor(t_end / dt + 1e-9))
    rem = t_end - n_steps * dt
    if rem <= dt * 1e-9:
        rem = 0.0
    total_steps = n_steps + (1 if rem else 0)
    if total_steps > MAX_STEPS:
        raise ValueError(f"run needs {total_steps} steps, above the cap of {MAX_STEPS}")
    samples = -(-total_steps // stride) + 1  # every stride-th step's start, and t_end
    values = samples * (1 + len(model.taps))
    if values > MAX_VALUES:
        raise ValueError(f"run would record {values} values, above the cap of {MAX_VALUES}; raise record_stride (--stride)")

    labels = model.element_labels
    peaks = [0.0] * len(labels)  # by element position, kept up by `step`
    events: list[tuple[float, int]] = []  # (step start, element position), appended by `step`
    times, signals, clip_events = array("d"), {name: array("d") for name in model.taps}, []
    stages = 4 if settings.method is Method.RK4 else 1
    # (array, buffer) per column, the time first; `step` appends to the buffers
    columns = [(times, [])] + [(signals[name], []) for name in model.taps]
    time = columns[0][1].append
    taps = [(buffer.append, idx) for (_, buffer), idx in zip(columns[1:], model.taps.values())]

    def flush():
        for column, buffer in columns:
            # struct converts the floats in half the time array.fromlist takes
            column.frombytes(struct.pack(f"{len(buffer)}d", *buffer))
            buffer.clear()
        clip_events.extend(ClipEvent(t, labels[idx]) for t, idx in events)
        events.clear()

    # (first step, end, step size) per call: whole blocks of full steps, then
    # the landing step when t_end is off the grid
    calls = [(k, min(k + _BLOCK, n_steps), dt) for k in range(0, n_steps, _BLOCK)]
    if rem:
        calls.append((n_steps, total_steps, rem))
    y = list(initial)
    for start, stop, h in calls:
        y, k = model.step(y, start, stop, h, dt, stages, clip, stride, peaks, events, time, taps)
        flush()
        if k < stop:
            i = next(i for i, v in enumerate(y) if not math.isfinite(v))
            raise NonFiniteError(k * dt + h, model.state_labels[i])
    # the final sample is step 1 on a grid of its own time; with no step
    # after it, its clamps are no clip events
    model.step(y, 1, 2, 0.0, t_end if total_steps else 0.0, 0, clip, 1, peaks, [], time, taps)
    flush()
    return Trace(times, signals, clip_events, dict(zip(labels, peaks)))


def run_reference(system: PolySystem, settings: SimSettings) -> Trace:
    """Integrate the expanded system directly, with unquantized weights."""
    model = build_reference(system)
    return run(model, model.initial, settings)


def max_abs_deviation(a: Trace, b: Trace) -> float:
    """Largest pointwise |difference| over the shared signals.  Equal
    samples differ by 0, equal infinities too, and a NaN on either side
    makes the result NaN."""
    worst = 0.0
    for name in sorted(set(a.signals) & set(b.signals)):
        xs, ys = a.signals[name], b.signals[name]
        if len(xs) != len(ys):
            raise ValueError(f"signal {name}: traces have {len(xs)} vs {len(ys)} samples")
        for x, y in zip(xs, ys):
            if x != y:
                d = abs(x - y)
                # no number compares above a NaN, so a NaN once kept stays
                if d > worst or d != d:
                    worst = d
    return worst


# --------------------------------------------------------------------------
# trace files


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence[float]]) -> None:
    row = ",".join(["%.17g"] * len(columns)) + "\n"  # "%.17g" % x is f"{x:.17g}"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*columns))


def write_signals(path: Path, trace: Trace, names: Sequence[str]) -> None:
    """Write the time and the `names` signals of `trace`, in that order,
    under the header `t,<names>`."""
    write_csv(path, ["t", *names], [trace.times, *(trace.signals[name] for name in names)])


def plot_files(program: Program) -> dict[str, tuple[str, str]]:
    """Each plot_<x>_<y>.csv file name of `program` and the axes it plots,
    a plot repeated with the same axes once.  Two pairs of axes that name
    one file, such as (A_B, C) and (A, B_C), are refused."""
    plots = {}  # file name -> the axes it plots
    for x, y in program.plots:
        name = f"plot_{x}_{y}.csv"
        first = plots.setdefault(name, (x, y))
        if first != (x, y):
            raise ValueError(f"plots ({', '.join(first)}) and ({x}, {y}) both write {name}")
    return plots


def emit_traces(trace: Trace, program: Program, out_dir) -> list[Path]:
    """Write out.csv (time plus every `out` signal) and one
    plot_<x>_<y>.csv per file of `plot_files`.  17 significant digits, LF
    line endings.  Plots that `plot_files` refuses are refused before
    anything is written."""
    for name in program.signals():
        if name not in trace.signals:
            raise ValueError(f"trace does not tap signal {name}")
    plots = plot_files(program)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / "out.csv"]
    write_signals(written[0], trace, program.outputs)
    for name, (x, y) in plots.items():
        written.append(out_dir / name)
        write_csv(written[-1], [x, y], [trace.signals[x], trace.signals[y]])
    return written
