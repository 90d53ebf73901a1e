import ast
import dataclasses
import gc
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from array import array
from collections import Counter
from functools import partial
from pathlib import Path

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

import support
from autopatch import sim
from autopatch.circuit import LoopError, NodeKind, PolySystem, Port, build_circuit, dependency_order, normalize
from autopatch.dsl import compile_source
from autopatch.machine import (
    CoefficientCode,
    MachineConfig,
    MachineSpec,
    lucidac_spec,
    quantize_highres,
    redac_tile_spec,
    decode as decode_coeff,
)
from autopatch.router import route_design
from autopatch.sim import (
    Method,
    NonFiniteError,
    SimSettings,
    UnroutedTapError,
    build_dynamics,
    emit_traces,
    max_abs_deviation,
    run,
    run_reference,
)


def one_step(model, y, h, stages, clip=None, clipped=None, peaks=None):
    """One step of `model.step` from y, in the contract `step` had before
    it ran whole blocks: the next state (with 0 stages, the derivatives at
    y) and the element voltages at y.  The positions of the elements the
    step clamps go into `clipped`, and `peaks`, if given, is raised as a
    recorded step raises it.  A `sim.Model` of either path and a LoopModel
    both answer it."""
    volts, events = [], []
    taps = [(volts.append, k) for k in range(len(model.element_labels))]
    peaks = [0.0] * len(model.element_labels) if peaks is None else peaks
    values, _ = model.step(y, 0, 1, h, 1.0, stages, clip, 1, peaks, events, lambda t: None, taps)
    if clipped is not None:
        clipped.update(k for _, k in events)
    return values, volts


def evaluate(model, y, clip=None, clipped=None):
    """The integrator input sums and the element voltages at y, from the
    model's 0-stage step."""
    derivs, volts = one_step(model, y, 0.0, 0, clip, clipped)
    return list(derivs), volts


def pipeline(source: str, spec=None):
    program = compile_source(source)
    system = normalize(program)
    graph = build_circuit(system, program)
    design = route_design(graph, spec or lucidac_spec())
    return program, system, design


PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

DECAY = "fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n"


class TestBuildDynamics:
    def test_lorenz_rhs_matches_quantized_hand_evaluation(self, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        assert model.state_labels == ("X", "Y", "I2")
        d, _ = evaluate(model, [0.1, 0.0, 0.0])
        # hand evaluation with decoded 12-bit coefficients
        g = lambda w: decode_coeff(CoefficientCode.highres(quantize_highres(w)))
        assert d[0] == -1.0 * 0.1 + g(1.8) * 0.0
        assert d[1] == g(1.56) * 0.1 + -0.1 * 0.0 + g(-4.17768) * (0.1 * 0.0)
        assert d[1] == pytest.approx(0.15576171875, abs=0)
        assert d[2] == 0.0

    def test_bypass_rhs_matches_exact_weights(self, lorenz_system, lorenz_design):
        model = build_dynamics(lorenz_design.config, lane_weights=lorenz_design.lane_weight_map())
        d, _ = evaluate(model, [0.1, 0.0, 0.0])
        assert d[0] == -0.1
        assert d[1] == 1.56 * 0.1
        assert d[2] == 0.0

    def test_empty_config_has_no_states(self):
        model = build_dynamics(MachineConfig.empty(lucidac_spec()))
        assert model.state_labels == ()
        trace = run(model, (), SimSettings(dt=0.1, t_end=1.0))
        assert trace.signals == {}
        assert len(trace.times) == 11

    def test_self_routed_integrator_is_decay(self):
        spec = lucidac_spec()
        config = support.with_lanes(MachineConfig.empty(spec), (24, 0, CoefficientCode.lowres(6), 0))
        model = build_dynamics(config)
        assert evaluate(model, [2.0])[0] == [-2.0]

    def test_invalid_config_rejected(self):
        config = support.with_lanes(MachineConfig.empty(lucidac_spec()), (0, 1, CoefficientCode.highres(0), None))
        with pytest.raises(ValueError, match="dangling"):
            build_dynamics(config)

    def test_multiplier_feedback_raises(self):
        spec = lucidac_spec()
        config = support.with_lanes(
            MachineConfig.empty(spec),
            (0, spec.out_row(NodeKind.MULTIPLIER, 0), CoefficientCode.highres(100), spec.in_row(Port.MUL_A, 1)),
            (1, spec.out_row(NodeKind.MULTIPLIER, 1), CoefficientCode.highres(100), spec.in_row(Port.MUL_A, 0)),
        )
        with pytest.raises(LoopError):
            build_dynamics(config)

    def test_multiplier_self_loop_raises(self):
        spec = lucidac_spec()
        config = support.with_lanes(
            MachineConfig.empty(spec),
            (0, spec.out_row(NodeKind.MULTIPLIER, 0), CoefficientCode.highres(100), spec.in_row(Port.MUL_A, 0)),
        )
        with pytest.raises(LoopError):
            build_dynamics(config)

    def test_multiplier_chain_evaluates_in_dependency_order(self):
        # degree-3 term forces a multiplier feeding a multiplier
        src = (
            "fn A(t); fn X(t);\n"
            "let diff[A, t] = A - A;\n"
            "let diff[X, t] = 0.5 * A * A * A;\n"
            "let A(t: 0) = 2.0; let X(t: 0) = 0.0;\n"
            "out X(t);\n"
        )
        _, system, design = pipeline(src)
        model = build_dynamics(design.config, lane_weights=design.lane_weight_map())
        assert evaluate(model, model.initial)[0] == [0.0, 0.5 * 2.0 * 2.0 * 2.0]
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=1.0))
        assert trace.signals["X"][-1] == pytest.approx(4.0, rel=1e-12)
        ref = run_reference(system, SimSettings(dt=1e-3, t_end=1.0))
        assert max_abs_deviation(trace, ref) <= 1e-12

    def test_reserved_tap_rejected(self):
        spec = lucidac_spec()
        config = MachineConfig(
            spec=spec,
            u_source=(None,) * 32,
            coefficients=MachineConfig.empty(spec).coefficients,
            i_dest=(None,) * 32,
            taps=(("X", 13),),
        )
        with pytest.raises(UnroutedTapError):
            build_dynamics(config)

    def test_reserved_source_row_idles_at_zero(self):
        spec = lucidac_spec()
        config = support.with_lanes(MachineConfig.empty(spec), (0, 13, CoefficientCode.highres(2047), 0))
        model = build_dynamics(config)
        assert evaluate(model, [0.5])[0] == [0.0]

    def test_lane_contribution_scales_exactly_with_gain(self):
        spec = lucidac_spec()
        config = support.with_lanes(MachineConfig.empty(spec), (0, 0, CoefficientCode.highres(100), 0))
        base = build_dynamics(config, lane_weights={0: 0.3})
        doubled = build_dynamics(config, lane_weights={0: 0.6})
        for x in (0.1, -0.7, 0.93):
            assert evaluate(doubled, [x])[0][0] == 2.0 * evaluate(base, [x])[0][0]


class TestRun:
    def test_decay_matches_closed_form(self):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=1.0))
        assert abs(trace.signals["X"][-1] - math.exp(-1)) < 1e-9

    def test_zero_t_end_single_sample(self):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=0.0))
        assert trace.times == array("d", [0.0])
        assert trace.signals["X"] == array("d", [1.0])

    def test_row_count_formula(self):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        for t_end, dt, stride in [(1.0, 1e-3, 1), (1.0, 1e-3, 3), (1.0, 1e-3, 5), (0.0305, 1e-3, 10), (0.3, 0.1, 1)]:
            trace = run(model, model.initial, SimSettings(dt=dt, t_end=t_end, record_stride=stride))
            grid = dt * stride
            on_grid = abs(t_end / grid - round(t_end / grid)) < 1e-9
            expected = math.floor(t_end / grid + 1e-9) + 1 + (0 if on_grid else 1)
            assert len(trace.times) == expected, (t_end, dt, stride)
            assert trace.times[0] == 0.0
            assert trace.times[-1] == pytest.approx(t_end, abs=1e-12)
            assert all(b > a for a, b in zip(trace.times, trace.times[1:]))

    def test_final_partial_step_lands_exactly(self):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=0.0305))
        assert trace.times[-1] == 0.0305
        assert abs(trace.signals["X"][-1] - math.exp(-0.0305)) < 1e-12

    def test_order_check_in_truncation_regime(self):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)

        def error(dt):
            trace = run(model, model.initial, SimSettings(dt=dt, t_end=1.0))
            return abs(trace.signals["X"][-1] - math.exp(-1))

        ratio = error(2e-2) / error(1e-2)
        assert 12 <= ratio <= 20

    def test_euler_method_first_order(self):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        err = lambda dt: abs(
            run(model, model.initial, SimSettings(dt=dt, t_end=1.0, method=Method.EULER)).signals["X"][-1]
            - math.exp(-1)
        )
        e1, e2 = err(1e-2), err(5e-3)
        assert 1.8 <= e1 / e2 <= 2.2
        assert e1 > 1e-4  # far less accurate than RK4

    def test_nonfinite_detection(self):
        src = "fn X(t);\nlet diff[X, t] = X * X;\nlet X(t: 0) = 2.0;\nout X(t);\n"
        _, _, design = pipeline(src)
        model = build_dynamics(design.config, lane_weights=design.lane_weight_map())
        with pytest.raises(NonFiniteError) as err:
            run(model, model.initial, SimSettings(dt=1e-3, t_end=1.0))
        assert 0 < err.value.t <= 1.0

    def test_step_cap(self, monkeypatch):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        settings = SimSettings(dt=1e-3, t_end=1.0)
        monkeypatch.setattr(sim, "MAX_STEPS", 10)
        with pytest.raises(ValueError, match="exceeds the step cap of 10"):
            SimSettings(dt=1e-3, t_end=1.0)
        # settings made under a higher cap still meet run's own check
        with pytest.raises(ValueError, match="run needs 1000 steps, above the cap of 10"):
            run(model, model.initial, settings)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SimSettings(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimSettings(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError):
            SimSettings(dt=0.1, t_end=1.0, record_stride=0)
        with pytest.raises(ValueError):
            SimSettings(dt=0.1, t_end=1.0, clip=0.0)
        for clip in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^clip threshold must be positive and finite$"):
                SimSettings(dt=0.1, t_end=1.0, clip=clip)

    def test_initial_length_checked(self):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        with pytest.raises(ValueError, match="initial"):
            run(model, (1.0, 2.0), SimSettings(dt=0.1, t_end=1.0))


class TestOracleEquivalence:
    def test_decay_paths_agree_exactly(self):
        _, system, design = pipeline(DECAY)
        settings = SimSettings(dt=1e-3, t_end=1.0)
        hw = run(build_dynamics(design.config), (1.0,), settings)  # -1 is exact on a low-res lane
        ref = run_reference(system, settings)
        assert max_abs_deviation(hw, ref) <= 1e-12

    def test_lorenz_bypass_agreement(self, lorenz_system, lorenz_design):
        settings = SimSettings(dt=1e-3, t_end=10.0)
        model = build_dynamics(lorenz_design.config, lane_weights=lorenz_design.lane_weight_map())
        hw = run(model, model.initial, settings)
        ref = run_reference(lorenz_system, settings)
        assert max_abs_deviation(hw, ref) <= 1e-9

    def test_empty_system_reference(self):
        from autopatch.circuit import PolySystem

        empty = PolySystem(states=(), rhs=(), initial=())
        trace = run_reference(empty, SimSettings(dt=0.1, t_end=1.0))
        assert trace.signals == {}
        assert len(trace.times) == 11

    def test_mismatched_traces_rejected(self):
        _, system, _ = pipeline(DECAY)
        a = run_reference(system, SimSettings(dt=0.1, t_end=1.0))
        b = run_reference(system, SimSettings(dt=0.1, t_end=0.5))
        with pytest.raises(ValueError, match="samples"):
            max_abs_deviation(a, b)

    def test_deviation_of_equal_and_nan_samples(self):
        def trace(*xs):
            return sim.Trace(array("d", range(len(xs))), {"X": array("d", xs)}, [], {})

        inf, nan = math.inf, math.nan
        assert max_abs_deviation(trace(1.0, inf, -inf), trace(1.0, inf, -inf)) == 0.0
        assert max_abs_deviation(trace(inf, 5.0), trace(-inf, 5.0)) == inf
        # a NaN on either side, before or after the largest difference
        for a, b in [((nan, 5.0), (1.0, 5.0)), ((1.0, 5.0), (1.0, nan)), ((0.0, nan), (3.0, 5.0)), ((nan,), (nan,))]:
            assert math.isnan(max_abs_deviation(trace(*a), trace(*b))), (a, b)


class TestClip:
    def test_lorenz_unclipped_at_unit_range(self, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=10.0, clip=1.0))
        assert trace.clip_events == []

    def test_clip_events_and_monotonicity(self, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        settings_off = SimSettings(dt=1e-3, t_end=5.0)
        settings_on = SimSettings(dt=1e-3, t_end=5.0, clip=0.4)
        free = run(model, model.initial, settings_off)
        clipped = run(model, model.initial, settings_on)
        assert clipped.clip_events, "0.4 is below the free-running peak, must clip"
        for name in free.signals:
            assert max(abs(v) for v in clipped.signals[name]) <= max(abs(v) for v in free.signals[name]) + 1e-15
        assert all(abs(v) <= 0.4 + 1e-15 for v in clipped.signals["X"])

    def test_clip_events_once_per_element_step(self):
        spec = lucidac_spec()
        # dX/dt = +2 (const source), X crosses the clip threshold and stays
        config = support.with_lanes(
            MachineConfig.empty(spec),
            (0, spec.out_row(NodeKind.CONST_ONE, 0), CoefficientCode.highres(quantize_highres(2.0)), 0),
            (24, 0, CoefficientCode.lowres(1), 1),
        )
        model = build_dynamics(config)
        trace = run(model, model.initial, SimSettings(dt=0.1, t_end=1.0, clip=0.5))
        by_step = {}
        for event in trace.clip_events:
            key = (event.t, event.element)
            assert key not in by_step, "duplicate event within one step"
            by_step[key] = True

    def test_hot_large_run_clips_each_element_once_per_step(self):
        """The synthetic 500-state system on redac started at 1.4 and clipped
        at 1.2, as golden `simulate-s500-hot-reference` runs it: every state
        and multiplier overloads in each of the 20 steps, and records one
        event per step, at the step's start, on its own element."""
        source = support.synthetic_large_program(500).replace("= 0.1;", "= 1.4;")
        _, system, design = pipeline(source, redac_tile_spec())
        settings = SimSettings(dt=0.01, t_end=0.2, clip=1.2)
        hardware, reference = build_dynamics(design.config), sim.build_reference(system)
        assert len(hardware.element_labels) == 750 and len(reference.element_labels) == 500
        for model, kinds in ((hardware, {"I": 10_000, "M": 5_000}), (reference, {"s": 10_000})):
            events = run(model, model.initial, settings).clip_events
            assert sorted(events) == sorted(sim.ClipEvent(k * 0.01, e) for k in range(20) for e in model.element_labels)
            assert Counter(event.element[0] for event in events) == kinds

    def test_peaks_cover_all_elements(self, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=1.0))
        assert set(trace.peaks) == {"I0", "I1", "I2", "M0", "M1"}
        assert all(v >= 0 for v in trace.peaks.values())

    def test_state_named_like_a_slot_keeps_separate_peaks(self, lorenz_source):
        # state X renamed M0: elements are labelled by slot, so integrator 0
        # and multiplier 0 keep one peak each while the state keeps its name
        _, _, design = pipeline(re.sub(r"\bX\b", "M0", lorenz_source))
        model = build_dynamics(_lorenz_with_multiplier_tap(design))
        assert model.state_labels == ("M0", "Y", "I2")
        assert model.element_labels == ("I0", "I1", "I2", "M0", "M1")
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=5.0))
        state_peak = max(map(abs, trace.signals["M0"]))
        product_peak = max(map(abs, trace.signals["P"]))
        assert trace.peaks["I0"] == state_peak == pytest.approx(0.7938, abs=1e-4)
        assert trace.peaks["M0"] == product_peak == pytest.approx(0.4402, abs=1e-4)
        assert set(trace.peaks) == {"I0", "I1", "I2", "M0", "M1"}


class TestProductOfSum:
    """A multiplier port fed by several weighted edges sums them, so
    a*(b+c) needs a single multiplier and no adder element."""

    def graph(self, a, b, c):
        from autopatch.circuit import CircuitGraph, Edge, Node, NodeKind, Port

        nodes = (
            Node(0, NodeKind.INTEGRATOR, "a", a),
            Node(1, NodeKind.INTEGRATOR, "b", b),
            Node(2, NodeKind.INTEGRATOR, "c", c),
            Node(3, NodeKind.INTEGRATOR, "X", 0.0),
            Node(4, NodeKind.MULTIPLIER, "a*(b+c)"),
        )
        edges = (
            Edge(0, 4, Port.MUL_A, 1.0),
            Edge(1, 4, Port.MUL_B, 1.0),
            Edge(2, 4, Port.MUL_B, 1.0),
            Edge(4, 3, Port.INTEGRATOR_IN, 1.0),
        )
        return CircuitGraph(nodes, edges, taps=(("X", 3),))

    def test_two_element_structure_routes(self):
        graph = self.graph(0.5, 0.25, 0.125)
        design = route_design(graph, lucidac_spec())
        assert design.report.multipliers_used == 1
        assert design.report.integrators_used == 4
        config = design.config
        spec = config.spec
        b_port_lanes = [k for k in config.active_lanes() if config.i_dest[k] == spec.in_row(Port.MUL_B, 0)]
        assert len(b_port_lanes) == 2  # implicit summation at one port

    def test_integrates_the_product_of_the_sum(self):
        a, b, c = 0.5, 0.25, 0.125
        design = route_design(self.graph(a, b, c), lucidac_spec())
        model = build_dynamics(design.config)
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=1.0))
        assert trace.signals["X"][-1] == pytest.approx(a * (b + c), rel=1e-12)


class TestEmit:
    def test_lorenz_files(self, tmp_path, lorenz_program, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        trace = run(model, model.initial, SimSettings(dt=0.01, t_end=1.0))
        written = emit_traces(trace, lorenz_program, tmp_path)
        assert [p.name for p in written] == ["out.csv", "plot_X_Y.csv"]
        out_lines = (tmp_path / "out.csv").read_text().split("\n")
        assert out_lines[0] == "t,X,Y"
        assert len(out_lines) == 1 + 101 + 1  # header + rows + trailing newline
        plot_lines = (tmp_path / "plot_X_Y.csv").read_text().split("\n")
        assert plot_lines[0] == "X,Y"

    def test_seventeen_significant_digits_roundtrip(self, tmp_path, lorenz_program, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        trace = run(model, model.initial, SimSettings(dt=0.01, t_end=0.5))
        emit_traces(trace, lorenz_program, tmp_path)
        rows = (tmp_path / "out.csv").read_text().strip().split("\n")[1:]
        for row, t, x in zip(rows, trace.times, trace.signals["X"]):
            cols = row.split(",")
            assert float(cols[0]) == t
            assert float(cols[1]) == x

    def test_no_plot_statement_no_plot_files(self, tmp_path):
        program, system, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        trace = run(model, model.initial, SimSettings(dt=0.1, t_end=1.0))
        written = emit_traces(trace, program, tmp_path)
        assert [p.name for p in written] == ["out.csv"]

    def test_missing_tap_rejected(self, tmp_path, lorenz_program):
        _, system, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        trace = run(model, model.initial, SimSettings(dt=0.1, t_end=1.0))
        with pytest.raises(ValueError, match="does not tap"):
            emit_traces(trace, lorenz_program, tmp_path)

    def test_lf_line_endings(self, tmp_path, lorenz_program, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        trace = run(model, model.initial, SimSettings(dt=0.1, t_end=0.5))
        emit_traces(trace, lorenz_program, tmp_path)
        raw = (tmp_path / "out.csv").read_bytes()
        assert b"\r" not in raw


# --------------------------------------------------------------------------
# generated evaluator against the interpreter loops it replaced


def _loop_clamp(v, clip):
    if v > clip:
        return clip
    if v < -clip:
        return -clip
    return v


def loop_step(self, y, h, stages, clip=None, clipped=None, peaks=None):
    """The voltages at y, then one RK4 (4 stages) or Euler (1 stage)
    step over `rhs`, in the arithmetic that generated steps write out;
    with 0 stages, `rhs` at y in place of a next state.  The voltages
    at y are clamped once and serve the first stage too; given a
    `peaks` list, each entry is raised to its element's |voltage|.

    The stage loop both paths ran before the whole step was generated,
    as the reference model's `step`; `LoopModel` and `TermLoopModel` step
    through it, by way of `loop_block`, with their own `voltages`, `rhs`
    and `derivatives`."""
    rhs = self.rhs
    volts = self.voltages(y, clip, clipped)
    if peaks is not None:
        for k, a in enumerate(map(abs, volts)):
            if a > peaks[k]:
                peaks[k] = a
    # indexing is faster than zip() for the few states of a small machine
    k1 = self.derivatives(volts)
    n = len(y)
    if stages < 2:
        return ([y[i] + h * k1[i] for i in range(n)] if stages else k1), volts
    half = 0.5 * h
    y2 = [y[i] + half * k1[i] for i in range(n)]
    k2 = rhs(y2, clip, clipped)
    y3 = [y[i] + half * k2[i] for i in range(n)]
    k3 = rhs(y3, clip, clipped)
    y4 = [y[i] + h * k3[i] for i in range(n)]
    k4 = rhs(y4, clip, clipped)
    s = h / 6.0
    return [y[i] + s * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(n)], volts


def loop_block(self, y, start, stop, h, dt, stages, clip, stride, peaks, events, time, taps):
    """`loop_step` over the steps `start` to `stop` - 1, in the block
    contract of the generated `step` (`sim._write_step`): the per-step
    loop `run` kept while the generated function took one step per call,
    with its sampling, clip events and finiteness test."""
    for k in range(start, stop):
        clipped = set() if clip is not None else None
        recorded = not k % stride
        y_next, volts = loop_step(self, y, h, stages, clip, clipped, peaks if recorded else None)
        if recorded:
            time(k * dt)
            for append, i in taps:
                append(volts[i])
        if clipped:
            for i in sorted(clipped):
                events.append((k * dt, i))
        if not stages:
            return y_next, stop
        if not all(map(math.isfinite, y_next)):
            return y_next, k
        y = y_next
    return y, stop


class LoopModel:
    """The interpreter that walked the compiled lane tuples on every call,
    before `build_dynamics` generated straight-line code.  Kept here as
    the bit-for-bit reference for the generated evaluator."""

    def __init__(self, model, _n_states, _n_elements, int_terms, mul_levels, const_index):
        self.state_labels = model.state_labels
        self.initial = model.initial
        self.element_labels = model.element_labels
        self.taps = model.taps
        self._int_terms = int_terms
        self._mul_ops = [op for level in mul_levels for op in level]
        self._const_index = const_index

    step = loop_block

    def voltages(self, y, clip=None, clipped=None):
        volts = [0.0] * len(self.element_labels)
        n = len(self.state_labels)
        for i in range(n):
            v = y[i]
            if clip is not None:
                c = _loop_clamp(v, clip)
                if c != v and clipped is not None:
                    clipped.add(i)
                v = c
            volts[i] = v
        if self._const_index is not None:
            v = 1.0
            if clip is not None:
                c = _loop_clamp(v, clip)
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
                c = _loop_clamp(v, clip)
                if c != v and clipped is not None:
                    clipped.add(elem)
                v = c
            volts[elem] = v
        return volts

    def rhs(self, y, clip=None, clipped=None):
        return self.derivatives(self.voltages(y, clip, clipped))

    def derivatives(self, volts):
        out = []
        for terms in self._int_terms:
            acc = 0.0
            for gain, src in terms:
                acc += gain * volts[src]
            out.append(acc)
        return out


def build_captured(config, lane_weights=None):
    """The model `build_dynamics` returns and the arguments it passed to
    `_generate_evaluator`."""
    captured = []
    generate = sim._generate_evaluator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_generate_evaluator", lambda *args: captured.append(args) or generate(*args))
        model = build_dynamics(config, lane_weights)
    (args,) = captured
    return model, args


def build_both(config, lane_weights=None):
    """The generated model and a LoopModel over the same compiled lanes."""
    model, args = build_captured(config, lane_weights)
    return model, LoopModel(model, *args)


def hexes(values):
    return [float.hex(v) for v in values]


def assert_same_evaluation(model, loop, points, clips=(None, 0.3, 1.2)):
    # products of clamped states exceed the clip level only when it is above 1
    for y in points:
        for clip in clips:
            got_clipped, want_clipped = set(), set()
            want = [hexes(values) for values in evaluate(loop, y, clip, want_clipped)]
            assert [hexes(values) for values in evaluate(model, y, clip, got_clipped)] == want, (y, clip)
            assert got_clipped == want_clipped, (y, clip)
            assert [hexes(values) for values in evaluate(model, y, clip)] == want, (y, clip)


def run_outcome(model, settings, initial=None, runner=run):
    """Everything a run reports, floats as hex; a non-finite abort counts
    as an outcome too."""
    try:
        trace = runner(model, model.initial if initial is None else initial, settings)
    except NonFiniteError as exc:
        return ("non-finite", str(exc), float.hex(exc.t), exc.element)
    return (
        hexes(trace.times),
        [(name, hexes(values)) for name, values in trace.signals.items()],
        [(label, float.hex(peak)) for label, peak in trace.peaks.items()],
        [(float.hex(event.t), event.element) for event in trace.clip_events],
    )


def sample_points(n, rng, count=20):
    points = [[rng.uniform(-1.5, 1.5) for _ in range(n)] for _ in range(count)]
    points += [[0.0] * n, [-0.0] * n]
    if n:
        for special in (math.nan, math.inf, -math.inf, 0.3, -0.3):
            y = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            y[rng.randrange(n)] = special
            points.append(y)
    return points


CONST_ROW = (
    "fn X(t); fn Y(t);\n"
    "let diff[X, t] = 0.5 - X * Y;\n"
    "let diff[Y, t] = X - 0.25 - 0.75 * Y * Y * X;\n"
    "let X(t: 0) = 0.2; let Y(t: 0) = -0.1;\n"
    "out X(t); out Y(t);\n"
)


def _lorenz_with_multiplier_tap(design):
    config = design.config
    return dataclasses.replace(config, taps=config.taps + (("P", config.spec.out_row(NodeKind.MULTIPLIER, 0)),))


class TestGeneratedEvaluator:
    def check(self, config, lane_weights=None, runs=()):
        model, loop = build_both(config, lane_weights)
        assert_same_evaluation(model, loop, sample_points(len(model.state_labels), random.Random(5)))
        for settings in runs:
            outcome = run_outcome(model, settings)
            assert outcome == run_outcome(loop, settings), settings
        return model

    def test_lorenz_unclipped_clipped_and_euler(self, lorenz_design):
        runs = [
            SimSettings(dt=1e-3, t_end=5.0),
            SimSettings(dt=1e-3, t_end=5.0, clip=0.3),
            SimSettings(dt=1e-3, t_end=5.0, method=Method.EULER),
            SimSettings(dt=1e-3, t_end=0.0305, clip=0.3, method=Method.EULER, record_stride=7),
        ]
        model = self.check(lorenz_design.config, runs=runs)
        clipped = run(model, model.initial, runs[1])
        assert {e.element for e in clipped.clip_events} == {"I0", "I1", "I2"}
        # products clip only above a clip level of 1: |x*y| <= clip**2
        events = set()
        assert hexes(evaluate(model, [1.5, 1.5, -1.5], 2.0, events)[1]) == hexes([1.5, 1.5, -1.5, 2.0, -2.0])
        assert events == {3, 4}

    def test_constant_row(self):
        _, _, design = pipeline(CONST_ROW)
        model = self.check(
            design.config,
            runs=[SimSettings(dt=1e-2, t_end=2.0), SimSettings(dt=1e-2, t_end=2.0, clip=0.4)],
        )
        assert model.element_labels[-1] == "const"
        # 1.0 is above the 0.4 clip level, so the constant clips on every step
        trace = run(model, model.initial, SimSettings(dt=1e-2, t_end=0.1, clip=0.4))
        assert [e.t for e in trace.clip_events if e.element == "const"] == [k * 1e-2 for k in range(10)]

    def test_bypass_weights_with_non_finite_gains(self, lorenz_design):
        weights = dict(lorenz_design.lane_weight_map())
        lanes = sorted(weights)
        weights[lanes[0]] = math.inf
        weights[lanes[1]] = -math.inf
        weights[lanes[2]] = math.nan
        self.check(lorenz_design.config, weights, runs=[SimSettings(dt=1e-3, t_end=0.01)])
        finite = dict(lorenz_design.lane_weight_map())
        self.check(lorenz_design.config, finite, runs=[SimSettings(dt=1e-3, t_end=2.0, clip=0.3)])

    def test_empty_configuration(self):
        model = self.check(MachineConfig.empty(lucidac_spec()), runs=[SimSettings(dt=0.1, t_end=1.0, clip=0.5)])
        assert evaluate(model, ())[0] == [] and evaluate(model, (), 0.5, set())[1] == []

    def test_tap_on_multiplier_output(self, lorenz_design):
        config = _lorenz_with_multiplier_tap(lorenz_design)
        model = self.check(config, runs=[SimSettings(dt=1e-3, t_end=2.0), SimSettings(dt=1e-3, t_end=2.0, clip=0.3)])
        assert model.element_labels[model.taps["P"]] == "M0"
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=2.0))
        assert max(map(abs, trace.signals["P"])) > 0

    def test_multiplier_chain_with_port_gains(self):
        # M1 reads M0 through a 0.5 lane, so whether M0 was clamped first
        # shows in M1 even where M1 itself stays inside the clip level
        spec = lucidac_spec()
        code = lambda w: CoefficientCode.highres(quantize_highres(w))
        config = support.with_lanes(
            MachineConfig.empty(spec),
            (0, spec.out_row(NodeKind.INTEGRATOR, 0), code(2.0), spec.in_row(Port.MUL_A, 0)),
            (1, spec.out_row(NodeKind.INTEGRATOR, 1), code(2.0), spec.in_row(Port.MUL_B, 0)),
            (2, spec.out_row(NodeKind.MULTIPLIER, 0), code(0.5), spec.in_row(Port.MUL_A, 1)),
            (3, spec.out_row(NodeKind.INTEGRATOR, 1), code(1.0), spec.in_row(Port.MUL_B, 1)),
            (4, spec.out_row(NodeKind.MULTIPLIER, 1), code(1.0), spec.in_row(Port.INTEGRATOR_IN, 0)),
            (5, spec.out_row(NodeKind.INTEGRATOR, 0), code(-1.0), spec.in_row(Port.INTEGRATOR_IN, 1)),
        )
        config = dataclasses.replace(config, initial_states=(0.9, 0.8) + (0.0,) * 6)
        model = self.check(config, runs=[SimSettings(dt=1e-2, t_end=2.0, clip=1.2)])
        events = set()
        half, one = decode_coeff(code(0.5)), decode_coeff(code(1.0))
        assert evaluate(model, [0.9, 0.8], 1.2, events)[1][2:] == [1.2, (half * 1.2) * (one * 0.8)]
        assert events == {2}

    def test_nan_voltage_records_a_clip_event(self, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        clipped = set()
        out = evaluate(model, [math.nan, 0.1, 0.1], 1.0, clipped)[0]
        assert clipped == {0, 3, 4}  # X itself and both products that read it
        assert all(math.isnan(v) for v in out[:2])

    def test_long_fan_in_is_added_left_to_right(self):
        # 3200 lanes into integrator 0 and 300 into each multiplier port:
        # far longer sums than one generated expression may hold
        spec = MachineSpec(1, 1, 3800)
        rng = random.Random(11)
        codes = tuple(
            CoefficientCode.lowres(rng.randrange(8)) if lane in spec.lowres_lanes
            else CoefficientCode.highres(rng.randrange(-2048, 2048))
            for lane in range(spec.n_lanes)
        )
        x, m = spec.out_row(NodeKind.INTEGRATOR, 0), spec.out_row(NodeKind.MULTIPLIER, 0)
        sources = [x] * 600 + [m if lane % 2 else x for lane in range(600, 3800)]
        dests = [spec.in_row(Port.MUL_A, 0)] * 300 + [spec.in_row(Port.MUL_B, 0)] * 300 + [spec.in_row(Port.INTEGRATOR_IN, 0)] * 3200
        config = MachineConfig(
            spec=spec, u_source=tuple(sources), coefficients=codes, i_dest=tuple(dests), initial_states=(0.01,)
        )
        assert len(config.active_lanes()) == 3800
        self.check(
            config,
            runs=[SimSettings(dt=1e-4, t_end=0.005), SimSettings(dt=1e-4, t_end=0.005, clip=0.0105)],
        )

        # at the initial state the order of these additions shows in the
        # result, so matching the loop is a real check of the order
        def order_matters(lanes):
            products = [decode_coeff(codes[lane]) * 0.01 for lane in lanes]
            forward = reverse = 0.0
            for p in products:
                forward += p
            for p in reversed(products):
                reverse += p
            return forward != reverse

        assert order_matters(range(300)) and order_matters(range(300, 600))
        assert order_matters(range(600, 3800, 2))


# --------------------------------------------------------------------------
# generated step: one function per machine runs a whole RK4 or Euler step


def _large_pipeline(n_states):
    """The synthetic system of `n_states` states routed on redac, with a
    constant term so the constant source is an element too, every state
    tapped, and initial states that differ, so the states do not move in
    step: its program, polynomial system and design."""
    source = support.synthetic_large_program(n_states).replace("let diff[s0, t] = -s0", "let diff[s0, t] = 0.5 - s0")
    source = source.replace("out s0(t);", " ".join(f"out s{i}(t);" for i in range(n_states)))
    source = re.sub(r"let s(\d+)\(t: 0\) = 0.1;", lambda m: f"let s{m[1]}(t: 0) = {0.05 + 0.001 * (int(m[1]) * 37 % 101)};", source)
    return pipeline(source, redac_tile_spec())


def _step_source(build, *args):
    """The source of the `step` that `build(*args)` generates."""
    sources = []
    compile_step = sim._compile_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_compile_step", lambda source, namespace: sources.append(source) or compile_step(source, namespace))
        build(*args)
    (source,) = sources
    return source


class TestGeneratedStep:
    @pytest.mark.parametrize("n_states", [sim._SCALAR_STATES, sim._SCALAR_STATES + 1])
    def test_matches_the_loop_at_and_past_the_scalar_limit(self, n_states):
        config = _large_pipeline(n_states)[2].config
        model, loop = build_both(config)
        assert len(model.state_labels) == n_states and model.element_labels[-1] == "const"
        # the two emission forms: states in scalar locals, or in the list x
        assert ("x = y" in _step_source(build_dynamics, config)) == (n_states > sim._SCALAR_STATES)
        # long steps, so that a change in the rounding of a step shows
        runs = [
            SimSettings(dt=0.1, t_end=2.0),
            SimSettings(dt=0.1, t_end=2.0, clip=0.09),
            SimSettings(dt=0.1, t_end=2.0, method=Method.EULER),
            SimSettings(dt=0.1, t_end=2.05, record_stride=4, clip=0.09),
            SimSettings(dt=0.1, t_end=0.0),
        ]
        for settings in runs:
            assert run_outcome(model, settings) == run_outcome(loop, settings), settings
        clipped = run(model, model.initial, runs[1])
        assert clipped.clip_events and clipped.times[-1] == 2.0
        assert len(run(model, model.initial, runs[3]).times) == 7  # steps 0, 4, ..., 20 and the landing sample

        def aborted(m, clip):
            initial = list(m.initial)
            initial[n_states // 2] = math.nan
            with pytest.raises(NonFiniteError) as err:
                run(m, initial, SimSettings(dt=0.1, t_end=2.0, clip=clip))
            return float.hex(err.value.t), err.value.element

        for clip in (None, 0.09):
            assert aborted(model, clip) == aborted(loop, clip)
            assert aborted(model, clip)[0] == float.hex(0.1)

    def test_lorenz_matches_the_loop_off_the_grid(self, lorenz_design):
        model, loop = build_both(lorenz_design.config)
        for settings in (
            SimSettings(dt=1e-3, t_end=0.0004),
            SimSettings(dt=1e-3, t_end=1.0005, clip=0.3, record_stride=3),
            SimSettings(dt=1e-3, t_end=1.0, method=Method.EULER, record_stride=10),
        ):
            assert run_outcome(model, settings) == run_outcome(loop, settings), settings

    def test_one_call_per_step_and_one_for_the_final_sample(self, lorenz_design):
        # one call per block of full steps, one for the landing step and one for the final sample
        model = build_dynamics(lorenz_design.config)
        calls = []
        step = model.step
        model = model._replace(step=lambda y, start, stop, h, dt, stages, *rest: (
            calls.append((start, stop, stages)) or step(y, start, stop, h, dt, stages, *rest)
        ))
        block, n = sim._BLOCK, 2 * sim._BLOCK + 10
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=(n + 0.5) * 1e-3, record_stride=1))
        assert len(trace.times) == n + 2
        assert calls == [(0, block, 4), (block, 2 * block, 4), (2 * block, n, 4), (n, n + 1, 4), (1, 2, 0)]

    def test_large_machine_source_stays_in_list_form(self):
        # scalar stage code for these 500 states more than triples the
        # source and its compile time; 50070 is the length before it
        design = pipeline(support.synthetic_large_program(500), redac_tile_spec())[2]
        assert len(_step_source(build_dynamics, design.config)) <= 1.1 * 50_070

    def test_large_reference_source_stays_in_list_form(self):
        # 30380 is the length of this source while it took one step per call
        system = normalize(compile_source(support.synthetic_large_program(500)))
        assert len(_step_source(sim.build_reference, system)) <= 1.1 * 30_380


# --------------------------------------------------------------------------
# clip guard: a stage clamps only the voltages that fail a range test


def _wide_level_pipeline(n_states):
    """`n_states` states on redac, state i driven by its products with the
    next four states (indices mod n): 4n distinct products, which read only
    states and so form one multiplier level."""
    n = n_states
    lines = [f"fn s{i}(t);" for i in range(n)]
    for i in range(n):
        products = "".join(f" + 0.25 * s{i} * s{(i + k) % n}" for k in range(1, 5))
        lines.append(f"let diff[s{i}, t] = -s{i}{products};")
    lines += [f"let s{i}(t: 0) = 0.5;" for i in range(n)]
    return pipeline("\n".join(lines) + "\n", redac_tile_spec())


def clamp_guards(source):
    """(range tests, assigned names) of each `if clipping and not ...`
    statement of a step source, the tests as `ast.unparse` writes them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        test = node.test if isinstance(node, ast.If) else None
        if not (isinstance(test, ast.BoolOp) and ast.unparse(test.values[0]) == "clipping"):
            continue
        tested = test.values[1].operand
        tests = tested.values if isinstance(tested, ast.BoolOp) else [tested]
        target = node.body[0].targets[0]
        assigned = target.elts if isinstance(target, ast.Tuple) else [target]
        found.append(([ast.unparse(test) for test in tests], [ast.unparse(name) for name in assigned]))
    return found


class TestClipGuard:
    """The guarded clamps of the generated step against LoopModel, bit for
    bit and with the clip events in order, at and past the scalar limit,
    on a machine whose one multiplier level holds 4n >= 256 products."""

    CLIP = 1.25

    @pytest.fixture(scope="class", params=[sim._SCALAR_STATES, sim._SCALAR_STATES + 1])
    def design(self, request):
        return _wide_level_pipeline(request.param)[2]

    def build(self, design, lane_weights=None):
        """The generated model, a LoopModel over the same lanes, the
        (position, A-port terms, B-port terms) of the level's multipliers,
        and the (voltage, position) of every call of the step's clamp."""
        calls = []
        clamper = sim._clamper

        def recording_clamper(clip, clipped):
            clamp = clamper(clip, clipped)
            return lambda v, index: calls.append((v, index)) or clamp(v, index)

        weights = dict(design.lane_weight_map()) if lane_weights is None else lane_weights
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_clamper", recording_clamper)
            model, args = build_captured(design.config, weights)
        (level,) = args[3]
        assert len(level) >= 250
        return model, LoopModel(model, *args), level, calls

    def check(self, built, y):
        """The 0-stage, Euler and RK4 steps from y with step sizes 0.0 and
        -0.0 (so every stage reads y itself) and 0.05, and a clipped run
        from y, against the loop; returns the step's voltages at y and the
        elements it clamps there.  No clamp call sees an in-range voltage."""
        model, loop, _, calls = built
        for h in (0.0, -0.0, 0.05):
            for stages in (0, 1, 4):
                got, want = set(), set()
                values, volts = one_step(model, y, h, stages, self.CLIP, got)
                assert [hexes(values), hexes(volts)] == [hexes(v) for v in one_step(loop, y, h, stages, self.CLIP, want)]
                assert got == want, (h, stages)
        settings = SimSettings(dt=0.05, t_end=0.5, clip=self.CLIP)
        assert run_outcome(model, settings, y) == run_outcome(loop, settings, y)
        assert not [(v, k) for v, k in calls if -self.CLIP <= v <= self.CLIP]
        clipped = set()
        return one_step(model, y, 0.0, 0, self.CLIP, clipped)[1], clipped

    def test_every_clamp_tests_each_name_it_clamps(self, design):
        model, _, level, _ = self.build(design)
        n = len(model.state_labels)
        guards = clamp_guards(_step_source(build_dynamics, design.config, dict(design.lane_weight_map())))
        assert all(tests == [f"lo <= {name} <= clip" for name in names] for tests, names in guards)
        # the scalar states, then the level; in list form the states are
        # clamped as their list is built
        assert [len(names) for _, names in guards] == [n] * (n <= sim._SCALAR_STATES) + [len(level)]

    def test_voltages_at_the_clip_level_record_no_event(self, design):
        built = self.build(design)
        model, _, level, calls = built
        n = len(model.state_labels)
        # +-clip on every fifth state, +-1 on the rest: no product of two
        # states four or fewer apart leaves [-clip, clip]
        y = [(-1) ** i * (self.CLIP if i % 5 == 0 and i + 4 < n else 1.0) for i in range(n)]
        volts, clipped = self.check(built, y)
        assert not clipped and not calls
        assert {volts[k] for k, _, _ in level} == {self.CLIP, -self.CLIP, 1.0, -1.0}

    def test_only_the_last_multiplier_of_the_level_out_of_range(self, design):
        built = self.build(design)
        model, _, level, calls = built
        last, ((_, a),), ((_, b),) = level[-1]
        y = [0.5] * len(model.state_labels)
        y[a] = y[b] = 1.2
        volts, clipped = self.check(built, y)
        assert clipped == {last} and volts[last] == self.CLIP
        assert all(abs(volts[k]) <= 0.6 for k, _, _ in level[:-1])
        assert (1.2 * 1.2, last) in calls

    def test_nan_from_an_infinite_weight_with_every_state_in_range(self, design):
        # inf * 0.0 on the last multiplier's A port makes its product NaN
        weights = dict(design.lane_weight_map())
        spec, config = design.config.spec, design.config
        model, _, level, _ = self.build(design, weights)
        slot = int(model.element_labels[level[-1][0]][1:])
        (lane,) = [lane for lane in config.active_lanes() if config.i_dest[lane] == spec.in_row(Port.MUL_A, slot)]
        weights[lane] = math.inf
        built = self.build(design, weights)
        last, ((gain, a),), _ = built[2][-1]
        assert gain == math.inf
        y = [0.5] * len(model.state_labels)
        y[a] = 0.0
        volts, clipped = self.check(built, y)
        assert math.isnan(volts[last]) and clipped == {last}

    def test_negative_zero_stage_inputs(self, design):
        built = self.build(design)
        model, _, _, calls = built
        n = len(model.state_labels)
        volts, clipped = self.check(built, [-0.0] * n)
        assert not clipped and not calls
        assert hexes(volts[:n]) == [float.hex(-0.0)] * n
        # with a step of -0.0 each later stage reads y + -0.0 * d = -0.0 too
        values, _ = one_step(model, [-0.0] * n, -0.0, 4, self.CLIP)
        assert hexes(values) == [float.hex(-0.0)] * n


# --------------------------------------------------------------------------
# run against the driver that kept the peaks and the finiteness test itself


def legacy_run(model, initial, settings):
    """`run` as it was while it recorded each sample through a `record`
    closure, kept the peaks in a dict keyed by label and tested every state
    with `math.isfinite`.  Kept here as the reference for `run`'s trace."""
    dt, t_end, stride, clip = settings.dt, settings.t_end, settings.record_stride, settings.clip
    n_steps = int(math.floor(t_end / dt + 1e-9))
    rem = t_end - n_steps * dt
    if rem <= dt * 1e-9:
        rem = 0.0
    total_steps = n_steps + (1 if rem else 0)
    labels = model.element_labels
    peaks = dict.fromkeys(labels, 0.0)
    trace = sim.Trace(times=[], signals={name: [] for name in model.taps}, clip_events=[], peaks=peaks)
    stages = 4 if settings.method is Method.RK4 else 1

    def record(t, volts):
        trace.times.append(t)
        for name, idx in model.taps.items():
            trace.signals[name].append(volts[idx])
        for label, v in zip(labels, volts):
            a = abs(v)
            if a > peaks[label]:
                peaks[label] = a

    y = list(initial)
    for k in range(total_steps):
        t_start, h = k * dt, dt if k < n_steps else rem
        clipped = set() if clip is not None else None
        y_next, volts = one_step(model, y, h, stages, clip, clipped)
        if k % stride == 0:
            record(t_start, volts)
        if clipped:
            for idx in sorted(clipped):
                trace.clip_events.append(sim.ClipEvent(t_start, labels[idx]))
        for i, v in enumerate(y_next):
            if not math.isfinite(v):
                raise NonFiniteError(t_start + h, model.state_labels[i])
        y = y_next
    record(t_end if total_steps else 0.0, one_step(model, y, 0.0, 0, clip)[1])
    return trace


def _parity_case(name):
    """(system, design, dt, clip level) of a parity case; each clip level
    clamps some element within the first steps."""
    if name == "lorenz":
        source, dt, clip = (PROGRAMS / "lorenz.odedsl").read_text(encoding="utf-8"), 0.01, 0.05
        _, system, design = pipeline(source)
    elif name == "decay":
        (_, system, design), dt, clip = pipeline(DECAY), 0.01, 0.5
    else:
        (_, system, design), dt, clip = _large_pipeline(int(name)), 0.1, 0.09
    return system, design, dt, clip


class TestRunParity:
    @pytest.mark.parametrize("case", ["lorenz", "decay", str(sim._SCALAR_STATES), str(sim._SCALAR_STATES + 1)])
    @pytest.mark.parametrize("path", ["generated", "reference"])
    def test_trace_matches_the_legacy_driver(self, case, path):
        system, design, dt, clip = _parity_case(case)
        model = build_dynamics(design.config) if path == "generated" else sim.build_reference(system)
        runs = [
            SimSettings(dt=dt, t_end=20 * dt),
            SimSettings(dt=dt, t_end=20 * dt, clip=clip),
            SimSettings(dt=dt, t_end=20 * dt, method=Method.EULER, clip=clip),
            SimSettings(dt=dt, t_end=20.5 * dt, record_stride=4, clip=clip),
            SimSettings(dt=dt, t_end=20.5 * dt, record_stride=7),
            SimSettings(dt=dt, t_end=0.0),
        ]
        for settings in runs:
            assert run_outcome(model, settings) == run_outcome(model, settings, runner=legacy_run), settings
        assert run(model, model.initial, runs[1]).clip_events
        assert len(run(model, model.initial, runs[3]).times) == 7  # steps 0, 4, ..., 20 and the landing sample
        nan_state = list(model.initial)
        nan_state[len(nan_state) // 2] = math.nan
        for clip_level in (None, clip):
            settings = SimSettings(dt=dt, t_end=20 * dt, clip=clip_level)
            outcome = run_outcome(model, settings, nan_state)
            assert outcome == run_outcome(model, settings, nan_state, legacy_run)
            assert outcome[0] == "non-finite" and outcome[2] == float.hex(dt)


# --------------------------------------------------------------------------
# trace storage: typed arrays filled block by block, and the cap on values

BLOWUP = "fn X(t);\nlet diff[X, t] = 5 * X * X;\nlet X(t: 0) = 0.9;\nout X(t);\n"


class TestTraceStorage:
    def test_columns_are_double_arrays(self, lorenz_system, lorenz_design):
        settings = SimSettings(dt=0.01, t_end=1.0)
        model = build_dynamics(lorenz_design.config)
        for trace in (run(model, model.initial, settings), run_reference(lorenz_system, settings)):
            for column in (trace.times, *trace.signals.values()):
                assert type(column) is array and column.typecode == "d"
                assert len(column) == 101

    def test_clip_event_has_no_dict(self):
        event = sim.ClipEvent(0.5, "I0")
        assert not hasattr(event, "__dict__")
        assert repr(event) == "ClipEvent(t=0.5, element='I0')"
        assert event == sim.ClipEvent(0.5, "I0") and hash(event) == hash(sim.ClipEvent(0.5, "I0"))
        with pytest.raises(AttributeError):
            event.t = 1.0

    def test_settings_record(self):
        """Checked when made; field-wise equality and hash, no `__dict__`,
        the repr a dataclass gave it."""
        settings = SimSettings(dt=0.1, t_end=1.0)
        assert repr(settings) == "SimSettings(dt=0.1, t_end=1.0, method=<Method.RK4: 'rk4'>, clip=None, record_stride=1)"
        assert repr(SimSettings(0.5, 2.0, Method.EULER, 1.0, 3)) == (
            "SimSettings(dt=0.5, t_end=2.0, method=<Method.EULER: 'euler'>, clip=1.0, record_stride=3)"
        )
        assert settings == SimSettings(0.1, 1.0, Method.RK4, None, 1) and hash(settings) == hash(SimSettings(0.1, 1.0))
        assert settings != SimSettings(dt=0.1, t_end=1.0, record_stride=2)
        assert not hasattr(settings, "__dict__")
        with pytest.raises(ValueError, match="record_stride must be >= 1"):
            SimSettings(dt=0.1, t_end=1.0, record_stride=0)

    # total steps, each run ending in a shortened landing step
    @pytest.mark.parametrize("steps", [sim._BLOCK - 1, sim._BLOCK, sim._BLOCK + 1, 2 * sim._BLOCK + 1])
    @pytest.mark.parametrize("path", ["generated", "reference"])
    def test_block_edges_match_the_legacy_driver(self, steps, path):
        system, design, dt, clip = _parity_case("decay")
        model = build_dynamics(design.config) if path == "generated" else sim.build_reference(system)
        for stride in (1, 3, sim._BLOCK + 1):
            settings = SimSettings(dt=dt, t_end=(steps - 0.5) * dt, record_stride=stride, clip=clip)
            outcome = run_outcome(model, settings)
            assert outcome == run_outcome(model, settings, runner=legacy_run), settings
            assert len(outcome[0]) == -(-steps // stride) + 1
            assert outcome[3]  # the clamp at 0.5 holds the decay for its first steps

    @pytest.mark.parametrize("path", ["generated", "reference"])
    def test_non_finite_in_the_second_block(self, path):
        _, system, design = pipeline(BLOWUP)
        model = build_dynamics(design.config) if path == "generated" else sim.build_reference(system)
        settings = SimSettings(dt=4e-5, t_end=1.0, method=Method.EULER)
        outcome = run_outcome(model, settings)
        assert outcome == run_outcome(model, settings, runner=legacy_run)
        assert outcome[0] == "non-finite" and outcome[3] == "X"
        assert sim._BLOCK < float.fromhex(outcome[2]) / settings.dt <= 2 * sim._BLOCK

    @pytest.mark.parametrize("path", ["generated", "reference"])
    def test_value_cap_boundary(self, monkeypatch, path):
        _, system, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        settings = SimSettings(dt=0.01, t_end=0.995, record_stride=3)  # 100 steps, 34 + 1 samples of t and X
        if path == "generated":
            runner = partial(run, model, model.initial, settings)
        else:
            runner = partial(run_reference, system, settings)
        monkeypatch.setattr(sim, "MAX_VALUES", 70)
        assert len(runner().times) == 35
        monkeypatch.setattr(sim, "MAX_VALUES", 69)
        with pytest.raises(ValueError, match=r"^run would record 70 values, above the cap of 69; raise record_stride "
                                              r"\(--stride\)$"):
            runner()


# Runs decay with Euler for 10^4, 10^6 and 2.5 * 10^6 steps in a child
# process that may not map more than 200 MB, and prints each run's row count
# and the peak resident size of the child's own image after it, in bytes.
# That is VmHWM, as in the expansion bound of tests/test_cli.py.
_RUN_CHILD = """
import re, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))
from autopatch import sim
from autopatch.circuit import build_circuit, normalize
from autopatch.dsl import compile_source
from autopatch.machine import lucidac_spec
from autopatch.router import route_design
program = compile_source(sys.argv[1])
model = sim.build_dynamics(route_design(build_circuit(normalize(program), program), lucidac_spec()).config)
for steps in (10**4, 10**6, 2_500_000):
    rows = len(sim.run(model, model.initial, sim.SimSettings(dt=1e-3, t_end=steps * 1e-3, method=sim.Method.EULER)).times)
    with open("/proc/self/status") as f:
        print(rows, int(re.search(r"^VmHWM:\\s+(\\d+) kB$", f.read(), re.M)[1]) * 1024)
"""


class TestTraceMemory:
    def test_bytes_per_recorded_step(self):
        # two array('d') columns (t and X) take 16 bytes per step; lists of
        # boxed floats took ~79 and ran out of the 200 MB before 2.5 * 10^6
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_CHILD, DECAY], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        (small_rows, small_peak), (large_rows, large_peak), (rows, _) = (
            map(int, line.split()) for line in proc.stdout.splitlines()
        )
        assert (small_rows, large_rows, rows) == (10**4 + 1, 10**6 + 1, 2_500_001)
        assert (large_peak - small_peak) / (large_rows - small_rows) <= 20


# --------------------------------------------------------------------------
# the reference's monomial table against the per-term factor loop


class TermLoopModel:
    """The reference evaluator as it was while `derivatives` multiplied
    out every term's factor tuple on each call, before each distinct
    monomial got one product per call and the whole step was written out
    as generated code.  Kept here as the bit-for-bit reference for
    `build_reference`: its stage loop is `loop_step`, and its `voltages`
    clamp only the states."""

    def __init__(self, system):
        self.state_labels = system.states
        self.element_labels = system.states
        self.initial = system.initial
        self.taps = {name: i for i, name in enumerate(system.states)}
        self._factor_terms = tuple(
            tuple((term.weight, tuple(self.taps[f] for f in term.factors)) for term in terms) for terms in system.rhs
        )

    step = loop_block

    def voltages(self, y, clip=None, clipped=None):
        if clip is None:
            return list(y)
        lo, clamp = -clip, sim._clamper(clip, clipped)
        return [v if lo <= v <= clip else clamp(v, i) for i, v in enumerate(y)]

    def rhs(self, y, clip=None, clipped=None):
        return self.derivatives(self.voltages(y, clip, clipped))

    def derivatives(self, volts):
        out = []
        for terms in self._factor_terms:
            acc = 0.0
            for weight, factors in terms:
                prod = 1.0
                for i in factors:
                    prod *= volts[i]
                acc += weight * prod
            out.append(acc)
        return out


# signed zeros, infinities, NaN, subnormals and magnitudes whose products overflow
SPECIAL_VOLTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308]
VOLTS = st.one_of(st.sampled_from(SPECIAL_VOLTS), st.floats(), st.floats(-2.0, 2.0))
WEIGHTS = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def term_systems(draw):
    """A PolySystem over one to five states: either a normalized program of
    the random-program oracle, or raw term lists with monomials of degree
    up to 6, so repeated factors (A*A*B), constant terms and empty
    right-hand sides occur; on request each monomial's prefixes join its
    state's terms, so A*B sits next to A*B*C."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return normalize(support.random_program(draw(st.integers(0, 2**32 - 1)), n))
    names = "ABCDE"[:n]
    monomials = st.lists(st.sampled_from(names), max_size=6).map(lambda factors: tuple(sorted(factors)))
    per_state = []
    for _ in names:
        terms = draw(st.lists(monomials, max_size=5))
        if draw(st.booleans()):
            terms += [m[:k] for m in terms for k in range(len(m))]
        per_state.append([(draw(WEIGHTS), m) for m in terms])
    return support.terms_to_system(names, per_state)


class TestReferenceDerivatives:
    @settings(max_examples=300, deadline=None)
    @given(system=term_systems(), data=st.data())
    def test_matches_the_term_loop(self, system, data):
        n = len(system.states)
        model, loop = sim.build_reference(system), TermLoopModel(system)
        for volts in data.draw(st.lists(st.lists(VOLTS, min_size=n, max_size=n), min_size=1, max_size=4)):
            assert hexes(evaluate(model, volts)[0]) == hexes(loop.derivatives(volts)), volts

    @settings(max_examples=4, deadline=None)
    @given(system=term_systems(), data=st.data())
    def test_run_reference_matches_the_term_loop(self, system, data):
        n = len(system.states)
        initial = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        system = system._replace(initial=tuple(initial))
        loop = TermLoopModel(system)
        for clip in (None, 0.3):
            for method, stride in ((Method.RK4, 1), (Method.EULER, 1), (Method.RK4, 3)):
                run_settings = SimSettings(dt=0.05, t_end=1.0, method=method, clip=clip, record_stride=stride)
                reference = run_outcome(loop, run_settings, runner=lambda _model, _initial, s: run_reference(system, s))
                assert reference == run_outcome(loop, run_settings)

    @pytest.mark.parametrize(
        "names, per_state",
        [
            # one sum over 450 distinct monomials A^a B^b C^c, more than _SUM_CHUNK, so it is accumulated in chunks
            ("ABC", [[(0.25 * (k % 7) - 0.5, tuple("A" * (k % 5) + "B" * (k // 5 % 9) + "C" * (k // 45))) for k in range(450)], [], []]),
            # many states, each reading its neighbours, one product and the constant
            (
                [f"S{i}" for i in range(120)],
                [[(-1.0, (f"S{i}",)), (0.8, (f"S{(i + 1) % 120}",)), (-0.3, (f"S{i}", f"S{(i + 7) % 120}")), (0.1, ())]
                 for i in range(120)],
            ),
            # weights the generated source cannot spell as a finite literal, and the smallest ones it can
            ("AB", [[(math.inf, ("A",)), (-math.inf, ("B",)), (math.nan, ("A", "B"))],
                    [(-0.0, ()), (5e-324, ("A", "A")), (-0.0, ("B",))]]),
            # an empty right-hand side between two that are not
            ("ABC", [[(1.5, ("B", "C"))], [], [(-2.0, ("A",)), (0.5, ())]]),
        ],
        ids=["chunked-sum", "120-states", "special-weights", "empty-rhs"],
    )
    def test_shapes_the_strategy_does_not_reach(self, names, per_state):
        system = support.terms_to_system(names, per_state)
        model, loop = sim.build_reference(system), TermLoopModel(system)
        n, k = len(names), len(SPECIAL_VOLTS)
        points = [[v] * n for v in SPECIAL_VOLTS]  # each special voltage on every state
        points += [[SPECIAL_VOLTS[(i + j) % k] for i in range(n)] for j in range(k)]  # mixed, in every rotation
        points.append([0.5 + 0.01 * i for i in range(n)])
        for volts in points:
            assert hexes(evaluate(model, volts)[0]) == hexes(loop.derivatives(volts)), volts

    def test_compile_memory_of_a_large_system(self):
        # the generated step of 500 states peaks at ~3.2 MB on CPython 3.11
        system = normalize(compile_source(support.synthetic_large_program(500)))
        tracemalloc.start()
        try:
            sim.build_reference(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def _ring_system(n):
    """n states S0, S1, ..., each reading itself, its neighbour, a product,
    a cubic term and a constant term, so that under clip 0.3 a clamp of the
    constant slot (1.0) would show in every derivative."""
    names = [f"S{i}" for i in range(n)]
    per_state = [
        [(-1.0, (names[i],)), (0.8, (names[(i + 1) % n],)), (-0.3, (names[i], names[(i + 7) % n])),
         (1.0, (names[i], names[i], names[(i + 3) % n])), (0.5, ())]
        for i in range(n)
    ]
    return support.terms_to_system(names, per_state)


class TestReferenceStep:
    @pytest.mark.parametrize("n", [sim._SCALAR_STATES, sim._SCALAR_STATES + 1])
    def test_matches_the_stage_loop(self, n):
        system = _ring_system(n)
        model, loop = sim.build_reference(system), TermLoopModel(system)
        # the two emission forms: states in scalar locals, or in the list x
        assert ("x" in model.step.__code__.co_varnames) == (n > sim._SCALAR_STATES)
        rng = random.Random(11)
        for y in sample_points(n, rng, count=8):
            for stages in (0, 1, 4):
                for clip in (None, 0.3, 1.2):
                    start = [rng.uniform(0.0, 1.0) for _ in range(n)]
                    outcomes = []
                    for m in (model, loop):
                        clipped = set() if clip is not None else None
                        peaks = list(start)
                        values, volts = one_step(m, y, 0.05, stages, clip, clipped, peaks)
                        outcomes.append((hexes(values), hexes(volts), hexes(peaks), clipped))
                    assert outcomes[0] == outcomes[1], (y, stages, clip)


class TestModelLifetime:
    @pytest.mark.parametrize("case", ["lorenz", str(sim._SCALAR_STATES + 1)])
    def test_step_dies_with_its_model_without_the_cyclic_gc(self, case):
        system, design, _, _ = _parity_case(case)
        gc.disable()
        try:
            for build in (partial(build_dynamics, design.config), partial(sim.build_reference, system)):
                model = build()
                step = weakref.ref(model.step)
                del model
                assert step() is None, build
        finally:
            gc.enable()


def _tapped_only(n_states):
    """`n_states` integrators tapped as S0, S1, ... and wired to nothing,
    so every state keeps its initial value, and the same system for the
    reference path."""
    spec = lucidac_spec()
    names = tuple(f"S{i}" for i in range(n_states))
    config = dataclasses.replace(
        MachineConfig.empty(spec), taps=tuple((name, spec.out_row(NodeKind.INTEGRATOR, i)) for i, name in enumerate(names))
    )
    system = PolySystem(states=names, rhs=((),) * n_states, initial=(0.0,) * n_states)
    return build_dynamics(config), sim.build_reference(system)


class TestFiniteness:
    @pytest.mark.parametrize("clip", [None, 0.5])
    def test_finite_states_whose_sum_overflows_do_not_abort(self, clip):
        for model in _tapped_only(2):
            trace = run(model, [1e308, 1.7e308], SimSettings(dt=0.1, t_end=1.0, clip=clip))
            assert trace.signals["S1"][-1] == (0.5 if clip else 1.7e308)
            assert len(trace.times) == 11
            trace = run(model, [-1e308, -1.7e308], SimSettings(dt=0.1, t_end=1.0, clip=clip))
            assert trace.signals["S0"][-1] == (-0.5 if clip else -1e308)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_a_sum_that_overflows_on_every_step_continues_the_block(self, stride):
        # past the first block, so each call of `step` runs to its end
        steps, dt = sim._BLOCK + 2, 0.125
        for model in _tapped_only(2):
            trace = run(model, [1e308, 1.7e308], SimSettings(dt=dt, t_end=steps * dt, record_stride=stride))
            assert list(trace.times) == [k * dt for k in range(0, steps, stride)] + [steps * dt]
            assert set(trace.signals["S0"]) == {1e308} and set(trace.signals["S1"]) == {1.7e308}
            assert len(trace.signals["S1"]) == len(trace.times)

    def test_opposite_infinities_name_the_lower_state(self):
        for model in _tapped_only(3):
            for initial in ([0.1, math.inf, -math.inf], [0.1, -math.inf, math.inf]):
                with pytest.raises(NonFiniteError, match=r"^S1 became non-finite at t=0.1$") as err:
                    run(model, initial, SimSettings(dt=0.1, t_end=1.0))
                assert err.value.element == "S1"

    def test_nan_in_the_last_state_names_it(self):
        for model in _tapped_only(3):
            with pytest.raises(NonFiniteError, match=r"^S2 became non-finite at t=0.1$"):
                run(model, [0.1, 0.2, math.nan], SimSettings(dt=0.1, t_end=1.0, clip=0.5))


# --------------------------------------------------------------------------
# elements named by output row, against the role walk they replaced


def role_walk(config, lane_weights=None):
    """The element map `build_dynamics` built before it named elements by
    their output rows: one index space per kind (`state_pos`, `mul_pos`,
    `const_index`) over two passes of the lanes.  Kept here as the
    reference; returns the model's (state_labels, initial, element_labels,
    taps) and the arguments for `_generate_evaluator`."""
    spec = config.spec
    used_int, used_mul, const_used = set(), set(), False
    active = config.active_lanes()
    for lane in active:
        kind, k = spec.out_row_role(config.u_source[lane])
        if kind is NodeKind.INTEGRATOR:
            used_int.add(k)
        elif kind is NodeKind.MULTIPLIER:
            used_mul.add(k)
        elif kind is NodeKind.CONST_ONE:
            const_used = True
        port, k = spec.in_row_role(config.i_dest[lane])
        (used_int if port is Port.INTEGRATOR_IN else used_mul).add(k)

    tap_name_of_row = {}
    for name, row in config.taps:
        kind, k = spec.out_row_role(row)
        if kind is NodeKind.INTEGRATOR:
            used_int.add(k)
            tap_name_of_row.setdefault(row, name)
        elif kind is NodeKind.MULTIPLIER:
            used_mul.add(k)
        elif kind is NodeKind.CONST_ONE:
            const_used = True
        else:
            raise UnroutedTapError(f"tap {name} references reserved out-row {row}")

    ints, muls = sorted(used_int), sorted(used_mul)
    state_pos = {k: i for i, k in enumerate(ints)}
    mul_pos = {j: len(ints) + i for i, j in enumerate(muls)}
    const_index = len(ints) + len(muls) if const_used else None
    labels = [f"I{k}" for k in ints] + [f"M{j}" for j in muls] + (["const"] if const_used else [])

    def source_index(row):
        kind, k = spec.out_row_role(row)
        if kind is NodeKind.INTEGRATOR:
            return state_pos[k]
        if kind is NodeKind.MULTIPLIER:
            return mul_pos[k]
        if kind is NodeKind.CONST_ONE:
            return const_index
        return None

    int_terms = [[] for _ in ints]
    mul_a = {mul_pos[j]: [] for j in muls}
    mul_b = {mul_pos[j]: [] for j in muls}
    for lane in active:
        gain = decode_coeff(config.coefficients[lane])
        if lane_weights is not None and lane in lane_weights:
            gain = lane_weights[lane]
        src = source_index(config.u_source[lane])
        if src is None:
            continue
        port, k = spec.in_row_role(config.i_dest[lane])
        if port is Port.INTEGRATOR_IN:
            int_terms[state_pos[k]].append((gain, src))
        elif port is Port.MUL_A:
            mul_a[mul_pos[k]].append((gain, src))
        else:
            mul_b[mul_pos[k]].append((gain, src))

    reads = {pos: [src for _, src in mul_a[pos] + mul_b[pos]] for pos in mul_a}
    try:
        levels = dependency_order(reads)
    except LoopError as exc:
        raise LoopError([labels[pos] for pos in exc.cycle]) from None
    mul_levels = [[(pos, mul_a[pos], mul_b[pos]) for pos in level] for level in levels]

    model = (
        tuple(tap_name_of_row.get(spec.out_row(NodeKind.INTEGRATOR, k), f"I{k}") for k in ints),
        tuple(config.initial_states[k] for k in ints),
        tuple(labels),
        list({name: source_index(row) for name, row in config.taps}.items()),
    )
    return model, (len(ints), len(labels), int_terms, mul_levels, const_index)


def annotated_config(spec, rng):
    """A random valid configuration with random taps (reserved rows
    included), initial states and partial lane weights, some non-finite."""
    config = support.random_config(spec, rng, p_active=rng.choice([0.03, 0.1, 0.25, 0.5]))
    taps = tuple(
        (rng.choice(["X", "Y", "I0", "M1", "const"]), rng.randrange(spec.out_rows)) for _ in range(rng.randrange(5))
    )
    initial = tuple(rng.uniform(-1.0, 1.0) for _ in range(spec.n_integrators))
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    weights = {
        lane: rng.choice(specials) if rng.random() < 0.1 else rng.uniform(-12.0, 12.0)
        for lane in rng.sample(range(spec.n_lanes), rng.randrange(spec.n_lanes + 1))
    }
    return dataclasses.replace(config, taps=taps, initial_states=initial), rng.choice([None, weights])


def element_map_outcome(build, config, lane_weights):
    """repr of what `build` returns, or the type and text of what it raises
    (repr, so that NaN gains compare equal)."""
    try:
        return repr(build(config, lane_weights))
    except (LoopError, UnroutedTapError) as exc:
        return (type(exc), str(exc))


def built_element_map(config, lane_weights):
    model, args = build_captured(config, lane_weights)
    return (model.state_labels, model.initial, model.element_labels, list(model.taps.items())), args


class TestElementMap:
    @pytest.mark.parametrize("spec", [lucidac_spec(), MachineSpec(5, 3, 24)], ids=["lucidac", "custom-5-3-24"])
    def test_matches_the_role_walk(self, spec):
        rng = random.Random(31)
        failures = set()
        for _ in range(400):
            config, lane_weights = annotated_config(spec, rng)
            want = element_map_outcome(role_walk, config, lane_weights)
            assert element_map_outcome(built_element_map, config, lane_weights) == want
            if isinstance(want, tuple):
                failures.add(want[0])
        # the corpus reaches both refusals where the machine has reserved rows
        assert failures == ({LoopError, UnroutedTapError} if spec.reserved_rows else {LoopError})
