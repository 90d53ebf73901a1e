import math

import pytest

from autopatch.circuit import LoopError, build_circuit, normalize
from autopatch.dsl import compile_source
from autopatch.machine import (
    CoefficientCode,
    MachineConfig,
    lucidac_spec,
    quantize_highres,
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


def pipeline(source: str, spec=None):
    program = compile_source(source)
    system = normalize(program)
    graph = build_circuit(system, program)
    design = route_design(graph, spec or lucidac_spec())
    return program, system, design


DECAY = "fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n"


class TestBuildDynamics:
    def test_lorenz_rhs_matches_quantized_hand_evaluation(self, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        assert model.state_labels == ("X", "Y", "I2")
        d = model.rhs([0.1, 0.0, 0.0])
        # hand evaluation with decoded 12-bit coefficients
        g = lambda w: decode_coeff(CoefficientCode.highres(quantize_highres(w)))
        assert d[0] == -1.0 * 0.1 + g(1.8) * 0.0
        assert d[1] == g(1.56) * 0.1 + -0.1 * 0.0 + g(-4.17768) * (0.1 * 0.0)
        assert d[1] == pytest.approx(0.15576171875, abs=0)
        assert d[2] == 0.0

    def test_bypass_rhs_matches_exact_weights(self, lorenz_system, lorenz_design):
        model = build_dynamics(lorenz_design.config, lane_weights=lorenz_design.lane_weight_map())
        d = model.rhs([0.1, 0.0, 0.0])
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
        config = MachineConfig.empty(spec).with_lane(24, 0, CoefficientCode.lowres(6), 0)
        model = build_dynamics(config)
        assert model.rhs([2.0]) == [-2.0]

    def test_invalid_config_rejected(self):
        config = MachineConfig.empty(lucidac_spec()).with_u(0, 1)
        with pytest.raises(ValueError, match="dangling"):
            build_dynamics(config)

    def test_multiplier_feedback_raises(self):
        spec = lucidac_spec()
        config = (
            MachineConfig.empty(spec)
            .with_lane(0, spec.multiplier_out_row(0), CoefficientCode.highres(100), spec.mul_a_row(1))
            .with_lane(1, spec.multiplier_out_row(1), CoefficientCode.highres(100), spec.mul_a_row(0))
        )
        with pytest.raises(LoopError):
            build_dynamics(config)

    def test_multiplier_self_loop_raises(self):
        spec = lucidac_spec()
        config = MachineConfig.empty(spec).with_lane(
            0, spec.multiplier_out_row(0), CoefficientCode.highres(100), spec.mul_a_row(0)
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
        assert model.rhs(model.initial) == [0.0, 0.5 * 2.0 * 2.0 * 2.0]
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
        config = MachineConfig.empty(spec).with_lane(0, 13, CoefficientCode.highres(2047), 0)
        model = build_dynamics(config)
        assert model.rhs([0.5]) == [0.0]

    def test_lane_contribution_scales_exactly_with_gain(self):
        spec = lucidac_spec()
        config = MachineConfig.empty(spec).with_lane(0, 0, CoefficientCode.highres(100), 0)
        base = build_dynamics(config, lane_weights={0: 0.3})
        doubled = build_dynamics(config, lane_weights={0: 0.6})
        for x in (0.1, -0.7, 0.93):
            assert doubled.rhs([x])[0] == 2.0 * base.rhs([x])[0]


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
        assert trace.times == [0.0]
        assert trace.signals["X"] == [1.0]

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

    def test_step_cap(self):
        _, _, design = pipeline(DECAY)
        model = build_dynamics(design.config)
        with pytest.raises(ValueError, match="cap"):
            run(model, model.initial, SimSettings(dt=1e-3, t_end=1.0, max_steps=10))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SimSettings(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimSettings(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError):
            SimSettings(dt=0.1, t_end=1.0, record_stride=0)
        with pytest.raises(ValueError):
            SimSettings(dt=0.1, t_end=1.0, clip=0.0)

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
        config = (
            MachineConfig.empty(spec)
            .with_lane(0, spec.const_row(), CoefficientCode.highres(quantize_highres(2.0)), 0)
            .with_lane(24, 0, CoefficientCode.lowres(1), 1)
        )
        model = build_dynamics(config)
        trace = run(model, model.initial, SimSettings(dt=0.1, t_end=1.0, clip=0.5))
        by_step = {}
        for event in trace.clip_events:
            key = (event.t, event.element)
            assert key not in by_step, "duplicate event within one step"
            by_step[key] = True

    def test_peaks_cover_all_elements(self, lorenz_design):
        model = build_dynamics(lorenz_design.config)
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=1.0))
        assert set(trace.peaks) == {"X", "Y", "I2", "M0", "M1"}
        assert all(v >= 0 for v in trace.peaks.values())


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
        b_port_lanes = [k for k in config.active_lanes() if config.i_dest[k] == spec.mul_b_row(0)]
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
