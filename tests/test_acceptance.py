"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Frozen regression values (bound B, blocking statistics) were produced by
the pre-build oracle runs in scripts/ and are asserted exactly here.
"""

import contextlib
import math
import random
import time

import support
from autopatch.bitstream import DeltaOp, OpCode, apply, decode, diff, encode
from autopatch.circuit import NodeKind, build_circuit, detect_algebraic_loops, normalize
from autopatch.dsl import compile_source
from autopatch.fabric import FabricState, StageSpec, blocking_experiment, simstar_spec, switch_count
from autopatch.machine import (
    CoefficientCode,
    decode as decode_coeff,
    lucidac_spec,
    quantize_highres,
    redac_tile_spec,
    validate_config,
)
from autopatch.router import route_design
from autopatch.sim import SimSettings, build_dynamics, max_abs_deviation, run, run_reference

# frozen by scripts/calibrate_lorenz_bound.py (reference peak 0.7938)
LORENZ_MACHINE_BOUND = 0.80
# frozen by scripts/blocking_sweep.py (seed 42, load 320, trials 1000)
FROZEN_BLOCKED_FRACTION = 0.977
FROZEN_MEAN_ROUTED = 313.1


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_lorenz_end_to_end(lorenz_source):
    with criterion(1, "Lorenz end-to-end on the small profile"):
        started = time.perf_counter()
        program = compile_source(lorenz_source)
        system = normalize(program)
        graph = build_circuit(system, program)
        detect_algebraic_loops(graph)
        design = route_design(graph, lucidac_spec())
        elapsed = time.perf_counter() - started
        assert design.report.integrators_used == 3
        assert design.report.multipliers_used == 2
        assert design.report.lanes_used == 11
        kinds = {n.kind for n in graph.nodes}
        assert kinds <= {NodeKind.INTEGRATOR, NodeKind.MULTIPLIER, NodeKind.CONST_ONE}
        assert not any("summer" in n.label.lower() for n in graph.nodes)
        assert validate_config(design.config) == []
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


def test_criterion_2_oracle_equivalence(lorenz_system, lorenz_design):
    with criterion(2, "hardware/reference trace agreement"):
        settings = SimSettings(dt=1e-3, t_end=10.0)
        bypass = build_dynamics(lorenz_design.config, lane_weights=lorenz_design.lane_weight_map())
        hw = run(bypass, bypass.initial, settings)
        ref = run_reference(lorenz_system, settings)
        assert max_abs_deviation(hw, ref) <= 1e-9

        short = SimSettings(dt=1e-3, t_end=1.0)
        quantized = build_dynamics(lorenz_design.config)
        hw_q = run(quantized, quantized.initial, short)
        ref_q = run_reference(lorenz_system, short)
        at_t1 = max(abs(hw_q.signals[n][-1] - ref_q.signals[n][-1]) for n in hw_q.signals)
        assert at_t1 <= 0.1


def test_criterion_3_bounded_machine_range(lorenz_design):
    with criterion(3, "signals stay inside the frozen machine range"):
        assert LORENZ_MACHINE_BOUND <= 1.2
        model = build_dynamics(lorenz_design.config)
        trace = run(model, model.initial, SimSettings(dt=1e-3, t_end=100.0))
        worst = max(trace.peaks.values())
        assert worst <= LORENZ_MACHINE_BOUND, f"peak {worst} exceeds frozen bound"


def test_criterion_4_switch_count_economics(capsys):
    with criterion(4, "three-stage fabric switch economics"):
        from autopatch.cli import main

        assert main(["fabric", "--spec", "simstar", "--count"]) == 0
        assert capsys.readouterr().out == "30464\n"
        assert main(["fabric", "--spec", "crossbar:320x512", "--count"]) == 0
        assert capsys.readouterr().out == "163840\n"
        assert switch_count(simstar_spec()) == 30464
        assert StageSpec(1, 320, 512).switch_count() == 163840


def test_criterion_5_fabric_routing():
    with criterion(5, "fabric routing and frozen blocking statistics"):
        spec = simstar_spec()
        inputs_per_block, outputs_per_block = spec.input.inputs_per_block, spec.output.outputs_per_block
        state = FabricState(spec)
        for k in range(320):
            assert state.claim(k // inputs_per_block, k // outputs_per_block) >= 0

        state = FabricState(spec)
        for b in range(20):
            assert state.claim(0, 16 * b // outputs_per_block) >= 0
        assert state.claim(0, 500 // outputs_per_block) == -1

        result = blocking_experiment(spec, load=320, trials=1000, seed=42)
        assert result.blocked_fraction == FROZEN_BLOCKED_FRACTION
        assert result.mean_routed == FROZEN_MEAN_ROUTED


def test_criterion_6_bitstream_and_quantization():
    with criterion(6, "bitstream roundtrip, delta soundness, quantization"):
        spec = lucidac_spec()
        rng = random.Random(20260801)
        for _ in range(1000):
            config = support.random_config(spec, rng)
            assert decode(encode(config), spec) == config
        for _ in range(1000):
            a = support.random_config(spec, rng)
            b = support.random_config(spec, rng)
            assert encode(apply(a, diff(a, b))) == encode(b)

        base = support.random_config(spec, rng)
        while not base.is_active(0):
            base = support.random_config(spec, rng)
        new_code = (base.coefficients[0].code + 1 - 2048) % 4096 - 2048
        changed = support.with_lanes(base, (0, base.u_source[0], CoefficientCode.highres(new_code), base.i_dest[0]))
        assert diff(base, changed).ops == (DeltaOp(OpCode.SET_COEFF, 0, new_code),)

        prev_code = None
        worst = 0.0
        for k in range(100_000):
            v = -10.0 + k * (19.99 / 99_999)
            code = quantize_highres(v)
            err = abs(decode_coeff(CoefficientCode.highres(code)) - v)
            worst = max(worst, err)
            if prev_code is not None:
                assert code >= prev_code, "quantization must be monotone"
            prev_code = code
        assert worst <= 0.002442


def test_criterion_7_numerical_order():
    with criterion(7, "integrator accuracy and convergence order"):
        program = compile_source("fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n")
        design = route_design(build_circuit(normalize(program), program), lucidac_spec())
        model = build_dynamics(design.config)

        def error(dt):
            trace = run(model, model.initial, SimSettings(dt=dt, t_end=1.0))
            return abs(trace.signals["X"][-1] - math.exp(-1))

        assert error(1e-3) < 1e-9
        # the convergence-order ratio is read off where truncation error
        # still dominates double-precision roundoff
        ratio = error(2e-2) / error(1e-2)
        assert 12.0 <= ratio <= 20.0, f"ratio {ratio}"


def test_criterion_8_large_machine_stress():
    with criterion(8, "500-state synthetic system on the large profile"):
        source = support.synthetic_large_program(n_states=500)
        started = time.perf_counter()
        program = compile_source(source)
        system = normalize(program)
        assert len(system.states) == 500
        assert system.term_count() == 1500
        graph = build_circuit(system, program)
        design = route_design(graph, redac_tile_spec())
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"pipeline took {elapsed:.3f}s"
        assert validate_config(design.config) == []
        assert design.report.integrators_used == 500
