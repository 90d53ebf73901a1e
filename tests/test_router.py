import pytest

from autopatch.circuit import CircuitGraph, Edge, Node, NodeKind, Port, build_circuit, normalize
from autopatch.dsl import compile_source
from autopatch.machine import (
    CoefKind,
    HIGHRES_LSB,
    MachineSpec,
    decode,
    lucidac_spec,
    validate_config,
)
from autopatch.router import (
    CapacityError,
    ConstUnavailableError,
    assign_lane_kinds,
    format_report,
    route_design,
)
from autopatch.bitstream import encode


def graph_from(source: str):
    program = compile_source(source)
    return build_circuit(normalize(program), program)


def chain_program(n_states: int) -> str:
    lines = [f"fn s{i}(t);" for i in range(n_states)]
    lines += [f"let diff[s{i}, t] = -s{i};" for i in range(n_states)]
    lines += [f"let s{i}(t: 0) = 0;" for i in range(n_states)]
    return "\n".join(lines)


class TestPlaceAndRoute:
    def test_lorenz_fits_with_room_to_spare(self, lorenz_design):
        report = lorenz_design.report
        assert report.integrators_used == 3
        assert report.multipliers_used == 2
        assert report.lanes_used == 11
        assert report.lowres_lanes_used == 6
        assert report.clamp_warnings == ()
        spec = lorenz_design.config.spec
        assert report.integrators_used <= spec.n_integrators == 8
        assert report.multipliers_used <= spec.n_multipliers == 4
        assert report.lanes_used <= spec.n_lanes == 32
        assert validate_config(lorenz_design.config) == []

    def test_empty_graph(self):
        design = route_design(CircuitGraph((), ()), lucidac_spec())
        config, report = design.config, design.report
        assert (report.integrators_used, report.multipliers_used, report.lanes_used) == (0, 0, 0)
        assert config.active_lanes() == []

    def test_integrator_capacity(self):
        graph = graph_from(chain_program(9))
        with pytest.raises(CapacityError) as err:
            route_design(graph, lucidac_spec())
        assert (err.value.kind, err.value.needed, err.value.available) == ("integrators", 9, 8)

    def test_multiplier_capacity(self):
        src = (
            "fn A(t); fn B(t); fn C(t); fn D(t);\n"
            "let diff[A, t] = A * B + A * C + A * D + B * C + B * D;\n"
            "let diff[B, t] = -B;\nlet diff[C, t] = -C;\nlet diff[D, t] = -D;\n"
            "let A(t: 0) = 0; let B(t: 0) = 0; let C(t: 0) = 0; let D(t: 0) = 0;\n"
        )
        with pytest.raises(CapacityError) as err:
            route_design(graph_from(src), lucidac_spec())
        assert err.value.kind == "multipliers"
        assert (err.value.needed, err.value.available) == (5, 4)

    def test_lane_capacity(self):
        # 8 states, each RHS uses the same 4 products: 32 term edges + 8
        # feed edges = 40 > 32 lanes
        products = ["s0 * s1", "s2 * s3", "s4 * s5", "s6 * s7"]
        rhs = " + ".join(products)
        lines = [f"fn s{i}(t);" for i in range(8)]
        lines += [f"let diff[s{i}, t] = {rhs};" for i in range(8)]
        lines += [f"let s{i}(t: 0) = 0;" for i in range(8)]
        with pytest.raises(CapacityError) as err:
            route_design(graph_from("\n".join(lines)), lucidac_spec())
        assert err.value.kind == "lanes"
        assert (err.value.needed, err.value.available) == (40, 32)

    def test_highres_lane_exhaustion(self):
        # 25 inexact weights but only 24 high-res lanes; low-res lanes may
        # not absorb them
        lines = [f"fn s{i}(t);" for i in range(8)]
        edges = []
        for i in range(8):
            terms = []
            for j in range(8):
                if len(edges) < 25 and i != j:
                    terms.append(f"0.3 * s{j}")
                    edges.append((i, j))
            lines.append(f"let diff[s{i}, t] = {' + '.join(terms) if terms else '-s' + str(i)};")
        lines += [f"let s{i}(t: 0) = 0;" for i in range(8)]
        with pytest.raises(CapacityError) as err:
            route_design(graph_from("\n".join(lines)), lucidac_spec())
        assert err.value.kind == "high-res lanes"
        assert (err.value.needed, err.value.available) == (25, 24)

    def test_const_requires_const_row(self):
        spec = MachineSpec(2, 1, 8, out_rows=3, in_rows=4, lowres_lanes=frozenset(), has_const_row=False)
        graph = graph_from("fn X(t); fn Y(t); let diff[X, t] = 1 - X; let diff[Y, t] = -Y;"
                           " let X(t: 0) = 0; let Y(t: 0) = 0;")
        with pytest.raises(ConstUnavailableError):
            route_design(graph, spec)

    def test_parallel_edges_rejected(self):
        nodes = (Node(0, NodeKind.INTEGRATOR, "X", 0.0),)
        edges = (Edge(0, 0, Port.INTEGRATOR_IN, 1.0), Edge(0, 0, Port.INTEGRATOR_IN, 2.0))
        with pytest.raises(ValueError, match="parallel"):
            route_design(CircuitGraph(nodes, edges), lucidac_spec())

    def test_determinism(self, lorenz_graph):
        spec = lucidac_spec()
        a = route_design(lorenz_graph, spec).config
        b = route_design(lorenz_graph, spec).config
        assert a == b
        assert encode(a) == encode(b)

    def test_taps_and_initial_states(self, lorenz_design):
        config = lorenz_design.config
        assert config.taps == (("X", 0), ("Y", 1))
        assert config.initial_states[:3] == (0.1, 0.0, 0.0)


class TestLaneAssignment:
    def test_exact_weight_takes_lowres_lane(self):
        graph = graph_from("fn X(t); let diff[X, t] = -X; let X(t: 0) = 0;")
        design = route_design(graph, lucidac_spec())
        config, report = design.config, design.report
        assert report.lowres_lanes_used == 1
        assert config.u_source[24] == 0
        assert config.coefficients[24].kind is CoefKind.LOW_RES
        assert config.coefficients[24].code == 6
        assert decode(config.coefficients[24]) == -1.0

    def test_inexact_weight_takes_highres_lane(self):
        graph = graph_from("fn X(t); fn Y(t); let diff[X, t] = 1.8 * Y; let diff[Y, t] = -Y;"
                           " let X(t: 0) = 0; let Y(t: 0) = 0;")
        config = route_design(graph, lucidac_spec()).config
        highres = [k for k in config.active_lanes() if k not in config.spec.lowres_lanes]
        assert len(highres) == 1
        assert config.coefficients[highres[0]].code == 369

    def test_lowres_overflow_falls_back_to_highres(self, recwarn):
        # nine +10 edges against eight low-res lanes
        lines = [f"fn s{i}(t);" for i in range(8)]
        lines.append("let diff[s0, t] = 10 * s1 + 10 * s2;")
        lines += [f"let diff[s{i}, t] = 10 * s{(i + 1) % 8};" for i in range(1, 8)]
        lines += [f"let s{i}(t: 0) = 0;" for i in range(8)]
        design = route_design(graph_from("\n".join(lines)), lucidac_spec())
        config, report = design.config, design.report
        assert report.lanes_used == 9
        assert report.lowres_lanes_used == 8
        overflow = [k for k in config.active_lanes() if k not in config.spec.lowres_lanes]
        assert len(overflow) == 1
        assert config.coefficients[overflow[0]].code == 2047  # +10 clamps in high-res
        assert len(report.clamp_warnings) == 1

    def test_assignment_order_is_deterministic(self):
        spec = lucidac_spec()
        edges = [(1, 0, 0.25), (0, 0, -1.0), (0, 1, 1.0)]
        lanes = assign_lane_kinds(edges, spec)
        # sorted order: (0,0,-1.0) low-res, (0,1,1.0) low-res, (1,0,0.25) high-res
        assert lanes == [0, 24, 25]

    def test_never_puts_inexact_weight_on_lowres_lane(self, lorenz_design):
        config = lorenz_design.config
        for lane in config.active_lanes():
            if lane in config.spec.lowres_lanes:
                assert decode(config.coefficients[lane]) in (10.0, 1.0, 0.5, 0.1, -0.1, -0.5, -1.0, -10.0)


class TestRoutedConfigDecode:
    def test_edge_multiset_recovered(self, lorenz_graph, lorenz_design):
        """Reconstructing edges from (u, coefficients, i) recovers the
        routed edge multiset up to quantization."""
        config = lorenz_design.config
        spec = config.spec
        recovered = sorted(
            (config.u_source[k], config.i_dest[k], decode(config.coefficients[k]))
            for k in config.active_lanes()
        )
        expected = sorted(lorenz_design.lane_weights)
        assert len(recovered) == len(expected) == 11
        routed = sorted(
            (config.u_source[k], config.i_dest[k]) for k in config.active_lanes()
        )
        assert len(set(routed)) == 11  # active (src, dst) pairs unique
        by_lane = dict(lorenz_design.lane_weights)
        for k in config.active_lanes():
            wanted = by_lane[k]
            got = decode(config.coefficients[k])
            if k in spec.lowres_lanes:
                assert got == wanted
            else:
                assert abs(got - wanted) <= HIGHRES_LSB / 2

    def test_report_format(self, lorenz_design):
        text = format_report(lorenz_design.report)
        assert "lanes_used: 11" in text
        assert "integrators_used: 3" in text
        assert text.splitlines()[0] == "integrators_used: 3"
