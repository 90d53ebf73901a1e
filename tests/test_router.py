import pytest

from autopatch.circuit import CircuitGraph, Edge, Node, NodeKind, Port, build_circuit, normalize
from autopatch.dsl import compile_source
from autopatch.machine import (
    CoefKind,
    HIGHRES_LSB,
    MachineConfig,
    MachineSpec,
    decode,
    lucidac_spec,
    validate_config,
)
from autopatch.router import CapacityError, format_report, route_design
from autopatch.bitstream import decode as decode_image, encode


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

    def test_one_edge_past_the_lane_count(self):
        nodes = tuple(Node(i, NodeKind.INTEGRATOR, f"s{i}") for i in range(8))
        pairs = [(src, dst) for src in range(8) for dst in range(8)][:33]
        edges = tuple(Edge(src, dst, Port.INTEGRATOR_IN, 0.3) for src, dst in pairs)
        with pytest.raises(CapacityError) as err:
            route_design(CircuitGraph(nodes, edges), lucidac_spec())
        assert (err.value.kind, err.value.needed, err.value.available) == ("lanes", 33, 32)

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
    def test_lanes_follow_row_order_not_node_order(self):
        """Node ids put the multiplier first, but lanes go in (source row,
        destination row, weight) order, the exact weight to the first
        low-res lane; lane weights and errors come sorted by lane."""
        nodes = (
            Node(0, NodeKind.MULTIPLIER, "m"),
            Node(1, NodeKind.INTEGRATOR, "X", 0.5),
            Node(2, NodeKind.INTEGRATOR, "Y", -0.25),
        )
        edges = (
            Edge(0, 1, Port.INTEGRATOR_IN, 0.3),
            Edge(1, 0, Port.MUL_A, 0.7),
            Edge(2, 0, Port.MUL_B, 0.9),
            Edge(2, 1, Port.INTEGRATOR_IN, 1.0),
        )
        design = route_design(CircuitGraph(nodes, edges, (("X", 1),)), lucidac_spec())
        config = design.config
        wired = [(lane, config.u_source[lane], config.i_dest[lane]) for lane in config.active_lanes()]
        assert wired == [(0, 0, 8), (1, 1, 9), (2, 8, 0), (24, 1, 0)]
        assert config.initial_states == (0.5, -0.25) + (0.0,) * 6
        assert config.taps == (("X", 0),)
        assert design.lane_weights == ((0, 0.7), (1, 0.9), (2, 0.3), (24, 1.0))
        assert [lane for lane, _ in design.report.quantization_errors] == [0, 1, 2, 24]

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
        nodes = (Node(0, NodeKind.INTEGRATOR, "X"), Node(1, NodeKind.INTEGRATOR, "Y"))
        edges = (Edge(1, 0, Port.INTEGRATOR_IN, 0.25), Edge(0, 0, Port.INTEGRATOR_IN, -1.0),
                 Edge(0, 1, Port.INTEGRATOR_IN, 1.0))
        config = route_design(CircuitGraph(nodes, edges), lucidac_spec()).config
        lane_of = {(config.u_source[k], config.i_dest[k]): k for k in config.active_lanes()}
        # sorted order: (0,0,-1.0) low-res, (0,1,1.0) low-res, (1,0,0.25) high-res
        assert [lane_of[e.src, e.dst] for e in edges] == [0, 24, 25]

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

    @pytest.mark.parametrize("n_lanes", range(6))
    def test_few_lanes_through_the_image(self, n_lanes):
        # up to three lanes hold no low-res lane; four and five hold one
        spec = MachineSpec(2, 0, n_lanes)
        nodes = (
            Node(0, NodeKind.INTEGRATOR, "X", 1.0), Node(1, NodeKind.INTEGRATOR, "Y"), Node(2, NodeKind.CONST_ONE, "1")
        )
        pairs = ((2, 0), (0, 1), (1, 0), (0, 0), (2, 1))
        weights = (1.0, 0.3, -0.5, 0.7, -10.0)
        edges = tuple(Edge(src, dst, Port.INTEGRATOR_IN, w) for (src, dst), w in zip(pairs[:n_lanes], weights))
        kinds = [CoefKind.HIGH_RES] * (n_lanes - n_lanes // 4) + [CoefKind.LOW_RES] * (n_lanes // 4)
        for config in (MachineConfig.empty(spec), route_design(CircuitGraph(nodes, edges), spec).config):
            assert [code.kind for code in config.coefficients] == kinds
            assert len(config.active_lanes()) in (0, n_lanes)
            decoded = decode_image(encode(config), spec)
            assert decoded == config
            assert validate_config(decoded) == []

    def test_report_format(self, lorenz_design):
        text = format_report(lorenz_design.report)
        assert "lanes_used: 11" in text
        assert "integrators_used: 3" in text
        assert text.splitlines()[0] == "integrators_used: 3"

    def test_record_reprs(self):
        """The report and the design keep the repr a dataclass gave them."""
        graph = graph_from("fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n")
        design = route_design(graph, MachineSpec(1, 1, 4))
        report = (
            "PlaceRouteReport(integrators_used=1, multipliers_used=0, lanes_used=1, lowres_lanes_used=1, "
            "clamp_warnings=(), quantization_errors=((3, 0.0),))"
        )
        assert repr(design.report) == report
        assert repr(design) == (
            "RoutedDesign(config=MachineConfig(spec=MachineSpec(n_integrators=1, n_multipliers=1, n_lanes=4, "
            "reserved_rows=0), u_source=(None, None, None, 0), coefficients=(CoefficientCode(kind=<CoefKind.HIGH_RES: "
            "'high'>, code=0), CoefficientCode(kind=<CoefKind.HIGH_RES: 'high'>, code=0), CoefficientCode(kind="
            "<CoefKind.HIGH_RES: 'high'>, code=0), CoefficientCode(kind=<CoefKind.LOW_RES: 'low'>, code=6)), i_dest="
            f"(None, None, None, 0), initial_states=(1.0,), taps=(('X', 0),)), report={report}, lane_weights=((3, -1.0),))"
        )
