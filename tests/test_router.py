import random

import pytest

import support
from autopatch.circuit import CircuitGraph, Edge, Node, NodeKind, Port, build_circuit, normalize
from autopatch.dsl import compile_source
from autopatch.machine import (
    LOWRES_TABLE,
    CoefKind,
    CoefficientCode,
    HIGHRES_LSB,
    MachineConfig,
    MachineSpec,
    decode,
    lowres_code_for,
    lucidac_spec,
    quantize_highres_info,
    redac_tile_spec,
    validate_config,
)
from autopatch.router import (
    CapacityError,
    PlaceRouteReport,
    RoutedDesign,
    format_report,
    route_design,
)
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


def two_pass_assign_lane_kinds(edges, spec):
    """The two-pass allocator that `route_design` replaced, kept as a
    reference: lane indices parallel to `edges`."""
    if len(edges) > spec.n_lanes:
        raise CapacityError("lanes", len(edges), spec.n_lanes)
    n_exact = sum(1 for _, _, w in edges if lowres_code_for(w) is not None)
    n_high = spec.n_lanes - len(spec.lowres_lanes)
    high_needed = (len(edges) - n_exact) + max(0, n_exact - len(spec.lowres_lanes))
    if high_needed > n_high:
        raise CapacityError("high-res lanes", high_needed, n_high)

    low_pool, high_pool = iter(range(n_high, spec.n_lanes)), iter(range(n_high))
    assignment = [-1] * len(edges)
    for i in sorted(range(len(edges)), key=lambda i: edges[i]):
        lane = next(low_pool, None) if lowres_code_for(edges[i][2]) is not None else None
        assignment[i] = next(high_pool) if lane is None else lane
    return assignment


def two_pass_route_design(graph, spec):
    """`route_design` with the reference allocator and its second lane loop,
    placing elements by the row convention written out."""
    integrators = graph.nodes_of_kind(NodeKind.INTEGRATOR)
    multipliers = graph.nodes_of_kind(NodeKind.MULTIPLIER)
    if len(integrators) > spec.n_integrators:
        raise CapacityError("integrators", len(integrators), spec.n_integrators)
    if len(multipliers) > spec.n_multipliers:
        raise CapacityError("multipliers", len(multipliers), spec.n_multipliers)
    out_row, in_row = {}, {}
    initial = [0.0] * spec.n_integrators
    for k, node in enumerate(integrators):
        initial[k] = node.initial
        out_row[node.id] = in_row[node.id, Port.INTEGRATOR_IN] = k
    for k, node in enumerate(multipliers):
        out_row[node.id] = spec.n_integrators + k
        in_row[node.id, Port.MUL_A] = spec.n_integrators + 2 * k
        in_row[node.id, Port.MUL_B] = spec.n_integrators + 2 * k + 1
    for node in graph.nodes_of_kind(NodeKind.CONST_ONE):
        out_row[node.id] = spec.n_integrators + spec.n_multipliers

    routed = [(out_row[e.src], in_row[e.dst, e.port], e.weight) for e in graph.edges]
    pairs = [(src, dst) for src, dst, _ in routed]
    if len(set(pairs)) != len(pairs):
        raise ValueError("parallel edges between one (source, destination) pair were not merged upstream")
    lanes = two_pass_assign_lane_kinds(routed, spec)

    config = MachineConfig.empty(spec)
    u, c, d = list(config.u_source), list(config.coefficients), list(config.i_dest)
    clamp_notes, quant_errors, lane_weights = [], [], []
    lowres_used = 0
    for (src, dst, weight), lane in zip(routed, lanes):
        u[lane] = src
        d[lane] = dst
        if lane in spec.lowres_lanes:
            code = lowres_code_for(weight)
            assert code is not None
            c[lane] = CoefficientCode.lowres(code)
            lowres_used += 1
        else:
            code, clamped = quantize_highres_info(weight)
            c[lane] = CoefficientCode.highres(code)
            if clamped:
                clamp_notes.append(f"lane {lane}: coefficient {weight} clamps to code {code} ({decode(c[lane])})")
        quant_errors.append((lane, abs(decode(c[lane]) - weight)))
        lane_weights.append((lane, weight))
    taps = tuple((name, out_row[node_id]) for name, node_id in graph.taps)
    config = MachineConfig(spec, tuple(u), tuple(c), tuple(d), tuple(initial), taps)
    report = PlaceRouteReport(len(integrators), len(multipliers), len(routed), lowres_used, tuple(clamp_notes),
                              tuple(sorted(quant_errors)))
    return RoutedDesign(config, report, tuple(sorted(lane_weights)))


#: exact low-res values, weights that clamp on a high-res lane, and inexact ones
CLAMPING = (28.0, -12.5, 10.001, -10.01)
INEXACT = (0.3, -1.8, 2.25, -0.07, 9.99)


def random_graph(rng, spec, kind_ordered, edges_sorted):
    """A hand-built graph that may exceed `spec` in elements or lanes and may
    hold parallel edges; nodes come in kind order or shuffled, edges in the
    documented (src, dst, port) order or shuffled."""
    kinds = [NodeKind.INTEGRATOR] * rng.randint(0, spec.n_integrators + (rng.random() < 0.05))
    kinds += [NodeKind.MULTIPLIER] * rng.randint(0, spec.n_multipliers + (rng.random() < 0.05))
    kinds += [NodeKind.CONST_ONE] * (rng.random() < 0.5)
    if not kind_ordered:
        rng.shuffle(kinds)
    nodes = tuple(Node(i, kind, f"n{i}", round(rng.uniform(-1, 1), 2)) for i, kind in enumerate(kinds))
    sinks = [(n.id, Port.INTEGRATOR_IN) for n in nodes if n.kind is NodeKind.INTEGRATOR]
    sinks += [(n.id, port) for n in nodes if n.kind is NodeKind.MULTIPLIER for port in (Port.MUL_A, Port.MUL_B)]
    candidates = [(n.id, dst, port) for n in nodes for dst, port in sinks]
    n_edges = rng.randint(0, min(len(candidates), spec.n_lanes + 3))
    p_exact, p_clamp = rng.random(), rng.random() / 4
    edges = []
    for src, dst, port in rng.sample(candidates, n_edges):
        draw = rng.random()
        pool = LOWRES_TABLE if draw < p_exact else CLAMPING if draw < p_exact + p_clamp else INEXACT
        edges.append(Edge(src, dst, port, rng.choice(pool)))
    if edges and rng.random() < 0.03:  # a parallel edge: one (src, dst, port) twice
        edges.append(support.replaced(rng.choice(edges), weight=0.3))
    if edges_sorted:
        edges.sort(key=lambda e: (e.src, e.dst, e.port.value))
    else:
        rng.shuffle(edges)
    taps = tuple((f"t{n.id}", n.id) for n in nodes if n.kind is NodeKind.INTEGRATOR and rng.random() < 0.5)
    return CircuitGraph(nodes, tuple(edges), taps)


def outcome(route, graph, spec):
    try:
        design = route(graph, spec)
    except (CapacityError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return design


def assert_same_routing(got, want, same_clamp_order):
    if not isinstance(want, RoutedDesign):
        assert got == want
        return
    config, old = got.config, want.config
    assert (config.u_source, config.coefficients, config.i_dest) == (old.u_source, old.coefficients, old.i_dest)
    assert (config.initial_states, config.taps) == (old.initial_states, old.taps)
    assert got.lane_weights == want.lane_weights
    report, old_report = got.report, want.report
    assert report.quantization_errors == old_report.quantization_errors
    counts = ("integrators_used", "multipliers_used", "lanes_used", "lowres_lanes_used")
    assert [getattr(report, f) for f in counts] == [getattr(old_report, f) for f in counts]
    # clamp warnings come in lane order
    lanes = [int(note.split(":")[0].split()[1]) for note in report.clamp_warnings]
    assert lanes == sorted(lanes)
    if same_clamp_order:
        assert report.clamp_warnings == old_report.clamp_warnings
    else:
        assert sorted(report.clamp_warnings) == sorted(old_report.clamp_warnings)


class TestMatchesTwoPassAllocator:
    @pytest.mark.parametrize("spec", [lucidac_spec(), MachineSpec(8, 16, 64), MachineSpec(3, 2, 8, reserved_rows=1)])
    def test_seeded_graphs(self, spec):
        rng = random.Random(20261018)
        seen = dict.fromkeys(("clamp", "overflow", "lanes", "high-res", "elements", "parallel"), 0)
        for i in range(500):
            kind_ordered, edges_sorted = i % 4 != 3, i % 4 < 2
            graph = random_graph(rng, spec, kind_ordered, edges_sorted)
            got, want = outcome(route_design, graph, spec), outcome(two_pass_route_design, graph, spec)
            assert_same_routing(got, want, kind_ordered and edges_sorted)
            if not isinstance(want, RoutedDesign):
                kind = want[1].split(":")[0]
                seen["elements" if kind in ("integrators", "multipliers") else kind.split()[0]] += 1
            else:
                seen["clamp"] += bool(want.report.clamp_warnings)
                n_exact = sum(lowres_code_for(w) is not None for _, w in want.lane_weights)
                seen["overflow"] += n_exact > len(spec.lowres_lanes)
        assert min(seen.values()) > 0, seen

    def test_compiled_programs(self, lorenz_graph):
        # nine exact 10 * terms against eight low-res lanes, and a 28 * term that clamps
        lines = [f"fn s{i}(t);" for i in range(8)]
        lines.append("let diff[s0, t] = 10 * s1 + 10 * s2 + 28 * s0 - 0.3 * s3;")
        lines += [f"let diff[s{i}, t] = 10 * s{(i + 1) % 8};" for i in range(1, 8)]
        lines += [f"let s{i}(t: 0) = 0.1;" for i in range(8)]
        cases = [(lorenz_graph, lucidac_spec()), (graph_from("\n".join(lines)), lucidac_spec()),
                 (graph_from(support.synthetic_large_program(500)), redac_tile_spec())]
        for graph, spec in cases:
            assert_same_routing(route_design(graph, spec), two_pass_route_design(graph, spec), True)
