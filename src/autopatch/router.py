"""Mapping a circuit graph onto a machine: elements to rows, edges to
lanes, weights to coefficient codes.

Elements of each kind take ascending slots in graph node order, and
`MachineSpec.out_row`/`in_row` give their rows.  Every edge of the graph
occupies exactly one lane (source row, coefficient, destination row), taken
in (source row, dest row, weight) order: an edge whose weight is one of the
eight exact low-res values takes the next low-res lane while any remain,
every other edge the next high-res lane, where its weight is quantized.  So
identical inputs produce bit-identical configurations, and clamp warnings
come in lane order.
"""

from __future__ import annotations

from typing import NamedTuple

from .circuit import CircuitGraph
from .machine import (
    CoefficientCode,
    MachineConfig,
    MachineSpec,
    NodeKind,
    Port,
    clamp_note,
    decode,
    lowres_code_for,
    quantize_highres_info,
    validate_config,
)


class CapacityError(ValueError):
    def __init__(self, kind: str, needed: int, available: int):
        super().__init__(f"{kind}: need {needed}, have {available}")
        self.kind = kind
        self.needed = needed
        self.available = available


class PlaceRouteReport(NamedTuple):
    integrators_used: int
    multipliers_used: int
    lanes_used: int
    lowres_lanes_used: int
    clamp_warnings: tuple[str, ...]
    quantization_errors: tuple[tuple[int, float], ...]  # (lane, |decoded - requested|)


class RoutedDesign(NamedTuple):
    """The routed configuration and its report, plus the pre-quantization
    weight per lane (needed to drive the simulator with quantization
    bypassed)."""

    config: MachineConfig
    report: PlaceRouteReport
    lane_weights: tuple[tuple[int, float], ...]

    def lane_weight_map(self) -> dict[int, float]:
        return dict(self.lane_weights)


def route_design(graph: CircuitGraph, spec: MachineSpec) -> RoutedDesign:
    """Place every element, route every edge, quantize every weight."""
    integrators = graph.nodes_of_kind(NodeKind.INTEGRATOR)
    multipliers = graph.nodes_of_kind(NodeKind.MULTIPLIER)
    if len(integrators) > spec.n_integrators:
        raise CapacityError("integrators", len(integrators), spec.n_integrators)
    if len(multipliers) > spec.n_multipliers:
        raise CapacityError("multipliers", len(multipliers), spec.n_multipliers)

    # elements of each kind in graph node order onto ascending slots
    out_row: dict[int, int] = {}
    in_row: dict[tuple[int, Port], int] = {}
    for kind, nodes, ports in (
        (NodeKind.INTEGRATOR, integrators, (Port.INTEGRATOR_IN,)),
        (NodeKind.MULTIPLIER, multipliers, (Port.MUL_A, Port.MUL_B)),
        (NodeKind.CONST_ONE, graph.nodes_of_kind(NodeKind.CONST_ONE), ()),
    ):
        for k, node in enumerate(nodes):
            out_row[node.id] = spec.out_row(kind, k)
            for port in ports:
                in_row[node.id, port] = spec.in_row(port, k)
    initial = [node.initial for node in integrators] + [0.0] * (spec.n_integrators - len(integrators))

    routed = sorted((out_row[e.src], in_row[e.dst, e.port], e.weight) for e in graph.edges)
    if len({(src, dst) for src, dst, _ in routed}) != len(routed):
        raise ValueError("parallel edges between one (source, destination) pair were not merged upstream")
    if len(routed) > spec.n_lanes:
        raise CapacityError("lanes", len(routed), spec.n_lanes)
    n_high = spec.lowres_lanes.start
    codes = [lowres_code_for(w) for _, _, w in routed]
    n_exact = len(codes) - codes.count(None)
    lowres_used = min(n_exact, len(spec.lowres_lanes))
    if len(routed) - lowres_used > n_high:
        raise CapacityError("high-res lanes", len(routed) - lowres_used, n_high)

    u = [None] * spec.n_lanes
    d = [None] * spec.n_lanes
    c = list(MachineConfig.empty(spec).coefficients)
    low_pool, high_pool = iter(spec.lowres_lanes), iter(range(n_high))
    clamp_notes: list[str] = []
    lane_weights: list[tuple[int, float]] = []
    for (src, dst, weight), code in zip(routed, codes):
        lane = None if code is None else next(low_pool, None)
        if lane is None:
            lane = next(high_pool)
            code, clamped = quantize_highres_info(weight)
            c[lane] = CoefficientCode.highres(code)
            if clamped:
                clamp_notes.append(f"lane {lane}: {clamp_note(weight, code)}")
        else:
            c[lane] = CoefficientCode.lowres(code)
        u[lane] = src
        d[lane] = dst
        lane_weights.append((lane, weight))

    config = MachineConfig(
        spec=spec,
        u_source=tuple(u),
        coefficients=tuple(c),
        i_dest=tuple(d),
        initial_states=tuple(initial),
        taps=tuple((name, out_row[node_id]) for name, node_id in graph.taps),
    )
    assert not (problems := validate_config(config)), f"routed configuration failed validation: {problems}"

    lane_weights.sort()
    report = PlaceRouteReport(
        integrators_used=len(integrators),
        multipliers_used=len(multipliers),
        lanes_used=len(routed),
        lowres_lanes_used=lowres_used,
        clamp_warnings=tuple(clamp_notes),
        quantization_errors=tuple((lane, abs(decode(c[lane]) - weight)) for lane, weight in lane_weights),
    )
    return RoutedDesign(config, report, tuple(lane_weights))


def format_report(report: PlaceRouteReport) -> str:
    lines = [
        f"integrators_used: {report.integrators_used}",
        f"multipliers_used: {report.multipliers_used}",
        f"lanes_used: {report.lanes_used}",
        f"lowres_lanes_used: {report.lowres_lanes_used}",
        f"clamp_warnings: [{'; '.join(str(w) for w in report.clamp_warnings)}]",
        "quantization_errors: {" + ", ".join(f"{lane}: {err!r}" for lane, err in report.quantization_errors) + "}",
    ]
    return "\n".join(lines)
