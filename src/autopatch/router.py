"""Mapping a circuit graph onto a machine: elements to rows, edges to
lanes, weights to coefficient codes.

Every edge of the graph occupies exactly one lane (source row, coefficient,
destination row).  Edges whose weight is one of the eight exact low-res
values are steered onto low-res lanes while any remain; everything else is
quantized onto a high-res lane.  All orderings are fixed so that identical
inputs produce bit-identical configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import CircuitGraph, NodeKind, Port
from .machine import (
    CoefficientCode,
    MachineConfig,
    MachineSpec,
    decode,
    lowres_code_for,
    quantize_highres_info,
    validate_config,
)


class CapacityError(Exception):
    def __init__(self, kind: str, needed: int, available: int):
        super().__init__(f"{kind}: need {needed}, have {available}")
        self.kind = kind
        self.needed = needed
        self.available = available


@dataclass(frozen=True)
class PlaceRouteReport:
    integrators_used: int
    multipliers_used: int
    lanes_used: int
    lowres_lanes_used: int
    clamp_warnings: tuple[str, ...]
    quantization_errors: tuple[tuple[int, float], ...]  # (lane, |decoded - requested|)


@dataclass(frozen=True)
class RoutedDesign:
    """The routed configuration and its report, plus the pre-quantization
    weight per lane (needed to drive the simulator with quantization
    bypassed)."""

    config: MachineConfig
    report: PlaceRouteReport
    lane_weights: tuple[tuple[int, float], ...]

    def lane_weight_map(self) -> dict[int, float]:
        return dict(self.lane_weights)


def assign_lane_kinds(edges: list[tuple[int, int, float]], spec: MachineSpec) -> list[int]:
    """Assign one lane per (source row, dest row, weight) edge.

    Edges are processed in (source row, dest row, weight) order; exact
    low-res weights take ascending low-res lanes while any remain and fall
    back to high-res lanes afterwards, never the other way around.  Returns
    lane indices parallel to the input list.
    """
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


def route_design(graph: CircuitGraph, spec: MachineSpec) -> RoutedDesign:
    """Place every element, route every edge, quantize every weight."""
    integrators = graph.nodes_of_kind(NodeKind.INTEGRATOR)
    multipliers = graph.nodes_of_kind(NodeKind.MULTIPLIER)
    if len(integrators) > spec.n_integrators:
        raise CapacityError("integrators", len(integrators), spec.n_integrators)
    if len(multipliers) > spec.n_multipliers:
        raise CapacityError("multipliers", len(multipliers), spec.n_multipliers)

    # elements in graph node order onto ascending slots
    out_row: dict[int, int] = {}
    in_row: dict[tuple[int, Port], int] = {}
    initial = [0.0] * spec.n_integrators
    for k, node in enumerate(integrators):
        initial[k] = node.initial
        out_row[node.id] = spec.integrator_out_row(k)
        in_row[node.id, Port.INTEGRATOR_IN] = spec.integrator_in_row(k)
    for k, node in enumerate(multipliers):
        out_row[node.id] = spec.multiplier_out_row(k)
        in_row[node.id, Port.MUL_A] = spec.mul_a_row(k)
        in_row[node.id, Port.MUL_B] = spec.mul_b_row(k)
    for node in graph.nodes_of_kind(NodeKind.CONST_ONE):
        out_row[node.id] = spec.const_row()

    routed = [(out_row[e.src], in_row[e.dst, e.port], e.weight) for e in graph.edges]
    pairs = [(src, dst) for src, dst, _ in routed]
    if len(set(pairs)) != len(pairs):
        raise ValueError("parallel edges between one (source, destination) pair were not merged upstream")
    lanes = assign_lane_kinds(routed, spec)

    config = MachineConfig.empty(spec)
    u = list(config.u_source)
    c = list(config.coefficients)
    d = list(config.i_dest)
    clamp_notes: list[str] = []
    quant_errors: list[tuple[int, float]] = []
    lane_weights: list[tuple[int, float]] = []
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
                clamp_notes.append(
                    f"lane {lane}: coefficient {weight} clamps to code {code} ({decode(c[lane])})"
                )
        quant_errors.append((lane, abs(decode(c[lane]) - weight)))
        lane_weights.append((lane, weight))

    taps = tuple((name, out_row[node_id]) for name, node_id in graph.taps)

    config = MachineConfig(
        spec=spec,
        u_source=tuple(u),
        coefficients=tuple(c),
        i_dest=tuple(d),
        initial_states=tuple(initial),
        taps=taps,
    )
    problems = validate_config(config)
    assert not problems, f"routed configuration failed validation: {problems}"

    quant_errors.sort()
    lane_weights.sort()
    report = PlaceRouteReport(
        integrators_used=len(integrators),
        multipliers_used=len(multipliers),
        lanes_used=len(routed),
        lowres_lanes_used=lowres_used,
        clamp_warnings=tuple(clamp_notes),
        quantization_errors=tuple(quant_errors),
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
