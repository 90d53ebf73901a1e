"""Polynomial normalization and summer-free circuit construction.

`normalize` expands each derivative into a flat weighted sum of monomials
(products of state variables); signs fold into the weights, so no inverter
or summer elements are ever needed.  `build_circuit` turns the expanded
system into a directed graph of integrators and multipliers where every
weighted term is a single edge; additions happen implicitly wherever
several edges land on the same input port.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

from .dsl import Add, Const, Expr, Mul, Neg, Program, Sub, Var, postorder


@dataclass(frozen=True)
class Monomial:
    """A product of state variables, canonically sorted; degree 0 is the
    constant-one signal."""

    factors: tuple[str, ...]

    @staticmethod
    def of(*names: str) -> "Monomial":
        return Monomial(tuple(sorted(names)))

    @property
    def degree(self) -> int:
        return len(self.factors)

    def sort_key(self) -> tuple[int, tuple[str, ...]]:
        return (self.degree, self.factors)

    def __str__(self) -> str:
        return "*".join(self.factors) if self.factors else "1"


ONE = Monomial(())


@dataclass(frozen=True)
class Term:
    weight: float
    monomial: Monomial


@dataclass(frozen=True)
class PolySystem:
    """Expanded ODE system: per state a duplicate-free list of weighted
    monomials (canonical order, zero weights dropped)."""

    states: tuple[str, ...]
    rhs: tuple[tuple[Term, ...], ...]
    initial: tuple[float, ...]

    def term_count(self) -> int:
        return sum(len(terms) for terms in self.rhs)


def _expand(expr: Expr) -> dict[tuple[str, ...], float]:
    """Weight per sorted factor tuple, folded over a post-order walk."""
    done: list[dict[tuple[str, ...], float]] = []  # expanded operands
    for node in postorder(expr):
        if isinstance(node, Const):
            done.append({(): node.value})
        elif isinstance(node, Var):
            done.append({(node.name,): 1.0})
        elif isinstance(node, Neg):
            done.append({m: -w for m, w in done.pop().items()})
        elif isinstance(node, (Add, Sub)):
            right, left = done.pop(), done[-1]
            sign = -1.0 if isinstance(node, Sub) else 1.0
            for m, w in right.items():
                left[m] = left.get(m, 0.0) + sign * w
        else:
            right, left = done.pop(), done.pop()
            out: dict[tuple[str, ...], float] = {}
            for m1, w1 in left.items():
                for m2, w2 in right.items():
                    key = tuple(sorted(m1 + m2))
                    out[key] = out.get(key, 0.0) + w1 * w2
            done.append(out)
    return done.pop()


def _to_terms(weights: Mapping[tuple[str, ...], float]) -> tuple[Term, ...]:
    for m, w in weights.items():
        if not math.isfinite(w):
            raise ValueError(f"constant folding overflowed for monomial {Monomial(m)}")
    terms = [Term(w, Monomial(m)) for m, w in weights.items() if w != 0.0]
    terms.sort(key=lambda t: t.monomial.sort_key())
    return tuple(terms)


def normalize(program: Program) -> PolySystem:
    """Expand every derivative into merged weight*monomial form.

    Duplicate monomials are merged and exact-zero weights dropped, so
    `dZ/dt = Z - Z` yields an empty right-hand side.
    """
    return PolySystem(
        states=program.state_names(),
        rhs=tuple(_to_terms(_expand(s.derivative)) for s in program.states),
        initial=tuple(s.initial_value for s in program.states),
    )


def evaluate_expr(expr: Expr, values: Mapping[str, float]) -> float:
    """The expression's value at `values`, folded over a post-order walk."""
    done: list[float] = []  # operand values
    for node in postorder(expr):
        if isinstance(node, Const):
            done.append(node.value)
        elif isinstance(node, Var):
            done.append(values[node.name])
        elif isinstance(node, Neg):
            done.append(-done.pop())
        else:
            right, left = done.pop(), done.pop()
            if isinstance(node, Add):
                done.append(left + right)
            elif isinstance(node, Sub):
                done.append(left - right)
            else:
                done.append(left * right)
    return done.pop()


def evaluate_terms(terms: Iterable[Term], values: Mapping[str, float]) -> float:
    acc = 0.0
    for term in terms:
        prod = 1.0
        for name in term.monomial.factors:
            prod *= values[name]
        acc += term.weight * prod
    return acc


# --------------------------------------------------------------------------
# circuit graph


class NodeKind(Enum):
    INTEGRATOR = "Integrator"
    MULTIPLIER = "Multiplier"
    CONST_ONE = "ConstOne"


class Port(Enum):
    INTEGRATOR_IN = "IntegratorIn"
    MUL_A = "MulA"
    MUL_B = "MulB"


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    label: str
    initial: float = 0.0  # integrators only


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    port: Port
    weight: float


@dataclass(frozen=True)
class CircuitGraph:
    """Directed computing-element graph.  Node ids are dense; edges are
    stored sorted by (src, dst, port).  `taps` binds each out/plot signal
    name to its integrator node."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    taps: tuple[tuple[str, int], ...] = ()
    outputs: tuple[str, ...] = ()
    plots: tuple[tuple[str, str], ...] = ()

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes if n.kind is kind]

    def in_edges(self, node_id: int) -> list[Edge]:
        return [e for e in self.edges if e.dst == node_id]


class DegreeError(Exception):
    def __init__(self, monomial: Monomial, max_degree: int):
        super().__init__(f"monomial {monomial} has degree {monomial.degree} > maximum {max_degree}")
        self.monomial = monomial
        self.max_degree = max_degree


class LoopError(Exception):
    """A cycle with no integrator on it (an algebraic loop).  `cycle`
    lists its elements in signal-flow order, the first repeated last."""

    def __init__(self, cycle: list):
        super().__init__(f"algebraic loop without an integrator: {' -> '.join(map(str, cycle))}")
        self.cycle = cycle


def dependency_order(reads: Mapping[int, Iterable[int]]) -> list[int]:
    """Order the keys of `reads` so that each comes after every key it
    reads.  Values that are not keys are inputs and impose no order; among
    keys whose reads are all placed, the smallest goes first.  Raises
    LoopError naming one cycle when no such order exists.
    """
    pending = {k: {r for r in deps if r in reads} for k, deps in reads.items()}
    readers: dict[int, list[int]] = {k: [] for k in reads}
    for k, deps in pending.items():
        for r in deps:
            readers[r].append(k)
    ready = [k for k, deps in pending.items() if not deps]
    heapq.heapify(ready)
    order = []
    while ready:
        k = heapq.heappop(ready)
        order.append(k)
        for reader in readers[k]:
            pending[reader].discard(k)
            if not pending[reader]:
                heapq.heappush(ready, reader)
    if len(order) == len(reads):
        return order
    # every key left over still reads another left-over key, so following
    # those reads from any of them must come back to a key already seen
    key = min(k for k, deps in pending.items() if deps)
    path: list[int] = []
    seen: dict[int, int] = {}
    while key not in seen:
        seen[key] = len(path)
        path.append(key)
        key = min(pending[key])
    raise LoopError((path[seen[key]:] + [key])[::-1])


def build_circuit(
    system: PolySystem,
    program: Optional[Program] = None,
    max_degree: int = 4,
) -> CircuitGraph:
    """Construct the circuit graph for an expanded system.

    One integrator per state.  Every distinct degree>=2 product gets one
    multiplier, shared across all its uses; higher-degree monomials become
    left-deep multiplier chains over the canonically ordered factors, with
    chain prefixes shared as well.  Feed edges into multiplier ports carry
    weight 1; each term of a right-hand side becomes exactly one weighted
    edge into its state's integrator.  A single constant-one source node is
    created only if some degree-0 term survived expansion.
    """
    for terms in system.rhs:
        for term in terms:
            if term.monomial.degree > max_degree:
                raise DegreeError(term.monomial, max_degree)

    nodes: list[Node] = []
    int_id = {}
    for name, init in zip(system.states, system.initial):
        int_id[name] = len(nodes)
        nodes.append(Node(len(nodes), NodeKind.INTEGRATOR, name, init))

    # all chain prefixes (length >= 2) of every product monomial, shared
    products: set[tuple[str, ...]] = set()
    needs_const = False
    for terms in system.rhs:
        for term in terms:
            factors = term.monomial.factors
            if not factors:
                needs_const = True
            for k in range(2, len(factors) + 1):
                products.add(factors[:k])

    mul_id = {}
    for prefix in sorted(products, key=lambda p: (len(p), p)):
        mul_id[prefix] = len(nodes)
        nodes.append(Node(len(nodes), NodeKind.MULTIPLIER, "*".join(prefix)))

    const_id = None
    if needs_const:
        const_id = len(nodes)
        nodes.append(Node(len(nodes), NodeKind.CONST_ONE, "1"))

    edges: list[Edge] = []
    for prefix, mid in mul_id.items():
        if len(prefix) == 2:
            a_src = int_id[prefix[0]]
        else:
            a_src = mul_id[prefix[:-1]]
        edges.append(Edge(a_src, mid, Port.MUL_A, 1.0))
        edges.append(Edge(int_id[prefix[-1]], mid, Port.MUL_B, 1.0))

    def source_of(monomial: Monomial) -> int:
        if monomial.degree == 0:
            assert const_id is not None
            return const_id
        if monomial.degree == 1:
            return int_id[monomial.factors[0]]
        return mul_id[monomial.factors]

    for name, terms in zip(system.states, system.rhs):
        for term in terms:
            edges.append(Edge(source_of(term.monomial), int_id[name], Port.INTEGRATOR_IN, term.weight))

    edges.sort(key=lambda e: (e.src, e.dst, e.port.value))

    taps: list[tuple[str, int]] = []
    outputs: tuple[str, ...] = ()
    plots: tuple[tuple[str, str], ...] = ()
    if program is not None:
        outputs = program.outputs
        plots = program.plots
        seen = []
        for name in list(program.outputs) + [ax for pair in program.plots for ax in pair]:
            if name not in seen:
                seen.append(name)
                taps.append((name, int_id[name]))

    return CircuitGraph(tuple(nodes), tuple(edges), tuple(taps), outputs, plots)


def detect_algebraic_loops(graph: CircuitGraph) -> None:
    """Raise LoopError if some cycle avoids every integrator.

    Integrators break cycles (their output is state, not a combinational
    function of their input), so only the subgraph of non-integrator nodes
    needs to be acyclic.
    """
    reads: dict[int, list[int]] = {n.id: [] for n in graph.nodes if n.kind is not NodeKind.INTEGRATOR}
    for e in graph.edges:
        if e.dst in reads:
            reads[e.dst].append(e.src)
    dependency_order(reads)


def format_circuit(graph: CircuitGraph) -> str:
    """Deterministic text dump: one NODE line per node (by id), one EDGE
    line per edge."""
    lines = []
    for n in graph.nodes:
        if n.kind is NodeKind.INTEGRATOR:
            lines.append(f"NODE {n.id} {n.kind.value} ic={n.initial!r}")
        else:
            lines.append(f"NODE {n.id} {n.kind.value}")
    for e in graph.edges:
        lines.append(f"EDGE {e.src} -> {e.dst}.{e.port.value} w={e.weight!r}")
    return "\n".join(lines)
