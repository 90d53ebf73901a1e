"""Polynomial normalization and summer-free circuit construction.

`normalize` expands each derivative into a flat weighted sum of monomials;
a term is a weight and a monomial's sorted tuple of state-variable factors,
with the empty tuple for the constant one.  Signs fold into the weights, so
no inverter or summer elements are ever needed.  `build_circuit` turns the
expanded system into a directed graph of integrators and multipliers where
every weighted term is a single edge; additions happen implicitly wherever
several edges land on the same input port.

`Term`, `Node` and `Edge` are plain `__slots__` records (`_Record`: a
field-wise equality, hash and repr), each with its own `__init__`, and are
not frozen: a frozen `__init__` sets each field through
`object.__setattr__`, which makes it about three times as costly, a
NamedTuple's `__new__` costs almost twice as much, and a 500-state system
builds thousands of these records per compile.  No code assigns to their
fields.  `PolySystem` and `CircuitGraph`, built once per compile, are
NamedTuples.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, NamedTuple, Optional

from . import _Record
from .dsl import Const, Expr, Mul, Neg, Program, Sub, Var, postorder
from .machine import LoopError, NodeKind, Port, dependency_order

# Most monomials one expansion may hold at any point.  Each term of a
# derivative needs a lane of its own, and the binary formats address at most
# this many lanes (`machine.MAX_LANES`), so no machine could route more.
MAX_TERMS = 65536


class Term(_Record):
    __slots__ = ("weight", "factors")

    def __init__(self, weight: float, factors: tuple[str, ...]):
        self.weight = weight
        self.factors = factors  # sorted; () is the constant one


class PolySystem(NamedTuple):
    """Expanded ODE system: per state a duplicate-free list of weighted
    monomials (ordered by degree, then factors; zero weights dropped)."""

    states: tuple[str, ...]
    rhs: tuple[tuple[Term, ...], ...]
    initial: tuple[float, ...]

    def term_count(self) -> int:
        return sum(len(terms) for terms in self.rhs)


def _times(m1: tuple, m2: tuple) -> tuple:
    """Product of two monomials keyed by sorted (variable, power) pairs.
    A pair whose variable is in one operand only is reused, not copied, so
    a key holds about as much memory as the factor tuple it stands for."""
    if len(m1) == len(m2) == 1:  # a power of one variable times another's
        (a, p), (b, q) = m1[0], m2[0]
        if a == b:
            return ((a, p + q),)
        return m1 + m2 if a < b else m2 + m1
    pairs = {pair[0]: pair for pair in m1}
    for pair in m2:
        var = pair[0]
        have = pairs.get(var)
        pairs[var] = pair if have is None else (var, have[1] + pair[1])
    return tuple(sorted(pairs.values()))


def _expand(expr: Expr, state: str) -> dict[tuple[str, ...], float]:
    """Weight per sorted factor tuple, folded over a post-order walk.
    Refuses once an operand or a partial product exceeds MAX_TERMS.

    While folding, a monomial is keyed by its sorted (variable, power)
    pairs (`X*X*Y` is `(("X", 2), ("Y", 1))`), so a product costs time in
    the number of distinct variables, not in the degree: k copies of
    `(1 + X)` take O(k^2) work, not O(k^3).  The keys returned are sorted
    factor tuples again.
    """
    done: list[dict[tuple, float]] = []  # expanded operands
    for node in postorder(expr):
        kind = type(node)
        if kind is Var:
            done.append({((node.name, 1),): 1.0})
        elif kind is Const:
            done.append({(): node.value})
        elif kind is Mul:
            right, left = done.pop(), done.pop()
            out: dict[tuple, float] = {}
            for m1, w1 in left.items():
                for m2, w2 in right.items():
                    key = _times(m1, m2) if m1 and m2 else m1 or m2
                    out[key] = out.get(key, 0.0) + w1 * w2
                if len(out) > MAX_TERMS:
                    break
            done.append(out)
        elif kind is Neg:
            done.append({m: -w for m, w in done.pop().items()})
        else:  # Add or Sub
            right, left = done.pop(), done[-1]
            sign = -1.0 if kind is Sub else 1.0
            for m, w in right.items():
                left[m] = left.get(m, 0.0) + sign * w
        if len(done[-1]) > MAX_TERMS:
            raise ValueError(f"derivative of {state} expands to more than {MAX_TERMS} monomials")
    return {sum(((var,) * power for var, power in m), ()): w for m, w in done.pop().items()}


def _monomial_text(factors: tuple[str, ...]) -> str:
    """A sorted factor tuple as text, a repeated factor as a power:
    `X^2*Y`, `X^300`, or `1` for the constant one."""
    return "*".join(f if p == 1 else f"{f}^{p}" for f, p in Counter(factors).items()) or "1"


def _to_terms(weights: Mapping[tuple[str, ...], float]) -> tuple[Term, ...]:
    terms = []
    for m, w in weights.items():
        if not math.isfinite(w):
            raise ValueError(f"constant folding overflowed for monomial {_monomial_text(m)}")
        if w != 0.0:
            terms.append(Term(w, m))
    terms.sort(key=lambda t: (len(t.factors), t.factors))
    return tuple(terms)


def normalize(program: Program) -> PolySystem:
    """Expand every derivative into merged weight*monomial form.

    Duplicate monomials are merged and exact-zero weights dropped, so
    `dZ/dt = Z - Z` yields an empty right-hand side.
    """
    return PolySystem(
        states=program.state_names(),
        rhs=tuple(_to_terms(_expand(s.derivative, s.name)) for s in program.states),
        initial=tuple(s.initial_value for s in program.states),
    )


# --------------------------------------------------------------------------
# circuit graph


class Node(_Record):
    __slots__ = ("id", "kind", "label", "initial")

    def __init__(self, id: int, kind: NodeKind, label: str, initial: float = 0.0):
        self.id = id
        self.kind = kind
        self.label = label
        self.initial = initial  # integrators only


class Edge(_Record):
    __slots__ = ("src", "dst", "port", "weight")

    def __init__(self, src: int, dst: int, port: Port, weight: float):
        self.src = src
        self.dst = dst
        self.port = port
        self.weight = weight


class CircuitGraph(NamedTuple):
    """Directed computing-element graph.  Node ids are dense; edges are
    stored sorted by (src, dst, port).  `taps` binds each out/plot signal
    name to its integrator node."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    taps: tuple[tuple[str, int], ...] = ()

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes if n.kind is kind]


class DegreeError(ValueError):
    def __init__(self, factors: tuple[str, ...], max_degree: int):
        super().__init__(f"monomial {_monomial_text(factors)} has degree {len(factors)} > maximum {max_degree}")
        self.factors = factors
        self.max_degree = max_degree


MAX_DEGREE = 4  # highest monomial degree `build_circuit` accepts


def build_circuit(system: PolySystem, program: Optional[Program] = None) -> CircuitGraph:
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
            if len(term.factors) > MAX_DEGREE:
                raise DegreeError(term.factors, MAX_DEGREE)

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
            factors = term.factors
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

    def source_of(factors: tuple[str, ...]) -> int:
        if not factors:
            assert const_id is not None
            return const_id
        if len(factors) == 1:
            return int_id[factors[0]]
        return mul_id[factors]

    for name, terms in zip(system.states, system.rhs):
        for term in terms:
            edges.append(Edge(source_of(term.factors), int_id[name], Port.INTEGRATOR_IN, term.weight))

    value = {port: port.value for port in Port}  # a dict lookup costs a third of reading `.value`
    edges.sort(key=lambda e: (e.src, e.dst, value[e.port]))

    taps = () if program is None else tuple((name, int_id[name]) for name in program.signals())
    return CircuitGraph(tuple(nodes), tuple(edges), taps)


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
