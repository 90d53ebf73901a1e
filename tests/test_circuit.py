import heapq
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from autopatch import circuit
from autopatch.circuit import (
    DegreeError,
    Edge,
    LoopError,
    CircuitGraph,
    Node,
    NodeKind,
    Port,
    Term,
    build_circuit,
    dependency_order,
    detect_algebraic_loops,
    format_circuit,
    normalize,
)
from autopatch.dsl import Add, Const, Mul, Neg, Program, StateDef, Sub, Var, compile_source, postorder


def program_for(**derivs):
    """One-liner test programs: program_for(X='1.8 * Y - X', Y='X')."""
    lines = [f"fn {name}(t);" for name in derivs]
    lines += [f"let diff[{name}, t] = {rhs};" for name, rhs in derivs.items()]
    lines += [f"let {name}(t: 0) = 0;" for name in derivs]
    return compile_source("\n".join(lines))


def evaluate_expr(expr, values):
    """The expression's value at `values`, folded over a post-order walk."""
    done = []  # operand values
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


def evaluate_terms(terms, values):
    """The value of a weighted sum of monomials at `values`."""
    acc = 0.0
    for term in terms:
        prod = 1.0
        for name in term.factors:
            prod *= values[name]
        acc += term.weight * prod
    return acc


def rhs_terms(system, name):
    return {term.factors: term.weight for term in system.rhs[system.states.index(name)]}


class TestNormalize:
    def test_lorenz_y_expansion(self, lorenz_system):
        terms = rhs_terms(lorenz_system, "Y")
        assert terms == {
            ("X",): 1.56,
            ("Y",): -0.1,
            ("X", "Z"): -(1.56 * 2.678),
        }
        assert terms[("X", "Z")] == -4.17768

    def test_lorenz_x_terms(self, lorenz_system):
        assert rhs_terms(lorenz_system, "X") == {("Y",): 1.8, ("X",): -1.0}

    def test_cancellation_drops_term(self):
        system = normalize(program_for(Z="Z - Z"))
        assert system.rhs == ((),)

    def test_constant_fold(self):
        system = normalize(program_for(X="(1 - 2) * X"))
        assert rhs_terms(system, "X") == {("X",): -1.0}

    def test_surviving_constant_term(self):
        system = normalize(program_for(X="1 - X"))
        assert rhs_terms(system, "X") == {(): 1.0, ("X",): -1.0}

    def test_terms_in_canonical_order(self, lorenz_system):
        for terms in lorenz_system.rhs:
            keys = [(len(t.factors), t.factors) for t in terms]
            assert keys == sorted(keys)

    def test_idempotent_on_expanded_form(self, lorenz_system):
        # rebuild an expression from the expanded terms; expanding again
        # must reproduce the identical system
        states = []
        for name, terms, init in zip(lorenz_system.states, lorenz_system.rhs, lorenz_system.initial):
            expr = None
            for term in terms:
                prod = Const(term.weight)
                for factor in term.factors:
                    prod = Mul(prod, Var(factor))
                expr = prod if expr is None else Add(expr, prod)
            states.append(StateDef(name, "t", expr if expr is not None else Const(0.0), init))
        again = normalize(Program(tuple(states), (), ()))
        assert again == lorenz_system

    def test_weight_overflow_detected(self):
        big = "9" * 300  # finite alone, overflows when squared
        with pytest.raises(ValueError, match="overflow"):
            normalize(program_for(X=f"{big} * {big} * X"))

    def test_random_programs_evaluate_identically(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            names = ["A", "B", "C", "D", "E"][: rng.randint(1, 5)]
            exprs = [support.random_polynomial_expr(rng, names) for _ in names]
            program = Program(
                tuple(StateDef(n, "t", e, 0.0) for n, e in zip(names, exprs)),
                (),
                (),
            )
            system = normalize(program)
            for _ in range(100):
                point = {n: rng.uniform(-1, 1) for n in names}
                for expr, terms in zip(exprs, system.rhs):
                    direct = evaluate_expr(expr, point)
                    expanded = evaluate_terms(terms, point)
                    assert abs(direct - expanded) <= 1e-12 * max(1.0, abs(direct), abs(expanded))


def count_kinds(graph):
    return {
        kind: len(graph.nodes_of_kind(kind))
        for kind in (NodeKind.INTEGRATOR, NodeKind.MULTIPLIER, NodeKind.CONST_ONE)
    }


def expected_subproducts(system):
    """Independent oracle: distinct chain prefixes of length >= 2."""
    prefixes = set()
    for terms in system.rhs:
        for term in terms:
            f = term.factors
            for k in range(2, len(f) + 1):
                prefixes.add(f[:k])
    return prefixes


class TestBuildCircuit:
    def test_lorenz_counts(self, lorenz_system, lorenz_graph):
        counts = count_kinds(lorenz_graph)
        assert counts[NodeKind.INTEGRATOR] == 3
        assert counts[NodeKind.MULTIPLIER] == 2
        assert counts[NodeKind.CONST_ONE] == 0
        assert len(lorenz_graph.edges) == 11

    def test_lorenz_against_graph_walk_oracle(self, lorenz_system, lorenz_graph):
        products = expected_subproducts(lorenz_system)
        assert len(lorenz_graph.nodes_of_kind(NodeKind.MULTIPLIER)) == len(products)
        # edges = one per term + two per multiplier
        assert len(lorenz_graph.edges) == lorenz_system.term_count() + 2 * len(products)
        for mul in lorenz_graph.nodes_of_kind(NodeKind.MULTIPLIER):
            ports = [e.port for e in lorenz_graph.edges if e.dst == mul.id]
            assert ports.count(Port.MUL_A) >= 1
            assert ports.count(Port.MUL_B) >= 1

    def test_no_summer_nodes_anywhere(self, lorenz_graph):
        for node in lorenz_graph.nodes:
            assert node.kind in (NodeKind.INTEGRATOR, NodeKind.MULTIPLIER, NodeKind.CONST_ONE)
            assert "summer" not in node.label.lower()

    def test_multiplier_shared_across_uses(self):
        system = normalize(program_for(X="X * Z", Z="2 * X * Z"))
        graph = build_circuit(system)
        assert count_kinds(graph)[NodeKind.MULTIPLIER] == 1

    def test_decay_self_edge(self):
        system = normalize(program_for(X="-X"))
        graph = build_circuit(system)
        assert count_kinds(graph) == {NodeKind.INTEGRATOR: 1, NodeKind.MULTIPLIER: 0, NodeKind.CONST_ONE: 0}
        assert graph.edges == (Edge(0, 0, Port.INTEGRATOR_IN, -1.0),)

    def test_high_degree_chain_is_left_deep(self):
        system = normalize(program_for(X="X * X * X * Y", Y="-Y"))
        graph = build_circuit(system)
        muls = {n.label: n.id for n in graph.nodes_of_kind(NodeKind.MULTIPLIER)}
        assert set(muls) == {"X*X", "X*X*X", "X*X*X*Y"}
        chain_a = [e for e in graph.edges if e.dst == muls["X*X*X*Y"] and e.port is Port.MUL_A]
        assert chain_a == [Edge(muls["X*X*X"], muls["X*X*X*Y"], Port.MUL_A, 1.0)]

    def test_chain_prefixes_shared(self):
        system = normalize(program_for(X="X * X * Y", Y="X * X"))
        graph = build_circuit(system)
        assert count_kinds(graph)[NodeKind.MULTIPLIER] == len(expected_subproducts(system)) == 2

    def test_feed_edges_have_unit_weight(self, lorenz_graph):
        for edge in lorenz_graph.edges:
            if edge.port in (Port.MUL_A, Port.MUL_B):
                assert edge.weight == 1.0

    def test_const_node_only_when_needed(self):
        with_const = build_circuit(normalize(program_for(X="1 - X")))
        assert count_kinds(with_const)[NodeKind.CONST_ONE] == 1
        without = build_circuit(normalize(program_for(X="-X")))
        assert count_kinds(without)[NodeKind.CONST_ONE] == 0

    def test_degree_cap(self, monkeypatch):
        system = normalize(program_for(X="X * X * X * X * X"))
        with pytest.raises(DegreeError):
            build_circuit(system)
        monkeypatch.setattr(circuit, "MAX_DEGREE", 5)
        assert build_circuit(system) is not None

    def test_taps_bound_to_integrators(self, lorenz_graph):
        taps = dict(lorenz_graph.taps)
        nodes = {n.id: n for n in lorenz_graph.nodes}
        assert set(taps) == {"X", "Y"}
        for name, node_id in taps.items():
            assert nodes[node_id].kind is NodeKind.INTEGRATOR
            assert nodes[node_id].label == name

    def test_taps_follow_program_signals(self):
        program = compile_source(
            "fn X(t); fn Y(t); fn Z(t);"
            " let diff[X, t] = Y; let diff[Y, t] = Z; let diff[Z, t] = -X;"
            " let X(t: 0) = 0; let Y(t: 0) = 0; let Z(t: 0) = 0;"
            " out X(t); out Y(t); plot(x: Y(t), y: X(t)); plot(x: X(t), y: Z(t));"
        )
        assert program.signals() == ("X", "Y", "Z")
        graph = build_circuit(normalize(program), program)
        assert [name for name, _ in graph.taps] == ["X", "Y", "Z"]

    def test_deterministic_construction(self, lorenz_system, lorenz_program):
        a = build_circuit(lorenz_system, lorenz_program)
        b = build_circuit(lorenz_system, lorenz_program)
        assert a == b


def heap_dependency_order(reads):
    """The flat order `dependency_order` returned before it grouped keys
    into levels: among keys whose reads are all placed, the smallest goes
    first.  Kept here as the reference for the levels and the cycles."""
    pending = {k: {r for r in deps if r in reads} for k, deps in reads.items()}
    readers = {k: [] for k in reads}
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
    key = min(k for k, deps in pending.items() if deps)
    path, seen = [], {}
    while key not in seen:
        seen[key] = len(path)
        path.append(key)
        key = min(pending[key])
    raise LoopError((path[seen[key]:] + [key])[::-1])


@st.composite
def reads_maps(draw):
    """Up to 10 keys, each reading up to 4 keys or inputs; for half the
    maps every key reads only keys earlier in a random rank, so no cycle
    exists."""
    keys = draw(st.lists(st.integers(0, 15), unique=True, max_size=10))
    rank = {k: i for i, k in enumerate(draw(st.permutations(keys)))}
    acyclic = draw(st.booleans())
    reads = {}
    for k in keys:
        deps = draw(st.lists(st.integers(0, 19), max_size=4))
        reads[k] = [r for r in deps if not (acyclic and r in rank and rank[r] >= rank[k])]
    return reads


class TestAlgebraicLoops:
    def test_lorenz_is_loop_free(self, lorenz_graph):
        detect_algebraic_loops(lorenz_graph)

    def test_integrator_self_loop_is_fine(self):
        graph = build_circuit(normalize(program_for(X="-X")))
        detect_algebraic_loops(graph)

    def test_mutual_multiplier_feedback_detected(self):
        nodes = (
            Node(0, NodeKind.MULTIPLIER, "m0"),
            Node(1, NodeKind.MULTIPLIER, "m1"),
        )
        edges = (
            Edge(0, 1, Port.MUL_A, 1.0),
            Edge(1, 0, Port.MUL_A, 1.0),
        )
        with pytest.raises(LoopError) as err:
            detect_algebraic_loops(CircuitGraph(nodes, edges))
        assert set(err.value.cycle) >= {0, 1}

    def test_dependency_order_puts_smallest_ready_key_first(self):
        assert dependency_order({3: [1, 7], 1: [], 2: [3], 0: [5]}) == [[0, 1], [3], [2]]

    @pytest.mark.parametrize(
        "reads, cycle",
        [
            ({0: [0]}, [0, 0]),
            ({0: [1], 1: [2], 2: [1]}, [1, 2, 1]),  # 0 only reads the cycle
            ({0: [], 1: [0, 3], 2: [1], 3: [2]}, [1, 2, 3, 1]),
        ],
    )
    def test_dependency_order_names_one_real_cycle(self, reads, cycle):
        with pytest.raises(LoopError) as err:
            dependency_order(reads)
        assert err.value.cycle == cycle

    @given(reads_maps())
    @settings(max_examples=300, deadline=None)
    def test_levels_match_the_heap_order(self, reads):
        try:
            order = heap_dependency_order(reads)
        except LoopError as exc:
            with pytest.raises(LoopError) as err:
                dependency_order(reads)
            assert err.value.cycle == exc.cycle
            return
        # the rule the step generator applied to the flat order: one past
        # the highest level read, where a value that is no key reads as -1
        level_of = {}
        for k in order:
            level_of[k] = 1 + max((level_of.get(r, -1) for r in reads[k]), default=-1)
        want = [[] for _ in range(1 + max(level_of.values(), default=-1))]
        for k in sorted(level_of):
            want[level_of[k]].append(k)
        assert dependency_order(reads) == want


class TestGraphRecords:
    """`Term`, `Node` and `Edge` are slots records that are not frozen:
    field-wise equality and hash, no `__dict__`, the repr a dataclass gave
    them.  `PolySystem` and `CircuitGraph` keep that repr too."""

    @pytest.mark.parametrize(
        "make, changed",
        [
            (lambda: Node(3, NodeKind.INTEGRATOR, "X", 0.5), {"initial": 0.25}),
            (lambda: Node(4, NodeKind.MULTIPLIER, "X*Y"), {"label": "X*Z"}),
            (lambda: Edge(0, 3, Port.MUL_A, 1.0), {"port": Port.MUL_B}),
            (lambda: Edge(2, 0, Port.INTEGRATOR_IN, -0.3), {"weight": 0.3}),
            (lambda: Term(2.5, ("X", "Y")), {"weight": -2.5}),
            (lambda: Term(1.0, ()), {"factors": ("X",)}),
        ],
        ids=["integrator", "multiplier", "feed edge", "term edge", "term", "constant term"],
    )
    def test_record(self, make, changed):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert not hasattr(a, "__dict__")
        other = support.replaced(a, **changed)
        assert other != a and type(other) is type(a)
        assert support.replaced(other, **{name: getattr(a, name) for name in changed}) == a
        assert len({a, b, other}) == 2

    def test_repr_and_defaults(self):
        assert repr(Node(1, NodeKind.CONST_ONE, "1")) == "Node(id=1, kind=<NodeKind.CONST_ONE: 'ConstOne'>, label='1', initial=0.0)"
        assert repr(Edge(0, 1, Port.MUL_B, 1.0)) == "Edge(src=0, dst=1, port=<Port.MUL_B: 'MulB'>, weight=1.0)"
        assert repr(Term(2.5, ("X", "Y"))) == "Term(weight=2.5, factors=('X', 'Y'))"
        program = compile_source("fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n")
        system = normalize(program)
        assert repr(system) == "PolySystem(states=('X',), rhs=((Term(weight=-1.0, factors=('X',)),),), initial=(1.0,))"
        assert repr(build_circuit(system, program)) == (
            "CircuitGraph(nodes=(Node(id=0, kind=<NodeKind.INTEGRATOR: 'Integrator'>, label='X', initial=1.0),), "
            "edges=(Edge(src=0, dst=0, port=<Port.INTEGRATOR_IN: 'IntegratorIn'>, weight=-1.0),), taps=(('X', 0),))"
        )
        assert CircuitGraph((), ()).taps == ()


class TestDump:
    def test_decay_dump(self):
        program = compile_source("fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n")
        graph = build_circuit(normalize(program), program)
        assert format_circuit(graph) == "NODE 0 Integrator ic=1.0\nEDGE 0 -> 0.IntegratorIn w=-1.0"

    def test_lorenz_dump_shape(self, lorenz_graph):
        lines = format_circuit(lorenz_graph).splitlines()
        assert sum(1 for l in lines if l.startswith("NODE")) == 5
        assert sum(1 for l in lines if l.startswith("EDGE")) == 11
        assert lines[0] == "NODE 0 Integrator ic=0.1"

    def test_monomial_canonical_ordering(self):
        system = normalize(program_for(X="Z * X", Z="X * Z"))
        assert system.rhs[0] == system.rhs[1]
        assert system.rhs[0][0].factors == ("X", "Z")
        assert str(DegreeError((), 0)) == "monomial 1 has degree 0 > maximum 0"

    def test_repeated_factors_print_as_powers(self):
        assert str(DegreeError(("X", "X", "Y"), 2)) == "monomial X^2*Y has degree 3 > maximum 2"
        assert str(DegreeError(("X",) * 300, 4)) == "monomial X^300 has degree 300 > maximum 4"
        big = "9" * 200
        with pytest.raises(ValueError) as err:
            normalize(program_for(X=f"{big} * {big} * X * X * Y * Y * Y", Y="Y"))
        assert str(err.value) == "constant folding overflowed for monomial X^2*Y^3"


def reference_expand(expr):
    """Test-local copy of the expansion that keyed every monomial by its
    sorted factor tuple and sorted the factors again for each product."""
    done = []  # expanded operands
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
            out = {}
            for m1, w1 in left.items():
                for m2, w2 in right.items():
                    key = tuple(sorted(m1 + m2))
                    out[key] = out.get(key, 0.0) + w1 * w2
            done.append(out)
    return done.pop()


class TestExpansionParity:
    def test_same_weights_in_the_same_order(self):
        # keyed by (variable, power) pairs, the fold adds the same products
        # into the same monomials in the same order, so every weight is
        # bit-identical and the monomials come out in the same order
        rng = random.Random(20261019)
        names = ["A", "B", "C", "D"]
        exprs = [support.random_polynomial_expr(rng, names) for _ in range(500)]
        exprs += [support.random_expr(rng, names, depth=6) for _ in range(500)]
        power = Const(1.0)
        for _ in range(40):  # high powers of one variable, and of two
            power = Mul(power, Sub(Const(1.0), Var("A")))
            exprs.append(Mul(power, Add(Var("B"), Var("A"))))
        for expr in exprs:
            assert list(circuit._expand(expr, "X").items()) == list(reference_expand(expr).items())


def recursive_evaluate_expr(expr, values):
    """Test-local copy of the recursive evaluator that evaluate_expr replaced."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return values[expr.name]
    if isinstance(expr, Neg):
        return -recursive_evaluate_expr(expr.operand, values)
    if isinstance(expr, Add):
        return recursive_evaluate_expr(expr.left, values) + recursive_evaluate_expr(expr.right, values)
    if isinstance(expr, Sub):
        return recursive_evaluate_expr(expr.left, values) - recursive_evaluate_expr(expr.right, values)
    return recursive_evaluate_expr(expr.left, values) * recursive_evaluate_expr(expr.right, values)


class TestLongSums:
    def test_evaluate_matches_recursive_evaluator(self):
        rng = random.Random(77)
        names = ["A", "B", "C"]
        for _ in range(300):
            expr = support.random_expr(rng, names, depth=6)
            point = {n: rng.uniform(-2, 2) for n in names}
            assert evaluate_expr(expr, point) == recursive_evaluate_expr(expr, point)

    def test_evaluate_5000_term_sum(self):
        terms = ["X", "0.1", "-X * X", "0.3 * X"] * 1250
        program = compile_source("fn X(t); let diff[X, t] = " + " + ".join(terms) + "; let X(t: 0) = 0.7;")
        x = 0.7
        value = {"X": x, "0.1": 0.1, "-X * X": -x * x, "0.3 * X": 0.3 * x}
        expected = 0.0
        for term in terms:  # left to right, as the left-deep sum adds
            expected += value[term]
        assert evaluate_expr(program.states[0].derivative, {"X": x}) == expected
