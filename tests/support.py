"""Shared test helpers: random generators for configs and polynomial
programs, and the synthetic large-machine workload."""

import dataclasses
import random

from autopatch.circuit import PolySystem, Term
from autopatch.machine import CoefficientCode, MachineConfig, MachineSpec


def random_config(spec: MachineSpec, rng: random.Random, p_active: float = 0.5) -> MachineConfig:
    """A uniformly random *valid* configuration: each lane is either fully
    routed (source, in-range code, destination) or fully unused."""
    u, c, d = [], [], []
    for lane in range(spec.n_lanes):
        if rng.random() < p_active:
            u.append(rng.randrange(spec.out_rows))
            d.append(rng.randrange(spec.in_rows))
            if lane in spec.lowres_lanes:
                c.append(CoefficientCode.lowres(rng.randrange(8)))
            else:
                c.append(CoefficientCode.highres(rng.randrange(-2048, 2048)))
        else:
            u.append(None)
            d.append(None)
            kind_low = lane in spec.lowres_lanes
            c.append(CoefficientCode.lowres(0) if kind_low else CoefficientCode.highres(0))
    return MachineConfig(spec=spec, u_source=tuple(u), coefficients=tuple(c), i_dest=tuple(d))


def with_lanes(config: MachineConfig, *lanes) -> MachineConfig:
    """`config` with each (lane, source row, coefficient code, destination
    row) in `lanes` written over that lane's three fields."""
    u, c, d = list(config.u_source), list(config.coefficients), list(config.i_dest)
    for lane, source, code, dest in lanes:
        u[lane], c[lane], d[lane] = source, code, dest
    return dataclasses.replace(config, u_source=tuple(u), coefficients=tuple(c), i_dest=tuple(d))


def replaced(record, **changes):
    """A copy of a `__slots__` record (`autopatch._Record`) with `changes`
    written over its fields, as a NamedTuple's `_replace` makes one."""
    return type(record)(**{name: getattr(record, name) for name in record.__slots__} | changes)


def random_expr(rng: random.Random, names: list[str], depth: int):
    """Random polynomial expression tree over the given state names."""
    from autopatch.dsl import Add, Const, Mul, Neg, Sub, Var

    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(round(rng.uniform(0.0, 3.0), 3))
        return Var(rng.choice(names))
    kind = rng.randrange(4)
    if kind == 0:
        return Add(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if kind == 1:
        return Sub(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if kind == 2:
        return Neg(random_expr(rng, names, depth - 1))
    return Mul(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))


def expr_degree(expr) -> int:
    from autopatch.dsl import Add, Const, Mul, Neg, Sub, Var

    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Var):
        return 1
    if isinstance(expr, Neg):
        return expr_degree(expr.operand)
    if isinstance(expr, (Add, Sub)):
        return max(expr_degree(expr.left), expr_degree(expr.right))
    return expr_degree(expr.left) + expr_degree(expr.right)


def random_polynomial_expr(rng: random.Random, names: list[str], max_degree: int = 3):
    """Rejection-sample expression trees until the total degree fits."""
    while True:
        expr = random_expr(rng, names, depth=3)
        if expr_degree(expr) <= max_degree:
            return expr


def random_program(seed: int, n_states: int):
    """The random-program oracle's draw: states A, B, ... (at most five),
    each with a random polynomial of degree <= 4 and a random initial value."""
    from autopatch.dsl import Program, StateDef

    rng = random.Random(seed)
    names = ["A", "B", "C", "D", "E"][:n_states]
    states = tuple(
        StateDef(name, "t", random_polynomial_expr(rng, names, max_degree=4), round(rng.uniform(-0.5, 0.5), 3))
        for name in names
    )
    return Program(states, tuple(names), ())


def terms_to_system(states, per_state_terms, initial=None) -> PolySystem:
    rhs = tuple(
        tuple(Term(w, tuple(sorted(factors))) for w, factors in terms)
        for terms in per_state_terms
    )
    if initial is None:
        initial = (0.0,) * len(states)
    return PolySystem(states=tuple(states), rhs=rhs, initial=tuple(initial))


def synthetic_large_program(n_states: int = 500, pairs: int = 400) -> str:
    """DSL source with n_states states and 3 terms per state (one decay,
    one coupling, one product), sized for the large-machine profile."""
    lines = [f"fn s{i}(t);" for i in range(n_states)]
    for i in range(n_states):
        a = (2 * (i % pairs)) % n_states
        b = (2 * (i % pairs) + 1) % n_states
        lines.append(f"let diff[s{i}, t] = -s{i} + 0.8 * s{(i + 1) % n_states} - 0.3 * s{a} * s{b};")
    lines.extend(f"let s{i}(t: 0) = 0.1;" for i in range(n_states))
    lines.append("out s0(t);")
    return "\n".join(lines) + "\n"
