import math
import re
import string
import time
from decimal import Decimal
from typing import Optional, Union

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from autopatch.dsl import (
    KEYWORDS,
    MAX_NESTING,
    Add,
    Const,
    DiffDef,
    Expr,
    FnDecl,
    InitDef,
    LexError,
    Mul,
    Neg,
    OutStmt,
    ParseError,
    PlotStmt,
    Pos,
    Program,
    SourceError,
    StateDef,
    Sub,
    Token,
    TokenKind,
    ValidateError,
    Var,
    compile_source,
    parse,
    postorder,
    tokenize,
    validate,
)


def kinds_and_lexemes(tokens):
    return [(t.kind, t.lexeme) for t in tokens]


def parse_derivative(source: str, state: str):
    for stmt in parse(tokenize(source)):
        if isinstance(stmt, DiffDef) and stmt.state == state:
            return stmt.expr
    raise AssertionError(f"no derivative for {state}")


# pretty printer: canonical source text for expressions and programs,
# the oracle of the round-trip tests


def format_number(value: float) -> str:
    """Render a nonnegative float as a plain decimal literal the lexer
    accepts (no exponent notation)."""
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


# binding strength of each node type in the grammar: a sum is an expr, a
# product a term, a negation a factor; every other node is a primary
_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, Neg: 3}


def format_expr(expr: Expr) -> str:
    """Source text with only the parentheses that precedence and left
    associativity need; re-parsing reproduces the tree.

    A left operand of a binary node is wrapped when it binds less tightly
    than the node, a right operand also when it binds equally.  A negative
    constant, which has no literal, renders as `(-c)`.  The text is emitted
    left to right from an explicit stack of pending nodes and text, so
    long sums do not hit the recursion limit.
    """
    ops = {Add: "+", Sub: "-", Mul: "*"}
    parts: list[str] = []
    pending: list[Union[Expr, str]] = [expr]

    def push(node: Expr, least: int) -> None:
        if _PRECEDENCE.get(type(node), 4) < least:
            pending.extend((")", node, "("))
        else:
            pending.append(node)

    while pending:
        node = pending.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Const):
            if node.value < 0:
                parts.append(f"(-{format_number(-node.value)})")
            else:
                parts.append(format_number(node.value))
        elif isinstance(node, Var):
            parts.append(node.name)
        elif isinstance(node, Neg):
            parts.append("-")
            push(node.operand, 3)
        else:
            level = _PRECEDENCE[type(node)]
            push(node.right, level + 1)
            pending.append(f" {ops[type(node)]} ")
            push(node.left, level)
    return "".join(parts)


def format_program(program: Program) -> str:
    """Canonical source text for a Program; parses back to an equal value."""
    lines = []
    for s in program.states:
        lines.append(f"fn {s.name}({s.ivar});")
    for s in program.states:
        lines.append(f"let diff[{s.name}, {s.ivar}] = {format_expr(s.derivative)};")
    for s in program.states:
        sign = "-" if s.initial_value < 0 else ""
        lines.append(f"let {s.name}({s.ivar}: 0) = {sign}{format_number(abs(s.initial_value))};")
    by_name = {s.name: s for s in program.states}
    for x, y in program.plots:
        lines.append(f"plot(x: {x}({by_name[x].ivar}), y: {y}({by_name[y].ivar}));")
    for name in program.outputs:
        lines.append(f"out {name}({by_name[name].ivar});")
    return "\n".join(lines) + "\n"


class TestTokenize:
    def test_out_statement(self):
        assert kinds_and_lexemes(tokenize("out X(t);")) == [
            (TokenKind.KEYWORD, "out"),
            (TokenKind.IDENT, "X"),
            (TokenKind.PUNCT, "("),
            (TokenKind.IDENT, "t"),
            (TokenKind.PUNCT, ")"),
            (TokenKind.PUNCT, ";"),
        ]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_against_character_class_oracle(self):
        # independent splitter over the same token inventory
        source = "let a = 3.5;\nlet diff[Q, t] = 1.25 * Q - 7;"
        oracle = re.findall(r"\d+\.\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|[()\[\],:;=+\-*]", source)
        assert [t.lexeme for t in tokenize(source)] == oracle
        number_like = {lex for lex in oracle if lex[0].isdigit()}
        for tok in tokenize(source):
            if tok.lexeme in number_like:
                assert tok.kind is TokenKind.NUMBER

    def test_positions_point_at_first_character(self):
        tokens = tokenize("fn X(t);\n  let diff[X, t] = X;\n")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (1, 4)  # X
        let = next(t for t in tokens if t.lexeme == "let")
        assert (let.line, let.column) == (2, 3)

    def test_concatenation_preserves_significant_content(self, lorenz_source):
        squeeze = lambda s: re.sub(r"\s+", "", s)
        no_comments = re.sub(r"#[^\n]*", "", lorenz_source)
        assert squeeze("".join(t.lexeme for t in tokenize(lorenz_source))) == squeeze(no_comments)

    def test_comments_are_skipped(self):
        assert tokenize("# nothing here\n") == []
        toks = tokenize("out X(t); # trailing\nout Y(t);")
        assert sum(1 for t in toks if t.lexeme == "out") == 2

    def test_exponent_notation_rejected(self):
        with pytest.raises(LexError):
            tokenize("let X(t: 0) = 1e5;")

    def test_trailing_dot_rejected(self):
        with pytest.raises(LexError):
            tokenize("3.")

    def test_unknown_character_rejected_with_position(self):
        with pytest.raises(LexError) as err:
            tokenize("fn X(t);\n$")
        assert (err.value.line, err.value.column) == (2, 1)

    def test_sign_is_not_part_of_number_lexemes(self):
        toks = tokenize("-0.1")
        assert [t.lexeme for t in toks] == ["-", "0.1"]

    def test_overflowing_literal_rejected(self):
        with pytest.raises(LexError, match="overflows"):
            tokenize("1" + "0" * 400)

    def test_non_ascii_rejected(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("fn Ⅹ(t);")


class TestParse:
    def test_linear_derivative_tree(self):
        expr = parse_derivative("fn X(t); fn Y(t); let diff[X, t] = 1.8 * Y - X;", "X")
        assert expr == Sub(Mul(Const(1.8), Var("Y")), Var("X"))

    def test_single_variable_rhs(self):
        expr = parse_derivative("fn Z(t); let diff[Z, t] = Z;", "Z")
        assert expr == Var("Z")

    def test_parenthesized_product_tree(self):
        src = "fn X(t); fn Y(t); fn Z(t); let diff[Y, t] = 1.56 * X * (1 - 2.678 * Z) - 0.1 * Y;"
        expr = parse_derivative(src, "Y")
        assert expr == Sub(
            Mul(Mul(Const(1.56), Var("X")), Sub(Const(1.0), Mul(Const(2.678), Var("Z")))),
            Mul(Const(0.1), Var("Y")),
        )

    def test_multiplication_is_left_associative(self):
        expr = parse_derivative("fn A(t); let diff[A, t] = A * A * A;", "A")
        assert expr == Mul(Mul(Var("A"), Var("A")), Var("A"))

    def test_additive_chain_is_left_associative(self):
        expr = parse_derivative("fn A(t); fn B(t); let diff[A, t] = A - B + A;", "A")
        assert expr == Add(Sub(Var("A"), Var("B")), Var("A"))

    def test_unary_minus_binds_tighter_than_product(self):
        expr = parse_derivative("fn X(t); let diff[X, t] = -2 * X;", "X")
        assert expr == Mul(Neg(Const(2.0)), Var("X"))

    def test_double_negative_operand(self):
        expr = parse_derivative("fn X(t); fn Y(t); let diff[X, t] = X - -Y;", "X")
        assert expr == Sub(Var("X"), Neg(Var("Y")))

    def test_negative_initial_value(self):
        src = "fn X(t);\nlet diff[X, t] = X;\nlet X(t: 0) = -0.5;\n"
        program = compile_source(src)
        assert program.states[0].initial_value == -0.5

    def test_independent_variable_must_match_declaration(self):
        with pytest.raises(ParseError) as err:
            parse(tokenize("fn X(t); let diff[X, s] = X;"))
        assert err.value.expected == "t"
        assert err.value.found == "s"

    def test_missing_semicolon_reports_position_in_bounds(self):
        source = "fn X(t)"
        with pytest.raises(ParseError) as err:
            parse(tokenize(source))
        lines = source.split("\n")
        assert 1 <= err.value.line <= len(lines)
        assert 1 <= err.value.column <= len(lines[err.value.line - 1]) + 1

    def test_unexpected_token_in_expression(self):
        with pytest.raises(ParseError):
            parse(tokenize("fn X(t); let diff[X, t] = *;"))


class TestValidate:
    def test_full_listing(self, lorenz_program):
        assert lorenz_program.state_names() == ("X", "Y", "Z")
        assert [s.initial_value for s in lorenz_program.states] == [0.1, 0.0, 0.0]
        assert lorenz_program.plots == (("X", "Y"),)
        assert lorenz_program.outputs == ("X", "Y")

    def test_missing_derivative(self):
        with pytest.raises(ValidateError, match="no derivative"):
            compile_source("fn X(t);\nlet X(t: 0) = 0.1;\n")

    def test_unknown_out_state(self):
        with pytest.raises(ValidateError, match="undeclared state W"):
            compile_source("fn X(t); let diff[X, t] = X; let X(t: 0) = 0.1; out W(t);")

    def test_undeclared_variable_use_has_position(self):
        src = "fn X(t);\nlet diff[X, t] = X * Q;\nlet X(t: 0) = 0.1;\n"
        with pytest.raises(ValidateError) as err:
            compile_source(src)
        assert (err.value.line, err.value.column) == (2, 22)

    def test_first_undeclared_state_in_source_order(self):
        with pytest.raises(ValidateError, match="use of undeclared state A") as err:
            compile_source("fn X(t); let diff[X, t] = A + B; let X(t: 0) = 0;")
        assert (err.value.line, err.value.column) == (1, 27)

    def test_duplicate_declaration(self):
        with pytest.raises(ValidateError, match="duplicate declaration"):
            compile_source("fn X(t); fn X(t); let diff[X, t] = X; let X(t: 0) = 0;")

    def test_duplicate_derivative(self):
        with pytest.raises(ValidateError, match="duplicate derivative"):
            compile_source("fn X(t); let diff[X, t] = X; let diff[X, t] = X; let X(t: 0) = 0;")

    def test_duplicate_initial_condition(self):
        with pytest.raises(ValidateError, match="duplicate initial"):
            compile_source("fn X(t); let diff[X, t] = X; let X(t: 0) = 0; let X(t: 0) = 1;")

    def test_missing_initial_condition(self):
        with pytest.raises(ValidateError, match="no initial condition"):
            compile_source("fn X(t); let diff[X, t] = X;")

    @pytest.mark.parametrize(
        "missing, source",
        [
            ("no derivative definition", "fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1;\n\n  fn Y(t); let Y(t: 0) = 0;\n"),
            ("no initial condition", "fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1;\n\n  fn Y(t); let diff[Y, t] = X;\n"),
        ],
        ids=["derivative", "initial"],
    )
    def test_missing_definition_points_at_the_fn(self, missing, source):
        with pytest.raises(ValidateError) as err:
            compile_source(source)
        assert (err.value.message, err.value.line, err.value.column) == (f"state Y has {missing}", 5, 3)

    def test_nonzero_initial_time(self):
        with pytest.raises(ValidateError, match="time 0"):
            compile_source("fn X(t); let diff[X, t] = X; let X(t: 1) = 0;")

    def test_zero_point_zero_initial_time_accepted(self):
        program = compile_source("fn X(t); let diff[X, t] = X; let X(t: 0.0) = 2;")
        assert program.states[0].initial_value == 2.0

    def test_no_states(self):
        with pytest.raises(ValidateError, match="no states"):
            compile_source("")

    def test_plot_needs_two_axes(self):
        with pytest.raises(ValidateError, match="two axes"):
            compile_source("fn X(t); let diff[X, t] = X; let X(t: 0) = 0; plot(x: X(t));")

    def test_plot_unknown_state(self):
        with pytest.raises(ValidateError, match="undeclared"):
            compile_source("fn X(t); let diff[X, t] = X; let X(t: 0) = 0; plot(x: X(t), y: W(t));")

    def test_duplicate_out(self):
        with pytest.raises(ValidateError, match="duplicate out"):
            compile_source("fn X(t); let diff[X, t] = X; let X(t: 0) = 0; out X(t); out X(t);")

    def test_states_ordered_by_declaration(self):
        src = "fn B(t); fn A(t); let diff[A, t] = B; let diff[B, t] = A; let A(t: 0) = 0; let B(t: 0) = 0;"
        assert compile_source(src).state_names() == ("B", "A")

    def test_plot_with_extra_axes_keeps_first_two(self):
        src = (
            "fn A(t); fn B(t); fn C(t);"
            " let diff[A, t] = B; let diff[B, t] = A; let diff[C, t] = C;"
            " let A(t: 0) = 0; let B(t: 0) = 0; let C(t: 0) = 0;"
            " plot(x: A(t), y: B(t), z: C(t));"
        )
        assert compile_source(src).plots == (("A", "B"),)


class TestRoundtrip:
    def test_lorenz_roundtrip(self, lorenz_program):
        assert compile_source(format_program(lorenz_program)) == lorenz_program

    def test_small_decimal_formatting_stays_plain(self):
        # 1e-07 would be repr'd with an exponent; the formatter must not
        text = format_number(0.0000001)
        assert "e" not in text and "E" not in text
        assert float(text) == 0.0000001

    def test_expr_formatting_reparses_identically(self):
        expr = Sub(Mul(Neg(Const(2.0)), Var("X")), Mul(Const(0.5), Var("Y")))
        src = f"fn X(t); fn Y(t); let diff[X, t] = {format_expr(expr)}; let diff[Y, t] = X;"
        src += " let X(t: 0) = 0; let Y(t: 0) = 0;"
        assert compile_source(src).states[0].derivative == expr


class TestEquality:
    def test_different_trees_differ(self):
        assert Add(Var("X"), Var("Y")) != Add(Var("X"), Var("Z"))
        assert Sub(Var("X"), Var("Y")) != Add(Var("X"), Var("Y"))
        assert Add(Add(Var("A"), Var("B")), Var("C")) != Add(Var("A"), Add(Var("B"), Var("C")))
        assert Neg(Const(1.0)) != Const(-1.0)
        assert Var("X") != "X"

    def test_5000_term_program_round_trips_equal(self):
        # equality and hashing walk the tree iteratively, so a long
        # left-deep sum does not hit the recursion limit; the formatted text
        # puts every node at another position, and positions do not count
        source = "fn X(t); let diff[X, t] = " + " + ".join(["X"] * 5000) + "; let X(t: 0) = 0.5; out X(t);"
        program = compile_source(source)
        again = compile_source(format_program(program))
        assert again == program
        assert hash(again) == hash(program)
        assert hash(again.states[0].derivative) == hash(program.states[0].derivative)


_names = st.integers(min_value=1, max_value=4).map(lambda k: ["A", "B", "C", "D"][:k])
_weights = st.integers(min_value=0, max_value=5000).map(lambda n: n / 100.0)


def _exprs(names):
    leaf = st.one_of(
        _weights.map(Const),
        st.sampled_from(names).map(Var),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda lr: Add(*lr)),
            st.tuples(children, children).map(lambda lr: Sub(*lr)),
            st.tuples(children, children).map(lambda lr: Mul(*lr)),
            children.map(Neg),
        ),
        max_leaves=8,
    )


@st.composite
def _programs(draw):
    names = draw(_names)
    states = tuple(
        StateDef(
            name=name,
            ivar="t",
            derivative=draw(_exprs(names)),
            initial_value=draw(st.integers(min_value=-300, max_value=300).map(lambda n: n / 100.0)),
        )
        for name in names
    )
    outputs = tuple(name for name in names if draw(st.booleans()))
    plots = ()
    if len(names) >= 2 and draw(st.booleans()):
        plots = ((names[0], names[1]),)
    return Program(states=states, outputs=outputs, plots=plots)


@given(_programs())
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(program):
    assert compile_source(format_program(program)) == program


def isinstance_postorder(expr):
    """`postorder` as it was before it dispatched on the node's type: the
    same walk, each node tested with `isinstance` against class tuples.
    The oracle of the type-dispatch walk."""
    stack = [(expr, False)]
    while stack:
        node, operands_done = stack.pop()
        if operands_done or isinstance(node, (Const, Var)):
            yield node
        elif isinstance(node, Neg):
            stack += ((node, True), (node.operand, False))
        elif isinstance(node, (Add, Sub, Mul)):
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            raise TypeError(f"not an expression node: {node!r}")


def postorder_undeclared(stmts):
    """The undeclared-name diagnostic `validate` gave when it filtered a
    `postorder` walk of each derivative for `Var` nodes, as (message,
    line, column), or None; the oracle of its own walk."""
    decls = {stmt.name for stmt in stmts if isinstance(stmt, FnDecl)}
    for stmt in stmts:
        if isinstance(stmt, DiffDef):
            for var in postorder(stmt.expr):
                if isinstance(var, Var) and var.name not in decls:
                    line, col = var.pos if var.pos != (0, 0) else stmt.pos
                    return (f"use of undeclared state {var.name}", line, col)
    return None


@st.composite
def _undeclared_programs(draw):
    """Statements of a program whose derivatives may use the undeclared
    names P and Q, each state with one `fn`, derivative and initial
    condition: parsed from source text, so the nodes carry positions, or
    built from trees without positions."""
    names = draw(_names)
    exprs = [draw(_exprs(names + ["P", "Q"])) for _ in names]
    if draw(st.booleans()):
        lines = [f"fn {n}(t);" for n in names]
        lines += [f"let diff[{n}, t] = {format_expr(e)};" for n, e in zip(names, exprs)]
        lines += [f"let {n}(t: 0) = 0;" for n in names]
        return parse(tokenize("\n".join(lines)))
    return (
        [FnDecl(n, "t", (1 + k, 1)) for k, n in enumerate(names)]
        + [DiffDef(n, e, (10 + k, 3)) for k, (n, e) in enumerate(zip(names, exprs))]
        + [InitDef(n, 0.0, 0.0, (20 + k, 1)) for k, n in enumerate(names)]
    )


class TestTreeWalks:
    @given(_exprs(["A", "B", "C"]))
    @settings(max_examples=200, deadline=None)
    def test_postorder_matches_isinstance_walk(self, expr):
        assert list(map(id, postorder(expr))) == list(map(id, isinstance_postorder(expr)))

    @pytest.mark.parametrize("expr", ["X", None, Add(Var("X"), "Y"), Neg(Mul(Const(1.0), 2.0))], ids=repr)
    def test_walks_refuse_a_non_node_as_before(self, expr):
        with pytest.raises(TypeError) as want:
            list(isinstance_postorder(expr))
        with pytest.raises(TypeError, match=re.escape(str(want.value))):
            list(postorder(expr))
        stmts = [FnDecl("X", "t", (1, 1)), DiffDef("X", expr, (2, 1)), InitDef("X", 0.0, 0.0, (3, 1))]
        with pytest.raises(TypeError, match=re.escape(str(want.value))):
            validate(stmts)

    @given(_undeclared_programs())
    @settings(max_examples=100, deadline=None)
    def test_validate_reports_the_undeclared_name_postorder_finds_first(self, stmts):
        try:
            validate(stmts)
            got = None
        except ValidateError as exc:
            got = (exc.message, exc.line, exc.column)
        assert got == postorder_undeclared(stmts)

    def test_state_def_is_a_slots_record(self):
        a = StateDef("X", "t", Add(Var("X"), Const(1.0)), 0.5)
        b = StateDef("X", "t", Add(Var("X"), Const(1.0)), 0.5)
        assert a == b and hash(a) == hash(b)
        assert a != StateDef("X", "t", Add(Var("X"), Const(2.0)), 0.5)
        assert not hasattr(a, "__dict__")
        assert support.replaced(a, initial_value=1.0) == StateDef("X", "t", a.derivative, 1.0)
        assert repr(a) == "StateDef(name='X', ivar='t', derivative=Add(left=Var(name='X'), right=Const(value=1.0)), initial_value=0.5)"
        program = Program((StateDef("X", "t", Neg(Var("X")), 1.0),), ("X",), ())
        assert repr(program) == (
            "Program(states=(StateDef(name='X', ivar='t', derivative=Neg(operand=Var(name='X')), initial_value=1.0),), "
            "outputs=('X',), plots=())"
        )
        assert program == compile_source("fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n")

    @pytest.mark.parametrize(
        "record, changed, text",
        [
            (FnDecl("X", "t", (1, 1)), {"ivar": "s"}, "FnDecl(name='X', ivar='t', pos=(1, 1))"),
            (DiffDef("X", Neg(Var("X")), (2, 1)), {"expr": Var("X")}, "DiffDef(state='X', expr=Neg(operand=Var(name='X')), pos=(2, 1))"),
            (InitDef("X", 0.0, 0.5, (3, 1)), {"value": 0.25}, "InitDef(state='X', time=0.0, value=0.5, pos=(3, 1))"),
            (PlotStmt((("x", "X"), ("y", "Y")), (4, 1)), {"pos": (4, 2)}, "PlotStmt(axes=(('x', 'X'), ('y', 'Y')), pos=(4, 1))"),
            (OutStmt("X", (5, 1)), {"state": "Y"}, "OutStmt(state='X', pos=(5, 1))"),
        ],
        ids=["fn", "diff", "init", "plot", "out"],
    )
    def test_statement_is_a_slots_record(self, record, changed, text):
        """As `StateDef`: field-wise equality and hash, no `__dict__`, the
        repr a dataclass gave it."""
        copy, other = support.replaced(record), support.replaced(record, **changed)
        assert copy is not record and copy == record and hash(copy) == hash(record)
        assert other != record and len({record, copy, other}) == 2
        assert not hasattr(record, "__dict__")
        assert repr(record) == text

    @pytest.mark.parametrize(
        "node, text",
        [
            (Const(1.5, (3, 4)), "Const(value=1.5)"),
            (Var("X", (3, 4)), "Var(name='X')"),
            (Add(Var("X"), Const(1.0), (3, 4)), "Add(left=Var(name='X'), right=Const(value=1.0))"),
            (Sub(Var("X"), Var("Y"), (3, 4)), "Sub(left=Var(name='X'), right=Var(name='Y'))"),
            (Mul(Const(2.0), Var("Y"), (3, 4)), "Mul(left=Const(value=2.0), right=Var(name='Y'))"),
            (Neg(Var("X"), (3, 4)), "Neg(operand=Var(name='X'))"),
        ],
        ids=["const", "var", "add", "sub", "mul", "neg"],
    )
    def test_node_repr_leaves_out_the_position(self, node, text):
        assert repr(node) == text and node.pos == (3, 4)
        assert not hasattr(node, "__dict__")


def recursive_format_expr(expr, least=0):
    """Test-local recursive formatter with format_expr's rule: an operand
    is wrapped when it binds less tightly than its place in the grammar
    asks (sum 1, product 2, negation 3, anything else 4)."""
    if isinstance(expr, Const):
        if expr.value < 0:
            return f"(-{format_number(-expr.value)})"
        return format_number(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        level, text = 3, f"-{recursive_format_expr(expr.operand, 3)}"
    else:
        ops = {Add: "+", Sub: "-", Mul: "*"}
        level = 2 if isinstance(expr, Mul) else 1
        text = f"{recursive_format_expr(expr.left, level)} {ops[type(expr)]} {recursive_format_expr(expr.right, level + 1)}"
    return f"({text})" if level < least else text


class TestLongSums:
    @given(_exprs(["A", "B"]) | _weights.map(lambda w: Const(-w)))
    @settings(max_examples=200, deadline=None)
    def test_format_matches_recursive_formatter(self, expr):
        assert format_expr(expr) == recursive_format_expr(expr)

    def test_format_5000_term_sum(self):
        source = "fn X(t); let diff[X, t] = " + " + ".join(["X"] * 5000) + "; let X(t: 0) = 0.5;"
        program = compile_source(source)
        assert format_expr(program.states[0].derivative) == " + ".join(["X"] * 5000)
        text = format_program(program)
        assert text.splitlines()[1] == "let diff[X, t] = " + " + ".join(["X"] * 5000) + ";"

    @pytest.mark.parametrize("terms", [300, 5000])
    def test_long_sum_round_trips(self, terms):
        # the parser accepts these sums, so their formatted text must parse back
        source = "fn X(t); let diff[X, t] = " + " + ".join(["X"] * terms) + " - 0.5 * X; let X(t: 0) = 0.5; out X(t);"
        text = format_program(compile_source(source))
        assert format_program(compile_source(text)) == text

    def test_only_needed_parentheses(self):
        cases = {
            "(A + B) + C": "A + B + C",
            "A + (B + C)": "A + (B + C)",
            "A - (B - C)": "A - (B - C)",
            "(A - B) - C": "A - B - C",
            "A * B + C * D": "A * B + C * D",
            "(A + B) * (C - D)": "(A + B) * (C - D)",
            "A * (B * C)": "A * (B * C)",
            "-A * -(B + C)": "-A * -(B + C)",
            "-(A * B) - --C": "-(A * B) - --C",
        }
        for source, text in cases.items():
            states = "".join(f"fn {n}(t); let {n}(t: 0) = 0; let diff[{n}, t] = {n};" for n in "BCD")
            program = compile_source(f"fn A(t); let A(t: 0) = 0; let diff[A, t] = {source}; {states}")
            assert format_expr(program.states[0].derivative) == text, source


_soup = st.lists(
    st.sampled_from(
        ["fn", "let", "diff", "plot", "out", "X", "Y", "t", "x", "y", "0", "1.5", "2.", ".5", "1e3",
         "(", ")", "[", "]", ",", ":", ";", "=", "+", "-", "*", "#", "\n", "$", "é", " "]
    ),
    max_size=40,
).map(" ".join)


_VALID = (
    "fn X ( t ) ; fn Y ( t ) ; let diff [ X , t ] = 1.8 * Y - X ; let diff [ Y , t ] = - ( X * Y ) ;"
    " let X ( t : 0 ) = 0.1 ; let Y ( t : 0 ) = 0 ; plot ( x : X ( t ) , y : Y ( t ) ) ; out X ( t ) ;"
).split()


@st.composite
def _edited_programs(draw):
    """A valid program with one to three tokens deleted, replaced or inserted."""
    tokens = list(_VALID)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["delete", "replace", "insert"]))
        if edit == "delete":
            del tokens[at]
        else:
            tokens[at:at + (edit == "replace")] = [draw(_soup)]
    return " ".join(tokens)


@given(_soup | st.text(max_size=40) | _edited_programs())
@settings(max_examples=500, deadline=None)
def test_token_soup_raises_only_source_errors(source):
    try:
        compile_source(source)
    except SourceError:
        pass


# One source per distinct ParseError `expected` and per LexError kind:
# (source, error type, text, line, column, expected, found).
_DIAGNOSTICS = [
    ("fn X t);", ParseError, "1:6: expected '(', found 't'", 1, 6, "'('", "'t'"),
    ("fn X(t;", ParseError, "1:7: expected ')', found ';'", 1, 7, "')'", "';'"),
    ("fn X(t)", ParseError, "1:8: expected ';', found end of input", 1, 8, "';'", "end of input"),
    ("let diff X", ParseError, "1:10: expected '[', found 'X'", 1, 10, "'['", "'X'"),
    ("let diff[X t]", ParseError, "1:12: expected ',', found 't'", 1, 12, "','", "'t'"),
    ("fn X(t); let diff[X, t) = X;", ParseError, "1:23: expected ']', found ')'", 1, 23, "']'", "')'"),
    ("fn X(t); let diff[X, t] X;", ParseError, "1:25: expected '=', found 'X'", 1, 25, "'='", "'X'"),
    ("let X(t 0)", ParseError, "1:9: expected ':', found '0'", 1, 9, "':'", "'0'"),
    ("fn X(t); plot(x X(t));", ParseError, "1:17: expected ':', found 'X'", 1, 17, "':'", "'X'"),
    ("fn X(t); plot(x: X t));", ParseError, "1:20: expected '(', found 't'", 1, 20, "'('", "'t'"),
    ("fn X(t); out X(t", ParseError, "1:17: expected ')', found end of input", 1, 17, "')'", "end of input"),
    ("fn X(t); let diff[X, t] = (X;", ParseError, "1:29: expected ')', found ';'", 1, 29, "')'", "';'"),
    ("X(t);", ParseError, "1:1: expected 'fn', 'let', 'plot', or 'out', found 'X'", 1, 1,
     "'fn', 'let', 'plot', or 'out'", "'X'"),
    ("fn 1(t);", ParseError, "1:4: expected state name, found '1'", 1, 4, "state name", "'1'"),
    ("fn X(t); out 1(t);", ParseError, "1:14: expected state name, found '1'", 1, 14, "state name", "'1'"),
    ("let 5", ParseError, "1:5: expected state name or 'diff', found '5'", 1, 5, "state name or 'diff'", "'5'"),
    ("fn X(1);", ParseError, "1:6: expected independent variable, found '1'", 1, 6, "independent variable", "'1'"),
    ("plot(;", ParseError, "1:6: expected axis label, found ';'", 1, 6, "axis label", "';'"),
    ("let X(t: a)", ParseError, "1:10: expected number, found 'a'", 1, 10, "number", "'a'"),
    ("let X(t: 0) = -x;", ParseError, "1:16: expected number, found 'x'", 1, 16, "number", "'x'"),
    ("fn X(t); let X(t: 0) =", ParseError, "1:23: expected number, found end of input", 1, 23, "number", "end of input"),
    ("let diff[X, t] = *;", ParseError, "1:18: expected number, state name, or '(', found '*'", 1, 18,
     "number, state name, or '('", "'*'"),
    ("let diff[X, t] =", ParseError, "1:17: expected expression, found end of input", 1, 17, "expression", "end of input"),
    ("let diff[X, t] = " + "(" * 201, ParseError,
     "1:218: expression nested too deeply: at most 200 nested '(' and unary '-'", 1, 218,
     "at most 200 nested '(' and unary '-'", "'('"),
    ("let diff[X, t] = " + "-" * 201, ParseError,
     "1:218: expression nested too deeply: at most 200 nested '(' and unary '-'", 1, 218,
     "at most 200 nested '(' and unary '-'", "'-'"),
    ("fn X(t); out X(s);", ParseError, "1:16: independent variable of X is 't', found 's'", 1, 16, "t", "s"),
    ("fn X(t); plot(x: X(s), y: X(t));", ParseError, "1:20: independent variable of X is 't', found 's'", 1, 20,
     "t", "s"),
    # a reference placed before its `fn` is checked once the whole program has parsed, in source order
    ("let diff[X, s] = -X; let X(u: 0) = 1; out X(w); fn X(t);", ParseError,
     "1:13: independent variable of X is 't', found 's'", 1, 13, "t", "s"),
    ("let X(u: 0) = 1;\nfn X(t);", ParseError, "1:7: independent variable of X is 't', found 'u'", 1, 7, "t", "u"),
    ("out X(t); plot(x: X(s)); fn X(t);", ParseError, "1:21: independent variable of X is 't', found 's'", 1, 21,
     "t", "s"),
    ("out X(s); fn X(t); let", ParseError, "1:23: expected state name or 'diff', found end of input", 1, 23,
     "state name or 'diff'", "end of input"),
    ("fn X(t);\n  $", LexError, "2:3: unexpected character '$'", 2, 3, None, None),
    ("fn Ⅹ(t);", LexError, "1:4: unexpected character 'Ⅹ'", 1, 4, None, None),
    ("fn é(t);", LexError, "1:4: unexpected character 'é'", 1, 4, None, None),
    ("let X(t: 0) = ١;", LexError, "1:15: unexpected character '١'", 1, 15, None, None),
    ("let X(t: 0) = 1.5e3;", LexError, "1:18: malformed number: '1.5e' (exponent notation is not supported)", 1, 18,
     None, None),
    ("let X(t: 0) = 3.;", LexError, "1:16: digits required after decimal point", 1, 16, None, None),
    ("1" + "0" * 400, LexError, "1:1: number 100000000000000000000000... overflows the representable range", 1, 1,
     None, None),
]


@pytest.mark.parametrize("source, kind, text, line, column, expected, found", _DIAGNOSTICS, ids=[row[2] for row in _DIAGNOSTICS])
def test_front_end_diagnostic(source, kind, text, line, column, expected, found):
    with pytest.raises(SourceError) as err:
        compile_source(source)
    assert (type(err.value), str(err.value), err.value.line, err.value.column) == (kind, text, line, column)
    if kind is ParseError:
        assert (err.value.expected, err.value.found) == (expected, found)


def reference_tokenize(source):
    """Test-local character-by-character scanner with tokenize's contract."""

    def ident_start(ch):
        return "a" <= ch <= "z" or "A" <= ch <= "Z" or ch == "_"

    def digit(ch):
        return "0" <= ch <= "9"

    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ident_start(ch):
            j = i
            while j < n and (ident_start(source[j]) or digit(source[j])):
                j += 1
            word = source[i:j]
            tokens.append(Token(TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT, word, line, col))
        elif digit(ch):
            j = i
            while j < n and digit(source[j]):
                j += 1
            if j < n and source[j] == ".":
                j += 1
                if j >= n or not digit(source[j]):
                    raise LexError("digits required after decimal point", line, col + (j - i) - 1)
                while j < n and digit(source[j]):
                    j += 1
            if j < n and ident_start(source[j]):
                raise LexError(
                    f"malformed number: {source[i:j + 1]!r} (exponent notation is not supported)", line, col + (j - i)
                )
            word = source[i:j]
            if not math.isfinite(float(word)):
                raise LexError(f"number {word[:24]}... overflows the representable range", line, col)
            tokens.append(Token(TokenKind.NUMBER, word, line, col))
        elif ch in "()[],:;=+-*":
            tokens.append(Token(TokenKind.PUNCT, ch, line, col))
            j = i + 1
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
        col += j - i
        i = j
    return tokens


def _scan(scanner, source):
    try:
        return scanner(source)
    except LexError as exc:
        return (exc.message, exc.line, exc.column)


_SCANNER_ALPHABET = string.ascii_letters + string.digits + " \t\r\n\f#.e()[],:;=+-*Ⅹé١"


@given(st.text(alphabet=_SCANNER_ALPHABET, max_size=60) | _soup | _edited_programs())
@settings(max_examples=1000, deadline=None)
def test_tokenize_matches_reference_scanner(source):
    assert _scan(tokenize, source) == _scan(reference_tokenize, source)


@pytest.mark.parametrize(
    "source, line",
    [
        ("out X(t);" + " " * 1_000_000, 1),
        ("out X(t);\t\r\n# " + "c" * 1_000_000, 1),
        ("\n" * 200_000 + "out X(t);", 200_001),
    ],
    ids=["1 MB of trailing blanks", "1 MB comment without a final newline", "200k blank lines"],
)
def test_tokenize_is_linear(source, line):
    # blanks and a comment ride in front of the next token's match; at the
    # end of the text they must match once, not backtrack blank by blank
    started = time.process_time()
    tokens = tokenize(source)
    assert time.process_time() - started < 1.0
    assert [(t.lexeme, t.line) for t in tokens] == [(lexeme, line) for lexeme in ["out", "X", "(", "t", ")", ";"]]


class ReferenceParser:
    """Test-local copy of the parser before its token list ended in a
    sentinel: every helper checks the list's length through `_peek`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.ivars: dict[str, str] = {}  # declared state -> independent variable
        self.deferred: list[tuple[str, Token]] = []  # references met before their state's `fn`
        self.nesting = 0  # open '(' and unary '-' around the current token

    # --- token plumbing

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _here(self) -> Pos:
        tok = self._peek()
        if tok is not None:
            return (tok.line, tok.column)
        if self.tokens:
            last = self.tokens[-1]
            return (last.line, last.column + len(last.lexeme))
        return (1, 1)

    def _fail(self, expected: str) -> ParseError:
        tok = self._peek()
        found = f"{tok.lexeme!r}" if tok else "end of input"
        line, col = self._here()
        return ParseError(f"expected {expected}, found {found}", line, col, expected, found)

    def _at(self, symbol: str) -> bool:
        """Whether the current token is the punctuation mark or keyword
        `symbol`.  Only the lexeme is compared: no identifier or number
        spells one, since keywords lex as KEYWORD."""
        tok = self._peek()
        return tok is not None and tok.lexeme == symbol

    def _expect(self, symbol: str) -> Token:
        """Consume the punctuation mark or keyword `symbol`."""
        tok = self._peek()
        if tok is None or tok.lexeme != symbol:
            raise self._fail(f"'{symbol}'")
        self.pos += 1
        return tok

    def _take(self, kind: TokenKind, what: str) -> Token:
        """Consume an identifier or number, described as `what` if absent."""
        tok = self._peek()
        if tok is None or tok.kind is not kind:
            raise self._fail(what)
        self.pos += 1
        return tok

    def _nest(self) -> None:
        """Enter one more '(' or unary '-' (the current token)."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            line, col = self._here()
            expected = f"at most {MAX_NESTING} nested '(' and unary '-'"
            raise ParseError(f"expression nested too deeply: {expected}", line, col, expected, repr(self._peek().lexeme))

    def _check_ivar(self, state: str, tok: Token):
        declared = self.ivars.get(state)
        if declared is None:
            self.deferred.append((state, tok))
        elif tok.lexeme != declared:
            raise ParseError(
                f"independent variable of {state} is {declared!r}, found {tok.lexeme!r}",
                tok.line,
                tok.column,
                declared,
                tok.lexeme,
            )

    # --- grammar

    def program(self) -> list:
        stmts = []
        while self._peek() is not None:
            stmts.append(self.statement())
        for state, tok in self.deferred:
            if state in self.ivars:
                self._check_ivar(state, tok)
        return stmts

    def statement(self) :
        if self._at("fn"):
            return self.fn_decl()
        if self._at("let"):
            return self.let_stmt()
        if self._at("plot"):
            return self.plot_stmt()
        if self._at("out"):
            return self.out_stmt()
        raise self._fail("'fn', 'let', 'plot', or 'out'")

    def fn_decl(self) -> FnDecl:
        kw = self._expect("fn")
        name = self._take(TokenKind.IDENT, "state name")
        self._expect("(")
        ivar = self._take(TokenKind.IDENT, "independent variable")
        self._expect(")")
        self._expect(";")
        self.ivars.setdefault(name.lexeme, ivar.lexeme)
        return FnDecl(name.lexeme, ivar.lexeme, (kw.line, kw.column))

    def let_stmt(self) :
        kw = self._expect("let")
        if self._at("diff"):
            self.pos += 1
            self._expect("[")
            state = self._take(TokenKind.IDENT, "state name")
            self._expect(",")
            self._check_ivar(state.lexeme, self._take(TokenKind.IDENT, "independent variable"))
            self._expect("]")
            self._expect("=")
            expr = self.expression()
            self._expect(";")
            return DiffDef(state.lexeme, expr, (kw.line, kw.column))
        state = self._take(TokenKind.IDENT, "state name or 'diff'")
        self._expect("(")
        self._check_ivar(state.lexeme, self._take(TokenKind.IDENT, "independent variable"))
        self._expect(":")
        time_tok = self._take(TokenKind.NUMBER, "number")
        self._expect(")")
        self._expect("=")
        value = self.signed_number()
        self._expect(";")
        return InitDef(state.lexeme, float(time_tok.lexeme), value, (kw.line, kw.column))

    def plot_stmt(self) -> PlotStmt:
        kw = self._expect("plot")
        self._expect("(")
        axes = [self.plot_axis()]
        while self._at(","):
            self.pos += 1
            axes.append(self.plot_axis())
        self._expect(")")
        self._expect(";")
        return PlotStmt(tuple(axes), (kw.line, kw.column))

    def plot_axis(self) -> tuple[str, str]:
        label = self._take(TokenKind.IDENT, "axis label")
        self._expect(":")
        return (label.lexeme, self.reference())

    def out_stmt(self) -> OutStmt:
        kw = self._expect("out")
        state = self.reference()
        self._expect(";")
        return OutStmt(state, (kw.line, kw.column))

    def reference(self) -> str:
        """`state(ivar)`, with the ivar checked against the declaration."""
        state = self._take(TokenKind.IDENT, "state name")
        self._expect("(")
        self._check_ivar(state.lexeme, self._take(TokenKind.IDENT, "independent variable"))
        self._expect(")")
        return state.lexeme

    def signed_number(self) -> float:
        sign = 1.0
        if self._at("-"):
            self.pos += 1
            sign = -1.0
        elif self._at("+"):
            self.pos += 1
        return sign * float(self._take(TokenKind.NUMBER, "number").lexeme)

    # expr := term (("+" | "-") term)*
    # term := factor ("*" factor)*
    # factor := "-" factor | primary
    # primary := Number | Ident | "(" expr ")"

    def expression(self) :
        node = self.term()
        while self._at("+") or self._at("-"):
            op = self._peek()
            self.pos += 1
            node = (Add if op.lexeme == "+" else Sub)(node, self.term(), (op.line, op.column))
        return node

    def term(self) :
        node = self.factor()
        while self._at("*"):
            pos = self._here()
            self.pos += 1
            node = Mul(node, self.factor(), pos)
        return node

    def factor(self) :
        if self._at("-"):
            pos = self._here()
            self._nest()
            self.pos += 1
            node = Neg(self.factor(), pos)
            self.nesting -= 1
            return node
        return self.primary()

    def primary(self) :
        tok = self._peek()
        if tok is None:
            raise self._fail("expression")
        if tok.kind is TokenKind.NUMBER:
            self.pos += 1
            return Const(float(tok.lexeme), (tok.line, tok.column))
        if tok.kind is TokenKind.IDENT:
            self.pos += 1
            return Var(tok.lexeme, (tok.line, tok.column))
        if tok.lexeme == "(":
            self._nest()
            self.pos += 1
            node = self.expression()
            self._expect(")")
            self.nesting -= 1
            return node
        raise self._fail("number, state name, or '('")


def reference_parse(tokens):
    return ReferenceParser(tokens).program()


def _parsed(parser, tokens):
    """Statements plus every expression node's position (`_Node.__eq__`
    ignores positions), or the ParseError's type, text and fields."""
    try:
        stmts = parser(tokens)
    except ParseError as exc:
        return (type(exc), str(exc), exc.line, exc.column, exc.expected, exc.found)
    positions = [[(type(n), n.pos) for n in postorder(s.expr)] for s in stmts if isinstance(s, DiffDef)]
    return stmts, positions


# lexemes that always lex, so most soups reach the parser
_parse_soup = st.lists(
    st.sampled_from(
        ["fn", "let", "diff", "plot", "out", "X", "Y", "t", "s", "0", "1.5", "(", ")", "[", "]", ",", ":", ";",
         "=", "+", "-", "*", "\n", "\t", "# note\n"]
    ),
    max_size=60,
).map(" ".join)


@st.composite
def _deep(draw):
    """One expression nested around MAX_NESTING deep, by '(' or unary '-'."""
    depth = draw(st.integers(MAX_NESTING - 3, MAX_NESTING + 3))
    opener = draw(st.sampled_from(["(", "-", "-("]))
    return f"fn X(t); let diff[X, t] = {opener * depth}X{')' * (depth * opener.count('('))};"


@given(_parse_soup | _soup | _edited_programs() | _programs().map(format_program) | _deep())
@settings(max_examples=1000, deadline=None)
def test_parser_matches_reference_parser(source):
    try:
        tokens = tokenize(source)
    except LexError:
        return
    assert _parsed(parse, tokens) == _parsed(reference_parse, tokens)
