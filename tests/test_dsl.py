import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from autopatch.dsl import (
    Add,
    Const,
    LexError,
    Mul,
    Neg,
    ParseError,
    Program,
    SourceError,
    StateDef,
    Sub,
    TokenKind,
    ValidateError,
    Var,
    compile_source,
    format_expr,
    format_number,
    format_program,
    parse,
    tokenize,
)


def kinds_and_lexemes(tokens):
    return [(t.kind, t.lexeme) for t in tokens]


def parse_derivative(source: str, state: str):
    from autopatch.dsl import DiffDef

    for stmt in parse(tokenize(source)):
        if isinstance(stmt, DiffDef) and stmt.state == state:
            return stmt.expr
    raise AssertionError(f"no derivative for {state}")


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
        from autopatch.dsl import format_number

        text = format_number(0.0000001)
        assert "e" not in text and "E" not in text
        assert float(text) == 0.0000001

    def test_expr_formatting_reparses_identically(self):
        expr = Sub(Mul(Neg(Const(2.0)), Var("X")), Mul(Const(0.5), Var("Y")))
        src = f"fn X(t); fn Y(t); let diff[X, t] = {format_expr(expr)}; let diff[Y, t] = X;"
        src += " let X(t: 0) = 0; let Y(t: 0) = 0;"
        assert compile_source(src).states[0].derivative == expr


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


def recursive_format_expr(expr):
    """Test-local copy of the recursive formatter that format_expr replaced."""
    if isinstance(expr, Const):
        if expr.value < 0:
            return f"(-{format_number(-expr.value)})"
        return format_number(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{recursive_format_expr(expr.operand)})"
    ops = {Add: "+", Sub: "-", Mul: "*"}
    return f"({recursive_format_expr(expr.left)} {ops[type(expr)]} {recursive_format_expr(expr.right)})"


class TestLongSums:
    @given(_exprs(["A", "B"]) | _weights.map(lambda w: Const(-w)))
    @settings(max_examples=200, deadline=None)
    def test_format_matches_recursive_formatter(self, expr):
        assert format_expr(expr) == recursive_format_expr(expr)

    def test_format_5000_term_sum(self):
        source = "fn X(t); let diff[X, t] = " + " + ".join(["X"] * 5000) + "; let X(t: 0) = 0.5;"
        program = compile_source(source)
        assert format_expr(program.states[0].derivative) == "(" * 4999 + "X" + " + X)" * 4999
        text = format_program(program)
        assert text.startswith("fn X(t);\nlet diff[X, t] = " + "(" * 4999 + "X + X)")
        # deeper than the parser's nesting limit, as format_program says
        with pytest.raises(ParseError, match="nested too deeply"):
            compile_source(text)


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
