"""Frontend for the ODE description language.

A program declares state functions, one derivative and one initial
condition per state, and output/plot requests:

    fn X(t);
    let diff[X, t] = 1.8 * Y - X;
    let X(t: 0) = 0.1;
    plot(x: X(t), y: Y(t));
    out X(t);

Expressions are polynomial: decimal constants, state references, `+`,
binary/unary `-`, `*`, and parentheses.  `*` binds over `+`/`-`, both
associate left, unary minus binds tighter than `*`.  `#` starts a comment
running to end of line.  The independent variable of every reference must
match the one declared in the state's `fn` statement.

The front end pays little per token and per tree node: `tokenize` makes one
regular-expression match per token, blanks and comments included; the
parser reads a token list that ends in a sentinel token, so no helper checks
the list's length; and the tree nodes, the statements and the validated
program's `StateDef`s are plain `__slots__` classes, each with its own
`__init__`, that are not frozen, because a frozen `__init__` costs about four
times as much and a NamedTuple's almost twice as much.  Statements and
`StateDef`s compare and hash field-wise (`_Record`), nodes by their
position-blind equality and hash (`_Node`); no code assigns to any of them.
Tree walks dispatch on `type(node)`, not on `isinstance` with class
tuples.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Iterator, NamedTuple, Union

from . import _Record

KEYWORDS = frozenset({"fn", "let", "diff", "plot", "out"})
# Deepest nesting of '(' and unary '-' in one expression.  The parser spends
# up to four stack frames per level, so deeper input is refused with a
# ParseError before it exhausts the stack; every later stage handles it.
MAX_NESTING = 200


class SourceError(ValueError):
    """Base for diagnostics carrying a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class LexError(SourceError):
    pass


class ParseError(SourceError):
    def __init__(self, message: str, line: int, column: int, expected: str, found: str):
        super().__init__(message, line, column)
        self.expected = expected
        self.found = found


class ValidateError(SourceError):
    pass


class TokenKind(Enum):
    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    PUNCT = "punct"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    line: int
    column: int


_TOKEN = re.compile(
    r"[ \t\r]*(?:#[^\n]*)?(?:([()\[\],:;=+\-*])"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|(\n)"
    r"|(\d+(?:\.\d+)?[A-Za-z_])"
    r"|(\d+(?:\.\d*)?)"
    r"|(.)|\Z)",
    re.ASCII,
)
_PUNCT, _IDENT, _NEWLINE, _MALFORMED, _NUMBER, _BAD = range(1, 7)


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, tracking 1-based line/column.

    One regular expression, `_TOKEN`, scans the text with one match per
    token or newline: the match skips the blanks and the comment before
    its token, and one alternative captures the token, read by group
    index (`lastindex`).  The text's end is one last match that captures
    no group, so trailing blanks and a final comment match once and the
    greedy prefix never backtracks into a blank that `.` would take; the
    scan is linear in the text.  The alternatives are tried most frequent
    first.  A digit run followed by a letter matches whole as malformed,
    before the number alternative, so it is refused rather than split
    into a number and a name.  re.ASCII keeps `\\d` to the ASCII digits,
    so `١` is an unexpected character.

    Numbers are plain decimals (`12`, `0.5`); exponent notation and a bare
    trailing dot are rejected.  Signs are expression-level tokens, not
    part of number lexemes.
    """
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__  # Token(...) without its Python-level __new__
    # members bound once: a member lookup on the enum class costs ~0.1 µs per token
    keyword, ident, number, punct = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.NUMBER, TokenKind.PUNCT
    line, before_line = 1, -1  # a token's column is its offset minus before_line
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group == _PUNCT:
            append(new(Token, (punct, match[group], line, match.start(group) - before_line)))
        elif group == _IDENT:
            word = match[group]
            append(new(Token, (keyword if word in KEYWORDS else ident, word, line, match.start(group) - before_line)))
        elif group == _NEWLINE:
            line += 1
            before_line = match.start(group)
        elif group is None:
            break  # the end of the text
        else:
            word = match[group]
            col = match.start(group) - before_line
            if group == _MALFORMED:
                raise LexError(
                    f"malformed number: {word!r} (exponent notation is not supported)", line, col + len(word) - 1
                )
            if group == _BAD:
                raise LexError(f"unexpected character {word!r}", line, col)
            if word[-1] == ".":
                raise LexError("digits required after decimal point", line, col + len(word) - 1)
            if not math.isfinite(float(word)):
                raise LexError(f"number {word[:24]}... overflows the representable range", line, col)
            append(new(Token, (number, word, line, col)))
    return tokens


# --------------------------------------------------------------------------
# expression AST

Pos = tuple[int, int]
_NOPOS: Pos = (0, 0)


class _Node:
    """Equality and hashing of expression trees.  Two trees are equal when
    their post-order sequences of (node type, leaf value or name) are,
    which with each type's fixed arity fixes the shape; positions do not
    count.  The walk is iterative, so deep trees compare and hash without
    hitting the recursion limit.

    The empty `__slots__` keeps the node types free of a `__dict__`, which
    would make each node larger and slower to build.  Each type's last slot
    is its position, which its repr leaves out."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple((type(n), getattr(n, "value", getattr(n, "name", None))) for n in postorder(self))

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"{type(self).__name__}({fields})"


class Const(_Node):
    __slots__ = ("value", "pos")

    def __init__(self, value: float, pos: Pos = _NOPOS):
        self.value = value
        self.pos = pos


class Var(_Node):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: Pos = _NOPOS):
        self.name = name
        self.pos = pos


class Add(_Node):
    __slots__ = ("left", "right", "pos")

    def __init__(self, left: Expr, right: Expr, pos: Pos = _NOPOS):
        self.left = left
        self.right = right
        self.pos = pos


class Sub(_Node):
    __slots__ = ("left", "right", "pos")

    def __init__(self, left: Expr, right: Expr, pos: Pos = _NOPOS):
        self.left = left
        self.right = right
        self.pos = pos


class Mul(_Node):
    __slots__ = ("left", "right", "pos")

    def __init__(self, left: Expr, right: Expr, pos: Pos = _NOPOS):
        self.left = left
        self.right = right
        self.pos = pos


class Neg(_Node):
    __slots__ = ("operand", "pos")

    def __init__(self, operand: Expr, pos: Pos = _NOPOS):
        self.operand = operand
        self.pos = pos


Expr = Union[Const, Var, Add, Sub, Mul, Neg]


def postorder(expr: Expr) -> Iterator[Expr]:
    """Every node of `expr`, each after its operands, left operand first.

    The walk keeps an explicit stack: a sum of thousands of terms is a
    left-deep chain of `+` that the nesting limit does not cover, and it
    must not hit Python's recursion limit.
    """
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, operands_done = stack.pop()
        kind = type(node)
        if operands_done or kind is Var or kind is Const:
            yield node
        elif kind is Mul or kind is Add or kind is Sub:
            stack += ((node, True), (node.right, False), (node.left, False))
        elif kind is Neg:
            stack += ((node, True), (node.operand, False))
        else:
            raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# statements (parser output, pre-validation)


class FnDecl(_Record):
    __slots__ = ("name", "ivar", "pos")

    def __init__(self, name: str, ivar: str, pos: Pos):
        self.name = name
        self.ivar = ivar
        self.pos = pos


class DiffDef(_Record):
    __slots__ = ("state", "expr", "pos")

    def __init__(self, state: str, expr: Expr, pos: Pos):
        self.state = state
        self.expr = expr
        self.pos = pos


class InitDef(_Record):
    __slots__ = ("state", "time", "value", "pos")

    def __init__(self, state: str, time: float, value: float, pos: Pos):
        self.state = state
        self.time = time
        self.value = value
        self.pos = pos


class PlotStmt(_Record):
    __slots__ = ("axes", "pos")

    def __init__(self, axes: tuple[tuple[str, str], ...], pos: Pos):
        self.axes = axes  # (axis label, state name) pairs
        self.pos = pos


class OutStmt(_Record):
    __slots__ = ("state", "pos")

    def __init__(self, state: str, pos: Pos):
        self.state = state
        self.pos = pos


Stmt = Union[FnDecl, DiffDef, InitDef, PlotStmt, OutStmt]


class _Parser:
    """Recursive-descent parser over the token list.

    The parser works on a copy of the list that ends in a sentinel token
    placed where input ends: no lexeme or kind matches it, so `_at`,
    `_expect` and `_take` index the current token once without a bounds
    check, and a diagnostic at the end names the sentinel's position.
    """

    def __init__(self, tokens: list[Token]):
        last = tokens[-1] if tokens else Token(None, "", 1, 1)
        self.end = Token(None, "", last.line, last.column + len(last.lexeme))
        self.tokens = [*tokens, self.end]
        self.pos = 0
        self.ivars: dict[str, str] = {}  # declared state -> independent variable
        self.deferred: list[tuple[str, Token]] = []  # references met before their state's `fn`
        self.nesting = 0  # open '(' and unary '-' around the current token

    # --- token plumbing

    def _fail(self, expected: str) -> ParseError:
        tok = self.tokens[self.pos]
        found = "end of input" if tok is self.end else repr(tok.lexeme)
        return ParseError(f"expected {expected}, found {found}", tok.line, tok.column, expected, found)

    def _at(self, symbol: str) -> bool:
        """Whether the current token is the punctuation mark or keyword
        `symbol`.  Only the lexeme is compared: no identifier or number
        spells one, since keywords lex as KEYWORD."""
        return self.tokens[self.pos].lexeme == symbol

    def _expect(self, symbol: str) -> Token:
        """Consume the punctuation mark or keyword `symbol`."""
        tok = self.tokens[self.pos]
        if tok.lexeme != symbol:
            raise self._fail(f"'{symbol}'")
        self.pos += 1
        return tok

    def _take(self, kind: TokenKind, what: str) -> Token:
        """Consume an identifier or number, described as `what` if absent."""
        tok = self.tokens[self.pos]
        if tok.kind is not kind:
            raise self._fail(what)
        self.pos += 1
        return tok

    def _nest(self) -> None:
        """Enter one more '(' or unary '-' (the current token)."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            tok = self.tokens[self.pos]
            expected = f"at most {MAX_NESTING} nested '(' and unary '-'"
            raise ParseError(
                f"expression nested too deeply: {expected}", tok.line, tok.column, expected, repr(tok.lexeme)
            )

    def _check_ivar(self, state: str, tok: Token):
        declared = self.ivars.get(state)
        if declared is None:
            self.deferred.append((state, tok))
        elif tok.lexeme != declared:
            message = f"independent variable of {state} is {declared!r}, found {tok.lexeme!r}"
            raise ParseError(message, tok.line, tok.column, declared, tok.lexeme)

    # --- grammar

    def program(self) -> list[Stmt]:
        stmts = []
        while self.tokens[self.pos] is not self.end:
            stmts.append(self.statement())
        for state, tok in self.deferred:
            if state in self.ivars:
                self._check_ivar(state, tok)
        return stmts

    def statement(self) -> Stmt:
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

    def let_stmt(self) -> Stmt:
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

    def expression(self) -> Expr:
        """The expression grammar, one method per rule:

            expr := term (("+" | "-") term)*
            term := factor ("*" factor)*
            factor := "-" factor | primary
            primary := Number | Ident | "(" expr ")"
        """
        node = self.term()
        op = self.tokens[self.pos]
        while op.lexeme == "+" or op.lexeme == "-":
            self.pos += 1
            node = (Add if op.lexeme == "+" else Sub)(node, self.term(), (op.line, op.column))
            op = self.tokens[self.pos]
        return node

    def term(self) -> Expr:
        node = self.factor()
        op = self.tokens[self.pos]
        while op.lexeme == "*":
            self.pos += 1
            node = Mul(node, self.factor(), (op.line, op.column))
            op = self.tokens[self.pos]
        return node

    def factor(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.lexeme != "-":
            return self.primary()
        self._nest()
        self.pos += 1
        node = Neg(self.factor(), (tok.line, tok.column))
        self.nesting -= 1
        return node

    def primary(self) -> Expr:
        tok = self.tokens[self.pos]
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
        raise self._fail("expression" if tok is self.end else "number, state name, or '('")


def parse(tokens: list[Token]) -> list[Stmt]:
    """Parse a token list into statements (run `validate` afterwards)."""
    return _Parser(tokens).program()


# --------------------------------------------------------------------------
# validated program


class StateDef(_Record):
    __slots__ = ("name", "ivar", "derivative", "initial_value")

    def __init__(self, name: str, ivar: str, derivative: Expr, initial_value: float):
        self.name = name
        self.ivar = ivar
        self.derivative = derivative
        self.initial_value = initial_value


class Program(NamedTuple):
    """A checked program: unique states in declaration order, each with
    exactly one derivative and one initial condition; outputs and plots
    reference declared states only."""

    states: tuple[StateDef, ...]
    outputs: tuple[str, ...]
    plots: tuple[tuple[str, str], ...]  # (x state, y state)

    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)

    def signals(self) -> tuple[str, ...]:
        """The states the program taps: the outputs, then the plot axes,
        each once, at its first appearance."""
        return tuple(dict.fromkeys((*self.outputs, *(axis for pair in self.plots for axis in pair))))


def validate(stmts: list[Stmt]) -> Program:
    """Check declarations and references, producing a Program.

    Raises ValidateError on: duplicate or missing `fn`/`diff`/initial
    statements, references to undeclared states, nonzero initial times,
    plots with fewer than two axes, or duplicate `out` statements.  A
    missing derivative or initial condition is reported at the state's
    `fn`.
    """
    decls: dict[str, FnDecl] = {}  # in declaration order
    for stmt in stmts:
        if isinstance(stmt, FnDecl):
            if stmt.name in decls:
                raise ValidateError(f"duplicate declaration of state {stmt.name}", *stmt.pos)
            decls[stmt.name] = stmt
    if not decls:
        line, col = (stmts[0].pos if stmts else (1, 1))
        raise ValidateError("no states declared", line, col)

    derivs: dict[str, Expr] = {}
    inits: dict[str, float] = {}
    outputs: list[str] = []
    plots: list[tuple[str, str]] = []
    for stmt in stmts:
        if isinstance(stmt, DiffDef):
            if stmt.state not in decls:
                raise ValidateError(f"derivative of undeclared state {stmt.state}", *stmt.pos)
            if stmt.state in derivs:
                raise ValidateError(f"duplicate derivative for state {stmt.state}", *stmt.pos)
            for node in postorder(stmt.expr):  # leaves left to right: the first undeclared name is reported
                if type(node) is Var and node.name not in decls:
                    line, col = node.pos if node.pos != _NOPOS else stmt.pos
                    raise ValidateError(f"use of undeclared state {node.name}", line, col)
            derivs[stmt.state] = stmt.expr
        elif isinstance(stmt, InitDef):
            if stmt.state not in decls:
                raise ValidateError(f"initial condition for undeclared state {stmt.state}", *stmt.pos)
            if stmt.state in inits:
                raise ValidateError(f"duplicate initial condition for state {stmt.state}", *stmt.pos)
            if stmt.time != 0.0:
                raise ValidateError(f"initial conditions must be given at time 0, not {stmt.time}", *stmt.pos)
            inits[stmt.state] = stmt.value
        elif isinstance(stmt, OutStmt):
            if stmt.state not in decls:
                raise ValidateError(f"out references undeclared state {stmt.state}", *stmt.pos)
            if stmt.state in outputs:
                raise ValidateError(f"duplicate out statement for state {stmt.state}", *stmt.pos)
            outputs.append(stmt.state)
        elif isinstance(stmt, PlotStmt):
            for _, state in stmt.axes:
                if state not in decls:
                    raise ValidateError(f"plot references undeclared state {state}", *stmt.pos)
            if len(stmt.axes) < 2:
                raise ValidateError("plot requires at least two axes (x and y)", *stmt.pos)
            plots.append((stmt.axes[0][1], stmt.axes[1][1]))

    for name, decl in decls.items():
        if name not in derivs:
            raise ValidateError(f"state {name} has no derivative definition", *decl.pos)
        if name not in inits:
            raise ValidateError(f"state {name} has no initial condition", *decl.pos)

    states = tuple(StateDef(name, decl.ivar, derivs[name], inits[name]) for name, decl in decls.items())
    return Program(states, tuple(outputs), tuple(plots))


def compile_source(source: str) -> Program:
    """tokenize + parse + validate in one call."""
    return validate(parse(tokenize(source)))
