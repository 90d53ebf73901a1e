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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import Iterator, Optional, Union

KEYWORDS = frozenset({"fn", "let", "diff", "plot", "out"})
PUNCT = frozenset("()[],:;=+-*")
# Deepest nesting of '(' and unary '-' in one expression.  The parser spends
# up to four stack frames per level, so deeper input is refused with a
# ParseError before it exhausts the stack; every later stage handles it.
MAX_NESTING = 200


def _is_ident_start(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z" or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return _is_ident_start(ch) or "0" <= ch <= "9"


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


class SourceError(Exception):
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


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, tracking 1-based line/column.

    Numbers are plain decimals (`12`, `0.5`); exponent notation and a
    bare trailing dot are rejected.  Signs are expression-level tokens,
    not part of number lexemes.
    """
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(source[j]):
                j += 1
            word = source[i:j]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if _is_digit(ch):
            j = i
            while j < n and _is_digit(source[j]):
                j += 1
            if j < n and source[j] == ".":
                j += 1
                if j >= n or not _is_digit(source[j]):
                    raise LexError("digits required after decimal point", line, col + (j - i) - 1)
                while j < n and _is_digit(source[j]):
                    j += 1
            if j < n and _is_ident_start(source[j]):
                raise LexError(
                    f"malformed number: {source[i:j + 1]!r} (exponent notation is not supported)",
                    line,
                    col + (j - i),
                )
            word = source[i:j]
            if not math.isfinite(float(word)):
                raise LexError(f"number {word[:24]}... overflows the representable range", line, col)
            tokens.append(Token(TokenKind.NUMBER, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in PUNCT:
            tokens.append(Token(TokenKind.PUNCT, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
    return tokens


# --------------------------------------------------------------------------
# expression AST

Pos = tuple[int, int]
_NOPOS: Pos = (0, 0)


@dataclass(frozen=True)
class Const:
    value: float
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


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
        if operands_done or isinstance(node, (Const, Var)):
            yield node
        elif isinstance(node, Neg):
            stack += ((node, True), (node.operand, False))
        elif isinstance(node, (Add, Sub, Mul)):
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# statements (parser output, pre-validation)


@dataclass(frozen=True)
class FnDecl:
    name: str
    ivar: str
    pos: Pos


@dataclass(frozen=True)
class DiffDef:
    state: str
    expr: Expr
    pos: Pos


@dataclass(frozen=True)
class InitDef:
    state: str
    time: float
    value: float
    pos: Pos


@dataclass(frozen=True)
class PlotStmt:
    axes: tuple[tuple[str, str], ...]  # (axis label, state name)
    pos: Pos


@dataclass(frozen=True)
class OutStmt:
    state: str
    pos: Pos


Stmt = Union[FnDecl, DiffDef, InitDef, PlotStmt, OutStmt]


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.ivars: dict[str, str] = {}  # declared state -> independent variable
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

    def _next(self, expected: str) -> Token:
        tok = self._peek()
        if tok is None:
            raise self._fail(expected)
        self.pos += 1
        return tok

    def _expect_punct(self, symbol: str) -> Token:
        tok = self._peek()
        if tok is None or tok.kind is not TokenKind.PUNCT or tok.lexeme != symbol:
            raise self._fail(f"'{symbol}'")
        self.pos += 1
        return tok

    def _expect_keyword(self, word: str) -> Token:
        tok = self._peek()
        if tok is None or tok.kind is not TokenKind.KEYWORD or tok.lexeme != word:
            raise self._fail(f"'{word}'")
        self.pos += 1
        return tok

    def _expect_ident(self, what: str = "identifier") -> Token:
        tok = self._peek()
        if tok is None or tok.kind is not TokenKind.IDENT:
            raise self._fail(what)
        self.pos += 1
        return tok

    def _expect_number(self) -> Token:
        tok = self._peek()
        if tok is None or tok.kind is not TokenKind.NUMBER:
            raise self._fail("number")
        self.pos += 1
        return tok

    def _at_punct(self, symbol: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind is TokenKind.PUNCT and tok.lexeme == symbol

    def _nest(self) -> None:
        """Enter one more '(' or unary '-' (the current token)."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            line, col = self._here()
            expected = f"at most {MAX_NESTING} nested '(' and unary '-'"
            raise ParseError(f"expression nested too deeply: {expected}", line, col, expected, repr(self._peek().lexeme))

    def _check_ivar(self, state: str, tok: Token):
        declared = self.ivars.get(state)
        if declared is not None and tok.lexeme != declared:
            raise ParseError(
                f"independent variable of {state} is {declared!r}, found {tok.lexeme!r}",
                tok.line,
                tok.column,
                declared,
                tok.lexeme,
            )

    # --- grammar

    def program(self) -> list[Stmt]:
        stmts = []
        while self._peek() is not None:
            stmts.append(self.statement())
        return stmts

    def statement(self) -> Stmt:
        tok = self._peek()
        if tok is None:
            raise self._fail("statement")
        if tok.kind is TokenKind.KEYWORD and tok.lexeme == "fn":
            return self.fn_decl()
        if tok.kind is TokenKind.KEYWORD and tok.lexeme == "let":
            return self.let_stmt()
        if tok.kind is TokenKind.KEYWORD and tok.lexeme == "plot":
            return self.plot_stmt()
        if tok.kind is TokenKind.KEYWORD and tok.lexeme == "out":
            return self.out_stmt()
        raise self._fail("'fn', 'let', 'plot', or 'out'")

    def fn_decl(self) -> FnDecl:
        kw = self._expect_keyword("fn")
        name = self._expect_ident("state name")
        self._expect_punct("(")
        ivar = self._expect_ident("independent variable")
        self._expect_punct(")")
        self._expect_punct(";")
        self.ivars.setdefault(name.lexeme, ivar.lexeme)
        return FnDecl(name.lexeme, ivar.lexeme, (kw.line, kw.column))

    def let_stmt(self) -> Stmt:
        kw = self._expect_keyword("let")
        tok = self._peek()
        if tok is not None and tok.kind is TokenKind.KEYWORD and tok.lexeme == "diff":
            self.pos += 1
            self._expect_punct("[")
            state = self._expect_ident("state name")
            self._expect_punct(",")
            ivar = self._expect_ident("independent variable")
            self._check_ivar(state.lexeme, ivar)
            self._expect_punct("]")
            self._expect_punct("=")
            expr = self.expression()
            self._expect_punct(";")
            return DiffDef(state.lexeme, expr, (kw.line, kw.column))
        state = self._expect_ident("state name or 'diff'")
        self._expect_punct("(")
        ivar = self._expect_ident("independent variable")
        self._check_ivar(state.lexeme, ivar)
        self._expect_punct(":")
        time_tok = self._expect_number()
        self._expect_punct(")")
        self._expect_punct("=")
        value = self.signed_number()
        self._expect_punct(";")
        return InitDef(state.lexeme, float(time_tok.lexeme), value, (kw.line, kw.column))

    def plot_stmt(self) -> PlotStmt:
        kw = self._expect_keyword("plot")
        self._expect_punct("(")
        axes = [self.plot_axis()]
        while self._at_punct(","):
            self.pos += 1
            axes.append(self.plot_axis())
        self._expect_punct(")")
        self._expect_punct(";")
        return PlotStmt(tuple(axes), (kw.line, kw.column))

    def plot_axis(self) -> tuple[str, str]:
        label = self._expect_ident("axis label")
        self._expect_punct(":")
        state = self._expect_ident("state name")
        self._expect_punct("(")
        ivar = self._expect_ident("independent variable")
        self._check_ivar(state.lexeme, ivar)
        self._expect_punct(")")
        return (label.lexeme, state.lexeme)

    def out_stmt(self) -> OutStmt:
        kw = self._expect_keyword("out")
        state = self._expect_ident("state name")
        self._expect_punct("(")
        ivar = self._expect_ident("independent variable")
        self._check_ivar(state.lexeme, ivar)
        self._expect_punct(")")
        self._expect_punct(";")
        return OutStmt(state.lexeme, (kw.line, kw.column))

    def signed_number(self) -> float:
        sign = 1.0
        if self._at_punct("-"):
            self.pos += 1
            sign = -1.0
        elif self._at_punct("+"):
            self.pos += 1
        tok = self._expect_number()
        return sign * float(tok.lexeme)

    # expr := term (("+" | "-") term)*
    # term := factor ("*" factor)*
    # factor := "-" factor | primary
    # primary := Number | Ident | "(" expr ")"

    def expression(self) -> Expr:
        node = self.term()
        while True:
            if self._at_punct("+"):
                pos = self._here()
                self.pos += 1
                node = Add(node, self.term(), pos)
            elif self._at_punct("-"):
                pos = self._here()
                self.pos += 1
                node = Sub(node, self.term(), pos)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while self._at_punct("*"):
            pos = self._here()
            self.pos += 1
            node = Mul(node, self.factor(), pos)
        return node

    def factor(self) -> Expr:
        if self._at_punct("-"):
            pos = self._here()
            self._nest()
            self.pos += 1
            node = Neg(self.factor(), pos)
            self.nesting -= 1
            return node
        return self.primary()

    def primary(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise self._fail("expression")
        if tok.kind is TokenKind.NUMBER:
            self.pos += 1
            return Const(float(tok.lexeme), (tok.line, tok.column))
        if tok.kind is TokenKind.IDENT:
            self.pos += 1
            return Var(tok.lexeme, (tok.line, tok.column))
        if tok.kind is TokenKind.PUNCT and tok.lexeme == "(":
            self._nest()
            self.pos += 1
            node = self.expression()
            self._expect_punct(")")
            self.nesting -= 1
            return node
        raise self._fail("number, state name, or '('")


def parse(tokens: list[Token]) -> list[Stmt]:
    """Parse a token list into statements (run `validate` afterwards)."""
    return _Parser(tokens).program()


# --------------------------------------------------------------------------
# validated program


@dataclass(frozen=True)
class StateDef:
    name: str
    ivar: str
    derivative: Expr
    initial_value: float


@dataclass(frozen=True)
class Program:
    """A checked program: unique states in declaration order, each with
    exactly one derivative and one initial condition; outputs and plots
    reference declared states only."""

    states: tuple[StateDef, ...]
    outputs: tuple[str, ...]
    plots: tuple[tuple[str, str], ...]  # (x state, y state)

    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)


def _expr_vars(expr: Expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            yield node
        elif isinstance(node, (Add, Sub, Mul)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Neg):
            stack.append(node.operand)


def validate(stmts: list[Stmt]) -> Program:
    """Check declarations and references, producing a Program.

    Raises ValidateError on: duplicate or missing `fn`/`diff`/initial
    statements, references to undeclared states, nonzero initial times,
    plots with fewer than two axes, or duplicate `out` statements.
    """
    order: list[str] = []
    ivars: dict[str, str] = {}
    for stmt in stmts:
        if isinstance(stmt, FnDecl):
            if stmt.name in ivars:
                raise ValidateError(f"duplicate declaration of state {stmt.name}", *stmt.pos)
            ivars[stmt.name] = stmt.ivar
            order.append(stmt.name)
    if not order:
        line, col = (stmts[0].pos if stmts else (1, 1))
        raise ValidateError("no states declared", line, col)

    derivs: dict[str, Expr] = {}
    inits: dict[str, float] = {}
    outputs: list[str] = []
    plots: list[tuple[str, str]] = []
    for stmt in stmts:
        if isinstance(stmt, DiffDef):
            if stmt.state not in ivars:
                raise ValidateError(f"derivative of undeclared state {stmt.state}", *stmt.pos)
            if stmt.state in derivs:
                raise ValidateError(f"duplicate derivative for state {stmt.state}", *stmt.pos)
            for var in _expr_vars(stmt.expr):
                if var.name not in ivars:
                    line, col = var.pos if var.pos != _NOPOS else stmt.pos
                    raise ValidateError(f"use of undeclared state {var.name}", line, col)
            derivs[stmt.state] = stmt.expr
        elif isinstance(stmt, InitDef):
            if stmt.state not in ivars:
                raise ValidateError(f"initial condition for undeclared state {stmt.state}", *stmt.pos)
            if stmt.state in inits:
                raise ValidateError(f"duplicate initial condition for state {stmt.state}", *stmt.pos)
            if stmt.time != 0.0:
                raise ValidateError(f"initial conditions must be given at time 0, not {stmt.time}", *stmt.pos)
            inits[stmt.state] = stmt.value
        elif isinstance(stmt, OutStmt):
            if stmt.state not in ivars:
                raise ValidateError(f"out references undeclared state {stmt.state}", *stmt.pos)
            if stmt.state in outputs:
                raise ValidateError(f"duplicate out statement for state {stmt.state}", *stmt.pos)
            outputs.append(stmt.state)
        elif isinstance(stmt, PlotStmt):
            for _, state in stmt.axes:
                if state not in ivars:
                    raise ValidateError(f"plot references undeclared state {state}", *stmt.pos)
            if len(stmt.axes) < 2:
                raise ValidateError("plot requires at least two axes (x and y)", *stmt.pos)
            plots.append((stmt.axes[0][1], stmt.axes[1][1]))

    for name in order:
        if name not in derivs:
            raise ValidateError(f"state {name} has no derivative definition", 1, 1)
        if name not in inits:
            raise ValidateError(f"state {name} has no initial condition", 1, 1)

    states = tuple(StateDef(name, ivars[name], derivs[name], inits[name]) for name in order)
    return Program(states, tuple(outputs), tuple(plots))


def compile_source(source: str) -> Program:
    """tokenize + parse + validate in one call."""
    return validate(parse(tokenize(source)))


# --------------------------------------------------------------------------
# pretty printer


def format_number(value: float) -> str:
    """Render a nonnegative float as a plain decimal literal the lexer
    accepts (no exponent notation)."""
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


def format_expr(expr: Expr) -> str:
    """Fully parenthesized rendering; re-parsing reproduces the tree.

    The text is emitted left to right from an explicit stack of pending
    nodes and closing text, so long sums do not hit the recursion limit.
    """
    ops = {Add: "+", Sub: "-", Mul: "*"}
    parts: list[str] = []
    pending: list[Union[Expr, str]] = [expr]
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
            parts.append("(-")
            pending += (")", node.operand)
        else:
            parts.append("(")
            pending += (")", node.right, f" {ops[type(node)]} ", node.left)
    return "".join(parts)


def format_program(program: Program) -> str:
    """Canonical source text for a Program; parses back to an equal value.

    Every binary operation gets its own parentheses, so a derivative nested
    deeper than `MAX_NESTING` (a sum of more than about 200 terms, say)
    renders to text that the parser refuses.
    """
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
