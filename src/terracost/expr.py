"""Infix expressions of (x, y) with forward-mode differentiation.

Cost-rate and terrain fields arrive as text like ``"cos(5*x)^2*cos(y)^2"``.
This module parses such text into an immutable tree and evaluates value plus
exact first partial derivatives by propagating dual numbers with two tangent
components (d/dx, d/dy) through every node.

Evaluation accepts scalars or numpy arrays; array inputs broadcast through
the tree, which is what the quadrature kernels rely on for speed.  A solver
that evaluates at the same abscissae many times binds the expression to
them once with :meth:`Expression.at_x`: every part that does not read y is
then evaluated once, with partials, and read back on each evaluation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "DualValue",
    "Expression",
    "ExprDomainError",
    "ExprSyntaxError",
    "parse",
]

Scalar = Union[float, np.ndarray]

VARIABLES = ("x", "y")


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ExprDomainError(ArithmeticError):
    """Evaluation left the real domain; names the offending subexpression."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


class DualValue(NamedTuple):
    """Value with both first partials: (v, dv/dx, dv/dy)."""

    v: Scalar
    dx: Scalar
    dy: Scalar


# ---------------------------------------------------------------------------
# one rule per operation
#
# Each operator and function is stated once: its value and its tangent rule
# in a table below, its domain check in the node's ``_apply``.  The one rule
# outside the tables is a constant exponent's, in ``Binary._dual``, since it
# reads the exponent node.  Both traversals take values from ``_apply``, so a
# value computed with partials has the same bits as one computed without.

# A tangent that is zero by structure (of a constant, or d/dy of a part that
# reads no y) is this one scalar, and the rules keep it so: a product or a
# quotient of it is it, and a sum drops it.  At finite points that gives the
# bits of the full rule, but for the sign of a zero; where the full rule
# meets inf * 0 it gives 0 for NaN.
_ZERO = 0.0


def _add(p, q):
    return q if p is _ZERO else p if q is _ZERO else p + q


def _neg(p):
    return p if p is _ZERO else -p


def _mul(p, g):
    return p if p is _ZERO else p * g


def _div(p, g):
    return p if p is _ZERO else p / g


# symbol -> (value of a op b, dv given a, b, v and the tangents da, db)
_OPERATORS = {
    "+": (operator.add, lambda a, b, v, da, db: _add(da, db)),
    "-": (operator.sub, lambda a, b, v, da, db: _add(da, _neg(db))),
    "*": (operator.mul, lambda a, b, v, da, db: _add(_mul(da, b), _mul(db, a))),
    "/": (operator.truediv, lambda a, b, v, da, db: _div(_add(da, _neg(_mul(db, v))), b)),
    "^": (
        np.power,
        lambda a, b, v, da, db: _mul(_add(_mul(db, np.log(a)), _div(_mul(da, b), a)), v),
    ),
}

# name -> (value, dv/du given the argument u and the value v)
_FUNCTIONS = {
    "sin": (np.sin, lambda u, v: np.cos(u)),
    "cos": (np.cos, lambda u, v: -np.sin(u)),
    "tan": (np.tan, lambda u, v: 1.0 / np.square(np.cos(u))),
    "exp": (np.exp, lambda u, v: v),
    "log": (np.log, lambda u, v: 1.0 / u),
    "sqrt": (np.sqrt, lambda u, v: 0.5 / v),
    "abs": (np.abs, lambda u, v: np.sign(u)),  # subgradient 0 at the kink
}
FUNCTIONS = tuple(_FUNCTIONS)


# ---------------------------------------------------------------------------
# tree nodes


@dataclass(frozen=True)
class Literal:
    value: float

    def _eval(self, x, y):
        return self.value

    def _dual(self, x, y):
        return self.value, _ZERO, _ZERO

    def render(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Variable:
    name: str  # "x" or "y"

    def _eval(self, x, y):
        return x if self.name == "x" else y

    def _dual(self, x, y):
        if self.name == "x":
            return x, 1.0, _ZERO
        return y, _ZERO, 1.0

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class Negate:
    arg: Node

    def _eval(self, x, y):
        return -self.arg._eval(x, y)

    def _dual(self, x, y):
        v, dx, dy = self.arg._dual(x, y)
        return -v, _neg(dx), _neg(dy)

    def render(self) -> str:
        return f"(-{self.arg.render()})"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    lhs: Node
    rhs: Node

    def _apply(self, a, b):
        if self.op == "/" and np.any(b == 0.0):
            raise ExprDomainError("division by zero", self.render())
        if self.op == "^":
            self._check_power(a, b)
        return _OPERATORS[self.op][0](a, b)

    def _eval(self, x, y):
        return self._apply(self.lhs._eval(x, y), self.rhs._eval(x, y))

    def _dual(self, x, y):
        a, adx, ady = self.lhs._dual(x, y)
        b, bdx, bdy = self.rhs._dual(x, y)
        v = self._apply(a, b)
        if self.op == "^" and isinstance(self.rhs, Literal):
            # Constant exponent b: d(a^b) = b * a^(b-1) * da.  Valid for
            # negative bases with integer b, where the log form is not.  a^0
            # is the constant 1, also at a = 0 where the rule gives 0 * inf.
            if b == 0.0:
                return v, _ZERO, _ZERO
            g = b * np.power(a, b - 1.0)
            return v, _mul(adx, g), _mul(ady, g)
        rule = _OPERATORS[self.op][1]
        return v, rule(a, b, v, adx, bdx), rule(a, b, v, ady, bdy)

    def _check_power(self, a, b):
        if isinstance(self.rhs, Literal) and float(self.rhs.value).is_integer():
            if np.any((a == 0.0) & (self.rhs.value < 0)):
                raise ExprDomainError("zero base with negative exponent", self.render())
            return
        if np.any(a < 0.0):
            raise ExprDomainError(
                "negative base with non-integer exponent", self.render()
            )
        if np.any((a == 0.0) & (b <= 0.0)):
            raise ExprDomainError("zero base with non-positive exponent", self.render())

    def render(self) -> str:
        return f"({self.lhs.render()}{self.op}{self.rhs.render()})"


@dataclass(frozen=True)
class Call:
    func: str
    arg: Node

    def _apply(self, u):
        if self.func == "log" and np.any(u <= 0.0):
            raise ExprDomainError("log of a non-positive value", self.render())
        if self.func == "sqrt" and np.any(u < 0.0):
            raise ExprDomainError("sqrt of a negative value", self.render())
        return _FUNCTIONS[self.func][0](u)

    def _eval(self, x, y):
        return self._apply(self.arg._eval(x, y))

    def _dual(self, x, y):
        u, udx, udy = self.arg._dual(x, y)
        v = self._apply(u)
        g = _FUNCTIONS[self.func][1](u, v)
        return v, _mul(udx, g), _mul(udy, g)

    def render(self) -> str:
        return f"{self.func}({self.arg.render()})"


@dataclass(frozen=True, eq=False)
class Sampled:
    """A y-free subtree evaluated once at fixed abscissae: its (v, dx, dy).

    The stored arrays are read-only and hold ``source``'s bits at those
    abscissae only; ``render`` is the source's, so errors name it as before.
    """

    source: Node
    v: Scalar
    dx: Scalar
    dy: Scalar

    def _eval(self, x, y):
        return self.v

    def _dual(self, x, y):
        return self.v, self.dx, self.dy

    def render(self) -> str:
        return self.source.render()


Node = Union[Literal, Variable, Negate, Binary, Call, Sampled]


def _bind(node: Node, x) -> tuple[Node, bool]:
    # (node with each maximal y-free operation subtree replaced by its
    # Sampled values at x, whether node reads no y).  A subtree whose
    # evaluation leaves the domain keeps its own node, over bound children,
    # so it raises when evaluated, in the order it would unbound.
    if isinstance(node, Literal):
        return node, True
    if isinstance(node, Variable):
        return node, node.name == "x"
    if isinstance(node, Binary):
        (lhs, lhs_free), (rhs, rhs_free) = _bind(node.lhs, x), _bind(node.rhs, x)
        bound, free = replace(node, lhs=lhs, rhs=rhs), lhs_free and rhs_free
    else:
        arg, free = _bind(node.arg, x)
        bound = replace(node, arg=arg)
    if not free:
        return bound, False
    try:
        values = bound._dual(x, None)
    except ExprDomainError:
        return bound, True
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return Sampled(node, *values), True


# ---------------------------------------------------------------------------
# public expression handle


@dataclass(frozen=True)
class Expression:
    """An immutable parsed expression; evaluation is reentrant."""

    root: Node
    source: str

    def eval(self, x: Scalar, y: Scalar) -> Scalar:
        """Evaluate the expression at (x, y); scalars in, scalar out."""
        scalar_in = np.ndim(x) == 0 and np.ndim(y) == 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = self.root._eval(x, y)
        return float(v) if scalar_in else v

    def eval_dual(self, x: Scalar, y: Scalar) -> DualValue:
        """Evaluate value and exact first partials at (x, y)."""
        scalar_in = np.ndim(x) == 0 and np.ndim(y) == 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v, dx, dy = self.root._dual(x, y)
        if scalar_in:
            return DualValue(float(v), float(dx), float(dy))
        return DualValue(v, dx, dy)

    def render(self) -> str:
        """Unambiguous (fully parenthesized) serialization; re-parseable."""
        return self.root.render()

    def at_x(self, x: Scalar) -> Expression:
        """This expression bound to the abscissae ``x``.

        Every maximal subtree that reads no y and holds an operation is
        evaluated once here, with its partials, and becomes a read-only
        leaf.  The bound expression gives the bits and errors of this one,
        but only when evaluated at this same ``x``, broadcast against any
        ``y``; at other abscissae its values are wrong.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            root, _ = _bind(self.root, x)
        return Expression(root, self.source)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^(),])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    # Grammar (binding from loose to tight): additive, multiplicative,
    # unary minus, power (right-assoc, exponent re-admits unary), atom.

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Node:
        node = self.additive()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        return node

    def chain(self, symbols: str, operand) -> Node:
        # operand (symbol operand)*, left-associative.
        node = operand()
        while self.peek()[0] == "sym" and self.peek()[1] in symbols:
            node = Binary(self.advance()[1], node, operand())
        return node

    def additive(self) -> Node:
        return self.chain("+-", self.multiplicative)

    def multiplicative(self) -> Node:
        return self.chain("*/", self.unary)

    def unary(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "sym" and value == "-":
            self.advance()
            node = self.unary()
            if isinstance(node, Literal):
                # Fold so x^-2 keeps an integer-literal exponent (negative
                # bases stay legal, as for x^2).
                return Literal(-node.value)
            return Negate(node)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            return Binary("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "num":
            return Literal(float(value))
        if kind == "name":
            if value in FUNCTIONS:
                return self.call(value, pos)
            if value in VARIABLES:
                return Variable(value)
            raise ExprSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "sym" and value == "(":
            node = self.additive()
            self.expect(")")
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)

    def call(self, func: str, pos: int) -> Node:
        kind, value, apos = self.peek()
        if not (kind == "sym" and value == "("):
            raise ExprSyntaxError(f"expected '(' after function {func!r}", apos)
        self.advance()
        arg = self.additive()
        kind, value, cpos = self.peek()
        if kind == "sym" and value == ",":
            raise ExprSyntaxError(
                f"function {func!r} takes exactly one argument", cpos
            )
        self.expect(")")
        return Call(func, arg)

    def expect(self, sym: str):
        kind, value, pos = self.peek()
        if kind == "sym" and value == sym:
            self.advance()
            return
        found = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(f"expected {sym!r}, found {found}", pos)


def parse(text: str) -> Expression:
    """Parse expression text into an :class:`Expression`.

    Raises :class:`ExprSyntaxError` on malformed input, unknown identifiers
    (only ``x`` and ``y`` are variables) and wrong function arity.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return Expression(_Parser(text).parse(), text)
