"""Parser and evaluators for operator-composition expressions.

Grammar (whitespace-insensitive, left-associative, '*' over '+'/'-'):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ['-'] (scalar | atom)
    atom   := IDENT | 'I' ['(' IDENT ')'] | 'pinv' '(' expr ')'
            | 'adj' '(' expr ')' | '(' expr ')'
    scalar := decimal or complex literal, e.g. 2, 0.5, 2i, 1+0.5i

A '-' before a complex literal a+bi negates its first part only, so -1-2i
is the number -1-2i.  Scalar literals only make sense as multiplicative
prefactors, so a term consisting of nothing but scalars is rejected.
'pinv', 'adj' and 'I' are reserved words.

A bare `I` takes its size from context when the expression is evaluated: it
passes through products, adjoints and pseudo-inverses as a plain complex
scalar c, standing for "c times the identity of whatever shape is needed",
and materializes the moment it is added to (or subtracted from) a square
matrix or an operator with one structure element.  An expression that never
provides a shape source at all (no identifier and no `I(name)`) is rejected
at parse time, since no evaluation context could ever resolve it.

One walker evaluates the tree over either of two small algebras.  The matrix
algebra works on any mapping from names to complex matrices (symbol matrices
or dense torus matrices) and supports pinv; Expression.eval_matrices uses it.
It also takes (N, rows, cols) stacks, so one walk evaluates a whole block of
frequency samples: products, sums and adjoints act on the stack at once, and
pinv calls pinv_matrix once per matrix of the stack, which takes a 1x1 or
2x2 matrix in closed form and runs an SVD only for a larger matrix it has not
kept the pseudo-inverse of.
The operator algebra builds an actual multiplication operator out of the
calculus in the operator module; pseudo-inverses have no position-space
counterpart, so eval_position rejects any expression that contains one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from math import prod

import numpy as np

from .operator import (
    MultiplicationOperator,
    add as op_add,
    adjoint as op_adjoint,
    identity_operator,
    mul as op_mul,
    scale as op_scale,
)
from .symbol import pinv_matrix


class ExprSyntaxError(ValueError):
    def __init__(self, offset: int, expected):
        self.offset = offset
        self.expected = tuple(expected)
        super().__init__(f"syntax error at offset {offset}: expected {', '.join(self.expected)}")


class EvaluationError(ValueError):
    """An evaluation failure the expression itself causes: an unbound name,
    a bare I with no square context, or a bare identity as the result."""


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Identity:
    name: str | None  # None = bare I, resolved by shape context


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class ScalarMul:
    scalar: complex
    child: object


@dataclass(frozen=True)
class Adjoint:
    child: object


@dataclass(frozen=True)
class Pinv:
    child: object


_KEYWORDS = {"I", "pinv", "adj"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.\d*|\.\d+|\d+)i?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[+\-*()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(bad, [f"valid token (found {text[bad]!r})"])
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        raise ExprSyntaxError(self.peek()[2], expected)

    def expect_op(self, symbol):
        kind, value, _ = self.peek()
        if kind == "op" and value == symbol:
            return self.advance()
        self.fail([f"'{symbol}'"])

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "eof":
            self.fail(["end of expression", "'+'", "'-'", "'*'"])
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        factors = [self.factor(leading=True)]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                factors.append(self.factor(leading=False))
            else:
                break
        prefactor = complex(1)
        chain = None
        for f in factors:
            if isinstance(f, tuple):
                prefactor *= f[1]
            elif chain is None:
                chain = f
            else:
                chain = Mul(chain, f)
        if chain is None:
            offset = factors[0][2]
            raise ExprSyntaxError(offset, ["an operator for the scalar to multiply"])
        if prefactor != 1:
            chain = ScalarMul(prefactor, chain)
        return chain

    def factor(self, leading: bool):
        kind, value, offset = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.advance()
            negate = True
            kind, value, offset = self.peek()
        if kind == "number":
            c = self.scalar_literal(negate)
            if leading and not (self.peek()[0] == "op" and self.peek()[1] == "*"):
                self.fail(["'*' after a scalar literal"])
            return ("scalar", c, offset)
        node = self.atom()
        return Neg(node) if negate else node

    def scalar_literal(self, negate: bool) -> complex:
        """A literal; a leading '-' negates only the first part of a+bi."""
        _, text, _ = self.advance()
        kind, value, _ = self.peek()
        nxt = self.tokens[self.pos + 1] if kind == "op" and value in "+-" else ("eof", "")
        if not text.endswith("i") and nxt[0] == "number" and nxt[1].endswith("i"):
            self.pos += 2
            real, imag = float(text), float(nxt[1][:-1])
            return complex(-real if negate else real, -imag if value == "-" else imag)
        c = complex(0.0, float(text[:-1])) if text.endswith("i") else complex(float(text))
        return -c if negate else c

    def atom(self):
        kind, value, offset = self.peek()
        if kind == "ident":
            self.advance()
            if value == "I":
                if self.peek()[0] == "op" and self.peek()[1] == "(":
                    self.advance()
                    k2, name, _ = self.peek()
                    if k2 != "ident" or name in _KEYWORDS:
                        self.fail(["operator name inside I(...)"])
                    self.advance()
                    self.expect_op(")")
                    return Identity(name)
                return Identity(None)
            if value in ("pinv", "adj"):
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Pinv(inner) if value == "pinv" else Adjoint(inner)
            return Ident(value)
        if kind == "op" and value == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        self.fail(["identifier", "'I'", "'pinv'", "'adj'", "'('", "number"])


def _nodes(node):
    """Every node of the tree, parents before children."""
    yield node
    if isinstance(node, (Add, Sub, Mul)):
        yield from _nodes(node.left)
        yield from _nodes(node.right)
    elif isinstance(node, (Neg, ScalarMul, Adjoint, Pinv)):
        yield from _nodes(node.child)


@dataclass(frozen=True)
class Expression:
    """A parsed expression: the AST plus the original text."""

    ast: object
    text: str

    def eval_matrices(self, env) -> np.ndarray:
        """Evaluate with names bound to complex matrices (symbols or dense) or
        to (N, rows, cols) stacks of them; a stack evaluates matrix by matrix."""
        return _shaped(_walk(self.ast, env, _Matrices()))

    def identifiers(self) -> set[str]:
        return {
            node.name
            for node in _nodes(self.ast)
            if isinstance(node, (Ident, Identity)) and node.name is not None
        }

    def bind(self, env) -> dict:
        """The entries of env that the expression names, in sorted-name order."""
        names = sorted(self.identifiers())
        missing = [name for name in names if name not in env]
        if missing:  # one error naming every unbound name
            listed = ", ".join(map(repr, missing))
            raise EvaluationError(f"unbound identifier{'s' * (len(missing) > 1)} {listed}")
        return {name: env[name] for name in names}

    def __str__(self) -> str:
        return self.text


def parse(text: str) -> Expression:
    expr = Expression(ast=_Parser(text).parse(), text=text)
    if not expr.identifiers():
        raise ValueError(
            "expression contains no operator identifier; a bare I cannot be sized (use I(name))"
        )
    return expr


def render(node) -> str:
    """Canonical text for an AST; parsing it back yields an identical tree.
    Scalars are written without an exponent (see ``literal_text``)."""
    if isinstance(node, Expression):
        node = node.ast
    return _render(node, 0)


def literal_text(x: float) -> str:
    """The shortest round-trip digits of x without an exponent, so the grammar reads x back."""
    return format(Decimal(repr(x)), "f")


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x)) if x >= 0 else f"-{-int(x)}"
    return literal_text(x)


def _fmt_scalar(c: complex) -> str:
    if c.imag == 0:
        return _fmt_float(c.real)
    if c.real == 0:
        return f"{_fmt_float(c.imag)}i"
    sign = "+" if c.imag > 0 else "-"
    return f"{_fmt_float(c.real)}{sign}{_fmt_float(abs(c.imag))}i"


def _render(node, prec: int) -> str:
    if isinstance(node, Ident):
        return node.name
    if isinstance(node, Identity):
        return "I" if node.name is None else f"I({node.name})"
    if isinstance(node, Pinv):
        return f"pinv({_render(node.child, 0)})"
    if isinstance(node, Adjoint):
        return f"adj({_render(node.child, 0)})"
    if isinstance(node, (Add, Sub)):
        op = " + " if isinstance(node, Add) else " - "
        text = f"{_render(node.left, 1)}{op}{_render(node.right, 2)}"
        return f"({text})" if prec > 1 else text
    if isinstance(node, Mul):
        text = f"{_render(node.left, 2)}*{_render(node.right, 3)}"
        return f"({text})" if prec > 2 else text
    if isinstance(node, ScalarMul):
        text = f"{_fmt_scalar(node.scalar)}*{_render(node.child, 3)}"
        return f"({text})" if prec > 2 else text
    if isinstance(node, Neg):
        if isinstance(node.child, (Ident, Identity, Pinv, Adjoint)):
            return f"-{_render(node.child, 4)}"
        return f"-({_render(node.child, 0)})"
    raise TypeError(f"not an expression node: {node!r}")


def _lookup(env, name: str):
    try:
        return env[name]
    except KeyError:
        raise EvaluationError(f"unbound identifier '{name}'") from None


class _Matrices:
    """Complex matrices or (N, rows, cols) stacks of them: symbol matrices
    (one per sample) or dense torus matrices.

    Shapes are checked on the last two axes, so 2-D and stacked values mix
    by broadcasting; an identity is a single 2-D matrix.
    """

    def leaf(self, value):
        return np.asarray(value, dtype=complex)

    def identity(self, ref):
        return np.eye(np.asarray(ref).shape[-1], dtype=complex)

    def eye_like(self, c: complex, like):
        if like.shape[-2] != like.shape[-1]:
            raise EvaluationError(
                f"bare I cannot be added to a non-square matrix of shape {like.shape[-2:]}"
            )
        return c * np.eye(like.shape[-1], dtype=complex)

    def add(self, a, b, sign: int):
        if a.shape[-2:] != b.shape[-2:]:
            raise ValueError(
                f"shape mismatch in '{'+' if sign > 0 else '-'}': {a.shape[-2:]} vs {b.shape[-2:]}"
            )
        return a + b if sign > 0 else a - b

    def mul(self, a, b):
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"shape mismatch in '*': {a.shape[-2:]} times {b.shape[-2:]}")
        return a @ b

    def scale(self, c: complex, a):
        return c * a

    def neg(self, a):
        return -a

    def adjoint(self, a):
        return a.conj().swapaxes(-1, -2)

    def pinv(self, a):
        # one pinv_matrix call per matrix of a stack (1x1 and 2x2 matrices in
        # closed form, repeats of larger ones from pinv_matrix's lru_cache),
        # looked up at call time so that a rebinding of the module global is seen
        *stack, rows, cols = a.shape
        out = [pinv_matrix(m) for m in a.reshape(prod(stack), rows, cols)]
        return np.array(out, dtype=complex).reshape(*stack, cols, rows)


class _Operators:
    """Multiplication operators, built with the position-space calculus."""

    def leaf(self, value):
        return value

    def identity(self, ref):
        return identity_operator(ref.lattice, ref.domain_se)

    def eye_like(self, c: complex, like):
        if like.domain_se != like.codomain_se:
            raise EvaluationError("bare I cannot be added to an operator with distinct structure elements")
        return op_scale(c, self.identity(like))

    def add(self, a, b, sign: int):
        return op_add(a, b if sign > 0 else self.neg(b))

    def mul(self, a, b):
        return op_mul(a, b)

    def scale(self, c: complex, a):
        return op_scale(c, a)

    def neg(self, a):
        return op_scale(-1, a)

    def adjoint(self, a):
        return op_adjoint(a)


def _walk(node, env, alg):
    """Evaluate a tree in the algebra alg; a bare I is a plain complex scalar."""
    if isinstance(node, Ident):
        return alg.leaf(_lookup(env, node.name))
    if isinstance(node, Identity):
        return complex(1) if node.name is None else alg.identity(_lookup(env, node.name))
    if isinstance(node, (Add, Sub)):
        a = _walk(node.left, env, alg)
        b = _walk(node.right, env, alg)
        sign = 1 if isinstance(node, Add) else -1
        if isinstance(a, complex):
            if isinstance(b, complex):
                return a + b if sign > 0 else a - b
            a = alg.eye_like(a, b)
        elif isinstance(b, complex):
            b = alg.eye_like(b, a)
        return alg.add(a, b, sign)
    if isinstance(node, Mul):
        a = _walk(node.left, env, alg)
        b = _walk(node.right, env, alg)
        if isinstance(a, complex):
            return a * b if isinstance(b, complex) else alg.scale(a, b)
        if isinstance(b, complex):
            return alg.scale(b, a)
        return alg.mul(a, b)
    if isinstance(node, Neg):
        val = _walk(node.child, env, alg)
        return -val if isinstance(val, complex) else alg.neg(val)
    if isinstance(node, ScalarMul):
        val = _walk(node.child, env, alg)
        return node.scalar * val if isinstance(val, complex) else alg.scale(node.scalar, val)
    if isinstance(node, Adjoint):
        val = _walk(node.child, env, alg)
        return val.conjugate() if isinstance(val, complex) else alg.adjoint(val)
    if isinstance(node, Pinv):
        val = _walk(node.child, env, alg)
        if isinstance(val, complex):
            return 1 / val if val != 0 else complex(0)
        return alg.pinv(val)
    raise TypeError(f"not an expression node: {node!r}")


def _shaped(value):
    if isinstance(value, complex):
        raise EvaluationError("expression reduces to a bare identity with no shape context")
    return value


def eval_position(expr, env) -> MultiplicationOperator:
    """Evaluate with names bound to operators, staying in position space."""
    ast = expr.ast if isinstance(expr, Expression) else expr
    if any(isinstance(node, Pinv) for node in _nodes(ast)):
        raise ValueError("pseudo-inverse not available in position space")
    return _shaped(_walk(ast, env, _Operators()))
