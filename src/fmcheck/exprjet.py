"""Expression DSL and second-order forward-mode jet arithmetic.

All scalars are complex; `sqrt`, `ln` and non-integer powers use the
principal branch (cut on the negative real axis).  Integer powers are
expanded by repeated multiplication so polynomial jets are exact.

Grammar (see `parse`):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?          # right-associative, sugar for pow
    unary  := "-" unary | atom
    atom   := number | number "i" | ident | ident "(" expr ("," expr)* ")"
            | "(" expr ")"

Coordinates are ``u1`` .. ``u9``; ``x``, ``y``, ``z`` are fixed aliases for
``u1``, ``u2``, ``u3``.  Any other identifier is a named parameter bound at
evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Param", "Neg", "Bin", "Call",
    "Jet2", "parse", "to_source", "eval_jet", "eval_table", "eval_value",
    "finite_diff_oracle", "principal",
    "ExprError", "ParseError", "EvalError", "DomainError",
    "UnboundParameterError", "UnboundVariableError",
]

Number = Union[int, float, complex]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalError(ExprError):
    pass


class DomainError(EvalError):
    pass


class UnboundParameterError(EvalError):
    pass


class UnboundVariableError(EvalError):
    pass


def principal(v) -> complex:
    """Canonicalize a complex scalar for principal-branch functions: a
    negative-zero imaginary part would select the lower side of the cut,
    so exact-real inputs are flattened to +0j."""
    v = complex(v)
    return complex(v.real, 0.0) if v.imag == 0 else v


# ---------------------------------------------------------------------------
# jets

class Jet2:
    """Value, gradient and Hessian of a scalar at a point in C^n.

    The Hessian stays symmetric by construction: every rule that produces
    rank-two terms emits the symmetrized outer product.
    """

    __slots__ = ("n", "val", "grad", "hess")

    def __init__(self, n: int, val: complex, grad: np.ndarray, hess: np.ndarray):
        self.n = n
        self.val = complex(val)
        self.grad = grad
        self.hess = hess

    @classmethod
    def constant(cls, n: int, value: Number) -> "Jet2":
        return cls(n, complex(value), np.zeros(n, dtype=complex),
                   np.zeros((n, n), dtype=complex))

    @classmethod
    def variable(cls, n: int, index: int, value: Number) -> "Jet2":
        grad = np.zeros(n, dtype=complex)
        grad[index] = 1.0
        return cls(n, complex(value), grad, np.zeros((n, n), dtype=complex))

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(self.n, other)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.n, self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.n, -self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.n, self.val - o.val, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        cross = np.outer(self.grad, o.grad)
        return Jet2(self.n, self.val * o.val,
                    self.val * o.grad + o.val * self.grad,
                    self.val * o.hess + o.val * self.hess + cross + cross.T)

    __rmul__ = __mul__

    def compose(self, f0: complex, f1: complex, f2: complex) -> "Jet2":
        """Chain rule through a scalar function with derivatives f0, f1, f2."""
        outer = np.outer(self.grad, self.grad)
        return Jet2(self.n, f0, f1 * self.grad, f1 * self.hess + f2 * outer)

    def reciprocal(self) -> "Jet2":
        v = self.val
        if v == 0:
            raise DomainError("division by zero")
        return self.compose(1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def sqrt(self) -> "Jet2":
        if self.val == 0:
            raise DomainError("sqrt(0) has no jet")
        r = complex(np.sqrt(principal(self.val)))
        return self.compose(r, 0.5 / r, -0.25 / (self.val * r))

    def log(self) -> "Jet2":
        if self.val == 0:
            raise DomainError("ln(0)")
        v = self.val
        return self.compose(complex(np.log(principal(v))), 1.0 / v, -1.0 / v ** 2)

    def exp(self) -> "Jet2":
        e = complex(np.exp(complex(self.val)))
        return self.compose(e, e, e)

    def ipow(self, k: int) -> "Jet2":
        if k < 0:
            return self.ipow(-k).reciprocal()
        out = Jet2.constant(self.n, 1.0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def cpow(self, c: complex) -> "Jet2":
        """Power with a constant exponent, principal branch."""
        if self.val == 0:
            raise DomainError("0 raised to a non-integer power")
        v = self.val
        f0 = complex(np.power(principal(v), c))
        return self.compose(f0, c * f0 / v, c * (c - 1.0) * f0 / v ** 2)

    def pow(self, other: "Jet2") -> "Jet2":
        if np.all(other.grad == 0) and np.all(other.hess == 0):
            c = other.val
            if c.imag == 0 and abs(c.real - round(c.real)) < 1e-12:
                return self.ipow(int(round(c.real)))
            return self.cpow(c)
        return (other * self.log()).exp()


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return Bin("+", self, _as_expr(other))

    def __radd__(self, other):
        return Bin("+", _as_expr(other), self)

    def __sub__(self, other):
        return Bin("-", self, _as_expr(other))

    def __rsub__(self, other):
        return Bin("-", _as_expr(other), self)

    def __mul__(self, other):
        return Bin("*", self, _as_expr(other))

    def __rmul__(self, other):
        return Bin("*", _as_expr(other), self)

    def __truediv__(self, other):
        return Bin("/", self, _as_expr(other))

    def __rtruediv__(self, other):
        return Bin("/", _as_expr(other), self)

    def __pow__(self, other):
        return Bin("^", self, _as_expr(other))

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True)
class Num(Expr):
    value: complex


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based coordinate index


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # + - * / ^
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str  # sqrt ln exp
    a: Expr


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Num(complex(v))


_COORD_ALIASES = {"x": 1, "y": 2, "z": 3}
_FUNCTIONS = {"sqrt": 1, "ln": 1, "exp": 1, "pow": 2}


# ---------------------------------------------------------------------------
# parser


class _Scanner:
    def __init__(self, source: str):
        self.src = source.replace("−", "-")
        self.pos = 0
        self.tokens: list = []
        self._scan()
        self.idx = 0

    def _loc(self, pos):
        line = self.src.count("\n", 0, pos) + 1
        col = pos - (self.src.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def _scan(self):
        src, n = self.src, len(self.src)
        i = 0
        while i < n:
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            start = i
            if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
                i += 1
                while i < n and src[i].isdigit():
                    i += 1
                if i < n and src[i] == ".":
                    i += 1
                    while i < n and src[i].isdigit():
                        i += 1
                if i < n and src[i] in "eE" and i + 1 < n and (
                        src[i + 1].isdigit() or (src[i + 1] in "+-" and i + 2 < n and src[i + 2].isdigit())):
                    i += 2
                    while i < n and src[i].isdigit():
                        i += 1
                value = float(src[start:i])
                imag = False
                if i < n and src[i] == "i" and (i + 1 == n or not (src[i + 1].isalnum() or src[i + 1] == "_")):
                    imag = True
                    i += 1
                self.tokens.append(("num", complex(0, value) if imag else complex(value), start))
                continue
            if ch.isalpha() or ch == "_":
                i += 1
                while i < n and (src[i].isalnum() or src[i] == "_"):
                    i += 1
                self.tokens.append(("ident", src[start:i], start))
                continue
            if ch in "+-*/^(),":
                self.tokens.append((ch, ch, start))
                i += 1
                continue
            line, col = self._loc(i)
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def error(self, message, tok):
        line, col = self._loc(tok[2])
        raise ParseError(message, line, col)


def _parse_expr(s: _Scanner) -> Expr:
    node = _parse_term(s)
    while s.peek()[0] in "+-":
        op = s.next()[0]
        node = Bin(op, node, _parse_term(s))
    return node


def _parse_term(s: _Scanner) -> Expr:
    node = _parse_factor(s)
    while s.peek()[0] in "*/":
        op = s.next()[0]
        node = Bin(op, node, _parse_factor(s))
    return node


def _parse_factor(s: _Scanner) -> Expr:
    base = _parse_unary(s)
    if s.peek()[0] == "^":
        s.next()
        return Bin("^", base, _parse_factor(s))
    return base


def _parse_unary(s: _Scanner) -> Expr:
    if s.peek()[0] == "-":
        s.next()
        return Neg(_parse_unary(s))
    return _parse_atom(s)


def _parse_atom(s: _Scanner) -> Expr:
    tok = s.next()
    kind, value, _ = tok
    if kind == "num":
        return Num(value)
    if kind == "(":
        node = _parse_expr(s)
        closing = s.next()
        if closing[0] != ")":
            s.error("expected ')'", closing)
        return node
    if kind == "ident":
        if s.peek()[0] == "(":
            s.next()
            args = [_parse_expr(s)]
            while s.peek()[0] == ",":
                s.next()
                args.append(_parse_expr(s))
            closing = s.next()
            if closing[0] != ")":
                s.error("expected ')'", closing)
            if value not in _FUNCTIONS:
                s.error(f"unknown function {value!r}", tok)
            if len(args) != _FUNCTIONS[value]:
                s.error(f"{value} expects {_FUNCTIONS[value]} argument(s)", tok)
            if value == "pow":
                return Bin("^", args[0], args[1])
            return Call(value, args[0])
        if value in _COORD_ALIASES:
            return Var(_COORD_ALIASES[value])
        if len(value) >= 2 and value[0] == "u" and value[1:].isdigit():
            idx = int(value[1:])
            if 1 <= idx <= 9:
                return Var(idx)
        return Param(value)
    s.error("expected a number, identifier or '('", tok)


@lru_cache(maxsize=4096)
def parse(source: str) -> Expr:
    """Parse DSL source into an immutable AST."""
    s = _Scanner(source)
    node = _parse_expr(s)
    tok = s.peek()
    if tok[0] != "end":
        s.error("unexpected trailing input", tok)
    return node


# ---------------------------------------------------------------------------
# printing (minimal parentheses; parse(to_source(e)) == e)


def _num_str(v: complex) -> str:
    def fmt(x: float) -> str:
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)

    if v.imag == 0:
        return fmt(v.real) if v.real >= 0 else f"(0-{fmt(-v.real)})"
    if v.real == 0:
        return f"{fmt(v.imag)}i" if v.imag >= 0 else f"(0-{fmt(-v.imag)}i)"
    re = fmt(v.real) if v.real >= 0 else f"0-{fmt(-v.real)}"
    op, im = ("+", v.imag) if v.imag >= 0 else ("-", -v.imag)
    return f"({re}{op}{fmt(im)}i)"


def to_source(e: Expr) -> str:
    return _print_expr(e)


def _print_expr(e: Expr) -> str:
    if isinstance(e, Bin) and e.op in "+-":
        return f"{_print_expr(e.a)}{e.op}{_print_term(e.b)}"
    return _print_term(e)


def _print_term(e: Expr) -> str:
    if isinstance(e, Bin) and e.op in "+-":
        return f"({_print_expr(e)})"
    if isinstance(e, Bin) and e.op in "*/":
        return f"{_print_term(e.a)}{e.op}{_print_factor(e.b)}"
    return _print_factor(e)


def _print_factor(e: Expr) -> str:
    if isinstance(e, Bin) and e.op in "+-*/":
        return f"({_print_expr(e)})"
    if isinstance(e, Bin):  # ^
        return f"{_print_unary(e.a)}^{_print_factor(e.b)}"
    return _print_unary(e)


def _print_unary(e: Expr) -> str:
    if isinstance(e, Neg):
        return f"-{_print_unary(e.a)}"
    return _print_atom(e)


def _print_atom(e: Expr) -> str:
    if isinstance(e, Num):
        return _num_str(e.value)
    if isinstance(e, Var):
        return f"u{e.index}"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_print_expr(e.a)})"
    return f"({_print_expr(e)})"


# ---------------------------------------------------------------------------
# evaluation


def eval_jet(e: Expr, point: Sequence[Number], params: Mapping[str, Number] | None = None) -> Jet2:
    """Evaluate value, gradient and Hessian of `e` at `point`."""
    n = len(point)
    params = params or {}

    def rec(node: Expr) -> Jet2:
        if isinstance(node, Num):
            return Jet2.constant(n, node.value)
        if isinstance(node, Var):
            if node.index > n:
                raise UnboundVariableError(f"coordinate u{node.index} out of range for dimension {n}")
            return Jet2.variable(n, node.index - 1, point[node.index - 1])
        if isinstance(node, Param):
            if node.name not in params:
                raise UnboundParameterError(f"unbound parameter {node.name!r}")
            return Jet2.constant(n, params[node.name])
        if isinstance(node, Neg):
            return -rec(node.a)
        if isinstance(node, Call):
            a = rec(node.a)
            if node.fn == "sqrt":
                return a.sqrt()
            if node.fn == "ln":
                return a.log()
            return a.exp()
        a = rec(node.a)
        if node.op == "+":
            return a + rec(node.b)
        if node.op == "-":
            return a - rec(node.b)
        if node.op == "*":
            return a * rec(node.b)
        if node.op == "/":
            return a / rec(node.b)
        return a.pow(rec(node.b))

    jet = rec(e)
    if not (np.isfinite(jet.val) and np.all(np.isfinite(jet.grad)) and np.all(np.isfinite(jet.hess))):
        raise DomainError("non-finite jet")
    return jet


def eval_table(table, point: Sequence[Number], params: Mapping[str, Number] | None = None):
    """Jets of every entry of a nested table of DSL sources at `point`.

    Returns values with the table's shape, gradients with that shape plus
    (n,) and Hessians with that shape plus (n, n)."""
    point = np.asarray(point, dtype=complex)
    n = len(point)
    sources = np.array(table, dtype=object)
    val = np.zeros(sources.shape, dtype=complex)
    grad = np.zeros(sources.shape + (n,), dtype=complex)
    hess = np.zeros(sources.shape + (n, n), dtype=complex)
    for idx, src in np.ndenumerate(sources):
        jet = eval_jet(parse(src), point, params)
        val[idx], grad[idx], hess[idx] = jet.val, jet.grad, jet.hess
    return val, grad, hess


def eval_value(e: Expr, point: Sequence[Number], params: Mapping[str, Number] | None = None) -> complex:
    """Evaluate only the value of `e` at `point` (no derivatives)."""
    params = params or {}
    n = len(point)

    def rec(node: Expr) -> complex:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            if node.index > n:
                raise UnboundVariableError(f"coordinate u{node.index} out of range for dimension {n}")
            return complex(point[node.index - 1])
        if isinstance(node, Param):
            if node.name not in params:
                raise UnboundParameterError(f"unbound parameter {node.name!r}")
            return complex(params[node.name])
        if isinstance(node, Neg):
            return -rec(node.a)
        if isinstance(node, Call):
            v = rec(node.a)
            if node.fn == "sqrt":
                return complex(np.sqrt(principal(v)))
            if node.fn == "ln":
                if v == 0:
                    raise DomainError("ln(0)")
                return complex(np.log(principal(v)))
            return complex(np.exp(v))
        a = rec(node.a)
        if node.op == "+":
            return a + rec(node.b)
        if node.op == "-":
            return a - rec(node.b)
        if node.op == "*":
            return a * rec(node.b)
        if node.op == "/":
            b = rec(node.b)
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        b = rec(node.b)
        if b.imag == 0 and abs(b.real - round(b.real)) < 1e-12:
            k = int(round(b.real))
            if a == 0 and k < 0:
                raise DomainError("division by zero")
            return a ** k
        if a == 0:
            raise DomainError("0 raised to a non-integer power")
        return complex(np.exp(b * np.log(principal(a))))

    v = rec(e)
    if not np.isfinite(v):
        raise DomainError("non-finite value")
    return v


def finite_diff_oracle(e: Expr, point: Sequence[Number],
                       params: Mapping[str, Number] | None = None,
                       step: float = 1e-5) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient and Hessian, used as the independent
    cross-check for jet arithmetic.  Every stencil point must stay inside
    the expression's domain."""
    n = len(point)
    p0 = np.asarray(point, dtype=complex)

    def f(q):
        return eval_value(e, q, params)

    grad = np.zeros(n, dtype=complex)
    hess = np.zeros((n, n), dtype=complex)
    f0 = f(p0)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        fp, fm = f(p0 + ei), f(p0 - ei)
        grad[i] = (fp - fm) / (2 * step)
        hess[i, i] = (fp - 2 * f0 + fm) / step ** 2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = step
            ej[j] = step
            v = (f(p0 + ei + ej) - f(p0 + ei - ej) - f(p0 - ei + ej) + f(p0 - ei - ej)) / (4 * step ** 2)
            hess[i, j] = hess[j, i] = v
    return grad, hess
