"""Expression DSL and second-order forward-mode jet evaluation.

A table of DSL sources (nested tuples or lists of strings, or one AST) is
compiled once into a flat list of operations, the recorded tape of
forward-mode differentiation (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008).  Structurally equal subexpressions
share one slot, since the frozen AST nodes hash by structure, and the
compiled list is cached on the table as `parse` is cached on its source.
One run of the list at a point gives the value, gradient and Hessian of
every entry; `eval_table`, `eval_jet` and `eval_value` all use that run.

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

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Param", "Neg", "Bin", "Call",
    "Jet", "parse", "to_source", "eval_jet", "eval_table", "eval_value", "jet_sqrt",
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
# evaluation: compile once per table, run once per point


class Jet(NamedTuple):
    """Value, gradient and Hessian of a scalar at a point in C^n."""
    val: complex
    grad: np.ndarray
    hess: np.ndarray


# Each rule maps the (val, grad, hess) triples of its operands to that of
# its result.  Hessians are symmetric only up to the rounding of complex
# products (g_i*g_j and g_j*g_i can differ in the last bit, and cross +
# cross.T joins the other terms in a different order at (i, j) than at
# (j, i)), so the symmetry test allows 1e-14 relative.

def _compose(a, f0, f1, f2):
    """Chain rule through a scalar function with derivatives f0, f1, f2."""
    return f0, f1 * a[1], f1 * a[2] + f2 * (a[1][:, None] * a[1])


def _linear(op):
    """The rule that applies `op` to values, gradients and Hessians alike."""
    return lambda *jets: tuple(map(op, *jets))


def _nonzero(a, message: str) -> complex:
    """The value of `a`, for a rule that is singular where it vanishes."""
    if a[0] == 0:
        raise DomainError(message)
    return a[0]


def _mul(a, b):
    cross = a[1][:, None] * b[1]
    return (a[0] * b[0], a[0] * b[1] + b[0] * a[1],
            a[0] * b[2] + b[0] * a[2] + cross + cross.T)


def _reciprocal(a):
    v = _nonzero(a, "division by zero")
    return _compose(a, 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)


def _div(a, b):
    return _mul(a, _reciprocal(b))


def jet_sqrt(a):
    """Principal square root of a (val, grad, hess) triple."""
    v = _nonzero(a, "sqrt(0) has no jet")
    r = complex(np.sqrt(principal(v)))
    return _compose(a, r, 0.5 / r, -0.25 / (v * r))


def _ln(a):
    v = _nonzero(a, "ln(0)")
    return _compose(a, complex(np.log(principal(v))), 1.0 / v, -1.0 / v ** 2)


def _exp(a):
    e = complex(np.exp(complex(a[0])))
    return _compose(a, e, e, e)


def _ipow(a, k: int):
    if k < 0:
        return _reciprocal(_ipow(a, -k))
    out = (1 + 0j, np.zeros_like(a[1]), np.zeros_like(a[2]))
    base = a
    while k:
        if k & 1:
            out = _mul(out, base)
        base = _mul(base, base) if k > 1 else base
        k >>= 1
    return out


def _pow(a, b):
    if b[1].any() or b[2].any():
        return _exp(_mul(b, _ln(a)))
    c = b[0]
    if c.imag == 0 and abs(c.real - round(c.real)) < 1e-12:
        return _ipow(a, int(round(c.real)))
    v = _nonzero(a, "0 raised to a non-integer power")
    f0 = complex(np.power(principal(v), c))
    return _compose(a, f0, c * f0 / v, c * (c - 1.0) * f0 / v ** 2)


_RULES = {"+": _linear(operator.add), "-": _linear(operator.sub), "neg": _linear(operator.neg),
          "*": _mul, "/": _div, "^": _pow, "sqrt": jet_sqrt, "ln": _ln, "exp": _exp}


class _Program(NamedTuple):
    shape: tuple
    ops: list      # (rule, operand slots), or (None, leaf node)
    outputs: list  # the slot of each table entry, row-major


def _frozen(table):
    """A table of nested lists as nested tuples, the key of the compile cache."""
    return tuple(map(_frozen, table)) if isinstance(table, (list, tuple)) else table


@lru_cache(maxsize=1024)
def _compile(table) -> _Program:
    """Compile a table (or a single entry) of DSL sources or ASTs into one
    list of operations in evaluation order.  Structurally equal
    subexpressions share one slot, so each is evaluated once per run."""
    entries = np.array(table, dtype=object)
    slots: dict = {}
    ops: list = []

    def slot(node: Expr) -> int:
        if node not in slots:
            if isinstance(node, (Num, Var, Param)):
                op = (None, node)
            elif isinstance(node, Bin):
                op = (_RULES[node.op], (slot(node.a), slot(node.b)))
            else:
                op = (_RULES["neg" if isinstance(node, Neg) else node.fn], (slot(node.a),))
            slots[node] = len(ops)
            ops.append(op)
        return slots[node]

    outputs = [slot(parse(e) if isinstance(e, str) else e) for e in entries.flat]
    return _Program(entries.shape, ops, outputs)


def _leaf(node: Expr, point, params, zero):
    if isinstance(node, Num):
        return complex(node.value), *zero
    if isinstance(node, Param):
        if node.name not in params:
            raise UnboundParameterError(f"unbound parameter {node.name!r}")
        return complex(params[node.name]), *zero
    n = len(point)
    if node.index > n:
        raise UnboundVariableError(f"coordinate u{node.index} out of range for dimension {n}")
    unit = np.eye(n, dtype=complex)[node.index - 1]
    return complex(point[node.index - 1]), unit, zero[1]


def _run(program: _Program, point, params):
    """One pass over the operations at `point`: values with the table's
    shape, gradients with that shape plus (n,), Hessians plus (n, n)."""
    n = len(point)
    params = params or {}
    zero = np.zeros(n, dtype=complex), np.zeros((n, n), dtype=complex)
    slots = []
    for rule, args in program.ops:
        slots.append(rule(*[slots[i] for i in args]) if rule
                     else _leaf(args, point, params, zero))
    jets = [slots[i] for i in program.outputs]
    out = tuple(np.array([j[k] for j in jets], dtype=complex).reshape(program.shape + (n,) * k)
                for k in range(3))
    if not all(np.isfinite(part).all() for part in out):
        raise DomainError("non-finite jet")
    return out


def eval_table(table, point: Sequence[Number], params: Mapping[str, Number] | None = None):
    """Jets of every entry of a nested table of DSL sources at `point`.

    Returns values with the table's shape, gradients with that shape plus
    (n,) and Hessians with that shape plus (n, n)."""
    return _run(_compile(_frozen(table)), point, params)


def eval_jet(e: Expr, point: Sequence[Number], params: Mapping[str, Number] | None = None) -> Jet:
    """Value, gradient and Hessian of `e` at `point`."""
    val, grad, hess = _run(_compile(e), point, params)
    return Jet(complex(val), grad, hess)


def eval_value(e: Expr, point: Sequence[Number], params: Mapping[str, Number] | None = None) -> complex:
    """The value of `e` at `point`, from the same run as its jet."""
    return complex(_run(_compile(e), point, params)[0])


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
