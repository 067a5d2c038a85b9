"""Expression DSL and second-order forward-mode jet evaluation.

A table of DSL sources (nested tuples or lists of strings, or one AST) is
compiled once into a flat list of operations, the recorded tape of
forward-mode differentiation (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).  Structurally equal
subexpressions share one slot, since the frozen AST nodes hash by
structure, and the compiled list is cached on the table as `parse` is
cached on its source.

The tape runs over a leading point axis: one pass over the operations
(`eval_points`) gives the value, gradient and Hessian of every entry at
every point, and a single point (`eval_table`, `eval_jet`, `eval_value`)
is a batch of one.  Each rule decides per point where it branches on a
value (a vanishing divisor, a constant or integer exponent), so a point's
jets are bit for bit those of a run at that point alone.

A domain error at some points does not stop the pass: each such point
records its first error in operation order (the one a run at that point
alone raises), the others go on, and a point whose jets are not finite
records that.  A point in error gets zero jets, so that batched arithmetic
downstream stays finite there, and `TableJets.at` raises its error when
its consumer reaches that point, and never hands out its jets.  Unbound
parameters and coordinates do not depend on the point and raise at once.

Products and quotients of two values follow CPython's complex arithmetic,
computed on the real and imaginary parts (`_cprod`, `_cquot`): numpy's
complex multiply fuses a product into the sum, and its complex divide
multiplies by the reciprocal of the denominator where CPython's Smith's
method divides by it.  This keeps every jet, and so every report,
bit-identical to those of the scalar tape the batched one replaced; with
numpy's divide, the gradients and Hessians of three catalog tables move
in the last bits (nonss3d's metric through the non-integer power rule's
general-numerator quotients c*f0/v and c*(c-1)*f0/v^2).

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
    "Jet", "TableJets", "parse", "to_source", "eval_jet", "eval_table", "eval_points",
    "eval_value", "jet_sqrt",
    "finite_diff_oracle", "principal",
    "ExprError", "ParseError", "EvalError", "DomainError",
    "UnboundParameterError", "UnboundVariableError",
]

Number = Union[int, float, complex]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int, source: str = ""):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
        self.source = source


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
            raise ParseError(f"unexpected character {ch!r}", line, col, self.src)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def error(self, message, tok):
        line, col = self._loc(tok[2])
        raise ParseError(message, line, col, self.src)


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
# evaluation: compile once per table, run once over all points


class Jet(NamedTuple):
    """Value, gradient and Hessian of a scalar at a point in C^n."""
    val: complex
    grad: np.ndarray
    hess: np.ndarray


@dataclass(frozen=True)
class TableJets:
    """Values, gradients and Hessians of a table at each point of one run
    (the leading axis), and the message of the domain error each point
    raised, or None."""
    val: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    errors: list

    def __len__(self) -> int:
        return len(self.errors)

    def at(self, k: int):
        """(val, grad, hess) at point k; raises that point's domain error."""
        if self.errors[k] is not None:
            raise DomainError(self.errors[k])
        return self.val[k], self.grad[k], self.hess[k]


# Each rule maps the (val, grad, hess) triples of its operands, batched
# along a leading point axis, to that of its result, and reports the points
# where it is singular to its last argument, `fail(mask, message)`.  The
# arithmetic is elementwise, so a point's jets do not depend on the other
# points of the batch.  Hessians are symmetric only up to the rounding of
# complex products (g_i*g_j and g_j*g_i can differ in the last bit, and
# cross + cross.T joins the other terms in a different order at (i, j) than
# at (j, i)), so the symmetry test allows 1e-14 relative.

def _complex(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _one_part(x) -> bool:
    """Whether each of `x`'s entries is real, or each is imaginary."""
    return not np.count_nonzero(x.imag) or not np.count_nonzero(x.real)


def _cprod(x, y):
    """x*y as CPython multiplies complex scalars.  numpy's complex multiply
    fuses one product into the sum, which moves the last bit unless one
    factor has a part that is zero (each sum then has an exact zero term)."""
    if _one_part(x) or _one_part(y):
        return x * y
    return _complex(x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)


def _cquot(x, y):
    """x/y as CPython divides complex scalars: Smith's method, scaled by the
    larger part of y and divided by the denominator (numpy multiplies by
    its reciprocal instead).  `x` may be a real scalar."""
    xr, xi, yr, yi = np.real(x), np.imag(x), y.real, y.imag
    big = np.abs(yr) >= np.abs(yi)
    if big.all():
        ratio = yi / yr
        denom = yr + yi * ratio
        return _complex((xr + xi * ratio) / denom, (xi - xr * ratio) / denom)
    p, q = np.where(big, yr, yi), np.where(big, yi, yr)
    s, t = np.where(big, xr, xi), np.where(big, xi, xr)
    ratio = q / p
    denom = p + q * ratio
    st = s * ratio
    return _complex((s + t * ratio) / denom, np.where(big, t - st, st - t) / denom)


def _cpowu(v, k: int):
    """v**k for an integer k > 0 by CPython's repeated squaring, which
    starts from 1 and so multiplies by 1 first."""
    out, square, bit = np.ones_like(v), v, 1
    while bit <= k:
        if k & bit:
            out = _cprod(out, square)
        bit <<= 1
        if bit <= k:
            square = _cprod(square, square)
    return out


def _principal(v):
    """`principal` along the point axis."""
    return np.where(v.imag == 0, v.real, v)


def _raise(mask, message):
    raise DomainError(message)


def _compose(a, f0, f1, f2):
    """Chain rule through a scalar function with derivatives f0, f1, f2."""
    g = a[1]
    return (f0, f1[:, None] * g,
            f1[:, None, None] * a[2] + f2[:, None, None] * (g[:, :, None] * g[:, None, :]))


def _linear(op):
    """The rule that applies `op` to values, gradients and Hessians alike
    (it is nowhere singular, so it ignores its last argument)."""
    return lambda *args: tuple(map(op, *args[:-1]))


def _nonzero(a, message: str, fail):
    """The values of `a`, for a rule that is singular where they vanish:
    those points fail, and carry on with the value 1."""
    v = a[0]
    if not v.all():
        zero = v == 0
        fail(zero, message)
        v = np.where(zero, 1.0, v)
    return v


def _mul(a, b, fail):
    a0, b0 = a[0][:, None], b[0][:, None]
    cross = a[1][:, :, None] * b[1][:, None, :]
    return (_cprod(a[0], b[0]), a0 * b[1] + b0 * a[1],
            a0[:, :, None] * b[2] + b0[:, :, None] * a[2] + cross + cross.transpose(0, 2, 1))


def _reciprocal(a, fail):
    v = _nonzero(a, "division by zero", fail)
    return _compose(a, _cquot(1.0, v), _cquot(-1.0, _cpowu(v, 2)), _cquot(2.0, _cpowu(v, 3)))


def _div(a, b, fail):
    return _mul(a, _reciprocal(b, fail), fail)


def jet_sqrt(a, fail=_raise):
    """Principal square root of (val, grad, hess) triples batched along a
    leading axis; by default a vanishing value raises `DomainError`."""
    v = _nonzero(a, "sqrt(0) has no jet", fail)
    r = np.sqrt(_principal(v))
    return _compose(a, r, _cquot(0.5, r), _cquot(-0.25, _cprod(v, r)))


def _ln(a, fail):
    v = _nonzero(a, "ln(0)", fail)
    return _compose(a, np.log(_principal(v)), _cquot(1.0, v), _cquot(-1.0, _cpowu(v, 2)))


def _exp(a, fail):
    e = np.exp(a[0])
    return _compose(a, e, e, e)


def _ipow(a, k: int, fail):
    if k < 0:
        return _reciprocal(_ipow(a, -k, fail), fail)
    out = (np.ones(a[0].shape, dtype=complex), np.zeros_like(a[1]), np.zeros_like(a[2]))
    base = a
    while k:
        if k & 1:
            out = _mul(out, base, fail)
        base = _mul(base, base, fail) if k > 1 else base
        k >>= 1
    return out


def _real_pow(a, b, fail):
    """a^c for a constant non-integer exponent c."""
    c = b[0]
    v = _nonzero(a, "0 raised to a non-integer power", fail)
    f0 = np.power(_principal(v), c)
    return _compose(a, f0, _cquot(_cprod(c, f0), v),
                    _cquot(_cprod(_cprod(c, c - 1.0), f0), _cpowu(v, 2)))


def _pow(a, b, fail):
    """a^b, by the rule each point's exponent calls for: exp(b ln a) where
    it varies, repeated multiplication where it is a constant integer, and
    the principal power otherwise."""
    c = b[0]
    if not len(c):
        return a
    if not b[1].any() and not b[2].any() and (c == c[0]).all():
        return _const_pow(complex(c[0]))(a, b, fail)
    varies = b[1].any(axis=1) | b[2].any(axis=(1, 2))
    rules = [_var_pow if v else _const_pow(complex(x)) for v, x in zip(varies, c)]
    out = tuple(np.empty(part.shape, dtype=complex) for part in a)
    for rule in dict.fromkeys(rules):
        rows = np.flatnonzero([r is rule for r in rules])

        def rows_fail(mask, message, rows=rows):
            full = np.zeros(len(c), dtype=bool)
            full[rows[mask]] = True
            fail(full, message)

        for part, value in zip(out, rule(tuple(x[rows] for x in a), tuple(x[rows] for x in b),
                                         rows_fail)):
            part[rows] = value
    return out


def _var_pow(a, b, fail):
    return _exp(_mul(b, _ln(a, fail), fail), fail)


@lru_cache(maxsize=256)
def _const_pow(c: complex):
    """The rule for a^c with a constant exponent: repeated multiplication
    for an integer c, the principal power otherwise."""
    if c.imag == 0 and abs(c.real - round(c.real)) < 1e-12:
        return lambda a, b, fail: _ipow(a, int(round(c.real)), fail)
    return _real_pow


_RULES = {"+": _linear(operator.add), "-": _linear(operator.sub), "neg": _linear(operator.neg),
          "*": _mul, "/": _div, "^": _pow, "sqrt": jet_sqrt, "ln": _ln, "exp": _exp}


class _Program(NamedTuple):
    shape: tuple
    ops: list      # (rule, operand slots), or (None, leaf node)
    outputs: list  # the slot of each table entry, row-major
    frees: list    # per operation, the slots no later operation reads


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
    last = {j: i for i, (rule, args) in enumerate(ops) if rule for j in args}
    frees = [[] for _ in ops]
    for j, i in last.items():
        if j not in outputs:
            frees[i].append(j)
    return _Program(entries.shape, ops, outputs, frees)


def _leaf(node: Expr, points, params, zero):
    count, n = points.shape
    if isinstance(node, Num):
        return np.full(count, node.value, dtype=complex), *zero
    if isinstance(node, Param):
        if node.name not in params:
            raise UnboundParameterError(f"unbound parameter {node.name!r}")
        return np.full(count, params[node.name], dtype=complex), *zero
    if node.index > n:
        raise UnboundVariableError(f"coordinate u{node.index} out of range for dimension {n}")
    unit = np.zeros((count, n), dtype=complex)
    unit[:, node.index - 1] = 1.0
    return points[:, node.index - 1], unit, zero[1]


def _run(program: _Program, points, params) -> TableJets:
    """One pass over the operations at all `points`, shape (P, n): values
    with shape (P, *table shape), gradients plus (n,), Hessians plus (n, n).
    A point where an operation is singular, or the jets are not finite,
    records its first error, the pass goes on with the other points, and
    its jets are set to zero."""
    points = np.asarray(points, dtype=complex)
    count, n = points.shape
    params = params or {}
    errors = [None] * count

    def fail(mask, message):
        for k in np.flatnonzero(mask):
            if errors[k] is None:
                errors[k] = message

    zero = np.zeros((count, n), dtype=complex), np.zeros((count, n, n), dtype=complex)
    slots = [None] * len(program.ops)
    with np.errstate(all="ignore"):
        for i, (rule, args) in enumerate(program.ops):
            slots[i] = (rule(*[slots[j] for j in args], fail) if rule
                        else _leaf(args, points, params, zero))
            for j in program.frees[i]:
                slots[j] = None
        out = []
        for k in range(3):
            part = np.empty((count, len(program.outputs)) + (n,) * k, dtype=complex)
            for e, i in enumerate(program.outputs):
                part[:, e] = slots[i][k]
            out.append(part.reshape((count,) + program.shape + (n,) * k))
        if not all(np.isfinite(part).all() for part in out):
            finite = np.ones(count, dtype=bool)
            for part in out:
                finite &= np.isfinite(part).reshape(count, -1).all(axis=1)
            fail(~finite, "non-finite jet")
    failed = [err is not None for err in errors]
    if any(failed):
        for part in out:
            part[failed] = 0
    return TableJets(*out, errors=errors)


def eval_points(table, points, params: Mapping[str, Number] | None = None) -> TableJets:
    """Jets of every entry of a nested table of DSL sources (or of one AST)
    at each of `points`, shape (P, n), from one run."""
    return _run(_compile(_frozen(table)), points, params)


def eval_table(table, point: Sequence[Number], params: Mapping[str, Number] | None = None):
    """Jets of every entry of a nested table of DSL sources at `point`.

    Returns values with the table's shape, gradients with that shape plus
    (n,) and Hessians with that shape plus (n, n)."""
    return eval_points(table, [np.asarray(point, dtype=complex)], params).at(0)


def eval_jet(e: Expr, point: Sequence[Number], params: Mapping[str, Number] | None = None) -> Jet:
    """Value, gradient and Hessian of `e` at `point`."""
    val, grad, hess = eval_table(e, point, params)
    return Jet(complex(val), grad, hess)


def eval_value(e: Expr, point: Sequence[Number], params: Mapping[str, Number] | None = None) -> complex:
    """The value of `e` at `point`, from the same run as its jet."""
    return complex(eval_table(e, point, params)[0])


def finite_diff_oracle(e: Expr, point: Sequence[Number],
                       params: Mapping[str, Number] | None = None,
                       step: float = 1e-5) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient and Hessian, used as the independent
    cross-check for jet arithmetic.  Every stencil point must stay inside
    the expression's domain; the whole stencil is evaluated in one run."""
    n = len(point)
    p0 = np.asarray(point, dtype=complex)
    h = np.eye(n) * step
    stencil = [p0]
    for i in range(n):
        stencil += [p0 + h[i], p0 - h[i]]
    for i in range(n):
        for j in range(i + 1, n):
            stencil += [p0 + h[i] + h[j], p0 + h[i] - h[j], p0 - h[i] + h[j], p0 - h[i] - h[j]]
    jets = eval_points(e, np.reshape(stencil, (len(stencil), n)), params)
    for err in jets.errors:
        if err is not None:
            raise DomainError(err)
    f = iter(jets.val.tolist())

    grad = np.zeros(n, dtype=complex)
    hess = np.zeros((n, n), dtype=complex)
    f0 = next(f)
    for i in range(n):
        fp, fm = next(f), next(f)
        grad[i] = (fp - fm) / (2 * step)
        hess[i, i] = (fp - 2 * f0 + fm) / step ** 2
    for i in range(n):
        for j in range(i + 1, n):
            v = (next(f) - next(f) - next(f) + next(f)) / (4 * step ** 2)
            hess[i, j] = hess[j, i] = v
    return grad, hess
