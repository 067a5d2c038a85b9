"""Second-order forward-mode jet evaluation of the expression DSL.

A table of DSL sources (nested tuples or lists of strings, or one AST) is
compiled once into a flat list of operations, the recorded tape of
forward-mode differentiation (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).  Structurally equal
subexpressions share one slot, since the frozen AST nodes hash by
structure, and the compiled list is cached on the table as `parse` is
cached on its source.

The tape runs over a leading point axis: one pass over the operations
(`eval_points`) gives the value, gradient and Hessian of every entry at
every point, and a single point (`eval_points(...).at(0)`, `eval_jet`,
`eval_value`) is a batch of one.  Each rule decides per point where it
branches on a value (a vanishing divisor, a constant or integer
exponent), so a point's jets are bit for bit those of a run at that point
alone, up to dtype.  The finite-difference oracle of these jets lives in
the test tree.

A slot carries only the parts that can be nonzero: a constant (a `Num`
or `Param` leaf, or an operation on constants only) has no derivative
arrays, and an affine slot (a `Var`, or a sum, difference or constant
multiple of affine slots) no Hessian; the absent part is `ZERO`, and each
rule skips the terms it is a factor of.  `eval_points(..., order)`
computes the parts up to `order` (0: values, 1: and gradients, 2: and
Hessians) and returns None for the others, except that the operations a
power's exponent reads always run to order 2, so each point's branch of
`^` is the same at every order.  The parts a run computes are bit for bit
those of an order-2 run, and only they enter its finiteness test: a point
whose Hessian alone is not finite fails at order 2, not below.

A domain error at some points does not stop the pass: each such point
records its first error in operation order (the one a run at that point
alone raises), the others go on, and a point whose jets are not finite
records that.  A point in error gets zero jets, so that batched arithmetic
downstream stays finite there, and `TableJets.at` raises its error when
its consumer reaches that point, and never hands out its jets.  Unbound
parameters and coordinates do not depend on the point and raise at once.

The tape computes in complex: products and quotients are numpy's complex
`*` and `/`, and `sqrt`, `ln` and non-integer powers take the principal
branch (cut on the negative real axis).  Integer powers are expanded by
repeated multiplication so polynomial jets are exact.  A run returns its
parts as float64, with the same real bits, when every imaginary part of
every point is zero (of either sign), so data built from a real table
stays real downstream until numpy promotes it on meeting complex data.

The DSL's syntax tree, parser and printer live in `spec`, which loads no
numpy; this module takes them from there.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .spec import (Bin, Call, Expr, ExprError, Neg, Num, Param, ParseError, Var, parse,
                   to_source)

__all__ = [
    "Expr", "Num", "Var", "Param", "Neg", "Bin", "Call",
    "Jet", "TableJets", "parse", "to_source", "eval_jet", "eval_points", "eval_value", "jet_sqrt",
    "ExprError", "ParseError", "EvalError", "DomainError",
    "UnboundParameterError", "UnboundVariableError",
]

Number = Union[int, float, complex]


class EvalError(ExprError):
    pass


class DomainError(EvalError):
    pass


class UnboundParameterError(EvalError):
    pass


class UnboundVariableError(EvalError):
    pass


# ---------------------------------------------------------------------------
# evaluation: compile once per table, run once over all points


class Jet(NamedTuple):
    """Value, gradient and Hessian of a scalar at a point in C^n."""
    val: complex
    grad: np.ndarray
    hess: np.ndarray


class TableJets:
    """Values, gradients and Hessians of a table at each point of one run
    (the leading axis), None for the parts above the run's order, and the
    message of the domain error each point raised, or None."""

    def __init__(self, val: np.ndarray, grad: np.ndarray | None, hess: np.ndarray | None,
                 errors: list):
        self.val, self.grad, self.hess, self.errors = val, grad, hess, errors

    def __len__(self) -> int:
        return len(self.errors)

    def at(self, k: int):
        """(val, grad, hess) at point k, None for a part not computed;
        raises that point's domain error."""
        if self.errors[k] is not None:
            raise DomainError(self.errors[k])
        return tuple(None if part is None else part[k] for part in (self.val, self.grad, self.hess))


class _Zero:
    """A derivative that is zero by construction (of a constant, or the
    Hessian of an affine slot): a term with it as a factor is ZERO, and a
    sum skips it, so the present terms are added in the formula's order
    and no array of zeros is built.  numpy defers to it."""
    __array_ufunc__ = None

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return -other

    def __mul__(self, *_):
        return self

    __rmul__ = __neg__ = __getitem__ = transpose = __mul__

    def any(self, axis=None):
        return False


ZERO = _Zero()


# Each rule maps the (val, grad, hess) triples of its operands, batched
# along a leading point axis, to that of its result, and reports the points
# where it is singular to its last argument, `fail(mask, message)`.  Run
# to an order k < 2, its next to last argument, it drops the products of
# two gradients, so its parts above k are not derivatives; nothing reads
# them.  The arithmetic is elementwise, so a point's jets do not depend on
# the other points of the batch.  Hessians are symmetric only up to the
# rounding of complex products (g_i*g_j and g_j*g_i can differ in the last
# bit, and cross + cross.T joins the other terms in a different order at
# (i, j) than at (j, i)), so the symmetry test allows 1e-14 relative.

def _principal(v):
    """`ode3d.principal` along the point axis: exact-real values at +0j.  A
    real `v` stays real unless a value is negative, which takes the branch."""
    real = not np.iscomplexobj(v) and not (v < 0).any()
    return v if real else np.where(v.imag == 0, v.real, v).astype(complex, copy=False)


def _compose(a, k, f0, f1, f2):
    """Chain rule through a scalar function with derivatives f0, f1, f2."""
    g = a[1]
    gg = g[:, :, None] * g[:, None, :] if k == 2 else ZERO
    return f0, f1[:, None] * g, f1[:, None, None] * a[2] + f2[:, None, None] * gg


def _linear(op):
    """The rule that applies `op` to values, gradients and Hessians alike
    (it is nowhere singular and the same at every order, so it ignores its
    last two arguments)."""
    return lambda *args: tuple(map(op, *args[:-2]))


def _nonzero(a, message: str, fail):
    """The values of `a`, for a rule that is singular where they vanish:
    those points fail, and carry on with the value 1."""
    v = a[0]
    if not v.all():
        zero = v == 0
        fail(zero, message)
        v = np.where(zero, 1.0, v)
    return v


def _mul(a, b, k, fail):
    a0, b0 = a[0][:, None], b[0][:, None]
    cross = a[1][:, :, None] * b[1][:, None, :] if k == 2 else ZERO
    return (a[0] * b[0], a0 * b[1] + b0 * a[1],
            a0[:, :, None] * b[2] + b0[:, :, None] * a[2] + cross + cross.transpose(0, 2, 1))


def _reciprocal(a, k, fail):
    v = _nonzero(a, "division by zero", fail)
    return _compose(a, k, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))


def _div(a, b, k, fail):
    return _mul(a, _reciprocal(b, k, fail), k, fail)


def jet_sqrt(a, k: int, fail):
    """Principal square root of (val, grad, hess) triples batched along a
    leading axis, to order k; points where a value vanishes go to `fail`."""
    v = _nonzero(a, "sqrt(0) has no jet", fail)
    r = np.sqrt(_principal(v))
    return _compose(a, k, r, 0.5 / r, -0.25 / (v * r))


def _ln(a, k, fail):
    v = _nonzero(a, "ln(0)", fail)
    return _compose(a, k, np.log(_principal(v)), 1.0 / v, -1.0 / (v * v))


def _exp(a, k, fail):
    e = np.exp(a[0])
    return _compose(a, k, e, e, e)


def _ipow(a, m: int, k, fail):
    if m < 0:
        return _reciprocal(_ipow(a, -m, k, fail), k, fail)
    out = (np.ones(a[0].shape, dtype=complex), ZERO, ZERO)
    base = a
    while m:
        if m & 1:
            out = _mul(out, base, k, fail)
        base = _mul(base, base, k, fail) if m > 1 else base
        m >>= 1
    return out


def _real_pow(a, b, k, fail):
    """a^c for a constant non-integer exponent c."""
    c = b[0]
    v = _nonzero(a, "0 raised to a non-integer power", fail)
    f0 = np.power(_principal(v), c)
    return _compose(a, k, f0, c * f0 / v, c * (c - 1.0) * f0 / (v * v))


def _pow(a, b, k, fail):
    """a^b, by the rule each point's exponent calls for: exp(b ln a) where
    it varies, repeated multiplication where it is a constant integer, and
    the principal power otherwise.  The exponent comes with its whole jet
    at every order, so the choice does not depend on k."""
    c = b[0]
    if not len(c):
        return a
    if not b[1].any() and not b[2].any() and (c == c[0]).all():
        return _const_pow(complex(c[0]))(a, b, k, fail)
    varies = np.zeros(len(c), dtype=bool) | b[1].any(axis=1) | b[2].any(axis=(1, 2))
    rules = [_var_pow if v else _const_pow(complex(x)) for v, x in zip(varies, c)]
    out = [ZERO] * 3
    for rule in dict.fromkeys(rules):
        rows = np.flatnonzero([r is rule for r in rules])

        def rows_fail(mask, message, rows=rows):
            full = np.zeros(len(c), dtype=bool)
            full[rows[mask]] = True
            fail(full, message)

        parts = rule(tuple(x[rows] for x in a), tuple(x[rows] for x in b), k, rows_fail)
        for d, value in enumerate(parts):
            if value is not ZERO:
                if out[d] is ZERO:
                    out[d] = np.zeros((len(c),) + value.shape[1:], dtype=complex)
                out[d][rows] = value
    return tuple(out)


def _var_pow(a, b, k, fail):
    return _exp(_mul(b, _ln(a, k, fail), k, fail), k, fail)


@lru_cache(maxsize=256)
def _const_pow(c: complex):
    """The rule for a^c with a constant exponent: repeated multiplication
    for an integer c, the principal power otherwise."""
    if c.imag == 0 and abs(c.real - round(c.real)) < 1e-12:
        return lambda a, b, k, fail: _ipow(a, int(round(c.real)), k, fail)
    return _real_pow


_RULES = {"+": _linear(operator.add), "-": _linear(operator.sub), "neg": _linear(operator.neg),
          "*": _mul, "/": _div, "^": _pow, "sqrt": jet_sqrt, "ln": _ln, "exp": _exp}


class _Program(NamedTuple):
    shape: tuple
    ops: list      # (rule, operand slots), or (None, leaf node)
    outputs: list  # the slot of each table entry, row-major
    frees: list    # per operation, the slots no later operation reads
    exponent: list  # per operation, whether a power's exponent reads it


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
    exponent = [False] * len(ops)
    for i in reversed(range(len(ops))):
        rule, args = ops[i]
        for pos, j in enumerate(args if rule else ()):
            exponent[j] |= exponent[i] or (rule is _pow and pos == 1)
    return _Program(entries.shape, ops, outputs, frees, exponent)


def _leaf(node: Expr, points, params, k: int):
    count, n = points.shape
    if isinstance(node, Num):
        return np.full(count, node.value, dtype=complex), ZERO, ZERO
    if isinstance(node, Param):
        if node.name not in params:
            raise UnboundParameterError(f"unbound parameter {node.name!r}")
        return np.full(count, params[node.name], dtype=complex), ZERO, ZERO
    if node.index > n:
        raise UnboundVariableError(f"coordinate u{node.index} out of range for dimension {n}")
    if not k:
        return points[:, node.index - 1], ZERO, ZERO
    unit = np.zeros((count, n), dtype=complex)
    unit[:, node.index - 1] = 1.0
    return points[:, node.index - 1], unit, ZERO


def _run(program: _Program, points, params, order: int) -> TableJets:
    """One pass over the operations at all `points`, shape (P, n), to
    `order` (the operations an exponent reads to order 2): values with
    shape (P, *table shape), gradients plus (n,), Hessians plus (n, n),
    None above `order`.  A point where an operation is singular, or the
    computed jets are not finite, records its first error, the pass goes
    on with the other points, and its jets are set to zero."""
    points = np.asarray(points, dtype=complex)
    count, n = points.shape
    params = params or {}
    errors = [None] * count

    def fail(mask, message):
        for k in np.flatnonzero(mask):
            if errors[k] is None:
                errors[k] = message

    slots = [None] * len(program.ops)
    with np.errstate(all="ignore"):
        for i, (rule, args) in enumerate(program.ops):
            k = 2 if program.exponent[i] else order
            slots[i] = (rule(*[slots[j] for j in args], k, fail) if rule
                        else _leaf(args, points, params, k))
            for j in program.frees[i]:
                slots[j] = None
        out = []
        for d in range(order + 1):
            part = np.zeros((count, len(program.outputs)) + (n,) * d, dtype=complex)
            for e, i in enumerate(program.outputs):
                if slots[i][d] is not ZERO:
                    part[:, e] = slots[i][d]
            out.append(part.reshape((count,) + program.shape + (n,) * d))
        if not all(np.isfinite(part).all() for part in out):
            finite = np.ones(count, dtype=bool)
            for part in out:
                finite &= np.isfinite(part).reshape(count, -1).all(axis=1)
            fail(~finite, "non-finite jet")
    failed = [err is not None for err in errors]
    if any(failed):
        for part in out:
            part[failed] = 0
    if not any(part.imag.any() for part in out):
        out = [np.ascontiguousarray(part.real) for part in out]
    return TableJets(*out, *[None] * (2 - order), errors=errors)


def eval_points(table, points, params: Mapping[str, Number] | None = None,
                order: int = 2) -> TableJets:
    """Jets of every entry of a nested table of DSL sources (or of one AST)
    at each of `points`, shape (P, n), from one run, to `order`: 0 for
    values, 1 with gradients, 2 with Hessians."""
    return _run(_compile(_frozen(table)), points, params, order)


def eval_jet(e: Expr, point: Sequence[Number], params: Mapping[str, Number] | None = None) -> Jet:
    """Value, gradient and Hessian of `e` at `point`: a batch of one."""
    val, grad, hess = eval_points(e, [point], params).at(0)
    return Jet(complex(val), grad, hess)


def eval_value(e: Expr, point: Sequence[Number], params: Mapping[str, Number] | None = None) -> complex:
    """The value of `e` at `point`, from the same run as its jet."""
    return complex(eval_points(e, [point], params).at(0)[0])
