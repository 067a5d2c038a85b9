"""What a spec is made of, on the standard library alone: the expression
DSL's syntax tree, parser and printer, the chart-level `ManifoldSpec` with
its sampling `Region` and spec-file validation, and the spanning fields of
a normal bundle as expression tables.

Evaluation lives in the numpy layer (`exprjet`, `manifold`, `hamops`);
this module only holds and checks strings, so the catalog and a spec
file's errors load without numpy.

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

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

__all__ = [
    "Expr", "Num", "Var", "Param", "Neg", "Bin", "Call", "parse", "to_source",
    "ExprError", "ParseError", "Region", "ManifoldSpec", "NormalBundleData",
    "fields_from_exprs", "fields_from_gradients",
]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int, source: str = ""):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
        self.source = source


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
# chart specs and their JSON form


@dataclass(frozen=True)
class Region:
    """Sampling box with admissibility constraints.

    `guards` are DSL expressions whose magnitude must stay >= `guard_min`
    at every sampled point (used to keep clear of singular loci), and
    `min_sep` is the minimum pairwise coordinate separation (relevant on
    semisimple charts where coordinate collisions are singular).
    """
    box: tuple
    min_sep: float = 0.1
    guards: tuple = ()
    guard_min: float = 0.1

    def to_dict(self) -> dict:
        return {"box": [list(b) for b in self.box], "min_sep": self.min_sep,
                "guards": list(self.guards), "guard_min": self.guard_min}

    @classmethod
    def from_dict(cls, d: Mapping, n: int) -> "Region":
        """The region of a spec file's `region` object, on a chart of
        dimension `n`; ValueError names the first missing or malformed
        field."""
        _expect(isinstance(d, Mapping), "region", "an object")
        box = _field(d, "region.box")
        _expect(_is_list(box, n) and all(_is_list(b, 2) and all(map(_is_number, b)) for b in box),
                "region.box", f"{n} [lo, hi] pairs of numbers, as n = {n}")
        for b in box:
            _expect(all(map(_is_finite, b)) and b[0] <= b[1], "region.box",
                    f"finite bounds with lo <= hi, got {b}")
        bounds = {}
        for key in ("min_sep", "guard_min"):
            if key in d:
                _expect(_is_finite(d[key]), f"region.{key}", "a finite number")
                bounds[key] = float(d[key])
        guards = d.get("guards", [])
        _expect(isinstance(guards, list) and all(isinstance(g, str) for g in guards),
                "region.guards", "a list of expression strings")
        return cls(box=tuple(tuple(b) for b in box), guards=tuple(guards), **bounds)


def _field(d: Mapping, field: str):
    """A spec file's `field`, the last key of its dotted name in `d`:
    ValueError naming it where it is missing."""
    key = field.rpartition(".")[2]
    if key not in d:
        raise ValueError(f"{field}: missing")
    return d[key]


def _expect(ok: bool, field: str, what: str) -> None:
    """A spec file's `field` must be `what`: ValueError naming it if not."""
    if not ok:
        raise ValueError(f"{field}: expected {what}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number that a float holds, neither NaN nor infinite: Python's json
    reads NaN, Infinity and integers of any size."""
    try:
        return _is_number(v) and math.isfinite(v)
    except OverflowError:
        return False


def _is_list(v, length: int) -> bool:
    return isinstance(v, list) and len(v) == length


def _strings(value, shape: tuple, field: str) -> tuple:
    """`value`, nested lists of strings of `shape`, as nested tuples."""
    what = f"{' x '.join(map(str, shape))} strings, as n = {shape[0]}"

    def walk(v, dims):
        _expect(_is_list(v, dims[0]) if dims else isinstance(v, str), field, what)
        return tuple(walk(x, dims[1:]) for x in v) if dims else v
    return walk(value, shape)


def _scalar_to_json(v: complex):
    v = complex(v)
    return v.real if v.imag == 0 else [v.real, v.imag]


def _scalar_from_json(v, field: str) -> complex:
    parts = [v] if _is_number(v) else v
    _expect(_is_number(v) or _is_list(v, 2) and all(map(_is_number, v)), field,
            "a number or an [re, im] pair")
    _expect(all(map(_is_finite, parts)), field, f"a finite value, got {v}")
    return complex(*parts)


@dataclass
class ManifoldSpec:
    """Chart-level description of a product/metric structure.

    Expression-valued fields are stored as DSL source strings; parsing is
    cached inside the DSL layer so evaluation stays cheap.
    """
    name: str
    n: int
    coords: tuple
    product: object  # "canonical" | "shifted-canonical" | nested expr table
    e: tuple
    E: tuple | None = None
    g: tuple | None = None
    g2: tuple | None = None
    params: dict = field(default_factory=dict)
    region: Region | None = None
    expected: dict = field(default_factory=dict)

    def env(self) -> dict:
        return dict(self.params)

    # -- serialization (JSON round-trip must be lossless) --

    def to_dict(self) -> dict:
        product = self.product
        if not isinstance(product, str):
            product = {"table": [[list(row) for row in mat] for mat in product]}
        return {
            "name": self.name,
            "n": self.n,
            "coords": list(self.coords),
            "product": product,
            "e": list(self.e),
            "E": list(self.E) if self.E is not None else None,
            "g": [list(r) for r in self.g] if self.g is not None else None,
            "g2": [list(r) for r in self.g2] if self.g2 is not None else None,
            "params": {k: _scalar_to_json(v) for k, v in sorted(self.params.items())},
            "region": self.region.to_dict() if self.region is not None else None,
            "expected": self.expected,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: Mapping) -> "ManifoldSpec":
        """The spec of a JSON object (a spec file).  A missing or malformed
        field raises ValueError naming it."""
        _expect(isinstance(d, Mapping), "spec", "an object")
        n = _field(d, "n")
        _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "n",
                "a positive integer")
        product = _field(d, "product")
        if isinstance(product, Mapping):
            product = _strings(product.get("table"), (n, n, n), "product")
        else:
            _expect(product in ("canonical", "shifted-canonical"), "product",
                    "'canonical', 'shifted-canonical' or {\"table\": ...}")
        params, expected = d.get("params", {}), d.get("expected", {})
        _expect(isinstance(params, Mapping), "params", "an object")
        _expect(isinstance(expected, Mapping), "expected", "an object")
        for key, v in expected.items():
            if key == "V_eigenvalues":  # the one list, of n eigenvalues
                _expect(_is_list(v, n) and all(map(_is_finite, v)), f"expected.{key}",
                        f"a list of {n} finite numbers, as n = {n}")
            else:
                _expect(_is_finite(v), f"expected.{key}", "a finite number")
        return cls(
            name=_field(d, "name"),
            n=n,
            coords=_strings(_field(d, "coords"), (n,), "coords"),
            product=product,
            e=_strings(_field(d, "e"), (n,), "e"),
            **{key: None if d.get(key) is None else _strings(d[key], shape, key)
               for key, shape in (("E", (n,)), ("g", (n, n)), ("g2", (n, n)))},
            params={k: _scalar_from_json(v, f"params.{k}") for k, v in params.items()},
            region=Region.from_dict(d["region"], n) if d.get("region") is not None else None,
            expected=dict(expected),
        )

    @classmethod
    def from_json(cls, text: str) -> "ManifoldSpec":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# normal-bundle fields


@dataclass
class NormalBundleData:
    """Signs and expression tables of the spanning vector fields: a row of
    components per field, or, with `gradients`, a scalar per field whose
    coordinate gradient is the field (its jet Hessian then supplies the
    field derivatives).  The tables are evaluated in the spec's env
    (`hamops.spanning_fields`)."""
    eps: tuple
    exprs: tuple
    gradients: bool = False

    @property
    def count(self) -> int:
        return len(self.exprs)


def fields_from_exprs(component_tables: Sequence[Sequence[str]], eps) -> NormalBundleData:
    return NormalBundleData(eps=tuple(eps), exprs=tuple(tuple(c) for c in component_tables))


def fields_from_gradients(scalar_exprs: Sequence[str], eps) -> NormalBundleData:
    """Fields given as coordinate gradients of scalar potentials."""
    return NormalBundleData(eps=tuple(eps), exprs=tuple(scalar_exprs), gradients=True)
