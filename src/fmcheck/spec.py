"""What a spec is made of, on the standard library alone: the expression
DSL's syntax tree, parser and printer, the chart-level `ManifoldSpec` with
its sampling `Region`, the spanning fields of a normal bundle as expression
tables, and the one spec-file loader, `CatalogEntry.from_dict`, which reads
the catalog's packaged files (`entries`) and a spec file named on the
command line alike.

A spec file is a JSON object: the fields of `ManifoldSpec` (`to_dict`),
whose `expected` holds only values some row reads (`EXPECTED_KEYS`), and
three optional sections: `flags`, the claims its data cannot show
(`FLAGS`); `expected_failures`, the rows it runs as negative controls; and
`companion`, its closed-form tables (`_COMPANION`).  Each field is checked
for its shape, and a malformed or unknown one raises ValueError naming it.

Evaluation lives in the numpy layer (`exprjet`, `manifold`, `hamops`);
this module only holds and checks strings, so the catalog and a spec
file's errors load without numpy.

Grammar (see `parse`), the binary operators' levels in `_LEVEL`:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?          # right-associative, sugar for pow
    unary  := "-" unary | atom
    atom   := number | number "i" | ident | ident "(" expr ("," expr)* ")"
            | "(" expr ")"

So a unary minus binds before ``^``: ``-2^2`` is 4 and ``-x^2`` is
``(-x)^2``; ``a^b^c`` is ``a^(b^c)`` and ``pow(a, b)`` is ``a^b``.  A number
is decimal, as ``2``, ``1.5``, ``.5`` or ``1e-3``, and ``2i`` is imaginary.
Coordinates are ``u1`` .. ``u9``; ``x``, ``y``, ``z`` are fixed aliases for
``u1``, ``u2``, ``u3``.  Any other identifier is a named parameter bound at
evaluation time.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from typing import Mapping, Sequence

__all__ = [
    "Expr", "Num", "Var", "Param", "Neg", "Bin", "Call", "parse", "to_source",
    "ExprError", "ParseError", "Region", "ManifoldSpec", "NormalBundleData",
    "fields_from_exprs", "fields_from_gradients", "CatalogEntry", "EXPECTED_KEYS", "FLAGS",
    "ODE_FAMILIES",
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


class Expr:
    """A node of the syntax tree, made from its fields (`_fields`, in the
    order its constructor takes them).  Two nodes are equal, and hash
    alike, when they are of one type with equal fields: the tape shares a
    slot only between equal nodes (`exprjet._compile`).  The fields' tuple
    and its hash are taken once, when the node is made, from its
    children's."""
    __slots__ = ("_key", "_hash")
    _fields = ()

    def __init__(self, *fields):
        for name, value in zip(self._fields, fields, strict=True):
            setattr(self, name, value)
        self._key, self._hash = fields, hash(fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return Bin("+", self, _as_expr(other))

    def __mul__(self, other):
        return Bin("*", self, _as_expr(other))

    def __truediv__(self, other):
        return Bin("/", self, _as_expr(other))


class Num(Expr):
    __slots__ = _fields = ("value",)  # complex


class Var(Expr):
    __slots__ = _fields = ("index",)  # 1-based coordinate index


class Param(Expr):
    __slots__ = _fields = ("name",)


class Neg(Expr):
    __slots__ = _fields = ("a",)


class Bin(Expr):
    __slots__ = _fields = ("op", "a", "b")  # op: + - * / ^


class Call(Expr):
    __slots__ = _fields = ("fn", "a")  # fn: sqrt ln exp


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Num(complex(v))


_COORD_ALIASES = {"x": 1, "y": 2, "z": 3}
_FUNCTIONS = {"sqrt": 1, "ln": 1, "exp": 1, "pow": 2}
# the binary operators' levels, loosest first (read by `_parse_expr` and
# `_source` alike); `^` is right-associative and its base a unary, which,
# as an atom does, binds tighter than any binary operator
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_RIGHT = "^"
_UNARY = 4


# ---------------------------------------------------------------------------
# parser


# one token at a time: whitespace, a number (with a trailing `i`, imaginary),
# a word, or any other character.  `\d`, `\w` and `\s` are Unicode's: a
# decimal digit (what float reads), a letter, digit or `_`, and a space.
_TOKEN = re.compile(r"(\s+)|((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(i(?!\w))?|(\w+)|(.)",
                    re.DOTALL)


class _Scanner:
    def __init__(self, source: str):
        self.src = source.replace("−", "-")
        self.tokens: list = []
        for m in _TOKEN.finditer(self.src):
            space, num, imag, word, other = m.groups()
            if num:
                value = float(num)
                self.tokens.append(("num", complex(0, value) if imag else complex(value),
                                    m.start()))
            elif word and (word[0].isalpha() or word[0] == "_"):
                self.tokens.append(("ident", word, m.start()))
            elif other and other in "+-*/^(),":
                self.tokens.append((other, other, m.start()))
            elif not space:  # any other character, or a digit float cannot read (²)
                self.error(f"unexpected character {(word or other)[0]!r}", m.start())
        self.tokens.append(("end", None, len(self.src)))
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def close(self):
        """Read the ')' that closes a group or a call."""
        kind, _, pos = self.next()
        if kind != ")":
            self.error("expected ')'", pos)

    def error(self, message, pos):
        """ParseError at the source's index `pos`, by line and column."""
        line = self.src.count("\n", 0, pos) + 1
        col = pos - (self.src.rfind("\n", 0, pos) + 1) + 1
        raise ParseError(message, line, col, self.src)


def _parse_expr(s: _Scanner, level: int = 1) -> Expr:
    """The expression at the scanner whose binary operators bind at `level`
    or tighter (`_LEVEL`), by precedence climbing."""
    node = _parse_unary(s)
    while _LEVEL.get(s.peek()[0], 0) >= level:
        op = s.next()[0]
        node = Bin(op, node, _parse_expr(s, _LEVEL[op] + (op != _RIGHT)))
    return node


def _parse_unary(s: _Scanner) -> Expr:
    kind, value, pos = s.next()
    if kind == "-":
        return Neg(_parse_unary(s))
    if kind == "num":
        return Num(value)
    if kind == "(":
        node = _parse_expr(s)
        s.close()
        return node
    if kind == "ident":
        if s.peek()[0] == "(":
            s.next()
            args = [_parse_expr(s)]
            while s.peek()[0] == ",":
                s.next()
                args.append(_parse_expr(s))
            s.close()
            if value not in _FUNCTIONS:
                s.error(f"unknown function {value!r}", pos)
            if len(args) != _FUNCTIONS[value]:
                s.error(f"{value} expects {_FUNCTIONS[value]} argument(s)", pos)
            return Bin("^", *args) if value == "pow" else Call(value, *args)
        if value in _COORD_ALIASES:
            return Var(_COORD_ALIASES[value])
        if value[0] == "u" and value[1:].isdecimal():
            idx = int(value[1:])
            if 1 <= idx <= 9:
                return Var(idx)
        return Param(value)
    s.error("expected a number, identifier or '('", pos)


@lru_cache(maxsize=4096)
def parse(source: str) -> Expr:
    """Parse DSL source into an immutable AST."""
    s = _Scanner(source)
    node = _parse_expr(s)
    tok = s.peek()
    if tok[0] != "end":
        s.error("unexpected trailing input", tok[2])
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
    real = fmt(v.real) if v.real >= 0 else f"0-{fmt(-v.real)}"
    op, im = ("+", v.imag) if v.imag >= 0 else ("-", -v.imag)
    return f"({real}{op}{fmt(im)}i)"


def to_source(e: Expr) -> str:
    return _source(e, 1)


def _source(e: Expr, level: int) -> str:
    """`e` printed where an operand must bind at `level` or tighter
    (`_LEVEL`): a binary operation that binds looser is parenthesized."""
    if isinstance(e, Bin):
        own, right = _LEVEL[e.op], e.op == _RIGHT
        text = f"{_source(e.a, own + right)}{e.op}{_source(e.b, own + (not right))}"
        return text if own >= level else f"({text})"
    if isinstance(e, Neg):
        return f"-{_source(e.a, _UNARY)}"
    if isinstance(e, Num):
        return _num_str(e.value)
    if isinstance(e, Var):
        return f"u{e.index}"
    if isinstance(e, Param):
        return e.name
    return f"{e.fn}({_source(e.a, 1)})"


# ---------------------------------------------------------------------------
# chart specs and their JSON form


class Region:
    """Sampling box with admissibility constraints.

    `guards` are DSL expressions whose magnitude must stay >= `guard_min`
    at every sampled point (used to keep clear of singular loci), and
    `min_sep` is the minimum pairwise coordinate separation (relevant on
    semisimple charts where coordinate collisions are singular).
    """

    def __init__(self, box: tuple, min_sep: float = 0.1, guards: tuple = (),
                 guard_min: float = 0.1):
        self.box, self.min_sep, self.guards, self.guard_min = box, min_sep, guards, guard_min

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


def _known(d: Mapping, keys, field: str) -> None:
    """ValueError naming the first key of `d`, under `field`, that is not
    one of `keys`."""
    for key in d:
        if key not in keys:
            raise ValueError(f"{field}{'.' if field else ''}{key}: unknown key "
                             f"(known: {', '.join(keys)})")


def _strings(value, shape: tuple, field: str, why: str | None = None) -> tuple:
    """`value`, nested lists of strings of `shape`, as nested tuples; `why`
    says where the shape comes from (default: the chart's dimension)."""
    what = f"{' x '.join(map(str, shape))} strings, {why or f'as n = {shape[0]}'}"

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


class ManifoldSpec:
    """Chart-level description of a product/metric structure.

    Expression-valued fields are stored as DSL source strings; parsing is
    cached inside the DSL layer so evaluation stays cheap.  `product` is
    "canonical", "shifted-canonical" or a nested expression table.
    """

    def __init__(self, name: str, n: int, coords: tuple, product, e: tuple,
                 E: tuple | None = None, g: tuple | None = None, g2: tuple | None = None,
                 params: dict | None = None, region: Region | None = None,
                 expected: dict | None = None):
        self.name, self.n, self.coords, self.product, self.e = name, n, coords, product, e
        self.E, self.g, self.g2 = E, g, g2
        self.params = {} if params is None else params
        self.region = region
        self.expected = {} if expected is None else expected

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
        _known(expected, EXPECTED_KEYS, "expected")
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


# ---------------------------------------------------------------------------
# normal-bundle fields


class NormalBundleData:
    """Signs and expression tables of the spanning vector fields: a row of
    components per field, or, with `gradients`, a scalar per field whose
    coordinate gradient is the field (its jet Hessian then supplies the
    field derivatives).  The tables are evaluated in the spec's env
    (`hamops.spanning_fields`)."""

    def __init__(self, eps: tuple, exprs: tuple, gradients: bool = False):
        self.eps, self.exprs, self.gradients = eps, exprs, gradients

    @property
    def count(self) -> int:
        return len(self.exprs)


def fields_from_exprs(component_tables: Sequence[Sequence[str]], eps) -> NormalBundleData:
    return NormalBundleData(eps=tuple(eps), exprs=tuple(tuple(c) for c in component_tables))


def fields_from_gradients(scalar_exprs: Sequence[str], eps) -> NormalBundleData:
    """Fields given as coordinate gradients of scalar potentials."""
    return NormalBundleData(eps=tuple(eps), exprs=tuple(scalar_exprs), gradients=True)


# ---------------------------------------------------------------------------
# a spec file: the spec, its claims, its negative controls and its companion tables


# the values of a spec's `expected` that some row reads (`catalog.CHECKS`)
EXPECTED_KEYS = ("D", "D_reconstructed", "I1", "I2", "V_eigenvalues", "d", "d_pencil", "rank")
# the claims a spec file can make: a row's flag (`catalog.Check.flag`), or
# `homogeneous`, which the benchmark's catalog-sweep reads
FLAGS = ("ed4", "ed4bis", "ed5b", "flat-metric", "homogeneous", "potentiality")
# the closed-form solutions of the ODE (`rotation.closed_forms`)
ODE_FAMILIES = ("pencil63", "q0")
# the companion tables of strings, each with its rank over the chart, and the other
# companion data
_TABLES = {"gamma": 3, "gamma_star": 3, "lame": 1, "flat_chart": 1, "flat_e": 1, "flat_E": 1,
           "potentials": 1}
_COMPANION = (*_TABLES, "normal_bundle", "legendre_fields", "legendre_targets", "ode_family")


def _names(value, field: str, known=None) -> frozenset:
    """A list of strings, each one of `known` if given, as a frozenset."""
    _expect(isinstance(value, list) and all(isinstance(v, str) for v in value), field,
            "a list of strings")
    for v in value:
        if known is not None and v not in known:
            raise ValueError(f"{field}: unknown {v!r} (known: {', '.join(known)})")
    return frozenset(value)


def _normal_bundle(d, n: int, field: str) -> NormalBundleData:
    """A `normal_bundle` object: `eps`, a sign per field, and the fields as
    rows of n components (`fields`) or as gradient scalars (`gradients`)."""
    _expect(isinstance(d, Mapping), field, "an object")
    _known(d, ("eps", "fields", "gradients"), field)
    eps = _field(d, f"{field}.eps")
    _expect(isinstance(eps, list) and all(_is_number(e) and e in (-1, 1) for e in eps),
            f"{field}.eps", "a list of signs, each -1 or 1")
    gradients = "gradients" in d
    _expect(gradients != ("fields" in d), field, 'one of "fields" and "gradients"')
    key, shape = ("gradients", (len(eps),)) if gradients else ("fields", (len(eps), n))
    exprs = _strings(d[key], shape, f"{field}.{key}",
                     f"one per sign of eps{'' if gradients else f', as n = {n}'}")
    return (fields_from_gradients if gradients else fields_from_exprs)(exprs, eps)


def _companion(d, n: int) -> dict:
    """The companion tables of a spec file's `companion` object, in its
    order, on a chart of dimension `n`."""
    _expect(isinstance(d, Mapping), "companion", "an object")
    _known(d, _COMPANION, "companion")
    comp = {}
    for key, value in d.items():
        field = f"companion.{key}"
        if key in _TABLES:
            comp[key] = _strings(value, (n,) * _TABLES[key], field)
        elif key == "normal_bundle":
            comp[key] = _normal_bundle(value, n, field)
        elif key == "legendre_fields":
            _expect(isinstance(value, Mapping), field, "an object of named fields")
            comp[key] = {name: _strings(v, (n,), f"{field}.{name}") for name, v in value.items()}
        elif key == "legendre_targets":
            _expect(isinstance(value, Mapping) and all(isinstance(v, str) for v in value.values()),
                    field, "an object of catalog entry names")
            comp[key] = dict(value)
        else:
            _expect(value in ODE_FAMILIES, field, " or ".join(map(repr, ODE_FAMILIES)))
            comp[key] = value
    # a target is named for a field of `legendre_fields`
    _known(comp.get("legendre_targets", {}), tuple(comp.get("legendre_fields", ())),
           "companion.legendre_targets")
    return comp


class CatalogEntry:
    """A spec file: its spec, the flags it claims, its companion tables and
    the rows it expects to fail, each a negative control."""

    def __init__(self, spec: ManifoldSpec, flags: frozenset = frozenset(),
                 companion: dict | None = None, expected_failures: frozenset = frozenset()):
        self.spec, self.flags = spec, flags
        self.companion = {} if companion is None else companion
        self.expected_failures = expected_failures

    @classmethod
    def from_dict(cls, d: Mapping) -> "CatalogEntry":
        """The entry of a spec file's JSON object.  A missing, malformed or
        unknown field raises ValueError naming it."""
        spec = ManifoldSpec.from_dict(d)
        _known(d, (*vars(spec), "flags", "expected_failures", "companion"), "")
        return cls(spec=spec, flags=_names(d.get("flags", []), "flags", FLAGS),
                   companion=_companion(d.get("companion", {}), spec.n),
                   expected_failures=_names(d.get("expected_failures", []), "expected_failures"))
