"""Chart-level structure specs, point sampling, and product/metric checks.

A `ManifoldSpec` is a single coordinate chart carrying a product (canonical,
shifted-canonical, or an explicit expression table), a unit field, and
optionally an Euler field and one or two metrics.  `structure_at` evaluates
everything needed downstream at one point: the product to first derivative
order and all other primitive fields to second order.

All residuals are reported normalized as `max|residual| / (1 + scale)` where
`scale` is the largest entry magnitude among the tensors involved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import exprjet as ej
from .tensor import lie_from_components

__all__ = [
    "Region", "SamplePlan", "ManifoldSpec", "StructureAt", "Report",
    "RegionEmptyError", "AllEntriesZeroError", "PointCountError", "MissingFieldError",
    "required", "sample_points",
    "structure_at", "structures", "worst", "point_report", "merge_reports",
    "check_product_axioms", "check_hertling_manin", "check_metric_invariance",
    "check_killing_unit", "check_homogeneity", "normalized",
]

DEFAULT_TOL = 1e-8


class RegionEmptyError(Exception):
    pass


class AllEntriesZeroError(Exception):
    pass


class PointCountError(ValueError):
    pass


class MissingFieldError(ValueError):
    """The spec lacks a field that a check needs."""


def required(value, what: str):
    if value is None:
        raise MissingFieldError(f"spec has no {what}")
    return value


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
    def from_dict(cls, d: Mapping) -> "Region":
        return cls(box=tuple(tuple(b) for b in d["box"]),
                   min_sep=float(d.get("min_sep", 0.1)),
                   guards=tuple(d.get("guards", ())),
                   guard_min=float(d.get("guard_min", 0.1)))


@dataclass(frozen=True)
class SamplePlan:
    seed: int = 0
    count: int = 20
    region: Region | None = None  # overrides the spec region when set


def _scalar_to_json(v: complex):
    v = complex(v)
    return v.real if v.imag == 0 else [v.real, v.imag]


def _scalar_from_json(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


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

    def env(self, overrides: Mapping[str, complex] | None = None) -> dict:
        out = dict(self.params)
        if overrides:
            out.update(overrides)
        return out

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
        product = d["product"]
        if isinstance(product, Mapping):
            product = tuple(tuple(tuple(row) for row in mat) for mat in product["table"])
        return cls(
            name=d["name"],
            n=int(d["n"]),
            coords=tuple(d["coords"]),
            product=product,
            e=tuple(d["e"]),
            E=tuple(d["E"]) if d.get("E") is not None else None,
            g=tuple(tuple(r) for r in d["g"]) if d.get("g") is not None else None,
            g2=tuple(tuple(r) for r in d["g2"]) if d.get("g2") is not None else None,
            params={k: _scalar_from_json(v) for k, v in d.get("params", {}).items()},
            region=Region.from_dict(d["region"]) if d.get("region") is not None else None,
            expected=dict(d.get("expected", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ManifoldSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class StructureAt:
    """All primitive tensors at one point: product to first order, the
    remaining fields to second order."""
    n: int
    point: np.ndarray
    c: np.ndarray
    dc: np.ndarray
    ddc: np.ndarray | None
    e: np.ndarray
    de: np.ndarray
    dde: np.ndarray
    E: np.ndarray | None = None
    dE: np.ndarray | None = None
    ddE: np.ndarray | None = None
    g: np.ndarray | None = None
    dg: np.ndarray | None = None
    ddg: np.ndarray | None = None
    g2: np.ndarray | None = None
    dg2: np.ndarray | None = None
    ddg2: np.ndarray | None = None


@dataclass(frozen=True)
class Report:
    """Residual statistics for one named check."""
    name: str
    residual: float
    tol: float
    passed: bool
    scale: float = 0.0
    npoints: int = 0
    details: dict = field(default_factory=dict)

    @classmethod
    def from_residual(cls, name: str, residual: float, tol: float,
                      scale: float = 0.0, npoints: int = 0,
                      details: dict | None = None) -> "Report":
        residual = float(residual)
        return cls(name=name, residual=residual, tol=float(tol),
                   passed=bool(residual <= tol), scale=float(scale),
                   npoints=int(npoints), details=details or {})

    def to_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual, "tol": self.tol,
                "passed": self.passed, "scale": self.scale,
                "npoints": self.npoints, "details": self.details}


def worst(values) -> float:
    """The largest of `values`, 0.0 for none, and NaN as soon as one of
    them is NaN: a NaN residual fails wherever it stands.  Every residual
    of every check is reduced through here."""
    out = 0.0
    for v in values:
        if v != v:
            return math.nan
        out = max(out, v)
    return float(out)


def point_report(name: str, per_point, tol: float, fit: str | None = None, expected=None,
                 details: dict | None = None) -> Report:
    """The report of one check from its per-point (residual, scale, ...)
    results.

    With `fit`, the third entry of each result is a constant fitted at that
    point: the fits must then agree across the points, their mean is
    recorded as `<fit>_fit` and, given `expected`, must match it."""
    per_point = list(per_point)
    residuals = [r[0] for r in per_point]
    details = dict(details or {})
    if fit is not None:
        fits = [r[2] for r in per_point]
        mean = sum(fits) / len(fits)
        residuals.append(normalized(worst(abs(f - mean) for f in fits), abs(mean)))
        details[f"{fit}_fit"] = [mean.real, mean.imag]
        if expected is not None:
            details[f"{fit}_expected"] = expected
            residuals.append(normalized(abs(mean - complex(expected)), abs(mean)))
    return Report.from_residual(name, worst(residuals), tol,
                                scale=worst(r[1] for r in per_point),
                                npoints=len(per_point), details=details)


def worst_parts(per_point) -> dict:
    """The worst of each named sub-residual over per-point results whose
    third entry maps names to sub-residuals."""
    return {key: worst(r[2][key] for r in per_point) for key in per_point[0][2]}


def merge_reports(name: str, reports: Sequence[Report], tol: float) -> Report:
    """Merge the single-point reports of one check."""
    return point_report(name, [(r.residual, r.scale) for r in reports], tol)


def normalized(raw: float, scale: float) -> float:
    return float(raw) / (1.0 + float(scale))


# ---------------------------------------------------------------------------
# sampling


_MAX_ATTEMPTS = 100000


def sample_points(spec: ManifoldSpec, plan: SamplePlan) -> list:
    """Deterministic rejection sampling inside the admissible region.

    Candidates are drawn and tested in blocks; the rows of one block are
    the successive draws of one candidate at a time, and candidates are
    accepted in draw order, so the block size does not change the points."""
    if plan.count < 1:
        raise PointCountError(f"need at least one sample point, got {plan.count}")
    region = required(plan.region or spec.region, "sampling region")
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    lo = np.array([b[0] for b in region.box])
    hi = np.array([b[1] for b in region.box])
    env = spec.env()
    points = []
    attempts = 0
    while len(points) < plan.count:
        if attempts == _MAX_ATTEMPTS:
            raise RegionEmptyError(f"rejection sampling exhausted for {spec.name!r}")
        block = min(2 * (plan.count - len(points)) + 8, _MAX_ATTEMPTS - attempts)
        attempts += block
        cands = lo + rng.random((block, len(lo))) * (hi - lo)
        keep = np.ones(block, dtype=bool)
        if region.min_sep > 0 and len(lo) > 1:
            diffs = np.abs(cands[:, :, None] - cands[:, None, :])
            diffs[:, np.arange(len(lo)), np.arange(len(lo))] = np.inf
            keep &= ~(diffs.min(axis=(1, 2)) < region.min_sep)
        try:
            guards = ej.eval_points(region.guards, cands, env)
        except ej.EvalError:
            continue
        keep &= [err is None for err in guards.errors]
        keep &= ~np.any(np.abs(guards.val.reshape(block, -1)) < region.guard_min, axis=1)
        points.extend(cands[keep][:plan.count - len(points)])
    return points


# ---------------------------------------------------------------------------
# pointwise structure evaluation


def product_jets(product, n: int, point, env):
    """Structure constants with first and second derivatives at a point."""
    if not isinstance(product, str):
        return ej.eval_table(product, point, env)
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if product == "canonical" and i == j:
                c[i, i, i] = 1.0
            elif product == "shifted-canonical" and i + j < n:
                c[i + j, i, j] = 1.0
    return c, np.zeros((n,) * 4, dtype=complex), np.zeros((n,) * 5, dtype=complex)


def structures(spec: ManifoldSpec, points, params=None) -> Iterator[StructureAt]:
    """The structure at each of `points`, in order.  Each of the spec's
    tables runs once over all the points, when the first structure is
    asked for; a point where one is singular raises when it is reached."""
    env = spec.env(params)
    points = np.asarray(points, dtype=complex)
    if not len(points):
        return
    tables = [spec.product if not isinstance(spec.product, str) else None,
              spec.e, spec.E, spec.g, spec.g2]
    runs = [None if t is None else ej.eval_points(t, points, env) for t in tables]
    for k, point in enumerate(points):
        jets = [None if run is None else run.at(k) for run in runs]
        c, dc, ddc = jets[0] or product_jets(spec.product, spec.n, point, env)
        yield StructureAt(spec.n, point, c, dc, ddc,
                          *[part for jet in jets[1:] for part in jet or (None,) * 3])


def structure_at(spec: ManifoldSpec, point, params: Mapping[str, complex] | None = None) -> StructureAt:
    """The structure at one point."""
    return next(structures(spec, [point], params))


# ---------------------------------------------------------------------------
# checks: a per-point residual of the point's structure, returning the
# normalized residual and its scale, and the check over a point set


def product_axioms_at(st: StructureAt):
    """Commutativity, associativity and the unit axiom of the product."""
    comm = st.c - np.swapaxes(st.c, 1, 2)
    assoc = np.einsum("sjk,isl->ijkl", st.c, st.c) - np.einsum("sjl,isk->ijkl", st.c, st.c)
    unit = np.einsum("ijk,j->ik", st.c, st.e) - np.eye(st.n)
    sc = max(np.max(np.abs(st.c)), np.max(np.abs(st.e)))
    raw = worst((np.max(np.abs(comm)), np.max(np.abs(assoc)), np.max(np.abs(unit))))
    return normalized(raw, sc), sc


def check_product_axioms(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                         params=None) -> Report:
    return point_report("product-axioms",
                        map(product_axioms_at, structures(spec, points, params)), tol)


def hertling_manin_residual(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Left minus right side of the integrability condition on the product,
    indexed [p,s,k,j,l]."""
    t1 = np.einsum("qjl,pskq->pskjl", c, dc)
    t2 = np.einsum("qsk,pjlq->pskjl", c, dc)
    t3 = np.einsum("pjq,qskl->pskjl", c, dc)
    t4 = np.einsum("pqk,qjls->pskjl", c, dc)
    t5 = np.einsum("plq,qskj->pskjl", c, dc)
    t6 = np.einsum("pqs,qjlk->pskjl", c, dc)
    return t1 - t2 - (t3 - t4 + t5 - t6)


def hertling_manin_at(st: StructureAt):
    res = hertling_manin_residual(st.c, st.dc)
    sc = max(np.max(np.abs(st.c)), np.max(np.abs(st.dc)))
    return normalized(np.max(np.abs(res)), sc), sc


def check_hertling_manin(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                         params=None) -> Report:
    return point_report("hertling-manin",
                        map(hertling_manin_at, structures(spec, points, params)), tol)


def metric_invariance_at(st: StructureAt, second: bool = False):
    g = required(st.g2 if second else st.g, "metric")
    res = np.einsum("iq,qlp->ilp", g, st.c) - np.einsum("lq,qip->ilp", g, st.c)
    sc = max(np.max(np.abs(g)), np.max(np.abs(st.c)))
    return normalized(np.max(np.abs(res)), sc), sc


def check_metric_invariance(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                            params=None, second: bool = False) -> Report:
    return point_report("metric-invariance" + ("-g2" if second else ""),
                        [metric_invariance_at(st, second)
                         for st in structures(spec, points, params)], tol)


def lie_metric(st: StructureAt, x, dx) -> np.ndarray:
    return lie_from_components(st.g, st.dg, ("d", "d"), x, dx)


def killing_unit_at(st: StructureAt):
    sc = np.max(np.abs(required(st.g, "metric")))
    return normalized(np.max(np.abs(lie_metric(st, st.e, st.de))), sc), sc


def check_killing_unit(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                       params=None) -> Report:
    return point_report("killing-unit",
                        map(killing_unit_at, structures(spec, points, params)), tol)


def fit_scalar(target: np.ndarray, model: np.ndarray, floor: float = 1e-8) -> complex:
    """Least-squares scalar s minimizing |target - s*model| over entries of
    magnitude above `floor * max|model|`."""
    mask = np.abs(model) > floor * (np.max(np.abs(model)) + 1e-300)
    if not np.any(mask):
        raise ValueError("all entries below the fitting floor")
    num = np.sum(np.conj(model[mask]) * target[mask])
    den = np.sum(np.abs(model[mask]) ** 2)
    return complex(num / den)


def homogeneity_at(st: StructureAt):
    """Fit D in (L_E g) = D g at the point; the residual covers that fit
    and (L_E c) = c.  Returns (residual, scale, D)."""
    lg = lie_from_components(required(st.g, "metric"), st.dg, ("d", "d"),
                             required(st.E, "Euler field"), st.dE)
    if np.max(np.abs(st.g)) == 0:
        raise AllEntriesZeroError("metric vanishes at a sample point")
    D = fit_scalar(lg, st.g)
    res_g = np.max(np.abs(lg - D * st.g))
    lc = lie_from_components(st.c, st.dc, ("u", "d", "d"), st.E, st.dE)
    res_c = np.max(np.abs(lc - st.c))
    sc = max(np.max(np.abs(st.g)), np.max(np.abs(lg)), np.max(np.abs(st.c)))
    return normalized(worst((res_g, res_c)), sc), sc, D


def check_homogeneity(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                      params=None) -> Report:
    """Fit D in (L_E g) = D g, check the residual, and check (L_E c) = c;
    D must be one constant, and the expected one when the spec has it."""
    return point_report("homogeneity", map(homogeneity_at, structures(spec, points, params)),
                        tol, fit="D", expected=spec.expected.get("D"))
