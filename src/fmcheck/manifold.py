"""Chart-level structure specs, point sampling, and product/metric checks.

A `ManifoldSpec` is a single coordinate chart carrying a product (canonical,
shifted-canonical, or an explicit expression table), a unit field, and
optionally an Euler field and one or two metrics.  `structures` evaluates
everything needed downstream at all the sample points at once, as one
`StructureAt` whose arrays carry a leading point axis (P, ...): the product
to first derivative order and all other primitive fields to second order.
The residual functions (`*_at`) take such a batch and return one residual
and scale per point; `structure_at` is a batch of one, with the point axis
dropped, and the same functions then return scalars.

All residuals are reported normalized as `max|residual| / (1 + scale)` where
`scale` is the largest entry magnitude among the tensors involved.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import exprjet as ej
from .tensor import lie_from_components

__all__ = [
    "Region", "SamplePlan", "ManifoldSpec", "PointBatch", "StructureAt", "Report",
    "RegionEmptyError", "AllEntriesZeroError", "PointCountError", "MissingFieldError",
    "required", "sample_points", "fail_at", "raise_first", "amax", "pmax", "per_point",
    "batch_report",
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


class PointBatch:
    """Point-axis access shared by the batched data (`StructureAt`, the
    connections, the pencil data).  Over a batch every array field, and
    every batched field, has a leading point axis, and `errors[k]` is the
    first error met at point k, or None; a single point has neither."""

    def _take(self, index):
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, PointBatch):
                out[f.name] = value._take(index)
            elif isinstance(value, np.ndarray):
                out[f.name] = value[index]
        errors = self.errors[index] if isinstance(index, slice) else None
        return dataclasses.replace(self, errors=errors, **out)

    def at(self, k: int):
        """Point k's data, without the point axis; raises point k's error."""
        if self.errors[k] is not None:
            raise self.errors[k]
        return self._take(k)

    def head(self, count: int):
        """The batch of the first `count` points."""
        return self._take(slice(count))


def fail_at(errors, mask, make) -> None:
    """Record `make(k)` as the error of each point k where `mask` holds
    (flat index) and that has none yet.  Without `errors` to record into
    (a single point, or a caller that takes no errors) raise the first."""
    bad = np.flatnonzero(mask)
    if errors is None:
        if len(bad):
            raise make(bad[0])
        return
    for k in bad:
        if errors[k] is None:
            errors[k] = make(k)


def raise_first(errors) -> None:
    """Raise the error of the first point that has one."""
    for err in errors or ():
        if err is not None:
            raise err


@dataclass
class StructureAt(PointBatch):
    """All primitive tensors at one point, or at each point of a batch:
    product to first order, the remaining fields to second order.  `errors`
    holds each point's first domain error in the spec's tables."""
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
    errors: list | None = None


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


def normalized(raw, scale):
    """raw / (1 + scale), at one point or pointwise over a batch."""
    return np.asarray(raw, dtype=float) / (1.0 + np.asarray(scale, dtype=float))


def amax(x: np.ndarray, rank: int):
    """max|x| over the last `rank` axes, a tensor's own indices: a scalar
    at one point, one value per point over a batch."""
    return np.max(np.abs(x), axis=tuple(range(-rank, 0)))


def pmax(*values):
    """The largest of `values` pointwise, NaN wherever one of them is NaN."""
    return functools.reduce(np.maximum, values)


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
# structure evaluation


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


def structures(spec: ManifoldSpec, points, params=None) -> StructureAt:
    """The structure at all of `points`, shape (P, n), as one batch: each
    of the spec's tables runs once over all the points, and a point where
    one is singular records the first such table's error."""
    env = spec.env(params)
    points = np.asarray(points, dtype=complex).reshape(-1, spec.n)
    tables = [spec.product if not isinstance(spec.product, str) else None,
              spec.e, spec.E, spec.g, spec.g2]
    runs = [None if t is None else ej.eval_points(t, points, env) for t in tables]
    if runs[0] is None:
        product = [np.broadcast_to(part, (len(points),) + part.shape)
                   for part in product_jets(spec.product, spec.n, None, env)]
    else:
        product = [runs[0].val, runs[0].grad, runs[0].hess]
    errors = [None] * len(points)
    for run in runs:
        if run is not None:
            fail_at(errors, [err is not None for err in run.errors],
                    lambda k, run=run: ej.DomainError(run.errors[k]))
    return StructureAt(spec.n, points, *product,
                       *[part for run in runs[1:]
                         for part in ((run.val, run.grad, run.hess) if run else (None,) * 3)],
                       errors=errors)


def structure_at(spec: ManifoldSpec, point, params: Mapping[str, complex] | None = None) -> StructureAt:
    """The structure at one point."""
    return structures(spec, [point], params).at(0)


# ---------------------------------------------------------------------------
# checks: a residual of the structure at each point of a batch (or at one
# point), returning the normalized residuals and their scales, and the check
# over a point set


def per_point(result) -> list:
    """The per-point results (residual, scale, ...) from the columns a
    residual function returns over a batch: arrays over the point axis, or
    dicts of them, which give one dict per point.  At one point, one."""
    cols = []
    for col in result:
        if isinstance(col, dict):
            col = [dict(zip(col, values))
                   for values in zip(*(np.atleast_1d(v).tolist() for v in col.values()))]
        cols.append(col if isinstance(col, list) else np.atleast_1d(col).tolist())
    return list(zip(*cols))


def batch_report(name: str, result, tol: float, **kwargs) -> Report:
    """The report of a check over the points of a batch, or at one point,
    from its residual function's (residual, scale[, fitted constant])."""
    return point_report(name, per_point(result), tol, **kwargs)


def _batch(spec, points, params) -> StructureAt:
    st = structures(spec, points, params)
    raise_first(st.errors)
    return st


def product_axioms_at(st: StructureAt):
    """Commutativity, associativity and the unit axiom of the product."""
    comm = st.c - np.swapaxes(st.c, -2, -1)
    assoc = (np.einsum("...sjk,...isl->...ijkl", st.c, st.c)
             - np.einsum("...sjl,...isk->...ijkl", st.c, st.c))
    unit = np.einsum("...ijk,...j->...ik", st.c, st.e) - np.eye(st.n)
    sc = pmax(amax(st.c, 3), amax(st.e, 1))
    raw = pmax(amax(comm, 3), amax(assoc, 4), amax(unit, 2))
    return normalized(raw, sc), sc


def check_product_axioms(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                         params=None) -> Report:
    return batch_report("product-axioms", product_axioms_at(_batch(spec, points, params)), tol)


def hertling_manin_residual(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Left minus right side of the integrability condition on the product,
    indexed [p,s,k,j,l]."""
    # t1 - t2 - (t3 - t4 + t5 - t6), with at most three terms held at once
    out = np.einsum("...qjl,...pskq->...pskjl", c, dc)
    out -= np.einsum("...qsk,...pjlq->...pskjl", c, dc)
    inner = np.einsum("...pjq,...qskl->...pskjl", c, dc)
    inner -= np.einsum("...pqk,...qjls->...pskjl", c, dc)
    inner += np.einsum("...plq,...qskj->...pskjl", c, dc)
    inner -= np.einsum("...pqs,...qjlk->...pskjl", c, dc)
    out -= inner
    return out


def hertling_manin_at(st: StructureAt):
    res = hertling_manin_residual(st.c, st.dc)
    sc = pmax(amax(st.c, 3), amax(st.dc, 4))
    return normalized(amax(res, 5), sc), sc


def check_hertling_manin(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                         params=None) -> Report:
    return batch_report("hertling-manin", hertling_manin_at(_batch(spec, points, params)), tol)


def metric_invariance_at(st: StructureAt, second: bool = False):
    g = required(st.g2 if second else st.g, "metric")
    res = (np.einsum("...iq,...qlp->...ilp", g, st.c)
           - np.einsum("...lq,...qip->...ilp", g, st.c))
    sc = pmax(amax(g, 2), amax(st.c, 3))
    return normalized(amax(res, 3), sc), sc


def check_metric_invariance(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                            params=None, second: bool = False) -> Report:
    return batch_report("metric-invariance" + ("-g2" if second else ""),
                   metric_invariance_at(_batch(spec, points, params), second), tol)


def lie_metric(st: StructureAt, x, dx) -> np.ndarray:
    return lie_from_components(st.g, st.dg, ("d", "d"), x, dx)


def killing_unit_at(st: StructureAt):
    sc = amax(required(st.g, "metric"), 2)
    return normalized(amax(lie_metric(st, st.e, st.de), 2), sc), sc


def check_killing_unit(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                       params=None) -> Report:
    return batch_report("killing-unit", killing_unit_at(_batch(spec, points, params)), tol)


def fit_scalar(target: np.ndarray, model: np.ndarray, floor: float = 1e-8,
               rank: int | None = None):
    """Least-squares scalar s minimizing |target - s*model| over entries of
    magnitude above `floor * max|model|`: one complex number, or with
    `rank` (the rank of the model tensor) one per point of a batch.  A
    single point with no such entry raises ValueError; over a batch such a
    point's fit is NaN."""
    axes = tuple(range(-(model.ndim if rank is None else rank), 0))
    mag = np.abs(model)
    mask = mag > floor * (np.max(mag, axis=axes, keepdims=True) + 1e-300)
    if rank is None and not np.any(mask):
        raise ValueError("all entries below the fitting floor")
    with np.errstate(invalid="ignore"):
        fit = (np.sum(np.where(mask, np.conj(model) * target, 0), axis=axes)
               / np.sum(np.where(mask, mag ** 2, 0), axis=axes))
    return complex(fit) if rank is None else fit


def homogeneity_at(st: StructureAt, errors=None):
    """Fit D in (L_E g) = D g at each point; the residual covers that fit
    and (L_E c) = c.  Returns (residual, scale, D).  A point where the
    metric vanishes is singular (recorded in `errors` over a batch)."""
    lg = lie_from_components(required(st.g, "metric"), st.dg, ("d", "d"),
                             required(st.E, "Euler field"), st.dE)
    top = amax(st.g, 2)
    fail_at(errors, top == 0, lambda k: AllEntriesZeroError("metric vanishes at a sample point"))
    D = fit_scalar(lg, st.g, rank=2)
    res_g = amax(lg - D[..., None, None] * st.g, 2)
    lc = lie_from_components(st.c, st.dc, ("u", "d", "d"), st.E, st.dE)
    res_c = amax(lc - st.c, 3)
    sc = pmax(top, amax(lg, 2), amax(st.c, 3))
    return normalized(pmax(res_g, res_c), sc), sc, D


def check_homogeneity(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                      params=None) -> Report:
    """Fit D in (L_E g) = D g, check the residual, and check (L_E c) = c;
    D must be one constant, and the expected one when the spec has it."""
    return batch_report("homogeneity", homogeneity_at(_batch(spec, points, params)), tol,
                   fit="D", expected=spec.expected.get("D"))
