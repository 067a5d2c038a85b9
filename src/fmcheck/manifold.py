"""Point sampling, structure evaluation, and product/metric checks.

A `ManifoldSpec` (`spec`) is a single coordinate chart carrying a product
(canonical, shifted-canonical, or an explicit expression table), a unit
field, and optionally an Euler field and one or two metrics.  `structures`
evaluates everything needed downstream at all the sample points at once, as
one `StructureAt` whose arrays carry a leading point axis (P, ...): the product
to first derivative order and all other primitive fields to second order (a
named product point-free, with a point axis of length 1).
The residual functions (`*_at`) take such a batch and return the named parts
of their identity, and its scale, at each point (`Residuals`), which
`batch_report`, the one reducer, reduces to the worst part over the points;
`structure_at` is a batch of one, with the point axis dropped.

A builder or residual function raises at the first point of its batch
where it cannot be evaluated (`fail_at`), and `lowest_failure` reruns the
points below that one, so that the lowest failing point is named.

The spec-level `check_*` functions, here and in `connection`, `pencil`,
`rotation`, `hamops` and `legendre`, are views of the walk
(`catalog.run_checks`): each is `walk_row` on one row of the check table,
so it reports what `verify` reports for that row.  The single-point
helpers that hand out data (`pencil_at`, `transformed_structure`, ...) are
batches of one of the walk, and take their reports from its rows.

All residuals are reported normalized as `max|residual| / (1 + scale)` where
`scale` is the largest entry magnitude among the tensors involved.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL
from . import exprjet as ej
from .spec import ManifoldSpec, Region
from .tensor import antisym, contract, lie_from_components

__all__ = [
    "Region", "SamplePlan", "ManifoldSpec", "PointBatch", "Jets", "StructureAt", "Report",
    "Residuals", "RegionEmptyError", "AllEntriesZeroError", "PointCountError", "MissingFieldError",
    "required", "sample_points", "fail_at", "lowest_failure", "table_jets",
    "amax", "pmax", "batch_report", "structure_at", "structures", "worst", "merge_reports",
    "walk_row", "point_walk", "check_product_axioms", "check_hertling_manin",
    "check_metric_invariance", "check_killing_unit", "check_homogeneity", "normalized",
]


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
class SamplePlan:
    seed: int = DEFAULT_SEED
    count: int = DEFAULT_POINTS


class PointBatch:
    """Point-axis access shared by the batched data (`StructureAt`, the
    connections, the pencil data): over a batch every array field, and
    every batched field, has a leading point axis, of length 1 where it is
    the same at every point (a named product); a single point has none."""

    def at(self, k):
        """Point k's data, without the point axis: a point-free array's
        only row for any k."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, PointBatch):
                out[f.name] = value.at(k)
            elif isinstance(value, np.ndarray):
                out[f.name] = value[0 if len(value) == 1 else k]
        return dataclasses.replace(self, **out)


@dataclass
class Jets(PointBatch):
    """Values, with their first and second derivatives where they have
    them, at a point or over a batch (`table_jets`)."""
    val: np.ndarray
    grad: np.ndarray | None = None
    hess: np.ndarray | None = None

    def __iter__(self):
        return iter((self.val, self.grad, self.hess))


def fail_at(mask, make) -> None:
    """Raise `make(index)` at the first index where `mask` holds, with that
    index as the error's `index` and its first entry, over a batch (whose
    point axis leads `mask`) the point's, as its `point` (0 for ())."""
    mask = np.asarray(mask)
    if mask.any():
        index = tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))
        err = make(index)
        err.index, err.point = index, (index or (0,))[0]
        raise err


def lowest_failure(run, points):
    """`run(points)`.  Where it raises at a point k > 0 (`fail_at`),
    `run(points[:k])` runs first, so that the error raised is that of the
    lowest point at which `run` fails."""
    try:
        return run(points)
    except Exception as err:  # re-raised unless a lower point fails first
        k = getattr(err, "point", 0)
        if k > 0:
            lowest_failure(run, points[:k])
        raise


def table_jets(table, points, env=None, order: int = 2) -> Jets:
    """The jets of an expression table at all of `points`, shape (P, n),
    up to `order` (the parts above it are None), from one run; raises the
    domain error of the first point where it is singular."""
    run = ej.eval_points(table, points, env, order)
    fail_at([err is not None for err in run.errors], lambda k: ej.DomainError(run.errors[k[0]]))
    return Jets(run.val, run.grad, run.hess)


@dataclass
class StructureAt(PointBatch):
    """All primitive tensors at one point, or at each point of a batch:
    product to first order, the remaining fields to second order."""
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
        return cls(name, residual, float(tol), bool(residual <= tol), float(scale),
                   int(npoints), details or {})

    def to_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual, "tol": self.tol,
                "passed": self.passed, "scale": self.scale,
                "npoints": self.npoints, "details": self.details}


def worst(values) -> float:
    """The largest of `values`, 0.0 for none, and NaN as soon as one of
    them is NaN: a NaN residual fails wherever it stands.  Every residual
    of every check is reduced through here."""
    return float(np.maximum.reduce(np.asarray(values, dtype=float), axis=None, initial=0.0))


@dataclass
class Residuals:
    """A row's results at each point of a batch, or at one point: by name,
    each part of its identity (its normalized residual, with a trailing
    axis where it runs over the spanning fields), its scale, its fitted
    constants, and the values whose least the report shows; with
    `show_parts` the report shows its parts."""
    parts: dict
    scale: object
    fits: dict = field(default_factory=dict)
    least: dict = field(default_factory=dict)
    show_parts: bool = False


def merge_reports(name: str, reports: Sequence[Report], tol: float) -> Report:
    """Merge the single-point reports of one check."""
    return batch_report(name, Residuals({"residual": [r.residual for r in reports]},
                                        [r.scale for r in reports]), tol)


def normalized(raw, scale):
    """raw / (1 + scale), at one point or pointwise over a batch."""
    return np.asarray(raw, dtype=float) / (1.0 + np.asarray(scale, dtype=float))


def amax(x: np.ndarray, rank: int):
    """max|x| over the last `rank` axes, a tensor's own indices (0.0 over
    none): a scalar at one point, one value per point over a batch."""
    return np.maximum.reduce(np.abs(x), axis=tuple(range(-rank, 0)), initial=0.0)


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
    accepted in draw order, so the block size does not change the points.
    A guard with an unbound parameter or coordinate raises `ej.EvalError`."""
    if plan.count < 1:
        raise PointCountError(f"need at least one sample point, got {plan.count}")
    region = required(spec.region, "sampling region")
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    lo = np.array([b[0] for b in region.box])
    hi = np.array([b[1] for b in region.box])
    env = spec.env()
    points = []
    attempts = 0
    while len(points) < plan.count:
        if attempts == _MAX_ATTEMPTS:
            raise RegionEmptyError(f"the sampling region of {spec.name!r} gave {len(points)} of "
                                   f"{plan.count} points in {_MAX_ATTEMPTS} draws")
        block = min(2 * (plan.count - len(points)) + 8, _MAX_ATTEMPTS - attempts)
        attempts += block
        cands = lo + rng.random((block, len(lo))) * (hi - lo)
        keep = np.ones(block, dtype=bool)
        if region.min_sep > 0 and len(lo) > 1:
            diffs = np.abs(cands[:, :, None] - cands[:, None, :])
            diffs[:, np.arange(len(lo)), np.arange(len(lo))] = np.inf
            keep &= ~(diffs.min(axis=(1, 2)) < region.min_sep)
        guards = ej.eval_points(region.guards, cands, env, order=0)
        keep &= [err is None for err in guards.errors]
        keep &= ~np.any(np.abs(guards.val.reshape(block, -1)) < region.guard_min, axis=1)
        points.extend(cands[keep][:plan.count - len(points)])
    return points


# ---------------------------------------------------------------------------
# structure evaluation


def product_jets(product: str, n: int):
    """The constant structure constants of the named product, with their
    (zero) first and second derivatives."""
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            if product == "canonical" and i == j:
                c[i, i, i] = 1.0
            elif product == "shifted-canonical" and i + j < n:
                c[i + j, i, j] = 1.0
    return c, np.zeros((n,) * 4), np.zeros((n,) * 5)


def structures(spec: ManifoldSpec, points) -> StructureAt:
    """The structure at all of `points`, shape (P, n), as one batch: each
    of the spec's tables runs once over all the points (`table_jets`), in
    the order product, e, E, g, g2, and the first singular one raises at
    its first singular point; so `lowest_failure` names the lowest point
    where any table is singular, with the first such table's error.  A
    named product's c, dc and ddc have one point-free row, shape (1, ...)."""
    env = spec.env()
    points = np.asarray(points).reshape(-1, spec.n)
    if isinstance(spec.product, str):
        product = [part[None] for part in product_jets(spec.product, spec.n)]
    else:
        product = table_jets(spec.product, points, env)
    fields = [table_jets(t, points, env) if t is not None else (None,) * 3
              for t in (spec.e, spec.E, spec.g, spec.g2)]
    return StructureAt(spec.n, points, *product, *[part for jets in fields for part in jets])


def structure_at(spec: ManifoldSpec, point) -> StructureAt:
    """The structure at one point: the walk's, at that point alone."""
    return point_walk(spec, {}, point).st.at(0)


# ---------------------------------------------------------------------------
# checks: the residual parts of the structure at each point of a batch (or
# at one point), as `Residuals`, and the report of a check over a point set


def batch_report(name: str, result: Residuals, tol: float, fit: str | None = None,
                 expected=None) -> Report:
    """The report of one check from its `Residuals` over a batch, or at one
    point: the residual is its worst part, and its details are the worst
    of each part it shows, each fit's mean as `<name>_fit` and each least
    value as `min_<name>`.  The fit `fit` must agree across the points
    and, given `expected`, match it."""
    worsts = {key: worst(part) for key, part in result.parts.items()}
    residuals = list(worsts.values())
    details = dict(worsts) if result.show_parts else {}
    for key, values in result.fits.items():
        fits = np.atleast_1d(values)
        mean = sum(fits.tolist()) / len(fits)
        details[f"{key}_fit"] = [mean.real, mean.imag]
        if key == fit:
            residuals.append(normalized(worst(np.abs(fits - mean)), abs(mean)))
            if expected is not None:
                details[f"{fit}_expected"] = expected
                residuals.append(normalized(abs(mean - complex(expected)), abs(mean)))
    details.update((f"min_{key}", float(np.min(values))) for key, values in result.least.items())
    scale = np.atleast_1d(result.scale)
    return Report.from_residual(name, worst(residuals), tol, worst(scale), len(scale), details)


def walk_row(name: str, spec: ManifoldSpec, comp: dict, points,
             tol: float = DEFAULT_TOL) -> Report:
    """The report of the walk's row `name` over `points`, with the
    companion data `comp`: one walk (`catalog.run_checks`) of that row."""
    from .catalog import run_checks  # the check table imports this module
    return run_checks(spec, comp, [name], points, tol)[0]


def point_walk(spec: ManifoldSpec, comp: dict, point):
    """The walk (`catalog._Walk`) of `spec` with the companion data `comp`
    at `point` alone: a single-point helper's data are its batches of one,
    and its reports the walk's rows (`_Walk.report`)."""
    from .catalog import _Walk  # the check table imports this module
    return _Walk(spec, comp, [point])


def product_axioms_at(st: StructureAt):
    """Commutativity, associativity and the unit axiom of the product."""
    comm = antisym(st.c)
    assoc = antisym(contract("...sjk,...isl->...ijkl", st.c, st.c))
    unit = contract("...ijk,...j->...ik", st.c, st.e) - np.eye(st.n)
    sc = pmax(amax(st.c, 3), amax(st.e, 1))
    return Residuals({"commutativity": normalized(amax(comm, 3), sc),
                      "associativity": normalized(amax(assoc, 4), sc),
                      "unit": normalized(amax(unit, 2), sc)}, sc)


def check_product_axioms(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("product-axioms", spec, {}, points, tol)


def hertling_manin_residual(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Left minus right side of the integrability condition on the product,
    indexed [p,s,k,j,l]."""
    # t1 - t2 - (t3 - t4 + t5 - t6), where t2, t5 and t6 are t1, t3 and t4
    # with (s,k) and (j,l), j and l, and s and k swapped
    t = contract("...qjl,...pskq->...pskjl", c, dc)
    out = t - contract("...pjlsk->...pskjl", t)
    t = contract("...pjq,...qskl->...pskjl", c, dc)
    out -= t + np.swapaxes(t, -2, -1)
    t = contract("...pqk,...qjls->...pskjl", c, dc)
    out += t + np.swapaxes(t, -4, -3)
    return out


def hertling_manin_at(st: StructureAt):
    res = hertling_manin_residual(st.c, st.dc)
    sc = pmax(amax(st.c, 3), amax(st.dc, 4))
    return Residuals({"integrability": normalized(amax(res, 5), sc)}, sc)


def check_hertling_manin(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("hertling-manin", spec, {}, points, tol)


def metric_invariance_at(st: StructureAt):
    g = required(st.g, "metric")
    res = antisym(contract("...iq,...qlp->...ilp", g, st.c), -3, -2)
    sc = pmax(amax(g, 2), amax(st.c, 3))
    return Residuals({"invariance": normalized(amax(res, 3), sc)}, sc)


def check_metric_invariance(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("metric-invariance", spec, {}, points, tol)


def lie_metric(st: StructureAt, x, dx) -> np.ndarray:
    return lie_from_components(st.g, st.dg, ("d", "d"), x, dx)


def killing_unit_at(st: StructureAt):
    sc = amax(required(st.g, "metric"), 2)
    return Residuals({"killing": normalized(amax(lie_metric(st, st.e, st.de), 2), sc)}, sc)


def check_killing_unit(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("killing-unit", spec, {}, points, tol)


def fit_scalar(target: np.ndarray, model: np.ndarray, rank: int):
    """Least-squares scalar s minimizing |target - s*model| over entries of
    magnitude above 1e-8 max|model|, at each point of a batch (or at one
    point) of tensors of rank `rank`; NaN at a point with no such entry."""
    axes = tuple(range(-rank, 0))
    mag = np.abs(model)
    mask = mag > 1e-8 * (np.max(mag, axis=axes, keepdims=True) + 1e-300)
    with np.errstate(invalid="ignore"):
        return (np.sum(np.where(mask, np.conj(model) * target, 0), axis=axes)
                / np.sum(np.where(mask, mag ** 2, 0), axis=axes))


def homogeneity_at(st: StructureAt):
    """Fit D in (L_E g) = D g at each point; the parts are that fit and
    (L_E c) = c, and the fit is D.  A point where the metric vanishes is
    singular: it raises."""
    lg = lie_from_components(required(st.g, "metric"), st.dg, ("d", "d"),
                             required(st.E, "Euler field"), st.dE)
    top = amax(st.g, 2)
    fail_at(top == 0, lambda k: AllEntriesZeroError("metric vanishes at a sample point"))
    D = fit_scalar(lg, st.g, 2)
    res_g = amax(lg - D[..., None, None] * st.g, 2)
    lc = lie_from_components(st.c, st.dc, ("u", "d", "d"), st.E, st.dE)
    res_c = amax(lc - st.c, 3)
    sc = pmax(top, amax(lg, 2), amax(st.c, 3))
    return Residuals({"metric": normalized(res_g, sc), "product": normalized(res_c, sc)}, sc,
                     fits={"D": D})


def check_homogeneity(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    """Fit D in (L_E g) = D g, check the residual, and check (L_E c) = c;
    D must be one constant, and the expected one when the spec has it."""
    return walk_row("homogeneity", spec, {}, points, tol)
