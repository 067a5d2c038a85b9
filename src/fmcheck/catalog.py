"""The table of checks, and the one point walk that runs them over the
built-in specs of `entries` and spec files, and over a construction's
output, a derived walk that the table's rows read.

A row of `CHECKS` runs wherever its inputs exist (`Check.needs`): the
spec's fields, an entry's companion tables and its expected values.  A flag
names a claim the data cannot show, which an entry makes and a spec file
never does.  `--check`, a transform and `run_checks` pick rows by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import exprjet as ej
from .connection import (ConnectionAt, checked_inverse, compat_product_at,
                         connections_from_exprs, counit_jets, curvature_product_at,
                         dual_structure, flatness_at, levi_civita, metric_inverse, nabla_e_at,
                         nabla_from_g_at, nabla_nabla_E_at, natural_from_levi_civita,
                         r_tr_identity_at, torsion_at)
from .entries import CatalogEntry, UnknownEntryError, entry, names
from .hamops import gmc_at, quadratic_expansion_at, rank_of, spanning_fields, sym_condition_at
from .legendre import (homogeneous_legendre_at, legendre_field_at, transform_connection,
                       transform_metric_at, transform_metric_exprs, transformed_at)
from .manifold import (DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL, AllEntriesZeroError, Jets,
                       ManifoldSpec, Report, Residuals, SamplePlan, amax, fit_scalar,
                       hertling_manin_at, homogeneity_at, batch_report, killing_unit_at,
                       lowest_failure, metric_invariance_at, normalized, pmax, product_axioms_at,
                       required, sample_points, structures, table_jets)
from .ode3d import first_integrals
from .pencil import (delta_identities_at, delta_jets, exactness_at, flat_pencil_at, pencil_data,
                     pencil_homogeneity_at, pencil_weight, product_from_pencil_at,
                     r_operator_at, reconstructed_at)
from .rotation import (algebraic_constraints_at, betas_from_F, closed_forms, darboux_at,
                       flatness_constraint_at, lame_system_at, potentiality_at,
                       reduction_identity_at, rotations)
from .tensor import SingularMatrixError, contract, eigenvalues, merge_close

__all__ = ["CatalogEntry", "UnknownEntryError", "entry", "names", "run_suite", "Transform",
           "run_checks", "Check", "CHECKS", "SINGLE_CHECKS",
           "verify_flat_coordinates", "verify_vector_potential", "SuiteResult", "connection_suite",
           "MissingCompanionDataError", "JacobianSingularError", "SingularSampleError"]


class MissingCompanionDataError(Exception):
    pass


class JacobianSingularError(Exception):
    def __init__(self, det: complex):
        super().__init__("chart jacobian is singular")


# ---------------------------------------------------------------------------
# chart-companion verification


def flat_coordinates_at(chart: Jets, conn: ConnectionAt):
    """Push `conn` to the companion chart, given by its jets `chart`, and
    require the transformed Christoffel symbols to vanish."""
    jinv = checked_inverse(chart.grad, JacobianSingularError)
    pushed = (contract("...ai,...ijk,...jb,...kc->...abc", chart.grad, conn.gamma, jinv, jinv)
              - contract("...ajk,...jb,...kc->...abc", chart.hess, jinv, jinv))
    sc = pmax(amax(conn.gamma, 3), amax(chart.hess, 3), 1.0)
    return Residuals({"christoffel": normalized(amax(pushed, 3), sc)}, sc)


def vector_potential_at(b):
    """In the flat chart, the pushed product must be the chart Hessian of
    the potential components, and the pushed unit/Euler fields must match
    their printed components (`b`: the row's walk)."""
    jac, st = b.chart.grad, b.st
    jinv = checked_inverse(jac, JacobianSingularError)
    pushed_c = contract("...ai,...ijk,...jb,...kc->...abc", jac, st.c, jinv, jinv)
    sc = pmax(amax(pushed_c, 3), 1.0)
    parts = {"hessian": normalized(amax(pushed_c - b.potentials.hess, 3), sc),
             "unit": normalized(amax((jac @ st.e[..., None])[..., 0] - b.flat_e.val, 1), sc)}
    if "flat_E" in b.comp and st.E is not None:
        parts["euler"] = normalized(amax((jac @ st.E[..., None])[..., 0] - b.flat_E.val, 1), sc)
    return Residuals(parts, sc)


def verify_flat_coordinates(ent: CatalogEntry, points, tol: float = DEFAULT_TOL) -> Report:
    """Push the structure connection to the companion chart and require the
    transformed Christoffel symbols to vanish."""
    return _walk(ent.spec, ent.companion, [_BY_NAME["flat-coordinates"]], points, tol)[0]


def verify_vector_potential(ent: CatalogEntry, points, tol: float = DEFAULT_TOL) -> Report:
    return _walk(ent.spec, ent.companion, [_BY_NAME["vector-potential"]], points, tol)[0]


def connection_suite(spec: ManifoldSpec, points) -> list:
    """The theorem rows (`_THEOREMS`) that the fields of `spec` allow, at
    the default tolerance: with a metric, the natural connection's flatness,
    unit and product rows, the Levi-Civita curvature's product condition and
    the cyclic sum, not the construction's own properties (`_NAMED`)."""
    return _walk(spec, {}, [c for c in _chosen(spec, {}) if c.name in _THEOREMS],
                 points, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# the check table and the point walk


class SingularSampleError(Exception):
    """A check's data cannot be evaluated at a sample point."""


_SINGULAR = (ej.DomainError, SingularMatrixError, AllEntriesZeroError, JacobianSingularError)


def _table_gap(conn: ConnectionAt, printed: ConnectionAt):
    gap = normalized(amax(conn.gamma - printed.gamma, 3), amax(printed.gamma, 3))
    return Residuals({"table": gap}, np.zeros_like(gap))


def _v_eigenvalue_gap(b):
    want = np.array(sorted(b.expected["V_eigenvalues"]), dtype=complex)
    gaps = np.max(np.abs(merge_close(eigenvalues(b.rd.V)) - want), axis=-1)
    return Residuals({"eigenvalues": gaps}, np.zeros(len(gaps)))


# The data a walk builds once, as batches over its points, each from the
# walk's other data when a row first asks for it (`_Walk.__getattr__`); a
# connection's curvature is its own (`ConnectionAt.curvature`).
_BATCHED = {
    "st": lambda w: structures(w.spec, w.points),
    "ginv": lambda w: metric_inverse(w.st),
    "lc": lambda w: levi_civita(w.st, w.ginv),
    "counit": lambda w: counit_jets(w.st),
    "nat": lambda w: natural_from_levi_civita(w.st, w.lc, w.ginv, w.counit),
    "printed": lambda w: connections_from_exprs(w.companion("gamma"), w.points, w.env),
    "printed_star": lambda w: connections_from_exprs(w.companion("gamma_star"), w.points, w.env),
    # the structure connection, from its closed-form table where there is one
    "conn": lambda w: w.printed if "gamma" in w.comp else w.nat,
    "dual": lambda w: dual_structure(w.st, w.nat),
    "rd": lambda w: rotations(w.points, w.table("lame", 2)),
    "fields": lambda w: spanning_fields(w.companion("normal_bundle"), w.points, w.spec.n,
                                        w.env),
    "pa": lambda w: pencil_data(w.st, w.ginv, w.lc),
    "weight": lambda w: pencil_weight(w.pa)[0],
    "delta": lambda w: delta_jets(w.pa),
    "pencil_product": lambda w: product_from_pencil_at(w.pa, w.delta[0]),
    # the rebuilt structure keeps g and e: g's inverse, connection and counit are the walk's
    "recon": lambda w: w.derived(st=reconstructed_at(w.pa, w.pencil_product), ginv=w.ginv,
                                 lc=w.lc, counit=w.counit),
    # the closed-form solution F of the spec's ODE family
    "ode": lambda w: closed_forms(w.comp["ode_family"], w.points, w.env),
    # the flat chart, and the potential's tables at its values
    "chart": lambda w: w.table("flat_chart", 2),
    **{key: (lambda w, key=key, order=order: w.table(key, order, w.chart.val))
       for key, order in (("potentials", 2), ("flat_e", 0), ("flat_E", 0))},
    # a transform's field jets, the walk of its transformed structure (the
    # walk's with the metric swapped, once the field is checked flat), its
    # expression-level metric and the target's metric
    "field_jets": lambda w: w.table("legendre_field", 2),
    "transformed": lambda w: w.derived(st=transformed_at(w.st, w.nat, *w.field_jets)),
    "transformed_g": lambda w: w.table("transformed_g", 0),
    "target_g": lambda w: w.table("target_g", 0, env=w.comp["target_env"]),
}


class _Walk:
    """What one walk shares, and what each of its rows reads: spec,
    companion data, env, its points, the batches built so far, and as an
    attribute each batch of `_BATCHED`, built on first use."""

    def __init__(self, spec: ManifoldSpec, comp: dict, points):
        self.spec, self.comp, self.env = spec, comp, spec.env()
        self.expected = spec.expected
        self.points = np.asarray(points)
        self.data = {}

    def __getattr__(self, name):
        if name not in _BATCHED:
            raise AttributeError(name)
        if name not in self.data:
            self.data[name] = _BATCHED[name](self)
        return self.data[name]

    def derived(self, **data):
        """A walk of a construction's output over the walk's points, with its batches `data`."""
        walk = _Walk(self.spec, self.comp, self.points)
        walk.data.update(data)
        return walk

    def companion(self, key):
        if key not in self.comp:
            raise MissingCompanionDataError(f"{self.spec.name} has no {key}")
        return self.comp[key]

    def report(self, check, tol: float = DEFAULT_TOL) -> Report:
        """The report of the row `check` (a `Check`, or a row's name) over
        the walk's points at the run's `tol`: the one reduction of its
        `Residuals` (`batch_report`)."""
        check = _BY_NAME[check] if isinstance(check, str) else check
        result, count = check.at(self), len(self.points)
        if np.shape(result.scale) == (1,) != (count,):  # computed once, from a point-free product
            result = replace(result, scale=np.broadcast_to(result.scale, count), parts={
                k: np.broadcast_to(v, (count, *np.shape(v)[1:])) for k, v in result.parts.items()})
        return batch_report(check.name, result,
                            tol if check.tol is None else check.tol(tol), fit=check.fit,
                            expected=self.expected.get(check.expected))

    def table(self, key, order: int, points=None, env=None) -> Jets:
        """The jets up to `order` of the companion table `key` over
        `points` (default: the walk's) in `env` (default: the spec's),
        from one run."""
        return table_jets(self.companion(key), self.points if points is None else points,
                          self.env if env is None else env, order)


@dataclass(frozen=True)
class Check:
    """One row of the check table.  `at` maps the `_Walk` to the row's
    `Residuals` at all its points at once, as arrays over the point axis.
    A source runs the check when its spec, companion or expected values
    hold all of `needs` and, for a row with a `flag` (a claim the data
    cannot show), when the source is an entry that claims it.  `fit` (the
    fitted constant that must agree across the points), `expected` (a key
    of the value it must match) and `tol` (of the run's tol; default: the
    run's) set its report (`batch_report`)."""
    name: str
    at: Callable
    flag: str | None = None
    needs: tuple = ()
    fit: str | None = None
    expected: str | None = None
    tol: Callable | None = None


def _lame_system_at(b):
    """With an ODE family, against the rotation coefficients of its closed
    form."""
    rd = b.rd
    beta = betas_from_F(b.ode.val, rd.point) if "ode_family" in b.comp else None
    return lame_system_at(rd, b.expected.get("d"), beta)


def _ode_integrals_at(b):
    i1, i2 = first_integrals(b.ode.val.T)
    return Residuals({"I1": np.abs(i1 - b.expected["I1"]), "I2": np.abs(i2 - b.expected["I2"])},
                     np.zeros(len(b.points)))


def _transform_exprs_at(b):
    """The transformed metric against the expression-level one."""
    gbar = b.transformed.st.g
    res = amax(gbar - b.transformed_g.val, 2) / (1 + amax(gbar, 2))
    return Residuals({"metric": res}, np.zeros_like(res))


def _match_at(b):
    """The transformed metric against the target's, up to one constant."""
    gbar, g = b.transformed.st.g, b.target_g.val
    res = amax(gbar - fit_scalar(gbar, g, 2)[..., None, None] * g, 2) / (1 + amax(g, 2))
    return Residuals({"metric": res}, np.zeros_like(res))


# every row a source's walk reports, in report order
CHECKS = (
    Check("product-axioms", lambda b: product_axioms_at(b.st)),
    Check("hertling-manin", lambda b: hertling_manin_at(b.st)),
    Check("metric-invariance", lambda b: metric_invariance_at(b.st), needs=("g",)),
    Check("killing-unit", lambda b: killing_unit_at(b.st), needs=("g",)),
    # a flat metric, which the natural connection's rows do not imply
    Check("levi-civita-flat", lambda b: flatness_at(b.lc), "flat-metric", ("g",)),
    Check("flatness", lambda b: flatness_at(b.nat), needs=("g",)),
    Check("nabla-e", lambda b: nabla_e_at(b.nat, b.st), needs=("g",)),
    Check("product-compat", lambda b: compat_product_at(b.nat, b.st), needs=("g",)),
    Check("curvature-product", lambda b: curvature_product_at(b.lc, b.st), needs=("g",)),
    Check("r-tr", lambda b: r_tr_identity_at(b.nat, b.lc, b.st), needs=("g",)),
    Check("nabla-nabla-E", lambda b: nabla_nabla_E_at(b.nat, b.st), needs=("g", "E")),
    Check("gamma-match", lambda b: _table_gap(b.nat, b.printed), needs=("g", "gamma")),
    # an axiom, not a consequence: it runs where a weight D is declared
    Check("homogeneity", lambda b: homogeneity_at(b.st), needs=("g", "E", "D"),
          fit="D", expected="D"),
    Check("dual-structure", lambda b: b.dual.residuals, needs=("g", "E")),
    Check("gamma-star-match", lambda b: _table_gap(b.dual.gamma_star, b.printed_star),
          needs=("g", "E", "gamma_star")),
    Check("darboux-system", lambda b: darboux_at(b.rd), needs=("lame",)),
    Check("reduction-identity", lambda b: reduction_identity_at(b.rd), needs=("lame",)),
    Check("lame-system", _lame_system_at, needs=("lame",), fit="d"),
    Check("flatness-constraint", lambda b: flatness_constraint_at(b.rd), "ed4", ("lame",)),
    Check("algebraic-ED4bis", lambda b: algebraic_constraints_at(b.rd, "ED4bis"), "ed4bis",
          ("lame",)),
    Check("algebraic-ED5b", lambda b: algebraic_constraints_at(b.rd, "ED5b"), "ed5b", ("lame",)),
    Check("potentiality", lambda b: potentiality_at(b.rd), "potentiality", ("lame",)),
    Check("v-eigenvalues", _v_eigenvalue_gap, needs=("lame", "V_eigenvalues")),
    Check("ode-integrals", _ode_integrals_at, needs=("ode_family", "I1", "I2"),
          tol=lambda tol: 1e-10),
    Check("quadratic-expansion",
          lambda b: quadratic_expansion_at(b.st, b.lc, b.comp["normal_bundle"].eps, b.fields.val,
                                           b.ginv.inv),
          needs=("g", "normal_bundle"), tol=lambda tol: max(tol, 1e-9)),
    Check("sym-condition", lambda b: sym_condition_at(b.st, b.nat, b.fields.val, b.fields.grad),
          needs=("g", "normal_bundle")),
    Check("gmc", lambda b: gmc_at(b.st, b.lc, b.comp["normal_bundle"].eps, b.fields.val,
                                  b.fields.grad, b.ginv.inv), needs=("g", "normal_bundle")),
    # 1 where the rank is not the expected one
    Check("normal-rank", lambda b: Residuals(
        {"rank": np.sign(np.abs(rank_of(b.fields.val) - b.expected["rank"]))},
        np.zeros(len(b.points))),
          needs=("normal_bundle", "rank"), tol=lambda tol: 0.5),
    Check("pencil-exactness", lambda b: exactness_at(b.pa), needs=("g", "g2")),
    Check("pencil-homogeneity", lambda b: pencil_homogeneity_at(b.pa), needs=("g", "g2"),
          fit="d", expected="d_pencil"),
    Check("flat-pencil", lambda b: flat_pencil_at(b.pa), needs=("g", "g2")),
    Check("delta-identities", lambda b: delta_identities_at(b.pa, b.weight, b.delta),
          needs=("g", "g2")),
    Check("r-operator", lambda b: r_operator_at(b.pa, b.weight, b.counit), needs=("g", "g2"),
          tol=lambda tol: max(tol, 1e-9)),
    Check("product-from-pencil", lambda b: b.pencil_product.residuals, needs=("g", "g2"),
          tol=lambda tol: max(tol, 1e-9)),
    Check("flat-coordinates", lambda b: flat_coordinates_at(b.chart, b.conn),
          needs=("flat_chart",)),
    Check("vector-potential", vector_potential_at, needs=("flat_chart", "potentials", "flat_e"),
          tol=lambda tol: max(tol, 1e-10)),
    # a transform's rows (`Transform`); "match" is reported as match-<target>
    Check("legendre-field", lambda b: legendre_field_at(
        b.st, b.nat, b.field_jets.val, b.field_jets.grad), needs=("legendre_field",)),
    Check("transform-exprs", _transform_exprs_at, needs=("legendre_field", "transformed_g")),
    Check("match", _match_at, needs=("legendre_field", "target_g"), tol=lambda tol: max(tol, 1e-7)),
)
# the theorem rows; all but the last, killing-unit, whose g and e "recon" keeps, run on it too
_THEOREMS = ("product-axioms", "hertling-manin", "metric-invariance", "flatness", "nabla-e",
             "product-compat", "curvature-product", "r-tr", "nabla-nabla-E", "homogeneity",
             "dual-structure", "killing-unit")


def _reconstructed(check: Check) -> Check:
    """`check` on the rebuilt structure ("recon"), a row of the pencil."""
    return replace(check, name=f"reconstructed/{check.name}", at=lambda b: check.at(b.recon),
                   needs=("g", "g2"), expected=check.expected and f"{check.expected}_reconstructed")


CHECKS += tuple(_reconstructed(check) for check in CHECKS if check.name in _THEOREMS[:-1])
# the rows no walk reports, which only `run_checks` runs: two properties the natural
# connection has by construction, tested in the test tree, and a transform's theorems
_NAMED = (
    Check("torsionless", lambda b: torsion_at(b.nat), tol=lambda tol: 1e-12),
    Check("nabla-from-g", lambda b: nabla_from_g_at(b.nat, b.st, b.counit)),
    Check("transform-metric", lambda b: transform_metric_at(
        *(_BY_NAME[name].at(b.transformed) for name in ("metric-invariance", "killing-unit")),
        b.transformed.nat, transform_connection(b.nat, b.transformed.st, *b.field_jets))),
    Check("homogeneous-legendre", lambda b: homogeneous_legendre_at(
        b.st, *(_BY_NAME["homogeneity"].at(walk) for walk in (b, b.transformed)),
        b.field_jets.val, b.field_jets.grad), fit="dbar"),
)
_BY_NAME = {check.name: check for check in CHECKS + _NAMED}

# the checks `verify --check NAME` runs
SINGLE_CHECKS = ("product-axioms", "hertling-manin", "metric-invariance", "killing-unit",
                 "homogeneity", "levi-civita-flat", "flatness")


def _chosen(spec: ManifoldSpec, comp: dict, flags=frozenset()) -> list:
    """The checks, in table order, whose `needs` the spec, its companion
    data `comp` and its expected values meet, and whose flag, if any, is
    one of `flags`."""
    return [c for c in CHECKS if (c.flag is None or c.flag in flags) and all(
        getattr(spec, key, None) is not None or key in comp or key in spec.expected
        for key in c.needs)]


def _walk(spec: ManifoldSpec, comp: dict, checks, points, tol: float) -> list:
    """Walk `points` once and reduce each of `checks` over them.  Every
    datum the rows read is built once, as a batch over the points
    (`_BATCHED`), and each expression table runs once; each row reads the
    walk and computes its results at all the points in one call.  A datum
    or row that fails at a point k raises there, and the points below k are
    walked first (`lowest_failure`): the lowest point at which a row fails,
    and there the first row, is named."""
    def rows(pts):
        walk = _Walk(spec, comp, pts)
        return [walk.report(check, tol) for check in checks]

    try:
        return lowest_failure(rows, points)
    except _SINGULAR as err:
        k = getattr(err, "point", 0)  # where `fail_at` raised it
        coords = ", ".join(str(x) for x in np.asarray(points[k]).tolist())
        raise SingularSampleError(f"sample {k} at ({coords}) is singular: "
                                  f"{type(err).__name__}: {err}") from err


@dataclass
class SuiteResult:
    name: str
    reports: list
    expected_failures: frozenset
    transformed: ManifoldSpec | None = None  # a transform's expression-level spec

    @property
    def ok(self) -> bool:
        return all(r.passed == (r.name not in self.expected_failures) for r in self.reports)

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "expected_failures": sorted(self.expected_failures),
                "reports": [r.to_dict() for r in self.reports]}


@dataclass
class Transform:
    """A Legendre transform as a source of the walk: `spec` through the
    field `exprs`, named `name`, and, with a catalog entry `target`, the
    match with its metric, whose parameters take the values in `params` of
    the same name."""
    spec: ManifoldSpec
    exprs: tuple
    name: str
    target: str | None = None
    params: dict = field(default_factory=dict)

    def rows(self):
        """The walk's companion data, rows and expression-level spec: the
        field's rows, the expression-level metric against the pointwise one
        and, with a target, the match, each over all points."""
        comp = {"legendre_field": self.exprs}
        checks = [_BY_NAME["legendre-field"], _BY_NAME["transform-exprs"]]
        if self.target is not None:
            tgt = entry(self.target).spec
            tgt.params.update((k, v) for k, v in self.params.items() if k in tgt.params)
            comp.update(target_g=required(tgt.g, f"metric in target {tgt.name}"),
                        target_env=tgt.env())
            checks.append(replace(_BY_NAME["match"], name=f"match-{self.target}"))
        new = transform_metric_exprs(self.spec, self.exprs, name=f"{self.spec.name}-{self.name}")
        comp["transformed_g"] = new.g
        return comp, checks, new


def run_checks(spec: ManifoldSpec, comp: dict, names, points, tol: float = DEFAULT_TOL) -> list:
    """The reports of the checks `names`, in that order, from one walk over
    `points` with the companion data `comp`."""
    return _walk(spec, comp, [_BY_NAME[name] for name in names], points, tol)


def run_suite(source, seed: int = DEFAULT_SEED, count: int = DEFAULT_POINTS,
              tol: float = DEFAULT_TOL, check: str | None = None) -> SuiteResult:
    """Sample `count` points at `seed` and walk them once (`_walk`) with the
    checks of `source`, a catalog entry or a bare spec: each row whose
    inputs it has (`_chosen`) and whose flag, if any, the entry claims (a
    spec file claims none); or a `Transform`'s rows; with `check`, only
    that one of `SINGLE_CHECKS`."""
    spec = source if isinstance(source, ManifoldSpec) else source.spec
    points = sample_points(spec, SamplePlan(seed=seed, count=count))
    if isinstance(source, Transform):
        comp, checks, new = source.rows()
        return SuiteResult(spec.name, _walk(spec, comp, checks, points, tol), frozenset(),
                           transformed=new)
    ent = source if isinstance(source, CatalogEntry) else CatalogEntry(spec)
    if check is not None:
        if check not in SINGLE_CHECKS:
            raise KeyError(check)
        checks = [_BY_NAME[check]]
    else:
        checks = _chosen(spec, ent.companion, ent.flags)
    expected_failures = ent.expected_failures if check is None else frozenset()
    return SuiteResult(name=spec.name, reports=_walk(spec, ent.companion, checks, points, tol),
                       expected_failures=expected_failures)
