"""The table of checks, and the one point walk that runs them over spec
files, the catalog's (`entries`) and the user's alike, and over a
construction's output, a derived walk that the table's rows read.

A row of `CHECKS` runs wherever its inputs exist (`Check.needs`): the
spec's fields, its companion tables and its expected values.  A flag names
a claim the data cannot show, which a spec file makes by listing it.
A transform runs the rows that read its field, `--check` any row.

The rows of five inputs read a module of their own: g2 `pencil`, a Lame
table and an ODE family `rotation` (which imports `ode3d`), a normal
bundle `hamops`, and a transform's field `legendre` (which imports
`hamops`).  This module imports none of them when it loads: each is
imported at the first use of one of its attributes (`_Module`), so that
a process compiles only the modules that its rows read, and a walk made
by hand reads any batch.
"""

from __future__ import annotations

import importlib
from typing import Callable

import numpy as np

from . import exprjet as ej
from .connection import (ConnectionAt, checked_inverse, compat_product_at,
                         connections_from_exprs, counit_jets, curvature_product_at,
                         dual_structure, flatness_at, levi_civita, metric_inverse, nabla_e_at,
                         nabla_from_g_at, nabla_nabla_E_at, natural_from_levi_civita,
                         r_tr_identity_at, torsion_at)
from .entries import CatalogEntry, UnknownEntryError, entry, names
from .manifold import (DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL, AllEntriesZeroError, Jets,
                       ManifoldSpec, Report, Residuals, SamplePlan, amax, fit_scalar,
                       hertling_manin_at, homogeneity_at, batch_report, killing_unit_at,
                       lowest_failure, metric_invariance_at, normalized, pmax, product_axioms_at,
                       required, sample_points, structures, table_jets)
from .tensor import SingularMatrixError, contract, eigenvalues, merge_close

__all__ = ["CatalogEntry", "UnknownEntryError", "entry", "names", "run_suite", "Transform",
           "run_checks", "Check", "CHECKS", "verify_flat_coordinates", "verify_vector_potential",
           "SuiteResult", "connection_suite", "MissingCompanionDataError", "UnknownCheckError",
           "JacobianSingularError", "SingularSampleError"]


class MissingCompanionDataError(Exception):
    """A row reads a companion table or expected value that its source lacks."""


class UnknownCheckError(Exception):
    """A row name that names no row, or, as an expected failure, none that the walk runs."""


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
    """The theorem rows (`Check.theorem`) that the fields of `spec` allow, at
    the default tolerance: with a metric, the natural connection's flatness,
    unit and product rows, the Levi-Civita curvature's product condition and
    the cyclic sum, and with a second metric those of the rebuilt structure."""
    return _walk(spec, {}, [c for c in _chosen(spec, {}) if c.theorem], points, DEFAULT_TOL)


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


class _Module:
    """A module of the package that rows and batches call, imported at the
    first use of one of its attributes, when it takes this stand-in's
    place among this module's globals."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr):
        module = globals()[self.name] = importlib.import_module(f".{self.name}", __package__)
        return getattr(module, attr)


pencil, rotation, ode3d, hamops, legendre = map(
    _Module, ("pencil", "rotation", "ode3d", "hamops", "legendre"))


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
    "rd": lambda w: rotation.rotations(w.points, w.table("lame", 2)),
    "fields": lambda w: hamops.spanning_fields(w.companion("normal_bundle"), w.points, w.spec.n,
                                               w.env),
    "pa": lambda w: pencil.pencil_data(w.st, w.ginv, w.lc),
    "weight": lambda w: pencil.pencil_weight(w.pa)[0],
    "delta": lambda w: pencil.delta_jets(w.pa),
    "pencil_product": lambda w: pencil.product_from_pencil_at(w.pa, w.delta[0]),
    # the rebuilt structure keeps g and e: g's inverse, connection and counit are the walk's
    "recon": lambda w: w.derived(st=pencil.reconstructed_at(w.pa, w.pencil_product),
                                 ginv=w.ginv, lc=w.lc, counit=w.counit),
    # the closed-form solution F of the spec's ODE family
    "ode": lambda w: rotation.closed_forms(w.comp["ode_family"], w.points, w.env),
    # the flat chart, and the potential's tables at its values
    "chart": lambda w: w.table("flat_chart", 2),
    **{key: (lambda w, key=key, order=order: w.table(key, order, w.chart.val))
       for key, order in (("potentials", 2), ("flat_e", 0), ("flat_E", 0))},
    # a transform's field jets, the walk of its transformed structure (the
    # walk's with the metric swapped, once the field is checked flat), its
    # expression-level metric and the target's metric
    "field_jets": lambda w: w.table("legendre_field", 2),
    "transformed": lambda w: w.derived(st=legendre.transformed_at(w.st, w.nat, *w.field_jets)),
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
            result = Residuals({k: np.broadcast_to(v, (count, *np.shape(v)[1:]))
                                for k, v in result.parts.items()},
                               np.broadcast_to(result.scale, count), result.fits, result.least,
                               result.show_parts)
        return batch_report(check.name, result,
                            tol if check.tol is None else check.tol(tol), fit=check.fit,
                            expected=self.expected.get(check.expected))

    def table(self, key, order: int, points=None, env=None) -> Jets:
        """The jets up to `order` of the companion table `key` over
        `points` (default: the walk's) in `env` (default: the spec's),
        from one run."""
        return table_jets(self.companion(key), self.points if points is None else points,
                          self.env if env is None else env, order)


class Check:
    """One row of the check table.  `at` maps the `_Walk` to the row's
    `Residuals` at all its points at once, as arrays over the point axis.
    A source runs the check when its spec, companion or expected values
    hold all of `needs` and, for a row with a `flag` (a claim the data
    cannot show), when the source is an entry that claims it.  `fit` (the
    fitted constant that must agree across the points), `expected` (a key
    of the value it must match) and `tol` (of the run's tol; default: the
    run's) set its report (`batch_report`); a `theorem` holds on every structure."""

    def __init__(self, name: str, at: Callable, flag: str | None = None, needs: tuple = (),
                 fit: str | None = None, expected: str | None = None,
                 tol: Callable | None = None, theorem: bool = False):
        self.name, self.at, self.flag, self.needs = name, at, flag, needs
        self.fit, self.expected, self.tol, self.theorem = fit, expected, tol, theorem


def _lame_system_at(b):
    """With an ODE family, against the rotation coefficients of its closed
    form."""
    rd = b.rd
    beta = rotation.betas_from_F(b.ode.val, rd.point) if "ode_family" in b.comp else None
    return rotation.lame_system_at(rd, b.expected.get("d"), beta)


def _ode_integrals_at(b):
    i1, i2 = ode3d.first_integrals(b.ode.val.T)
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
    Check("product-axioms", lambda b: product_axioms_at(b.st), theorem=True),
    Check("hertling-manin", lambda b: hertling_manin_at(b.st), theorem=True),
    Check("metric-invariance", lambda b: metric_invariance_at(b.st), needs=("g",), theorem=True),
    Check("killing-unit", lambda b: killing_unit_at(b.st), needs=("g",), theorem=True),
    # a flat metric, which the natural connection's rows do not imply
    Check("levi-civita-flat", lambda b: flatness_at(b.lc), "flat-metric", ("g",)),
    Check("flatness", lambda b: flatness_at(b.nat), needs=("g",), theorem=True),
    Check("nabla-e", lambda b: nabla_e_at(b.nat, b.st), needs=("g",), theorem=True),
    Check("product-compat", lambda b: compat_product_at(b.nat, b.st), needs=("g",), theorem=True),
    Check("curvature-product", lambda b: curvature_product_at(b.lc, b.st), needs=("g",),
          theorem=True),
    Check("r-tr", lambda b: r_tr_identity_at(b.nat, b.lc, b.st), needs=("g",), theorem=True),
    Check("nabla-nabla-E", lambda b: nabla_nabla_E_at(b.nat, b.st), needs=("g", "E"),
          theorem=True),
    Check("gamma-match", lambda b: _table_gap(b.nat, b.printed), needs=("g", "gamma")),
    # an axiom, not a consequence: it runs where a weight D is declared
    Check("homogeneity", lambda b: homogeneity_at(b.st), needs=("g", "E", "D"),
          fit="D", expected="D", theorem=True),
    Check("dual-structure", lambda b: b.dual.residuals, needs=("g", "E"), theorem=True),
    Check("gamma-star-match", lambda b: _table_gap(b.dual.gamma_star, b.printed_star),
          needs=("g", "E", "gamma_star")),
    Check("darboux-system", lambda b: rotation.darboux_at(b.rd), needs=("lame",)),
    Check("reduction-identity", lambda b: rotation.reduction_identity_at(b.rd), needs=("lame",)),
    Check("lame-system", _lame_system_at, needs=("lame",), fit="d"),
    Check("flatness-constraint", lambda b: rotation.flatness_constraint_at(b.rd), "ed4",
          ("lame",)),
    Check("algebraic-ED4bis", lambda b: rotation.algebraic_constraints_at(b.rd, "ED4bis"),
          "ed4bis", ("lame",)),
    Check("algebraic-ED5b", lambda b: rotation.algebraic_constraints_at(b.rd, "ED5b"), "ed5b",
          ("lame",)),
    Check("potentiality", lambda b: rotation.potentiality_at(b.rd), "potentiality", ("lame",)),
    Check("v-eigenvalues", _v_eigenvalue_gap, needs=("lame", "V_eigenvalues")),
    Check("ode-integrals", _ode_integrals_at, needs=("ode_family", "I1", "I2"),
          tol=lambda tol: 1e-10),
    Check("quadratic-expansion",
          lambda b: hamops.quadratic_expansion_at(b.st, b.lc, b.comp["normal_bundle"].eps,
                                                  b.fields.val, b.ginv.inv),
          needs=("g", "normal_bundle"), tol=lambda tol: max(tol, 1e-9)),
    Check("sym-condition",
          lambda b: hamops.sym_condition_at(b.st, b.nat, b.fields.val, b.fields.grad),
          needs=("g", "normal_bundle")),
    Check("gmc", lambda b: hamops.gmc_at(b.st, b.lc, b.comp["normal_bundle"].eps, b.fields.val,
                                         b.fields.grad, b.ginv.inv), needs=("g", "normal_bundle")),
    # 1 where the rank is not the expected one
    Check("normal-rank", lambda b: Residuals(
        {"rank": np.sign(np.abs(hamops.rank_of(b.fields.val) - b.expected["rank"]))},
        np.zeros(len(b.points))),
          needs=("normal_bundle", "rank"), tol=lambda tol: 0.5),
    Check("pencil-exactness", lambda b: pencil.exactness_at(b.pa), needs=("g", "g2")),
    Check("pencil-homogeneity", lambda b: pencil.pencil_homogeneity_at(b.pa), needs=("g", "g2"),
          fit="d", expected="d_pencil"),
    Check("flat-pencil", lambda b: pencil.flat_pencil_at(b.pa), needs=("g", "g2")),
    Check("delta-identities", lambda b: pencil.delta_identities_at(b.pa, b.weight, b.delta),
          needs=("g", "g2")),
    Check("r-operator", lambda b: pencil.r_operator_at(b.pa, b.weight, b.counit),
          needs=("g", "g2"), tol=lambda tol: max(tol, 1e-9)),
    Check("product-from-pencil", lambda b: b.pencil_product.residuals, needs=("g", "g2"),
          tol=lambda tol: max(tol, 1e-9)),
    Check("flat-coordinates", lambda b: flat_coordinates_at(b.chart, b.conn),
          needs=("flat_chart",)),
    Check("vector-potential", vector_potential_at, needs=("flat_chart", "potentials", "flat_e"),
          tol=lambda tol: max(tol, 1e-10)),
    # a transform's rows, those that read its field (`Transform`)
    Check("legendre-field", lambda b: legendre.legendre_field_at(
        b.st, b.nat, b.field_jets.val, b.field_jets.grad), needs=("legendre_field",)),
    Check("transform-exprs", _transform_exprs_at, needs=("legendre_field", "transformed_g")),
    Check("match", _match_at, needs=("legendre_field", "target_g"), tol=lambda tol: max(tol, 1e-7)),
)
# each theorem row on the structure rebuilt from the pencil ("recon"), a row of the pencil,
# but killing-unit, which holds there as "recon" keeps g and e
CHECKS += tuple(Check(f"reconstructed/{c.name}", lambda b, at=c.at: at(b.recon), c.flag,
                      ("g", "g2"), c.fit, c.expected and f"{c.expected}_reconstructed", c.tol,
                      c.theorem)
                for c in CHECKS if c.theorem and c.name != "killing-unit")
# the rows no walk reports, which only `--check` and `run_checks` run: two properties the
# natural connection has by construction, tested in the test tree, and a transform's theorems
_NAMED = (
    Check("torsionless", lambda b: torsion_at(b.nat), tol=lambda tol: 1e-12),
    Check("nabla-from-g", lambda b: nabla_from_g_at(b.nat, b.st, b.counit)),
    Check("transform-metric", needs=("legendre_field",), at=lambda b: legendre.transform_metric_at(
        *(_BY_NAME[name].at(b.transformed) for name in ("metric-invariance", "killing-unit")),
        b.transformed.nat, legendre.transform_connection(b.nat, b.transformed.st,
                                                         *b.field_jets))),
    Check("homogeneous-legendre", lambda b: legendre.homogeneous_legendre_at(
        b.st, *(_BY_NAME["homogeneity"].at(walk) for walk in (b, b.transformed)),
        b.field_jets.val, b.field_jets.grad), needs=("legendre_field",), fit="dbar"),
)
_BY_NAME = {check.name: check for check in CHECKS + _NAMED}


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


class SuiteResult:
    def __init__(self, name: str, reports: list, expected_failures: frozenset,
                 transformed: ManifoldSpec | None = None):
        self.name, self.reports, self.expected_failures = name, reports, expected_failures
        self.transformed = transformed  # a transform's expression-level spec

    @property
    def ok(self) -> bool:
        return all(r.passed == (r.name not in self.expected_failures) for r in self.reports)

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "expected_failures": sorted(self.expected_failures),
                "reports": [r.to_dict() for r in self.reports]}


class Transform:
    """A Legendre transform as a source of the walk: `spec` through the
    field `exprs`, named `name`, and, with a catalog entry `target`, the
    match with its metric, whose parameters take the values in `params` of
    the same name."""

    def __init__(self, spec: ManifoldSpec, exprs: tuple, name: str, target: str | None = None,
                 params: dict | None = None):
        self.spec, self.exprs, self.name, self.target = spec, exprs, name, target
        self.params = {} if params is None else params

    def rows(self):
        """The walk's companion data, rows and expression-level spec: the
        rows that read the field and whose inputs the data holds (`_chosen`),
        with the target's match reported as match-<target>."""
        new = legendre.transform_metric_exprs(self.spec, self.exprs,
                                              name=f"{self.spec.name}-{self.name}")
        comp = {"legendre_field": self.exprs, "transformed_g": new.g}
        if self.target is not None:
            tgt = entry(self.target).spec
            tgt.params.update((k, v) for k, v in self.params.items() if k in tgt.params)
            comp.update(target_g=required(tgt.g, f"metric in target {tgt.name}"),
                        target_env=tgt.env())
        checks = [Check(f"match-{self.target}", c.at, c.flag, c.needs, c.fit, c.expected, c.tol,
                        c.theorem) if c.name == "match" else c
                  for c in _chosen(self.spec, comp) if "legendre_field" in c.needs]
        return comp, checks, new


def run_checks(spec: ManifoldSpec, comp: dict, names, points, tol: float = DEFAULT_TOL) -> list:
    """The reports of the checks `names`, in that order, from one walk over
    `points` with the companion data `comp`."""
    return _walk(spec, comp, [_BY_NAME[name] for name in names], points, tol)


def run_suite(source, seed: int = DEFAULT_SEED, count: int = DEFAULT_POINTS,
              tol: float = DEFAULT_TOL, check: str | None = None) -> SuiteResult:
    """Sample `count` points at `seed` and walk them once (`_walk`) with the
    checks of `source`, a spec file's entry or a bare spec: each row whose
    inputs it has (`_chosen`) and whose flag, if any, the entry claims (a
    spec file claims the flags it lists, a bare spec none); or a
    `Transform`'s rows; with `check`, any one row, an expected failure
    still where the entry lists it as one.  The rows are chosen before the
    points are sampled.  A companion table or expected value that the row
    reads and the source lacks raises MissingCompanionDataError; an
    expected failure or `check` that names no row so chosen,
    UnknownCheckError."""
    spec = source if isinstance(source, ManifoldSpec) else source.spec
    if isinstance(source, Transform):
        comp, checks, new = source.rows()
        expected_failures = frozenset()
    else:
        ent, new = source if isinstance(source, CatalogEntry) else CatalogEntry(spec), None
        comp = ent.companion
        if check is None:
            checks, expected_failures = _chosen(spec, comp, ent.flags), ent.expected_failures
            for name in sorted(expected_failures - {c.name for c in checks}):
                raise UnknownCheckError(f"{name!r} in expected_failures: {spec.name} runs "
                                        f"no such row")
        else:
            checks, expected_failures = [_BY_NAME.get(check)], ent.expected_failures & {check}
            if checks[0] is None:
                raise UnknownCheckError(repr(check))
            for key in checks[0].needs:  # the row asks for a spec field or its own expected value
                if key not in {"g", "E", "g2", checks[0].expected, *comp, *spec.expected}:
                    raise MissingCompanionDataError(f"{spec.name} has no {key}")
    points = sample_points(spec, SamplePlan(seed=seed, count=count))
    return SuiteResult(spec.name, _walk(spec, comp, checks, points, tol), expected_failures,
                       transformed=new)
