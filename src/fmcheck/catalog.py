"""Built-in chart specs for the explicit structure families the engine
verifies, with companion data (closed-form connections, Lame coefficients,
flat charts, vector potentials, transform fields, normal-bundle fields),
the table of checks, and the one point walk that runs the checks an entry's
flags, a spec file's fields, a `--check` name or a Legendre transform pick.

Free constants default to 1 (0 for the arbitrary-function slots, which are
degree-two polynomial coefficients) except where a family forces a value.
Square roots of sign-indefinite parameter combinations make several entries
complex-valued for real defaults; everything is evaluated on principal
branches, which is the convention recorded in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import exprjet as ej
from .connection import (ConnectionAt, InverseJets, check_compat_product, check_flatness,
                         check_nabla_e, check_nabla_from_g, compat_product_at,
                         connections_from_exprs, counit_jets, curvature_product_at,
                         dual_structure, flatness_at, levi_civita, metric_inverse, nabla_e_at,
                         nabla_from_g_at, nabla_nabla_E_at, natural_from_levi_civita,
                         r_tr_identity_at, torsion_at)
from .hamops import (fields_from_exprs, fields_from_gradients, gmc_at, gmc_report,
                     quadratic_expansion_at, rank_of, spanning_fields, sym_condition_at)
from .legendre import (homogeneous_legendre_at, homogeneous_legendre_report, legendre_field_at,
                       legendre_field_report, transform_metric_at, transform_metric_exprs,
                       transformed_metric)
from .manifold import (AllEntriesZeroError, Jets, ManifoldSpec, PointBatch, Region, Report,
                       SamplePlan, amax, fail_at, fit_scalar, hertling_manin_at, homogeneity_at,
                       killing_unit_at, metric_invariance_at, normalized, per_point, pmax,
                       point_report, product_axioms_at, required, sample_points, structures,
                       table_jets, worst)
from .ode3d import beta_from_F, closed_form_pencil, closed_form_q0, integrals, z_of_point
from .pencil import (delta_jets, delta_tensor_at, exactness_at, flat_pencil_at,
                     flat_pencil_report, pencil_first_order, pencil_homogeneity_at,
                     pencil_second_order, pencil_weight, product_from_pencil_at, r_operator_at,
                     reconstructed_at)
from .rotation import (RotationData, ZeroLameError, algebraic_constraints_at, darboux_at,
                       flatness_constraint_at, lame_system_at, potentiality_at,
                       reduction_identity_at, rotations, v_matrix)
from .tensor import SingularMatrixError, cluster_values

__all__ = ["CatalogEntry", "UnknownEntryError", "entry", "names", "run_suite", "Transform",
           "run_checks", "Check", "CHECKS", "SPEC_CHECKS", "SINGLE_CHECKS",
           "verify_flat_coordinates", "verify_vector_potential", "SuiteResult", "connection_suite",
           "MissingCompanionDataError", "JacobianSingularError", "SingularSampleError"]

DEFAULT_TOL = 1e-8


class UnknownEntryError(Exception):
    pass


class MissingCompanionDataError(Exception):
    pass


class JacobianSingularError(Exception):
    pass


@dataclass
class CatalogEntry:
    spec: ManifoldSpec
    flags: frozenset
    companion: dict = field(default_factory=dict)
    expected_failures: frozenset = frozenset()


# ---------------------------------------------------------------------------
# entry construction helpers


def _prod_expr(n, i, exclude_sign=False):
    return "*".join(f"(u{k+1}-u{i+1})" for k in range(n) if k != i)


def _diag_metric(diag_exprs):
    n = len(diag_exprs)
    return tuple(tuple(diag_exprs[i] if i == j else "0" for j in range(n)) for i in range(n))


def _gamma_from_offdiag(n, offdiag):
    """Full Christoffel table from the off-diagonal entries Gamma^i_ij of a
    canonical-chart structure connection: Gamma^i_jj = -Gamma^i_ij,
    Gamma^i_jk = 0 for distinct indices, and the row sums vanish."""
    table = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        diag_terms = []
        for j in range(n):
            if i == j:
                continue
            src = offdiag[(i, j)]
            table[i][i][j] = src
            table[i][j][i] = src
            table[i][j][j] = ej.to_source(-ej.parse(src))
            diag_terms.append(ej.parse(src))
        acc = diag_terms[0]
        for t in diag_terms[1:]:
            acc = acc + t
        table[i][i][i] = ej.to_source(-acc)
    return tuple(tuple(tuple(row) for row in mat) for mat in table)


_SEMI3_REGION = Region(box=((-1.7, -1.1), (-0.6, -0.1), (0.8, 1.6)), min_sep=0.1)
_AF3_REGION = Region(box=((-2.2, -1.5), (-0.8, -0.2), (2.3, 3.1)), min_sep=0.1)
_AF4_REGION = Region(box=((-2.2, -1.5), (-0.8, -0.2), (2.3, 3.1), (3.6, 4.4)), min_sep=0.1)

_Q0_DEN = "(a+b)*u1-a*u3-b*u2"
_Q0_LAME = {
    -1: (f"1/({_Q0_DEN})",
         "-1/((a+b)*((u1-u2)*b+a*(u1-u3)))",
         "-a/(sqrt(-(b^2+1))*(a+b)*((u1-u2)*b+a*(u1-u3)))"),
    0: (f"(u2-u3)/({_Q0_DEN})",
        "(u3-u1)/(((u1-u2)*b+a*(u1-u3))*b)",
        f"(u1-u2)/(({_Q0_DEN})*sqrt(-(b^2+1)))"),
    1: (f"-((a+b)*u1^2-2*(a*u3+b*u2)*u1+a*u3^2+b*u2^2)/({_Q0_DEN})",
        f"-((a+b)*u1^2-2*u2*(a+b)*u1+(2*u2*u3-u3^2)*a+b*u2^2)/(({_Q0_DEN})*(a+b))",
        f"-((a+b)*u1^2-2*u3*(a+b)*u1+a*u3^2-b*u2*(u2-2*u3))*a/(sqrt(-(b^2+1))*({_Q0_DEN})*(a+b))"),
}

# Transform fields that are flat for the d=-1 structure connection.  The
# quadratic field's first component has its middle-term sign pinned by the
# parallel-field equation (equivalently, by the ratio of the weight 1 and
# weight -1 Lame coefficients).
_Q0_FIELDS = {
    "e": ("1", "1", "1"),
    "X2": ("u2-u3", "(a+b)*(u1-u3)/b", "(a+b)*(u2-u1)/a"),
    "X3": ("-((a+b)*u1^2-2*(a*u3+b*u2)*u1+a*u3^2+b*u2^2)",
           "(a+b)*u1^2-2*(a+b)*u1*u2+a*u3*(2*u2-u3)+b*u2^2",
           "(a+b)*u1^2-2*u3*(a+b)*u1+a*u3^2-b*u2*(u2-2*u3)"),
}


def _build_lobachevsky() -> CatalogEntry:
    spec = ManifoldSpec(
        name="lobachevsky", n=2, coords=("x", "y"), product="canonical",
        e=("1", "1"), g=_diag_metric(("2/(x-y)^2", "2/(x-y)^2")),
        region=Region(box=((0.6, 2.0), (-1.5, 0.4)), min_sep=0.1),
        expected={"R1212": 1.0})
    companion = {
        "flat_chart": ("4/(x-y)", "(x+y)/2"),
        "flat_e": ("0", "1"),
        "potentials": ("u1*u2", "u2^2/2+(2/3)/u1^2"),
        "normal_bundle": fields_from_exprs([("1", "1")], [-1]),
    }
    flags = frozenset({"riemannian-f-killing", "flat-normal-bundle",
                       "flat-chart", "potential"})
    return CatalogEntry(spec=spec, flags=flags, companion=companion)


def _build_nonss2d() -> CatalogEntry:
    # metrics exist for this family only when the first connection constant
    # vanishes, so b = 0 here; the flat charts with general b live in the
    # case-i .. case-v entries
    spec = ManifoldSpec(
        name="nonss2d", n=2, coords=("x", "y"), product="shifted-canonical",
        e=("1", "0"), E=("x", "y"),
        g=(("f0+f1*y+f2*y^2", "c*y^a"), ("c*y^a", "0")),
        params={"a": 1.0, "b": 0.0, "c": 1.0, "f0": 0.0, "f1": 0.0, "f2": 0.0},
        region=Region(box=((0.4, 1.8), (0.5, 2.0)), min_sep=0.0))
    gamma = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
    gamma[0][1][1] = "b/y"
    gamma[1][1][1] = "a/y"
    companion = {"gamma": tuple(tuple(tuple(r) for r in m) for m in gamma)}
    return CatalogEntry(spec=spec, flags=frozenset({"riemannian-f-killing", "gamma-match"}),
                        companion=companion)


def _build_nonss3d() -> CatalogEntry:
    fy = "(f0+f1*y+f2*y^2)"
    dfy = "(f1+2*f2*y)"
    gy = "(g0+g1*y+g2*y^2)"
    e11 = "(4/3)*(a^2-3)/(a+2)"
    e12 = "(1/3)*(4*a^2+3*a-6)/(a+2)"
    e13 = "(2/3)*((2*a+3)*a)/(a+2)"
    g11 = (f"2*{dfy}*y*z+{gy}*y+(2/9)*(a^2*(a^2+3*a+3)/(a+2)^2)*c*y^({e11})*z^2"
           f"-2*(b*c*y^({e12})+((a^2-2)/(a+2))*{fy})*z")
    g12 = f"(2/3)*(a*(a+3)/(a+2))*c*y^({e12})*z+y*{fy}"
    g13 = f"c*y^({e13})"
    spec = ManifoldSpec(
        name="nonss3d", n=3, coords=("x", "y", "z"), product="shifted-canonical",
        e=("1", "0", "0"), E=("x", "y", "z"),
        g=((g11, g12, g13), (g12, g13, "0"), (g13, "0", "0")),
        params={"a": 1.0, "b": 1.0, "c": 1.0,
                "f0": 0.0, "f1": 0.0, "f2": 0.0, "g0": 0.0, "g1": 0.0, "g2": 0.0},
        region=Region(box=((0.4, 1.6), (0.6, 1.8), (0.4, 1.6)), min_sep=0.0))
    gamma = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    gamma[2][1][2] = gamma[2][2][1] = "a/y"
    gamma[2][1][1] = "((a*b+2*b)*y-2*a*z)/((a+2)*y^2)"
    gamma[1][1][1] = "a*(a+1)/((a+2)*y)"
    companion = {"gamma": tuple(tuple(tuple(r) for r in m) for m in gamma)}
    return CatalogEntry(spec=spec, flags=frozenset({"riemannian-f-killing", "gamma-match"}),
                        companion=companion)


def _build_lauricella() -> CatalogEntry:
    n = 3
    diag = tuple(f"c{i+1}*({_prod_expr(n, i)})^2" for i in range(n))
    spec = ManifoldSpec(
        name="lauricella-eps-minus1-n3", n=n, coords=("u1", "u2", "u3"),
        product="canonical", e=("1",) * n, E=("u1", "u2", "u3"),
        g=_diag_metric(diag),
        params={"c1": 1.0, "c2": 1.0, "c3": 1.0},
        region=_SEMI3_REGION,
        expected={"d": 2.0, "D": 6.0, "rank": n - 1})
    offdiag = {(i, j): f"-1/(u{i+1}-u{j+1})" for i in range(n) for j in range(n) if i != j}
    lame = tuple(f"sqrt(c{i+1})*{_prod_expr(n, i)}" for i in range(n))
    scalars = tuple(f"1/(sqrt(c{i+1})*{_prod_expr(n, i)})" for i in range(n))
    # dual connection in closed form: same off-diagonal symbols, the
    # remaining ones rescaled by coordinate ratios
    star = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        ui = ej.Var(i + 1)
        diag = -1 / ui
        for j in range(n):
            if i == j:
                continue
            uj = ej.Var(j + 1)
            star[i][i][j] = star[i][j][i] = f"-1/(u{i+1}-u{j+1})"
            star[i][j][j] = ej.to_source(-(ui / uj) * ej.parse(star[i][i][j]))
            diag = diag - (uj / ui) * ej.parse(star[i][i][j])
        star[i][i][i] = ej.to_source(diag)
    companion = {
        "gamma": _gamma_from_offdiag(n, offdiag),
        "gamma_star": tuple(tuple(tuple(r) for r in m) for m in star),
        "lame": lame,
        "normal_bundle": fields_from_gradients(scalars, [-1] * n, spec.params),
    }
    flags = frozenset({"riemannian-f-killing", "homogeneous", "biflat",
                       "flat-normal-bundle", "darboux", "lame", "gamma-match"})
    return CatalogEntry(spec=spec, flags=flags, companion=companion,
                        expected_failures=frozenset({"flatness-constraint"}))


def _build_q0(d: int) -> CatalogEntry:
    n = 3
    lame = _Q0_LAME[d]
    spec = ManifoldSpec(
        name=f"q0-d{'-minus1' if d == -1 else d}", n=n, coords=("u1", "u2", "u3"),
        product="canonical", e=("1",) * n, E=("u1", "u2", "u3"),
        g=_diag_metric(tuple(f"({h})^2" for h in lame)),
        params={"a": 1.0, "b": 1.0},
        region=Region(box=_SEMI3_REGION.box, min_sep=0.1,
                      guards=(_Q0_DEN,), guard_min=0.2),
        expected={"d": float(d), "D": float(2 * d + 2), "I1": -1.0, "I2": 0.0,
                  "V_eigenvalues": [-1.0, 0.0, 1.0]})
    companion = {"lame": lame, "ode_family": "q0"}
    flags = {"riemannian-f-killing", "homogeneous", "darboux", "lame",
             "ed4", "ed4bis", "potentiality", "ode-family"}
    if d == -1:
        q = f"({_Q0_DEN})"
        offdiag = {
            (0, 1): f"b/{q}", (0, 2): f"a/{q}",
            (1, 0): f"-(a+b)/{q}", (1, 2): f"a/{q}",
            (2, 0): f"-(a+b)/{q}", (2, 1): f"b/{q}",
        }
        companion["gamma"] = _gamma_from_offdiag(n, offdiag)
        companion["legendre_fields"] = dict(_Q0_FIELDS)
        companion["legendre_targets"] = {"X2": "q0-d0", "X3": "q0-d1"}
        flags.add("gamma-match")
    return CatalogEntry(spec=spec, flags=frozenset(flags), companion=companion)


def _build_pencil63() -> CatalogEntry:
    n = 3
    diag = tuple(_prod_expr(n, i) for i in range(n))
    spec = ManifoldSpec(
        name="pencil-63", n=n, coords=("u1", "u2", "u3"),
        product="canonical", e=("1",) * n, E=("u1", "u2", "u3"),
        g=_diag_metric(diag),
        region=_AF3_REGION,
        expected={"d": 1.0, "D": 4.0, "I1": -0.75, "I2": 0.25,
                  "V_eigenvalues": [-0.5, -0.5, 1.0]})
    offdiag = {(i, j): f"1/(2*(u{j+1}-u{i+1}))" for i in range(n) for j in range(n) if i != j}
    companion = {
        "lame": ("sqrt(u3-u1)*sqrt(u2-u1)",
                 "-sqrt(u1-u2)*sqrt(u3-u2)",
                 "sqrt(u2-u3)*sqrt(u1-u3)"),
        "gamma": _gamma_from_offdiag(n, offdiag),
        "ode_family": "pencil63",
    }
    flags = frozenset({"riemannian-f-killing", "homogeneous", "darboux",
                       "lame", "ed4", "ed4bis", "ed5b", "gamma-match", "ode-family",
                       "potentiality"})
    # the exact-pencil family is not potential: that check is reported and
    # expected to fail
    return CatalogEntry(spec=spec, flags=flags, companion=companion,
                        expected_failures=frozenset({"potentiality"}))


def _build_af(n: int) -> CatalogEntry:
    g1 = tuple(_prod_expr(n, i) for i in range(n))
    g2 = tuple(f"({_prod_expr(n, i)})/u{i+1}" for i in range(n))
    spec = ManifoldSpec(
        name=f"af-pencil-n{n}", n=n, coords=tuple(f"u{i+1}" for i in range(n)),
        product="canonical", e=("1",) * n, E=tuple(f"u{i+1}" for i in range(n)),
        g=_diag_metric(g1), g2=_diag_metric(g2),
        region=_AF3_REGION if n == 3 else _AF4_REGION,
        expected={"d_pencil": float(1 - n)})
    return CatalogEntry(spec=spec, flags=frozenset({"pencil"}), companion={})


_CASES = {
    "case-i": {"a": 3.0, "b": 1.0,
               "chart": ("x-(b/a)*y", "y^(a+1)/(a+1)"),
               "flat_E": ("u1", "(a+1)*u2"),
               "F": ("(a^2*(a-1)*u1^2+b^2*(a+1)^(2/(a+1))*u2^(2/(a+1)))/(2*(a-1)*a^2)",
                     "(a*(a+2)*u1*u2+2*b*(a+1)^((a+2)/(a+1))*u2^((a+2)/(a+1)))/((a+2)*a)")},
    "case-ii": {"a": -2.0, "b": 1.0,
                "chart": ("x+(1/2)*b*y", "-1/y"),
                "flat_E": ("u1", "-u2"),
                "F": ("(1/2)*u1^2-(1/24)*b^2/u2^2", "u1*u2+b*ln(u2)")},
    "case-iii": {"a": -1.0, "b": 1.0,
                 "chart": ("x+b*y", "ln(y)"),
                 "flat_E": ("u1", "1"),
                 "F": ("(1/2)*u1^2-(1/4)*b^2*exp(2*u2)", "u1*u2-2*b*exp(u2)")},
    "case-iv": {"a": 0.0, "b": 1.0,
                "chart": ("x+b*y*ln(y)", "y"),
                "flat_E": ("u1+b*u2", "u2"),
                "F": ("(1/2)*u1^2-(1/2)*b^2*u2^2*ln(u2)^2+(1/2)*b^2*u2^2*ln(u2)-(3/4)*b^2*u2^2",
                      "-b*u2^2*ln(u2)+(1/2)*b*u2^2+u1*u2")},
    "case-v": {"a": 1.0, "b": 1.0,
               "chart": ("x-b*y", "y^2/2"),
               "flat_E": ("u1", "2*u2"),
               "F": ("(1/2)*u1^2-(1/2)*b^2*u2*ln(u2)+(1/2)*b^2*u2",
                     "(4/3)*b*sqrt(2)*u2^(3/2)+u1*u2")},
}


def _build_case(name: str) -> CatalogEntry:
    data = _CASES[name]
    spec = ManifoldSpec(
        name=name, n=2, coords=("x", "y"), product="shifted-canonical",
        e=("1", "0"), E=("x", "y"),
        params={"a": data["a"], "b": data["b"]},
        region=Region(box=((0.4, 1.6), (0.6, 1.9)), min_sep=0.0))
    gamma = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
    gamma[0][1][1] = "b/y"
    gamma[1][1][1] = "a/y"
    companion = {
        "gamma": tuple(tuple(tuple(r) for r in m) for m in gamma),
        "flat_chart": data["chart"],
        "flat_e": ("1", "0"),
        "flat_E": data["flat_E"],
        "potentials": data["F"],
    }
    return CatalogEntry(spec=spec, flags=frozenset({"flat-chart", "potential"}),
                        companion=companion)


_BUILDERS = {
    "lobachevsky": _build_lobachevsky,
    "nonss2d": _build_nonss2d,
    "nonss3d": _build_nonss3d,
    "lauricella-eps-minus1-n3": _build_lauricella,
    "q0-d-minus1": lambda: _build_q0(-1),
    "q0-d0": lambda: _build_q0(0),
    "q0-d1": lambda: _build_q0(1),
    "pencil-63": _build_pencil63,
    "af-pencil-n3": lambda: _build_af(3),
    "af-pencil-n4": lambda: _build_af(4),
    **{name: (lambda name=name: _build_case(name)) for name in _CASES},
}


def names() -> list:
    return sorted(_BUILDERS)


def entry(name: str) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownEntryError(f"unknown catalog entry {name!r}") from None
    return builder()


# ---------------------------------------------------------------------------
# chart-companion verification


def _chart_inverse(jac, errors):
    """The inverse of the flat chart's jacobian `jac`; where it is singular
    it raises JacobianSingularError, or records it in `errors`."""
    n = jac.shape[-1]
    singular = np.abs(np.linalg.det(jac)) <= 1e-12 * (1 + amax(jac, 2)) ** n
    fail_at(errors, singular, lambda k: JacobianSingularError("chart jacobian is singular"))
    return np.linalg.inv(np.where(singular[..., None, None], np.eye(n), jac))


def flat_coordinates_at(chart: Jets, conn: ConnectionAt, errors=None):
    """Push `conn` to the companion chart, given by its jets `chart`, and
    require the transformed Christoffel symbols to vanish."""
    jinv = _chart_inverse(chart.grad, errors)
    pushed = (np.einsum("...ai,...ijk,...jb,...kc->...abc", chart.grad, conn.gamma, jinv, jinv)
              - np.einsum("...ajk,...jb,...kc->...abc", chart.hess, jinv, jinv))
    sc = pmax(amax(conn.gamma, 3), amax(chart.hess, 3), 1.0)
    return normalized(amax(pushed, 3), sc), sc


def vector_potential_at(b):
    """In the flat chart, the pushed product must be the chart Hessian of
    the potential components, and the pushed unit/Euler fields must match
    their printed components (`b`: a row's `_RowData`)."""
    jac, st = b.chart.grad, b.st
    jinv = _chart_inverse(jac, b.errors)
    pushed_c = np.einsum("...ai,...ijk,...jb,...kc->...abc", jac, st.c, jinv, jinv)
    terms = [amax(pushed_c - b.potentials.hess, 3),
             amax((jac @ st.e[..., None])[..., 0] - b.flat_e.val, 1)]
    if "flat_E" in b.comp and st.E is not None:
        terms.append(amax((jac @ st.E[..., None])[..., 0] - b.flat_E.val, 1))
    sc = pmax(amax(pushed_c, 3), 1.0)
    return normalized(pmax(*terms), sc), sc


def verify_flat_coordinates(ent: CatalogEntry, points, tol: float = DEFAULT_TOL) -> Report:
    """Push the structure connection to the companion chart and require the
    transformed Christoffel symbols to vanish."""
    return _walk(ent.spec, ent.companion, [_BY_NAME["flat-coordinates"]], points, tol)[0]


def verify_vector_potential(ent: CatalogEntry, points, tol: float = 1e-10) -> Report:
    return _walk(ent.spec, ent.companion, [_BY_NAME["vector-potential"]], points, tol)[0]


def connection_suite(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                     gamma_exprs=None) -> list:
    """The flat-structure checks for a metric spec (`_CONNECTION_CHECKS`):
    the natural connection is torsionless, flat, unit-parallel, compatible
    with the product and solves its defining equation; the Levi-Civita
    curvature meets the product condition; the two agree in the cyclic sum;
    and, given a closed-form connection table, the natural one matches it."""
    comp = {} if gamma_exprs is None else {"gamma": gamma_exprs}
    return _walk(spec, comp, _chosen(spec, comp, lambda c: c.name in _CONNECTION_CHECKS),
                 points, tol)


# ---------------------------------------------------------------------------
# the check table and the point walk


class SingularSampleError(Exception):
    """A check's data cannot be evaluated at a sample point."""


_SINGULAR = (ej.DomainError, SingularMatrixError, AllEntriesZeroError, ZeroLameError,
             JacobianSingularError)


def _table_gap(conn: ConnectionAt, printed: ConnectionAt):
    gap = normalized(amax(conn.gamma - printed.gamma, 3), amax(printed.gamma, 3))
    return gap, np.zeros_like(gap)


def _closed_form_state(spec: ManifoldSpec, comp: dict, u):
    """The closed-form solution of the spec's ODE family at the point u."""
    z = z_of_point(u)
    if comp["ode_family"] == "q0":
        return closed_form_q0(z, spec.params.get("a", 1.0), spec.params.get("b", 1.0))
    return closed_form_pencil(z)


def _v_eigenvalue_gap(rd: RotationData, want) -> float:
    _, eig, _ = v_matrix(rd)
    # cluster multiple roots first: a split double root is only
    # sqrt(eps)-accurate per root but eps-accurate in the mean
    clustered = []
    for rep, mult in cluster_values(eig, tol=1e-6):
        clustered.extend([rep] * mult)
    clustered.sort(key=lambda v: (v.real, v.imag))
    return float(np.max(np.abs(np.array(clustered) - np.array(sorted(want), dtype=complex))))


def _transformed(w) -> Jets:
    """A transform's metric over the points its rows read: all with a
    target (the match), else the first five (transform-exprs)."""
    count = len(w.points) if "target_g" in w.comp else 5
    st, nat, x = (w.batch(name).head(count) for name in ("st", "nat", "field_jets"))
    errors = [a if a is not None else b for a, b in zip(nat.errors, x.errors)]
    return Jets(transformed_metric(st, nat, x.val, x.grad, errors=errors), errors=errors)


# The data a walk builds once, as batches over its points, each from the
# walk's other data when a row first asks for it.  The pencil's
# second-order data ("pa") are built over the head points only, which are
# all that its rows read, on the Levi-Civita connection of the first
# metric where the walk has built that; a point's view of a batch is its
# `.at(k)`.
_BATCHED = {
    "st": lambda w: structures(w.spec, w.points),
    "ginv": lambda w: metric_inverse(w.batch("st")),
    "lc": lambda w: levi_civita(w.batch("st"), w.batch("ginv")),
    "counit": lambda w: counit_jets(w.batch("st")),
    "nat": lambda w: natural_from_levi_civita(w.batch("st"), w.batch("lc"), w.batch("ginv"),
                                              w.batch("counit")),
    "printed": lambda w: connections_from_exprs(w.companion("gamma"), w.points, w.env),
    "printed_star": lambda w: connections_from_exprs(w.companion("gamma_star"), w.points, w.env),
    # the structure connection, from its closed-form table where there is one
    "conn": lambda w: w.batch("printed" if "gamma" in w.comp else "nat"),
    "dual": lambda w: dual_structure(w.batch("st"), w.batch("nat")),
    "rd": lambda w: rotations(w.spec, w.points, lame_exprs=w.comp.get("lame")),
    "fields": lambda w: spanning_fields(w.companion("normal_bundle"), w.points, w.spec.n),
    "pencil": lambda w: pencil_first_order(w.batch("st"), w.batch("ginv")),
    "pa": lambda w: pencil_second_order(
        w.batch("pencil").head(w.head), w.data["lc"].head(w.head) if "lc" in w.data else None),
    # the flat chart, and the potential's tables at its values
    "chart": lambda w: w.table("flat_chart"),
    **{key: (lambda w, key=key: w.table(key, w.batch("chart").val))
       for key in ("potentials", "flat_e", "flat_E")},
    # a transform's field jets, expression-level metric and target metric
    "field_jets": lambda w: w.table("legendre_field"),
    "transformed_g": lambda w: w.table("transformed_g", w.points[:5]),
    "target_g": lambda w: w.table("target_g", env=w.comp["target_env"]),
    "gbar": _transformed,
}


# The data a sample point's per-point rows share, each built from the
# point's other data on first use (see `_PointData`): the pencil weight d
# and the difference tensor's jets at a head point, which delta-identities,
# r-operator and product-from-pencil share.
_SHARED = {
    "weight": lambda d: pencil_weight(d.pa)[0],
    "delta": lambda d: delta_jets(d.pa),
    "pencil_product": lambda d: product_from_pencil_at(d.pa, d.delta[0], max(d.tol, 1e-9)),
}


class _Walk:
    """What one walk shares: spec, companion data, env, tol, its points and
    head (the points of the costlier pencil rows), and the batches built so
    far."""

    def __init__(self, spec: ManifoldSpec, comp: dict, points, tol: float):
        self.spec, self.comp, self.env, self.tol = spec, comp, spec.env(), tol
        self.expected = spec.expected
        self.points = np.asarray(points, dtype=complex)
        self.head = max(4, len(points) // 5)
        self.data = {}

    def companion(self, key):
        if key not in self.comp:
            raise MissingCompanionDataError(f"{self.spec.name} has no {key}")
        return self.comp[key]

    def batch(self, name):
        """The walk's batch `name` of `_BATCHED`, built on first use."""
        if name not in self.data:
            self.data[name] = _BATCHED[name](self)
        return self.data[name]

    def table(self, key, points=None, env=None) -> Jets:
        """The jets of the companion table `key` over `points` (default:
        the walk's) in `env` (default: the spec's), from one run."""
        return table_jets(self.companion(key), self.points if points is None else points,
                          self.env if env is None else env)


class _RowData:
    """A batched row's view of the walk: its batches, cut to the row's
    points, and in `errors` the first error at each of those points in the
    batches it has read, in the order it read them, to which the row adds
    its own.  As a point-by-point run would, reading a batch with an error
    at the first point raises it."""

    def __init__(self, walk: _Walk, count: int):
        self.walk, self.count, self.errors = walk, count, [None] * count

    def __getattr__(self, name):
        if name not in _BATCHED:
            return getattr(self.walk, name)
        value = self.walk.batch(name)
        if isinstance(value, PointBatch):
            if len(value.errors) > self.count:
                value = value.head(self.count)
            for k, err in enumerate(value.errors):
                if self.errors[k] is None:
                    self.errors[k] = err
            if self.errors[0] is not None:
                raise self.errors[0]
        return value


class _PointData:
    """Sample point k's data for the rows that run point by point: the
    walk's fields, point k's view of each batch, and the entries of
    `_SHARED`, each built once, when a row first asks for it."""

    def __init__(self, walk: _Walk, k: int, point):
        self.walk, self.k, self.point = walk, k, point

    def __getattr__(self, name):
        if name in _BATCHED:
            value = self.walk.batch(name)
            value = value.at(self.k) if isinstance(value, PointBatch) else \
                tuple(a[self.k] for a in value)
        elif name in _SHARED:
            value = _SHARED[name](self)
        else:
            return getattr(self.walk, name)
        setattr(self, name, value)
        return value


@dataclass(frozen=True)
class Check:
    """One row of the check table.  `at` maps the row's `_RowData` to its
    results at all its points at once: (residual, scale[, fitted
    constant]) as arrays over the point axis.  A row that is not `batched`
    runs point by point: its `at` maps a point's `_PointData` to the
    result there, a single-point Report, or a list of those.  An entry runs
    the check when its flags hold `flag` and its spec, companion or
    expected values hold all of `needs`; the check uses all points, the
    first `points`, or with "head" the first max(4, count // 5).  `fit`,
    `expected` (a key), `tol` (of the run's tol; default: the run's or its
    Reports') and `reduce` set its reduction."""
    name: str
    at: Callable
    flag: str | None = None
    needs: tuple = ()
    points: int | str | None = None
    fit: str | None = None
    expected: str | None = None
    tol: Callable | None = None
    reduce: Callable | None = None
    batched: bool = True

    def report(self, results: list, tol: float, expected: dict) -> Report:
        if self.tol is not None:
            tol = self.tol(tol)
        elif isinstance(results[0], Report):
            tol = results[0].tol
        per_point = [(r.residual, r.scale) if isinstance(r, Report) else r for r in results]
        if self.reduce is not None:
            return self.reduce(self.name, per_point, tol)
        return point_report(self.name, per_point, tol, fit=self.fit,
                            expected=expected.get(self.expected))


def _lame_system_at(b):
    beta_source = None
    if "ode_family" in b.comp:
        def beta_source(u):
            return beta_from_F(_closed_form_state(b.spec, b.comp, u), u)
    return lame_system_at(b.rd, b.expected.get("d"), beta_source, b.errors)


def _ode_integrals_at(d):
    vals = integrals(_closed_form_state(d.spec, d.comp, d.point))
    return worst((abs(vals["I1"] - d.expected["I1"]), abs(vals["I2"] - d.expected["I2"]))), 0.0


def _reconstructed_at(d):
    """The flat-structure checks of the structure rebuilt from the pencil.
    Its metric is the first one, so its natural connection is built on the
    point's pencil data for that metric (inverse and Christoffel jets)."""
    pa = d.pa
    recon = reconstructed_at(pa, *d.pencil_product[:2])
    lc = ConnectionAt(pa.n, pa.point, pa.gamma1, pa.dgamma1, "levi-civita")
    nat = natural_from_levi_civita(recon, lc, InverseJets(pa.eta_inv, pa.deta_inv))
    return [check_flatness(nat, d.tol), check_nabla_e(nat, recon, d.tol),
            check_compat_product(nat, recon, d.tol), check_nabla_from_g(nat, recon, d.tol)]


def _transform_exprs_at(b):
    """The transformed metric against the expression-level one."""
    gbar = b.gbar.val
    res = amax(gbar - b.transformed_g.val, 2) / (1 + amax(gbar, 2))
    return res, np.zeros_like(res)


def _match_at(b):
    """The transformed metric against the target's, up to one constant."""
    gbar, g = b.gbar.val, b.target_g.val
    res = amax(gbar - fit_scalar(gbar, g, rank=2)[..., None, None] * g, 2) / (1 + amax(g, 2))
    return res, np.zeros_like(res)


_KILLING = "riemannian-f-killing"
_BUNDLE = "flat-normal-bundle"

# every check, in report order
CHECKS = (
    Check("product-axioms", lambda b: product_axioms_at(b.st), _KILLING),
    Check("hertling-manin", lambda b: hertling_manin_at(b.st), _KILLING),
    Check("metric-invariance", lambda b: metric_invariance_at(b.st), _KILLING, ("g",)),
    Check("killing-unit", lambda b: killing_unit_at(b.st), _KILLING, ("g",)),
    Check("levi-civita-flat", lambda b: flatness_at(b.lc)),
    Check("natural-flat", lambda b: flatness_at(b.nat), needs=("g",)),
    Check("torsionless", lambda b: torsion_at(b.nat), _KILLING, tol=lambda tol: 1e-12),
    Check("flatness", lambda b: flatness_at(b.nat), _KILLING),
    Check("nabla-e", lambda b: nabla_e_at(b.nat, b.st), _KILLING),
    Check("product-compat", lambda b: compat_product_at(b.nat, b.st), _KILLING),
    Check("nabla-from-g", lambda b: nabla_from_g_at(b.nat, b.st, b.counit), _KILLING),
    Check("curvature-product", lambda b: curvature_product_at(b.lc, b.st, "both")[:2], _KILLING),
    Check("r-tr", lambda b: r_tr_identity_at(b.nat, b.lc, b.st), _KILLING),
    Check("nabla-nabla-E", lambda b: nabla_nabla_E_at(b.nat, b.st), _KILLING, ("E",)),
    Check("gamma-match", lambda b: _table_gap(b.nat, b.printed), "gamma-match", ("gamma",)),
    Check("homogeneity", lambda b: homogeneity_at(b.st, b.errors), "homogeneous", ("g", "E"),
          fit="D", expected="D"),
    Check("dual-structure", lambda b: (b.dual.residual, b.dual.scale), "biflat"),
    Check("gamma-star-match", lambda b: _table_gap(b.dual.gamma_star, b.printed_star), "biflat",
          ("gamma_star",)),
    Check("darboux-system", lambda b: darboux_at(b.rd), "darboux"),
    Check("reduction-identity", lambda b: reduction_identity_at(b.rd), "darboux"),
    Check("lame-system", _lame_system_at, "lame", fit="d"),
    Check("flatness-constraint", lambda b: flatness_constraint_at(b.rd), "ed4"),
    Check("algebraic-ED4bis", lambda b: algebraic_constraints_at(b.rd, "ED4bis"), "ed4bis"),
    Check("algebraic-ED5b", lambda b: algebraic_constraints_at(b.rd, "ED5b"), "ed5b"),
    Check("potentiality", lambda b: potentiality_at(b.rd), "potentiality"),
    Check("v-eigenvalues", lambda d: (_v_eigenvalue_gap(d.rd, d.expected["V_eigenvalues"]), 0.0),
          "darboux", ("V_eigenvalues",), points=5, batched=False),
    Check("ode-integrals", _ode_integrals_at, "ode-family", points=5, tol=lambda tol: 1e-10,
          batched=False),
    Check("quadratic-expansion",
          lambda b: quadratic_expansion_at(b.st, b.lc, b.comp["normal_bundle"].eps, b.fields.val,
                                           b.ginv.inv),
          _BUNDLE, tol=lambda tol: max(tol, 1e-9)),
    Check("sym-condition", lambda b: sym_condition_at(b.st, b.nat, b.fields.val, b.fields.grad),
          _BUNDLE),
    Check("gmc", lambda b: gmc_at(b.st, b.lc, b.comp["normal_bundle"].eps, b.fields.val,
                                  b.fields.grad, b.ginv.inv), _BUNDLE, reduce=gmc_report),
    Check("normal-rank", lambda d: (float(rank_of(d.fields.val) != d.expected["rank"]), 0.0),
          _BUNDLE, ("rank",), points=5, tol=lambda tol: 0.5, batched=False),
    Check("pencil-exactness", lambda b: exactness_at(b.pencil), "pencil", ("g2",)),
    Check("pencil-homogeneity", lambda b: pencil_homogeneity_at(b.pencil), "pencil", ("g2",),
          fit="d", expected="d_pencil"),
    Check("flat-pencil", lambda b: flat_pencil_at(b.pa, errors=b.errors), "pencil", ("g2",),
          points="head", reduce=flat_pencil_report),
    Check("delta-identities", lambda d: delta_tensor_at(d.pa, d.weight, d.delta, d.tol)[1],
          "pencil", points="head", batched=False),
    Check("r-operator", lambda d: r_operator_at(d.pa, d.weight, d.counit, max(d.tol, 1e-9))[1],
          "pencil", points="head", batched=False),
    Check("product-from-pencil", lambda d: d.pencil_product[2], "pencil", points="head",
          batched=False),
    Check("reconstructed-structure", _reconstructed_at, "pencil", points="head", batched=False),
    Check("flat-coordinates", lambda b: flat_coordinates_at(b.chart, b.conn, b.errors),
          "flat-chart"),
    Check("vector-potential", vector_potential_at, "potential", tol=lambda tol: max(tol, 1e-10)),
    # a transform's rows (`Transform`); "match" is reported as match-<target>
    Check("legendre-field", lambda b: legendre_field_at(b.st, b.nat, b.field_jets.val,
                                                        b.field_jets.grad, b.errors),
          reduce=legendre_field_report),
    Check("transform-exprs", _transform_exprs_at, points=5),
    Check("match", _match_at, tol=lambda tol: max(tol, 1e-7)),
    # the transform's theorems, which only their test-facing wrappers run
    Check("transform-metric", lambda d: transform_metric_at(d.st, d.nat, *d.field_jets),
          batched=False),
    Check("homogeneous-legendre", lambda d: homogeneous_legendre_at(d.st, d.nat, *d.field_jets),
          reduce=homogeneous_legendre_report, batched=False),
)
_BY_NAME = {check.name: check for check in CHECKS}

# the checks of a spec file, where its fields allow them
SPEC_CHECKS = ("product-axioms", "hertling-manin", "metric-invariance", "killing-unit",
               "natural-flat", "homogeneity", "pencil-exactness", "pencil-homogeneity",
               "flat-pencil")
# the checks `verify --check NAME` runs
SINGLE_CHECKS = ("product-axioms", "hertling-manin", "metric-invariance", "killing-unit",
                 "homogeneity", "levi-civita-flat", "natural-flat")
_CONNECTION_CHECKS = ("torsionless", "flatness", "nabla-e", "product-compat", "nabla-from-g",
                      "curvature-product", "r-tr", "nabla-nabla-E", "gamma-match")


def _chosen(spec: ManifoldSpec, comp: dict, keep) -> list:
    """The checks that `keep` picks and whose `needs` the spec and its
    companion data meet, in table order."""
    return [c for c in CHECKS if keep(c) and all(
        getattr(spec, key, None) is not None or key in comp or key in spec.expected
        for key in c.needs)]


def _walk(spec: ManifoldSpec, comp: dict, checks, points, tol: float) -> list:
    """Walk `points` once and reduce each of `checks` over the points it
    uses, a prefix of them.  Every datum the rows read is built once, as a
    batch over the points its rows use (`_BATCHED`), and each expression
    table runs once.  A batched row computes its results at all its points
    at the first point; the other rows run point by point, sharing one
    `_PointData` per point.  At each point, in table order, a row raises
    the first error at that point of the data it read, so the first point
    with an error, and there the first row, names it."""
    walk = _Walk(spec, comp, points, tol)
    limits = [min(len(points), {None: len(points), "head": walk.head}.get(c.points, c.points))
              for c in checks]
    results = [[] for _ in checks]
    errors = {}  # the per-point errors of each batched row
    for k, p in enumerate(points):
        d = _PointData(walk, k, p)
        try:
            for i, (check, limit, out) in enumerate(zip(checks, limits, results)):
                if k >= limit:
                    continue
                if not check.batched:
                    result = check.at(d)
                    out.extend(result) if isinstance(result, list) else out.append(result)
                    continue
                if k == 0:
                    rows = _RowData(walk, limit)
                    out.extend(per_point(check.at(rows)))
                    errors[i] = rows.errors
                if errors[i][k] is not None:
                    raise errors[i][k]
        except _SINGULAR as err:
            coords = ", ".join(str(x) for x in np.asarray(p).tolist())
            raise SingularSampleError(f"sample {k} at ({coords}) is singular: "
                                      f"{type(err).__name__}: {err}") from err
    return [check.report(out, tol, spec.expected) for check, out in zip(checks, results)]


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
        field's rows over all points, the expression-level metric against
        the pointwise one over the first five and, with a target, the match
        over all."""
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


def run_checks(spec: ManifoldSpec, comp: dict, names, points, tol: float = DEFAULT_TOL,
               params=None) -> list:
    """The reports of the checks `names`, in that order, from one walk over
    `points` with the companion data `comp` and the spec's parameters
    overridden by `params`."""
    if params:
        spec = replace(spec, params=spec.env(params))
    return _walk(spec, comp, [_BY_NAME[name] for name in names], points, tol)


def run_suite(source, seed: int = 0, count: int = 20, tol: float = DEFAULT_TOL,
              check: str | None = None) -> SuiteResult:
    """Sample `count` points at `seed` and walk them once (`_walk`) with the
    checks of `source`: a catalog entry's, picked by its flags, a bare
    spec's (`SPEC_CHECKS`), picked by the fields it has, or a `Transform`'s;
    with `check`, only that one of `SINGLE_CHECKS`."""
    spec = source if isinstance(source, ManifoldSpec) else source.spec
    points = sample_points(spec, SamplePlan(seed=seed, count=count))
    if isinstance(source, Transform):
        comp, checks, new = source.rows()
        return SuiteResult(spec.name, _walk(spec, comp, checks, points, tol), frozenset(),
                           transformed=new)
    ent = source if isinstance(source, CatalogEntry) else None
    comp = {} if ent is None else ent.companion
    if check is not None:
        if check not in SINGLE_CHECKS:
            raise KeyError(check)
        checks = [_BY_NAME[check]]
    elif ent is None:
        checks = _chosen(spec, comp, lambda c: c.name in SPEC_CHECKS)
    else:
        checks = _chosen(spec, comp, lambda c: c.flag in ent.flags)
    expected_failures = ent.expected_failures if ent is not None and check is None else frozenset()
    return SuiteResult(name=spec.name, reports=_walk(spec, comp, checks, points, tol),
                       expected_failures=expected_failures)
