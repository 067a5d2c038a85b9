"""Built-in chart specs for the explicit structure families the engine
verifies, with companion data (closed-form connections, Lame coefficients,
flat charts, vector potentials, transform fields, normal-bundle fields)
and the suite runner that exercises every check implied by an entry's flags.

Free constants default to 1 (0 for the arbitrary-function slots, which are
degree-two polynomial coefficients) except where a family forces a value.
Square roots of sign-indefinite parameter combinations make several entries
complex-valued for real defaults; everything is evaluated on principal
branches, which is the convention recorded in reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import exprjet as ej
from .connection import (ConnectionAt, check_compat_product, check_curvature_product_condition,
                         check_flatness, check_nabla_e, check_nabla_from_g,
                         check_nabla_nabla_E, check_torsionless, connection_from_exprs,
                         dual_structure, levi_civita, natural_connection,
                         natural_from_levi_civita, r_tr_identity_at)
from .hamops import (NormalBundleData, fields_from_exprs, fields_from_gradients, gmc_at,
                     gmc_report, quadratic_expansion_at, rank_of, sym_condition_at)
from .manifold import (ManifoldSpec, Region, Report, SamplePlan, StructureAt,
                       hertling_manin_at, homogeneity_at,
                       killing_unit_at, metric_invariance_at, normalized, point_report,
                       product_axioms_at, sample_points, structure_at, structures, worst)
from .ode3d import beta_from_F, closed_form_pencil, closed_form_q0, integrals, z_of_point
from .pencil import (delta_tensor_at, exactness_at, flat_pencil_at, flat_pencil_report,
                     pencil_from_structure, pencil_homogeneity_at, product_from_pencil_at,
                     r_operator_at, reconstructed_at)
from .rotation import (RotationData, algebraic_constraints_at, darboux_at,
                       flatness_constraint_at, lame_system_at, potentiality_at,
                       reduction_identity_at, rotation_data_along, v_matrix)
from .tensor import cluster_values

__all__ = ["CatalogEntry", "UnknownEntryError", "entry", "names", "run_suite",
           "verify_flat_coordinates", "verify_vector_potential", "SuiteResult",
           "connection_suite", "MissingCompanionDataError", "JacobianSingularError"]

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
        "normal_bundle": {"kind": "fields", "fields": [("1", "1")], "eps": [-1]},
    }
    flags = frozenset({"riemannian-f-killing", "semisimple", "flat-normal-bundle",
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
        "normal_bundle": {"kind": "gradients", "scalars": scalars, "eps": [-1] * n},
    }
    flags = frozenset({"riemannian-f-killing", "homogeneous", "semisimple", "biflat",
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
    flags = {"riemannian-f-killing", "homogeneous", "semisimple", "darboux", "lame",
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
        flags |= {"gamma-match", "legendre-fields"}
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
    flags = frozenset({"riemannian-f-killing", "homogeneous", "semisimple", "darboux",
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


def flat_coordinates_at(chart, conn: ConnectionAt, point):
    """Push `conn` to the companion chart, given by its jets `chart`, and
    require the transformed Christoffel symbols to vanish."""
    _, jac, hess = chart
    det = complex(np.linalg.det(jac))
    if abs(det) <= 1e-12 * (1 + float(np.max(np.abs(jac)))) ** len(point):
        raise JacobianSingularError(f"chart jacobian singular at {point}")
    jinv = np.linalg.inv(jac)
    pushed = (np.einsum("ai,ijk,jb,kc->abc", jac, conn.gamma, jinv, jinv)
              - np.einsum("ajk,jb,kc->abc", hess, jinv, jinv))
    sc = max(float(np.max(np.abs(conn.gamma))), float(np.max(np.abs(hess))), 1.0)
    return normalized(np.max(np.abs(pushed)), sc), sc


def vector_potential_at(comp: dict, st: StructureAt, chart, env):
    """In the flat chart, the pushed product must be the chart Hessian of
    the potential components, and the pushed unit/Euler fields must match
    their printed components."""
    tvals, jac, _ = chart
    jinv = np.linalg.inv(jac)
    pushed_c = np.einsum("ai,ijk,jb,kc->abc", jac, st.c, jinv, jinv)
    _, _, potential_hess = ej.eval_table(comp["potentials"], tvals, env)
    terms = [float(np.max(np.abs(pushed_c - potential_hess)))]
    e_flat = ej.eval_table(comp["flat_e"], tvals, env)[0]
    terms.append(float(np.max(np.abs(jac @ st.e - e_flat))))
    if "flat_E" in comp and st.E is not None:
        E_flat = ej.eval_table(comp["flat_E"], tvals, env)[0]
        terms.append(float(np.max(np.abs(jac @ st.E - E_flat))))
    sc = max(float(np.max(np.abs(pushed_c))), 1.0)
    return normalized(worst(terms), sc), sc


def _require(ent: CatalogEntry, *keys):
    for key in keys:
        if key not in ent.companion:
            raise MissingCompanionDataError(f"{ent.spec.name} has no {key}")


def verify_flat_coordinates(ent: CatalogEntry, points, tol: float = DEFAULT_TOL,
                            params=None) -> Report:
    """Push the structure connection to the companion chart and require the
    transformed Christoffel symbols to vanish."""
    _require(ent, "flat_chart")
    env = ent.spec.env(params)

    def at(p):
        if "gamma" in ent.companion:
            conn = connection_from_exprs(ent.companion["gamma"], p, env)
        else:
            conn = natural_connection(structure_at(ent.spec, p, params))
        return flat_coordinates_at(ej.eval_table(ent.companion["flat_chart"], p, env), conn, p)

    return point_report("flat-coordinates", map(at, points), tol)


def verify_vector_potential(ent: CatalogEntry, points, tol: float = 1e-10,
                            params=None) -> Report:
    _require(ent, "flat_chart", "potentials")
    env = ent.spec.env(params)
    charts = (ej.eval_table(ent.companion["flat_chart"], p, env) for p in points)
    return point_report("vector-potential",
                        [vector_potential_at(ent.companion, st, chart, env)
                         for st, chart in zip(structures(ent.spec, points, params), charts)], tol)


# ---------------------------------------------------------------------------
# suite runner


def _connection_at(st: StructureAt, nat: ConnectionAt, lc: ConnectionAt,
                   printed: ConnectionAt | None, tol: float):
    """(report name, per-point result) of the flat-structure checks for a
    metric entry: structure connection {torsionless, flat, unit-parallel,
    product-compatible, defining residual}, the curvature product condition
    for the metric connection, the cyclic-sum agreement of the two
    connections, and agreement with a closed-form connection table when
    one is supplied."""
    out = [("torsionless", check_torsionless(nat)),
           ("flatness", check_flatness(nat, tol)),
           ("nabla-e", check_nabla_e(nat, st, tol)),
           ("product-compat", check_compat_product(nat, st, tol)),
           ("nabla-from-g", check_nabla_from_g(nat, st, tol)),
           ("curvature-product", check_curvature_product_condition(lc, st, "both", tol)),
           ("r-tr", r_tr_identity_at(nat, lc, st, tol))]
    if st.E is not None:
        out.append(("nabla-nabla-E", check_nabla_nabla_E(nat, st, tol)))
    if printed is not None:
        out.append(("gamma-match",
                    Report.from_residual("gamma-match", _table_gap(nat, printed), tol)))
    return out


def _table_gap(conn: ConnectionAt, printed: ConnectionAt) -> float:
    return normalized(float(np.max(np.abs(conn.gamma - printed.gamma))),
                      float(np.max(np.abs(printed.gamma))))


def _put(per: dict, name: str, result, **options):
    """Record a check's result at one point in `per`: report name -> (keyword
    options of the check's reduction, per-point results), in report order.
    The options go to `point_report`, or to the function given as `reduce`.
    A single-point Report is recorded as its (residual, scale) and passes
    its tolerance on to the reduction."""
    if isinstance(result, Report):
        options.setdefault("tol", result.tol)
        result = (result.residual, result.scale)
    per.setdefault(name, (options, []))[1].append(result)


def _reports(per: dict, tol: float) -> list:
    """One report per check of `per` (see `_put`), by default against `tol`."""
    reports = []
    for name, (options, results) in per.items():
        reduce = options.pop("reduce", point_report)
        reports.append(reduce(name, results, **{"tol": tol, **options}))
    return reports


def connection_suite(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL,
                     params=None, gamma_exprs=None) -> list:
    """The flat-structure checks for a metric entry (see `_connection_at`)."""
    per = {}
    env = spec.env(params)
    for st in structures(spec, points, params):
        printed = None if gamma_exprs is None else connection_from_exprs(gamma_exprs, st.point, env)
        lc = levi_civita(st)
        nat = natural_from_levi_civita(st, lc)
        for name, result in _connection_at(st, nat, lc, printed, tol):
            _put(per, name, result)
    return _reports(per, tol)


@dataclass
class SuiteResult:
    name: str
    reports: list
    expected_failures: frozenset

    @property
    def ok(self) -> bool:
        return all(r.passed == (r.name not in self.expected_failures) for r in self.reports)

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "expected_failures": sorted(self.expected_failures),
                "reports": [r.to_dict() for r in self.reports]}


def _closed_form_state(ent: CatalogEntry, u):
    """The closed-form solution of the entry's ODE family at the point u."""
    z = z_of_point(u)
    if ent.companion["ode_family"] == "q0":
        return closed_form_q0(z, ent.spec.params.get("a", 1.0), ent.spec.params.get("b", 1.0))
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


def _normal_bundle(ent: CatalogEntry) -> NormalBundleData:
    conf = ent.companion["normal_bundle"]
    if conf["kind"] == "gradients":
        return fields_from_gradients(conf["scalars"], conf["eps"], ent.spec.params)
    return fields_from_exprs(conf["fields"], conf["eps"], ent.spec.params)


_CONNECTION_FLAGS = frozenset({"riemannian-f-killing", "biflat", "flat-normal-bundle",
                               "flat-chart"})
_ROTATION_FLAGS = frozenset({"darboux", "lame", "ed4", "ed4bis", "ed5b", "potentiality"})


def run_suite(ent: CatalogEntry, seed: int = 0, count: int = 20,
              tol: float = DEFAULT_TOL) -> SuiteResult:
    """Execute every check implied by the entry's flags.

    The sample points are walked once.  At each point the structure, the
    natural and Levi-Civita connections, the closed-form connection, the
    rotation and pencil data and the companion jets are built once, where
    the flags need them, and every check takes its residual at that point
    from them.  Each check's residuals are reduced after the walk."""
    spec, flags, comp = ent.spec, ent.flags, ent.companion
    env = spec.env()
    expected = spec.expected
    points = sample_points(spec, SamplePlan(seed=seed, count=count))
    head = max(4, count // 5)  # points of the costlier pencil checks
    killing = "riemannian-f-killing" in flags
    lame = comp.get("lame")
    nb = _normal_bundle(ent) if "flat-normal-bundle" in flags else None
    beta_src = None
    if "ode-family" in flags:
        def beta_src(u):
            return beta_from_F(_closed_form_state(ent, u), u)
    rotations = None
    if flags & _ROTATION_FLAGS or "V_eigenvalues" in expected:
        rotations = rotation_data_along(spec, points, lame_exprs=lame)
    per = {}
    put = functools.partial(_put, per)
    for k, p in enumerate(points):
        st = structure_at(spec, p)
        nat = lc = None
        if st.g is not None and flags & _CONNECTION_FLAGS:
            lc = levi_civita(st)
            nat = natural_from_levi_civita(st, lc)
        printed = connection_from_exprs(comp["gamma"], p, env) if "gamma" in comp else None
        if killing:
            put("product-axioms", product_axioms_at(st))
            put("hertling-manin", hertling_manin_at(st))
            put("metric-invariance", metric_invariance_at(st))
            put("killing-unit", killing_unit_at(st))
            match = printed if "gamma-match" in flags else None
            for name, result in _connection_at(st, nat, lc, match, tol):
                put(name, result)
        if "homogeneous" in flags:
            put("homogeneity", homogeneity_at(st), fit="D", expected=expected.get("D"))
        if "biflat" in flags:
            dual = dual_structure(st, nat, tol)
            put("dual-structure", dual.report)
            if "gamma_star" in comp:
                put("gamma-star-match", (_table_gap(
                    dual.gamma_star, connection_from_exprs(comp["gamma_star"], p, env)), 0.0))
        rd = None if rotations is None else next(rotations)
        if "darboux" in flags:
            put("darboux-system", darboux_at(rd))
            put("reduction-identity", reduction_identity_at(rd))
        if "lame" in flags:
            put("lame-system", lame_system_at(rd, expected.get("d"), beta_src), fit="d")
        if "ed4" in flags:
            put("flatness-constraint", flatness_constraint_at(rd))
        if "ed4bis" in flags:
            put("algebraic-ED4bis", algebraic_constraints_at(rd, "ED4bis"))
        if "ed5b" in flags:
            put("algebraic-ED5b", algebraic_constraints_at(rd, "ED5b"))
        if "potentiality" in flags:
            put("potentiality", potentiality_at(rd))
        if "V_eigenvalues" in expected and k < 5:
            put("v-eigenvalues", (_v_eigenvalue_gap(rd, expected["V_eigenvalues"]), 0.0))
        if "ode-family" in flags and k < 5:
            vals = integrals(_closed_form_state(ent, p))
            put("ode-integrals", (worst((abs(vals["I1"] - expected["I1"]),
                                         abs(vals["I2"] - expected["I2"]))), 0.0), tol=1e-10)
        if nb is not None:
            xs, dxs = nb.at(st.point, st.n)
            put("quadratic-expansion", quadratic_expansion_at(st, lc, nb.eps, xs),
                tol=max(tol, 1e-9))
            put("sym-condition", sym_condition_at(st, nat, xs, dxs))
            put("gmc", gmc_at(st, lc, nb.eps, xs, dxs), reduce=gmc_report)
            if "rank" in expected and k < 5:
                put("normal-rank", (float(rank_of(xs) != expected["rank"]), 0.0), tol=0.5)
        if "pencil" in flags:
            pa = pencil_from_structure(st)
            put("pencil-exactness", exactness_at(pa))
            put("pencil-homogeneity", pencil_homogeneity_at(pa), fit="d",
                expected=expected.get("d_pencil"))
            if k < head:
                put("flat-pencil", flat_pencil_at(pa), reduce=flat_pencil_report)
                put("delta-identities", delta_tensor_at(pa, tol)[1])
                put("r-operator", r_operator_at(pa, max(tol, 1e-9))[1])
                c, dc, report = product_from_pencil_at(pa, max(tol, 1e-9))
                put("product-from-pencil", report)
                recon = reconstructed_at(pa, c, dc)
                recon_nat = natural_connection(recon)
                for report in (check_flatness(recon_nat, tol), check_nabla_e(recon_nat, recon, tol),
                               check_compat_product(recon_nat, recon, tol),
                               check_nabla_from_g(recon_nat, recon, tol)):
                    put("reconstructed-structure", report)
        if "flat-chart" in flags or "potential" in flags:
            _require(ent, "flat_chart")
            chart = ej.eval_table(comp["flat_chart"], p, env)
        if "flat-chart" in flags:
            conn = nat if printed is None else printed
            put("flat-coordinates", flat_coordinates_at(chart, conn, p))
        if "potential" in flags:
            _require(ent, "potentials")
            put("vector-potential", vector_potential_at(comp, st, chart, env), tol=max(tol, 1e-10))
    return SuiteResult(name=spec.name, reports=_reports(per, tol),
                       expected_failures=ent.expected_failures)
