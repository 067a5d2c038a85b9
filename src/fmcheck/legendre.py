"""Legendre-type transformations: rebuilding the connection and the metric
through multiplication by an invertible connection-flat field.

The transform hypothesis (the field is flat for the structure connection)
is enforced before any metric is transformed; silently transforming with a
non-flat field would produce meaningless reports.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import exprjet as ej
from .connection import (ConnectionAt, check_compat_product, checked_inverse,
                         natural_connection, riemann_components)
from .hamops import sym_condition_at
from .manifold import (ManifoldSpec, Report, StructureAt, fit_scalar,
                       lie_metric, normalized, point_report, product_jets, required, structure_at,
                       structures, worst)
from .rotation import rk4_path, rk4_stage_times
from .tensor import SingularMatrixError, lie_from_components

__all__ = [
    "NotInvertibleError", "HypothesisViolatedError",
    "check_legendre_field", "transform_connection", "transform_connection_report",
    "transform_metric", "transform_metric_report",
    "transformed_structure", "flat_field_ode", "check_homogeneous_legendre",
    "transform_metric_exprs",
]

DEFAULT_TOL = 1e-8


class NotInvertibleError(Exception):
    def __init__(self, det: complex):
        super().__init__(f"field is not product-invertible (|det| = {abs(det):.3e})")
        self.det = det


class HypothesisViolatedError(Exception):
    pass


def _mult_operator(st: StructureAt, x, dx, ddx=None):
    """W^l_k = c^l_ks x^s with derivatives; the operator of multiplication
    by the field."""
    w = np.einsum("lks,s->lk", st.c, x)
    dw = np.einsum("lksj,s->lkj", st.dc, x) + np.einsum("lks,sj->lkj", st.c, dx)
    if ddx is None:
        return w, dw, None
    if st.ddc is None:
        raise ValueError("second-order product jets unavailable for this structure")
    ddw = (np.einsum("lksjm,s->lkjm", st.ddc, x)
           + np.einsum("lksj,sm->lkjm", st.dc, dx)
           + np.einsum("lksm,sj->lkjm", st.dc, dx)
           + np.einsum("lks,sjm->lkjm", st.c, ddx))
    return w, dw, ddw


def _inverse_operator(w: np.ndarray):
    try:
        return checked_inverse(w)
    except SingularMatrixError as err:
        raise NotInvertibleError(err.det) from None


def legendre_field_at(st: StructureAt, nat: ConnectionAt, x, dx):
    """Symmetry of the product-twisted covariant derivative of the field at
    a point, plus product invertibility, with the structure connection.
    Returns (residual, scale, |det| of the multiplication operator)."""
    res, sc = sym_condition_at(st, nat, [x], [dx])
    w, _, _ = _mult_operator(st, x, dx)
    _inverse_operator(w)
    return res, sc, abs(np.linalg.det(w))


def legendre_field_report(per_point, tol: float) -> Report:
    return point_report("legendre-field", per_point, tol,
                        details={"min_abs_det": float(min(d for _, _, d in per_point))})


def field_points(spec, field_exprs, points, params=None):
    """Structure, natural connection and field jets, point by point.  The
    structure and its natural connection are built once over all the
    points, and the field table runs once over them after the first
    point's structure and connection; a point where one is singular raises
    when it is reached."""
    st = structures(spec, points, params)
    nat = natural_connection(st)
    fields = None
    for k in range(len(points)):
        data = (st.at(k), nat.at(k))
        if fields is None:
            fields = ej.eval_points(field_exprs, points, spec.env(params))
        yield data + fields.at(k)


def check_legendre_field(spec: ManifoldSpec, field_exprs, points,
                         tol: float = DEFAULT_TOL, params=None) -> Report:
    """Symmetry of the product-twisted covariant derivative of the field,
    plus product invertibility, with the structure connection."""
    return legendre_field_report([legendre_field_at(st, nat, x, dx) for st, nat, x, dx, _
                                  in field_points(spec, field_exprs, points, params)], tol)


def transform_connection(conn: ConnectionAt, st: StructureAt, x, dx, ddx) -> ConnectionAt:
    """Conjugated connection: the derivative is taken after multiplying by
    the field and the inverse field is multiplied back afterwards."""
    w, dw, ddw = _mult_operator(st, x, dx, ddx)
    k = _inverse_operator(w)
    dk = -np.einsum("ia,abm,bl->ilm", k, dw, k)
    inner = np.einsum("lkj->ljk", dw) + np.einsum("ljm,mk->ljk", conn.gamma, w)
    gamma = np.einsum("il,ljk->ijk", k, inner)
    dinner = (np.einsum("lkjm->ljkm", ddw)
              + np.einsum("ljam,ak->ljkm", conn.dgamma, w)
              + np.einsum("lja,akm->ljkm", conn.gamma, dw))
    dgamma = np.einsum("ilm,ljk->ijkm", dk, inner) + np.einsum("il,ljkm->ijkm", k, dinner)
    return ConnectionAt(st.n, st.point, gamma, dgamma, provenance="legendre-transformed")


def transform_connection_report(conn: ConnectionAt, st: StructureAt, x, dx, ddx,
                                tol: float = DEFAULT_TOL):
    """Transformed connection plus residuals: torsion, product
    compatibility, and the curvature conjugation identity."""
    new = transform_connection(conn, st, x, dx, ddx)
    w, _, _ = _mult_operator(st, x, dx)
    k = _inverse_operator(w)
    tors = np.max(np.abs(new.gamma - np.swapaxes(new.gamma, 1, 2)))
    compat = check_compat_product(new, st, tol)
    r_new = riemann_components(new.gamma, new.dgamma)
    r_old = riemann_components(conn.gamma, conn.dgamma)
    conj = np.einsum("ha,abkj,bi->hikj", k, r_old, w)
    sc = max(float(np.max(np.abs(new.gamma))), 1.0)
    res = worst((normalized(tors, sc), compat.residual,
                 normalized(np.max(np.abs(r_new - conj)), max(float(np.max(np.abs(r_old))), 1.0))))
    return new, Report.from_residual("transform-connection", res, tol, scale=sc, npoints=1)


def transform_metric(st: StructureAt, conn: ConnectionAt, x, dx, ddx,
                     tol: float = DEFAULT_TOL, hypothesis_tol: float = 1e-8):
    """Transformed metric gbar(Y,Z) = g(X o Y, X o Z) with full jets, after
    enforcing flatness of the field for `conn`."""
    nab = dx + np.einsum("lks,s->lk", conn.gamma, x)
    hyp = normalized(np.max(np.abs(nab)), float(np.max(np.abs(x))))
    if hyp > hypothesis_tol:
        raise HypothesisViolatedError(f"field is not connection-flat (residual {hyp:.3e})")
    w, dw, ddw = _mult_operator(st, x, dx, ddx)
    gbar = np.einsum("ki,lj,kl->ij", w, w, st.g)
    dgbar = (np.einsum("kim,lj,kl->ijm", dw, w, st.g)
             + np.einsum("ki,ljm,kl->ijm", w, dw, st.g)
             + np.einsum("ki,lj,klm->ijm", w, w, st.dg))
    ddgbar = (np.einsum("kimp,lj,kl->ijmp", ddw, w, st.g)
              + np.einsum("kim,ljp,kl->ijmp", dw, dw, st.g)
              + np.einsum("kim,lj,klp->ijmp", dw, w, st.dg)
              + np.einsum("kip,ljm,kl->ijmp", dw, dw, st.g)
              + np.einsum("ki,ljmp,kl->ijmp", w, ddw, st.g)
              + np.einsum("ki,ljm,klp->ijmp", w, dw, st.dg)
              + np.einsum("kip,lj,klm->ijmp", dw, w, st.dg)
              + np.einsum("ki,ljp,klm->ijmp", w, dw, st.dg)
              + np.einsum("ki,lj,klmp->ijmp", w, w, st.ddg))
    return gbar, dgbar, ddgbar


def transformed_structure(spec: ManifoldSpec, field_exprs, point, params=None) -> StructureAt:
    """StructureAt with the metric replaced by its Legendre transform."""
    st = structure_at(spec, point, params)
    x, dx, ddx = ej.eval_table(field_exprs, st.point, spec.env(params))
    return transformed_at(st, natural_connection(st), x, dx, ddx)


def transformed_at(st: StructureAt, nat: ConnectionAt, x, dx, ddx) -> StructureAt:
    gbar, dgbar, ddgbar = transform_metric(st, nat, x, dx, ddx)
    return StructureAt(n=st.n, point=st.point, c=st.c, dc=st.dc, ddc=st.ddc,
                       e=st.e, de=st.de, dde=st.dde,
                       E=st.E, dE=st.dE, ddE=st.ddE,
                       g=gbar, dg=dgbar, ddg=ddgbar)


def transform_metric_at(st: StructureAt, nat: ConnectionAt, x, dx, ddx):
    """Theorem-level consequences of the metric transform at a point:
    invariance, unit-Killing property, and agreement of the new structure
    connection with the conjugated connection."""
    st_bar = transformed_at(st, nat, x, dx, ddx)
    inv = (np.einsum("iq,qlp->ilp", st_bar.g, st.c)
           - np.einsum("lq,qip->ilp", st_bar.g, st.c))
    killing = lie_metric(st_bar, st.e, st.de)
    nat_bar = natural_connection(st_bar)
    conj = transform_connection(nat, st, x, dx, ddx)
    sc = max(float(np.max(np.abs(st_bar.g))), 1.0)
    raw = worst((normalized(np.max(np.abs(inv)), sc),
                 normalized(np.max(np.abs(killing)), sc),
                 normalized(np.max(np.abs(nat_bar.gamma - conj.gamma)),
                            float(np.max(np.abs(conj.gamma))) + 1.0)))
    return raw, sc


def transform_metric_report(spec: ManifoldSpec, field_exprs, points,
                            tol: float = DEFAULT_TOL, params=None) -> Report:
    return point_report("transform-metric",
                        [transform_metric_at(*data)
                         for data in field_points(spec, field_exprs, points, params)], tol)


def flat_field_ode(gamma_provider: Callable, x0, path, steps_per_segment: int = 200,
                   endpoint_check: bool = True) -> dict:
    """Integrate the parallel-field system d_j X^i = -Gamma^i_js X^s along a
    polygonal path, with `gamma_provider` mapping an array of points (P, n)
    to the Christoffel values there (`connection.christoffel_provider`);
    for a closed path the return-to-start residual probes
    integrability (flatness) of the connection.  The endpoint gradient is
    re-derived by short two-sided integrations and compared with the
    parallel-transport equation."""

    def transport(xv, a, b, steps):
        # Gamma at every stage point of the segment, from one run
        a, b = np.asarray(a, complex), np.asarray(b, complex)
        dv = b - a
        times = np.array(list(rk4_stage_times(0.0, 1.0, steps)))
        gammas = iter(gamma_provider(a + times[:, None] * dv))
        return rk4_path(lambda t, xv: -np.einsum("ijs,j,s->i", next(gammas), dv, xv),
                        xv, 0.0, 1.0, steps)

    x = np.asarray(x0, dtype=complex)
    for a, b in zip(path[:-1], path[1:]):
        x = transport(x, a, b, steps_per_segment)
    start, end = np.asarray(path[0], complex), np.asarray(path[-1], complex)
    closed = np.allclose(start, end)
    closure = float(np.max(np.abs(x - np.asarray(x0, complex)))) / (1 + float(np.max(np.abs(x0)))) \
        if closed else float("nan")
    out = {"X_end": x, "closure": closure, "closed": closed}
    if endpoint_check:
        n = len(x)
        h = 1e-4
        dx = np.zeros((n, n), dtype=complex)
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            plus = transport(x, end, end + step, 8)
            minus = transport(x, end, end - step, 8)
            dx[:, j] = (plus - minus) / (2 * h)
        want = -np.einsum("ijs,s->ij", gamma_provider(end[None])[0], x)
        out["endpoint_gradient_residual"] = float(np.max(np.abs(dx - want))) / \
            (1 + float(np.max(np.abs(want))))
    return out


def homogeneous_legendre_at(st: StructureAt, nat: ConnectionAt, x, dx, ddx):
    """Returns (residual, scale, field weight, D, transformed D) at a point."""
    lie_x = np.einsum("k,ik->i", st.E, dx) - np.einsum("k,ki->i", x, st.dE)
    dbar = fit_scalar(lie_x, x)
    res_x = np.max(np.abs(lie_x - dbar * x))
    st_bar = transformed_at(st, nat, x, dx, ddx)
    lg = lie_from_components(st.g, st.dg, ("d", "d"), st.E, st.dE)
    lgbar = lie_from_components(st_bar.g, st_bar.dg, ("d", "d"), st.E, st.dE)
    D = fit_scalar(lg, st.g)
    Dbar = fit_scalar(lgbar, st_bar.g)
    sc = max(float(np.max(np.abs(x))), 1.0)
    raw = worst((normalized(res_x, sc),
                 normalized(abs(Dbar - (D + 2 * dbar + 2)), abs(Dbar) + 1.0)))
    return raw, sc, dbar, D, Dbar


def check_homogeneous_legendre(spec: ManifoldSpec, field_exprs, points,
                               tol: float = DEFAULT_TOL, params=None) -> Report:
    """Fit the Euler weight of the field and check that the transformed
    metric's homogeneity exponent shifts by twice the weight plus two."""
    per_point = [homogeneous_legendre_at(*data)
                 for data in field_points(spec, field_exprs, points, params)]
    Ds, Dbars = [D for *_, D, _ in per_point], [Dbar for *_, Dbar in per_point]
    D_m = sum(Ds) / len(Ds)
    Db_m = sum(Dbars) / len(Dbars)
    return point_report("homogeneous-legendre", per_point, tol, fit="dbar",
                        details={"D_fit": [D_m.real, D_m.imag], "Dbar_fit": [Db_m.real, Db_m.imag]})


def transform_metric_exprs(spec: ManifoldSpec, field_exprs, name: str | None = None) -> ManifoldSpec:
    """Expression-level metric transform: composes the transformed metric
    as an AST so the result is an ordinary spec (constant structure
    constants only, which covers the canonical and shifted products)."""
    if not isinstance(spec.product, str):
        raise ValueError("expression-level transform needs a constant product table")
    n = spec.n
    c, _, _ = product_jets(spec.product, n, (), {})
    xs = [ej.parse(src) for src in field_exprs]
    gs = [[ej.parse(src) for src in row] for row in required(spec.g, "metric")]
    gbar = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                for s in range(n):
                    if c[k, i, s] == 0:
                        continue
                    for l in range(n):
                        for t in range(n):
                            if c[l, j, t] == 0:
                                continue
                            term = xs[s] * xs[t] * gs[k][l]
                            acc = term if acc is None else acc + term
            gbar[i][j] = ej.to_source(acc) if acc is not None else "0"
    return ManifoldSpec(
        name=name or f"{spec.name}-legendre", n=n, coords=spec.coords,
        product=spec.product, e=spec.e, E=spec.E,
        g=tuple(tuple(r) for r in gbar), g2=None,
        params=dict(spec.params), region=spec.region, expected={})
