"""Flat pencils of metrics: exactness, homogeneity, the difference tensor of
the two Levi-Civita connections, the recursion operator built from it, and
the reconstruction of a product structure from the pencil data.

Spec slot convention: `spec.g` holds the covariant first metric (the one the
unit field preserves) and `spec.g2` the covariant second metric.  The pencil
itself lives on the contravariant side; contravariant jets are produced from
the covariant expression tables by matrix-inverse jets, never by inverting
expressions symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import exprjet as ej
from .connection import (InverseJets, christoffel_jets, counit_jets, inverse_hessian,
                         inverse_jets, metric_inverse, riemann_components)
from .manifold import (ManifoldSpec, PointBatch, Region, Report, StructureAt, amax,
                       batch_report, fail_at, fit_scalar, normalized, per_point, pmax, point_report,
                       raise_first, structure_at, structures, worst, worst_parts)
from .tensor import SingularMatrixError, lie_from_components

__all__ = [
    "PencilAt", "MissingSecondMetricError", "pencil_at", "pencil_from_structure",
    "pencil_first_order", "pencil_second_order", "pencil_weight", "delta_jets",
    "check_flat_pencil", "check_exactness", "check_pencil_homogeneity",
    "delta_tensor", "r_operator", "product_from_pencil",
    "reconstructed_structure", "semisimple_pencil_from_f",
]

DEFAULT_TOL = 1e-8
DEFAULT_LAMBDAS = (0.0, 1.0, -1.0, 2.0, 1j)


class MissingSecondMetricError(Exception):
    pass


def _mat_mat_jets(a, da, b, db):
    m = a @ b
    dm = np.einsum("...ilk,...lj->...ijk", da, b) + np.einsum("...il,...ljk->...ijk", a, db)
    return m, dm


def _mat_mat_hessian(a, da, dda, b, db, ddb):
    return (np.einsum("...ilkm,...lj->...ijkm", dda, b)
            + np.einsum("...ilk,...ljm->...ijkm", da, db)
            + np.einsum("...ilm,...ljk->...ijkm", da, db)
            + np.einsum("...il,...ljkm->...ijkm", a, ddb))


def _mat_vec_jets(a, da, v, dv):
    w = np.einsum("...ij,...j->...i", a, v)
    dw = np.einsum("...ijk,...j->...ik", da, v) + np.einsum("...ij,...jk->...ik", a, dv)
    return w, dw


def _mat_vec_hessian(a, da, dda, v, dv, ddv):
    return (np.einsum("...ijkm,...j->...ikm", dda, v)
            + np.einsum("...ijk,...jm->...ikm", da, dv)
            + np.einsum("...ijm,...jk->...ikm", da, dv)
            + np.einsum("...ij,...jkm->...ikm", a, ddv))


@dataclass
class PencilAt(PointBatch):
    """Everything the pencil constructions need at one point, or at each
    point of a batch.  The second-order fields are None in first-order
    data (`pencil_first_order`)."""
    n: int
    point: np.ndarray
    st: StructureAt                 # carries jets of both covariant metrics and e
    eta_inv: np.ndarray
    deta_inv: np.ndarray
    g_inv: np.ndarray
    dg_inv: np.ndarray
    L: np.ndarray                   # L^s_h = g^sm eta_mh
    dL: np.ndarray
    E: np.ndarray                   # E^i = g^il eta_lj e^j
    dE: np.ndarray
    ddeta_inv: np.ndarray | None = None
    ddg_inv: np.ndarray | None = None
    gamma1: np.ndarray | None = None   # Levi-Civita of the first metric
    dgamma1: np.ndarray | None = None
    gamma2: np.ndarray | None = None   # Levi-Civita of the second metric
    dgamma2: np.ndarray | None = None
    ddE: np.ndarray | None = None
    errors: list | None = None


def pencil_at(spec: ManifoldSpec, point, params=None) -> PencilAt:
    if spec.g2 is None:
        raise MissingSecondMetricError(f"spec {spec.name!r} has no second metric")
    return pencil_from_structure(structure_at(spec, point, params))


def _pencil_batch(spec: ManifoldSpec, points, params, second_order: bool) -> PencilAt:
    """The pencil data over a point set; raises the first point's error."""
    if spec.g2 is None:
        raise MissingSecondMetricError(f"spec {spec.name!r} has no second metric")
    pa = pencil_first_order(structures(spec, points, params))
    raise_first(pa.errors)
    return pencil_second_order(pa) if second_order else pa


def pencil_first_order(st: StructureAt, inverse: InverseJets | None = None) -> PencilAt:
    """The pencil data of first order, which is all that exactness and
    homogeneity read: both inverse metrics, L and E, with first
    derivatives.  `inverse`: the first metric's `metric_inverse`, where the
    caller has it.  Over a batch, each point's error is the structure's
    own, else the first singular metric's."""
    inverse = inverse or metric_inverse(st)
    errors = None if inverse.errors is None else list(inverse.errors)
    g_inv, dg_inv = inverse_jets(st.g2, st.dg2, errors=errors)
    L, dL = _mat_mat_jets(g_inv, dg_inv, st.g, st.dg)
    E, dE = _mat_vec_jets(L, dL, st.e, st.de)
    return PencilAt(n=st.n, point=st.point, st=st, eta_inv=inverse.inv, deta_inv=inverse.dinv,
                    g_inv=g_inv, dg_inv=dg_inv, L=L, dL=dL, E=E, dE=dE, errors=errors)


def pencil_second_order(pa: PencilAt, lc=None) -> PencilAt:
    """`pa` with the second-order data added: second derivatives of both
    inverse metrics and of E, and the Christoffel jets of both metrics.
    `lc`: the first metric's Levi-Civita connection at pa's points, where
    the caller has it."""
    st = pa.st
    ddeta_inv = inverse_hessian(pa.eta_inv, st.dg, st.ddg)
    ddg_inv = inverse_hessian(pa.g_inv, st.dg2, st.ddg2)
    if lc is None:
        gamma1, dgamma1 = christoffel_jets(st.g, st.dg, st.ddg, (pa.eta_inv, pa.deta_inv))
    else:
        gamma1, dgamma1 = lc.gamma, lc.dgamma
    gamma2, dgamma2 = christoffel_jets(st.g2, st.dg2, st.ddg2, (pa.g_inv, pa.dg_inv))
    ddL = _mat_mat_hessian(pa.g_inv, pa.dg_inv, ddg_inv, st.g, st.dg, st.ddg)
    ddE = _mat_vec_hessian(pa.L, pa.dL, ddL, st.e, st.de, st.dde)
    return replace(pa, ddeta_inv=ddeta_inv, ddg_inv=ddg_inv, gamma1=gamma1, dgamma1=dgamma1,
                   gamma2=gamma2, dgamma2=dgamma2, ddE=ddE)


def pencil_from_structure(st: StructureAt) -> PencilAt:
    """The pencil data at the points of `st`, which carries both metrics."""
    return pencil_second_order(pencil_first_order(st))


def _contravariant_christoffels(g_inv, gamma):
    """Gc[i,j,k] = -g^is Gamma^j_sk."""
    return -np.einsum("...is,...jsk->...ijk", g_inv, gamma)


def flat_pencil_at(pa: PencilAt, lambdas=DEFAULT_LAMBDAS, errors=None):
    """Curvature of every pencil member, and linearity of the contravariant
    Christoffel symbols across the pencil.  Returns (residual, scale,
    {lambda: residual}).  A point where a member is singular raises, or
    over a batch records the error in `errors`."""
    gc1 = _contravariant_christoffels(pa.eta_inv, pa.gamma1)
    gc2 = _contravariant_christoffels(pa.g_inv, pa.gamma2)
    per_lambda, scales = {}, []
    for lam in lambdas:
        lam = complex(lam)
        pen = pa.g_inv - lam * pa.eta_inv
        member = [None] * (1 if errors is None else len(errors))
        dpen = pa.dg_inv - lam * pa.deta_inv
        cov, dcov, ddcov = inverse_jets(pen, dpen, pa.ddg_inv - lam * pa.ddeta_inv, errors=member)
        for err in member:
            if err is not None:
                err.args = (f"pencil member at lambda = {lam} is singular: {err}",)
        fail_at(errors, [err is not None for err in member], member.__getitem__)
        gamma, dgamma = christoffel_jets(cov, dcov, ddcov, (pen, dpen))
        sc = pmax(amax(gamma, 3) ** 2, amax(dgamma, 4))
        res_curv = normalized(amax(riemann_components(gamma, dgamma), 4), sc)
        gc_lam = _contravariant_christoffels(pen, gamma)
        res_lin = normalized(amax(gc_lam - (gc2 - lam * gc1), 3),
                             amax(gc2, 3) + abs(lam) * amax(gc1, 3))
        per_lambda[f"{lam}"] = pmax(res_curv, res_lin)
        scales.append(sc)
    return pmax(*per_lambda.values()), pmax(*scales), per_lambda


def flat_pencil_report(name: str, per_point, tol: float) -> Report:
    return point_report(name, per_point, tol, details={"per_lambda": worst_parts(per_point)})


def check_flat_pencil(spec, points, lambdas=DEFAULT_LAMBDAS,
                      tol: float = DEFAULT_TOL, params=None) -> Report:
    """Curvature of every pencil member, and linearity of the contravariant
    Christoffel symbols across the pencil."""
    return flat_pencil_report("flat-pencil", per_point(
        flat_pencil_at(_pencil_batch(spec, points, params, True), lambdas)), tol)


def exactness_at(pa: PencilAt):
    """Unit-field Lie derivatives on the contravariant side: the second
    metric flows to the first, the first is preserved."""
    st = pa.st
    lie_g2 = lie_from_components(pa.g_inv, pa.dg_inv, ("u", "u"), st.e, st.de)
    lie_g1 = lie_from_components(pa.eta_inv, pa.deta_inv, ("u", "u"), st.e, st.de)
    sc = pmax(amax(pa.eta_inv, 2), amax(pa.g_inv, 2))
    raw = pmax(amax(lie_g2 - pa.eta_inv, 2), amax(lie_g1, 2))
    return normalized(raw, sc), sc


def check_exactness(spec, points, tol: float = DEFAULT_TOL, params=None) -> Report:
    return batch_report("pencil-exactness",
                        exactness_at(_pencil_batch(spec, points, params, False)), tol)


def pencil_weight(pa: PencilAt, rank=None):
    """The pencil weight d fitted from L_E g2 = (d-1) g2, with L_E g2."""
    lie_g2 = lie_from_components(pa.g_inv, pa.dg_inv, ("u", "u"), pa.E, pa.dE)
    return fit_scalar(lie_g2, pa.g_inv, rank=rank) + 1.0, lie_g2


def pencil_homogeneity_at(pa: PencilAt):
    """Fit the pencil weight d from L_E g2 = (d-1) g2 (contravariant) and
    cross-check L_E g1 = (d-2) g1.  Returns (residual, scale, d)."""
    d, lie_g2 = pencil_weight(pa, rank=2)
    lie_g1 = lie_from_components(pa.eta_inv, pa.deta_inv, ("u", "u"), pa.E, pa.dE)
    sc = pmax(amax(pa.g_inv, 2), amax(pa.eta_inv, 2))
    dd = d[..., None, None]
    raw = pmax(amax(lie_g2 - (dd - 1) * pa.g_inv, 2), amax(lie_g1 - (dd - 2) * pa.eta_inv, 2))
    return normalized(raw, sc), sc, d


def check_pencil_homogeneity(spec, points, tol: float = DEFAULT_TOL, params=None) -> Report:
    return batch_report("pencil-homogeneity",
                        pencil_homogeneity_at(_pencil_batch(spec, points, params, False)),
                        tol, fit="d", expected=spec.expected.get("d_pencil"))


def delta_jets(pa: PencilAt):
    """Delta[j,k,m] = L^s_m eta^jt (Gamma1^k_st - Gamma2^k_st), with first
    derivatives."""
    dg = pa.gamma1 - pa.gamma2
    ddg = pa.dgamma1 - pa.dgamma2
    delta = np.einsum("sm,jt,kst->jkm", pa.L, pa.eta_inv, dg)
    ddelta = (np.einsum("smp,jt,kst->jkmp", pa.dL, pa.eta_inv, dg)
              + np.einsum("sm,jtp,kst->jkmp", pa.L, pa.deta_inv, dg)
              + np.einsum("sm,jt,kstp->jkmp", pa.L, pa.eta_inv, ddg))
    return delta, ddelta


def delta_tensor(spec, point, params=None, tol: float = DEFAULT_TOL):
    """The connection-difference tensor and its four structural identities
    (two metric symmetries, commutation, Euler homogeneity of weight d-1)."""
    pa = pencil_at(spec, point, params)
    return delta_tensor_at(pa, pencil_weight(pa)[0], delta_jets(pa), tol)


def delta_tensor_at(pa: PencilAt, d, jets, tol: float = DEFAULT_TOL):
    st = pa.st
    delta, ddelta = jets
    sym_eta = np.einsum("is,jks->ijk", pa.eta_inv, delta) - np.einsum("js,iks->ijk", pa.eta_inv, delta)
    sym_g = np.einsum("is,jks->ijk", pa.g_inv, delta) - np.einsum("js,iks->ijk", pa.g_inv, delta)
    comm = np.einsum("ijs,skl->ijkl", delta, delta) - np.einsum("iks,sjl->ijkl", delta, delta)
    lie_delta = lie_from_components(delta, ddelta, ("u", "u", "d"), pa.E, pa.dE)
    hom = lie_delta - (d - 1) * delta
    sc = max(float(np.max(np.abs(delta))), 1.0)
    res = worst((normalized(np.max(np.abs(sym_eta)), sc * float(np.max(np.abs(pa.eta_inv)))),
                 normalized(np.max(np.abs(sym_g)), sc * float(np.max(np.abs(pa.g_inv)))),
                 normalized(np.max(np.abs(comm)), sc * sc),
                 normalized(np.max(np.abs(hom)), sc * (1 + abs(d)))))
    details = {}
    if _is_diagonal(st):
        closed = _delta_semisimple_closed_form(pa)
        res = worst((res, normalized(np.max(np.abs(delta - closed)), sc)))
        details["closed_form_checked"] = True
    report = Report.from_residual("delta-identities", res, tol, scale=sc,
                                  npoints=1, details=details)
    return delta, report


def _is_diagonal(st: StructureAt) -> bool:
    off1 = st.g - np.diag(np.diag(st.g))
    off2 = st.g2 - np.diag(np.diag(st.g2))
    top = max(np.max(np.abs(st.g)), np.max(np.abs(st.g2)))
    return max(np.max(np.abs(off1)), np.max(np.abs(off2))) <= 1e-12 * (1 + top)


def _delta_semisimple_closed_form(pa: PencilAt) -> np.ndarray:
    """Diagonal-pencil closed form: Delta^jk_j = (u^j-u^k)/2 * f^k d_k f^j / f^j
    off the diagonal and f^j/2 on it, all other components zero."""
    n = pa.n
    u = pa.point
    f = np.diag(pa.eta_inv)
    df = np.array([[pa.deta_inv[j, j, k] for k in range(n)] for j in range(n)])
    closed = np.zeros((n, n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if j == k:
                closed[j, j, j] = f[j] / 2
            else:
                closed[j, k, j] = (u[j] - u[k]) / 2 * f[k] * df[j][k] / f[j]
    return closed


def r_operator(spec, point, params=None, tol: float = DEFAULT_TOL):
    """The operator measuring the difference of the two Levi-Civita
    derivatives of the Euler field, computed two ways, plus the diagonal
    closed form where applicable."""
    pa = pencil_at(spec, point, params)
    return r_operator_at(pa, pencil_weight(pa)[0], counit_jets(pa.st), tol)


def r_operator_at(pa: PencilAt, d, counit, tol: float = DEFAULT_TOL):
    st = pa.st
    dgm = pa.gamma1 - pa.gamma2
    r1 = np.einsum("msl,l->ms", dgm, pa.E)
    # second route: (d-1)/2 Id + nabla1 E + 1/2 g^is dtheta_sj with theta = eta.e
    nab1E = pa.dE + np.einsum("ijl,l->ij", pa.gamma1, pa.E)
    _, _, dtheta, _ = counit
    r2 = (d - 1) / 2 * np.eye(pa.n) + nab1E + 0.5 * np.einsum("is,sj->ij", pa.g_inv, dtheta)
    sc = max(float(np.max(np.abs(r1))), 1.0)
    res = normalized(np.max(np.abs(r1 - r2)), sc)
    details = {"diag": [[v.real, v.imag] for v in np.diag(r1)]}
    if _is_diagonal(st):
        n, u = pa.n, pa.point
        f = np.diag(pa.eta_inv)
        closed = np.zeros((pa.n, pa.n), dtype=complex)
        for j in range(n):
            for k in range(n):
                closed[k, j] = 0.5 if j == k else \
                    (u[j] - u[k]) / 2 * f[k] * pa.deta_inv[j, j, k] / f[j] ** 2
        res = worst((res, normalized(np.max(np.abs(r1 - closed)), sc)))
        details["closed_form_checked"] = True
    cond = np.linalg.cond(r1)
    details["condition_number"] = float(cond.real)
    report = Report.from_residual("r-operator", res, tol, scale=sc, npoints=1,
                                  details=details)
    return r1, report


def product_from_pencil(spec, point, params=None, tol: float = DEFAULT_TOL):
    """Reconstruct structure constants from the pencil; returns (c, dc,
    report).  The report covers both construction routes, commutativity,
    associativity, the unit, invariance of the first metric, Euler
    homogeneity of the product, and the multiplication-by-E identity."""
    pa = pencil_at(spec, point, params)
    return product_from_pencil_at(pa, delta_jets(pa)[0], tol)


def product_from_pencil_at(pa: PencilAt, delta, tol: float = DEFAULT_TOL):
    st = pa.st
    dgm = pa.gamma1 - pa.gamma2
    ddgm = pa.dgamma1 - pa.dgamma2
    r = np.einsum("msl,l->ms", dgm, pa.E)
    cond = float(np.linalg.cond(r).real)
    details = {"R_condition": cond}
    if cond <= 1e8:
        details["route"] = "r-inverse"
        r_inv = np.linalg.inv(r)
        dr = np.einsum("mslp,l->msp", ddgm, pa.E) + np.einsum("msl,lp->msp", dgm, pa.dE)
        dr_inv = -np.einsum("ma,abp,bs->msp", r_inv, dr, r_inv)
        c = np.einsum("sh,lsk,jl->jhk", pa.L, dgm, r_inv)
        dc = (np.einsum("shp,lsk,jl->jhkp", pa.dL, dgm, r_inv)
              + np.einsum("sh,lskp,jl->jhkp", pa.L, ddgm, r_inv)
              + np.einsum("sh,lsk,jlp->jhkp", pa.L, dgm, dr_inv))
        c_alt = np.einsum("mlh,mk,jl->jhk", delta, st.g, r_inv)
        sc = max(float(np.max(np.abs(c))), 1.0)
        res_routes = normalized(np.max(np.abs(c - c_alt)), sc)
    elif _is_diagonal(st):
        # Degenerate recursion operator on a diagonal pencil: the product
        # is defined directly on the canonical chart (the invertibility
        # assumption is only needed off the semisimple locus).  The
        # pre-inversion linear relation R^l_j c^j_hk = L^s_h dG^l_sk is
        # still verified so the direct definition stays a genuine solution.
        details["route"] = "semisimple-direct"
        c = np.zeros((pa.n, pa.n, pa.n), dtype=complex)
        for i in range(pa.n):
            c[i, i, i] = 1.0
        dc = np.zeros((pa.n, pa.n, pa.n, pa.n), dtype=complex)
        sc = 1.0
        lhs = np.einsum("lj,jhk->lhk", r, c)
        rhs_lin = np.einsum("sh,lsk->lhk", pa.L, dgm)
        res_routes = normalized(np.max(np.abs(lhs - rhs_lin)), float(np.max(np.abs(rhs_lin))))
    else:
        raise SingularMatrixError(complex(np.linalg.det(r)))
    comm = c - np.swapaxes(c, 1, 2)
    assoc = np.einsum("sjk,isl->ijkl", c, c) - np.einsum("sjl,isk->ijkl", c, c)
    unit = np.einsum("ijk,j->ik", c, st.e) - np.eye(pa.n)
    inv = np.einsum("iq,qlp->ilp", st.g, c) - np.einsum("lq,qip->ilp", st.g, c)
    lie_c = lie_from_components(c, dc, ("u", "d", "d"), pa.E, pa.dE)
    mult_e = np.einsum("jhk,h->jk", c, pa.E) - pa.L
    res = worst((res_routes,
                 normalized(np.max(np.abs(comm)), sc),
                 normalized(np.max(np.abs(assoc)), sc * sc),
                 normalized(np.max(np.abs(unit)), sc),
                 normalized(np.max(np.abs(inv)), sc * float(np.max(np.abs(st.g)))),
                 normalized(np.max(np.abs(lie_c - c)), sc),
                 normalized(np.max(np.abs(mult_e)), float(np.max(np.abs(pa.L))))))
    if _is_diagonal(st):
        canonical = np.zeros_like(c)
        for i in range(pa.n):
            canonical[i, i, i] = 1.0
        details["canonical_residual"] = normalized(np.max(np.abs(c - canonical)), sc)
        res = worst((res, details["canonical_residual"]))
    report = Report.from_residual("product-from-pencil", res, tol, scale=sc,
                                  npoints=1, details=details)
    return c, dc, report


def reconstructed_structure(spec, point, params=None) -> StructureAt:
    """StructureAt carrying the reconstructed product together with the
    first metric and the computed Euler field, ready for the full
    homogeneous structure suite."""
    pa = pencil_at(spec, point, params)
    c, dc, _ = product_from_pencil_at(pa, delta_jets(pa)[0])
    return reconstructed_at(pa, c, dc)


def reconstructed_at(pa: PencilAt, c, dc) -> StructureAt:
    st = pa.st
    return StructureAt(n=pa.n, point=pa.point, c=c, dc=dc, ddc=None,
                       e=st.e, de=st.de, dde=st.dde,
                       E=pa.E, dE=pa.dE, ddE=pa.ddE,
                       g=st.g, dg=st.dg, ddg=st.ddg)


def semisimple_pencil_from_f(f_exprs, name: str = "semisimple-pencil",
                             region: Region | None = None,
                             params: dict | None = None) -> ManifoldSpec:
    """Build the diagonal pencil spec with first metric 1/f^i and second
    metric 1/(f^i u^i) on the diagonal (covariant), unit (1,..,1) and Euler
    field u^i."""
    n = len(f_exprs)
    one = ej.Num(1.0)
    g1 = [["0"] * n for _ in range(n)]
    g2 = [["0"] * n for _ in range(n)]
    for i in range(n):
        f = ej.parse(f_exprs[i])
        g1[i][i] = ej.to_source(one / f)
        g2[i][i] = ej.to_source(one / (f * ej.Var(i + 1)))
    return ManifoldSpec(
        name=name, n=n, coords=tuple(f"u{i+1}" for i in range(n)),
        product="canonical",
        e=tuple("1" for _ in range(n)),
        E=tuple(f"u{i+1}" for i in range(n)),
        g=tuple(tuple(r) for r in g1), g2=tuple(tuple(r) for r in g2),
        params=params or {}, region=region)
