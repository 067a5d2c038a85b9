"""Connections, curvature, and the connection-level structure checks.

The natural connection is assembled analytically from second-order jets of
the primitive fields (metric, unit, product): its Christoffel symbols are an
algebraic expression in {g, dg, c, theta, dtheta}, so dGamma never requires
numerical differentiation.

Everything here works on one point or on a batch of points with a leading
point axis (`...` einsums over the conventions of `tensor`), as the
`StructureAt` it is built from.  Over a batch, a point where a matrix is
singular records the error in the batch's `errors` and is inverted as the
identity, so the rest of the batch goes on; at one point it raises.  The
residual functions (`*_at`) return per-point residuals and scales, and the
`check_*` functions their reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import exprjet as ej
from .manifold import (PointBatch, Report, StructureAt, amax, batch_report, fail_at,
                       normalized, pmax, raise_first, required, worst)
from .tensor import SingularMatrixError

__all__ = [
    "ConnectionAt", "InverseJets", "DualStructureAt",
    "checked_inverse", "inverse_jets", "inverse_hessian", "metric_inverse",
    "christoffel_jets", "counit_jets",
    "levi_civita", "natural_connection", "natural_from_levi_civita",
    "connection_from_exprs", "connections_from_exprs", "christoffel_provider",
    "riemann_components", "torsion_at", "flatness_at", "nabla_e_at", "compat_product_at",
    "nabla_from_g_at", "curvature_product_at", "r_tr_identity_at", "nabla_nabla_E_at",
    "check_flatness", "check_torsionless", "check_nabla_e",
    "check_compat_product", "check_nabla_from_g",
    "check_curvature_product_condition", "check_R_tR_identity",
    "check_nabla_nabla_E", "dual_structure", "nabla_vector",
]

DEFAULT_TOL = 1e-8


@dataclass
class ConnectionAt(PointBatch):
    """Christoffel symbols and their first derivatives at a point, or at
    each point of a batch."""
    n: int
    point: np.ndarray
    gamma: np.ndarray    # gamma[i,j,k] = Gamma^i_jk
    dgamma: np.ndarray   # dgamma[i,j,k,m] = d_m Gamma^i_jk
    provenance: str = "explicit"
    errors: list | None = None


@dataclass
class InverseJets(PointBatch):
    """A metric's inverse with its first derivatives (`inverse_jets`), at
    a point or over a batch, with the first error met at each point."""
    inv: np.ndarray
    dinv: np.ndarray
    errors: list | None = None


def checked_inverse(a: np.ndarray, errors=None) -> np.ndarray:
    """The inverse of a matrix, or of each matrix of a batch.  A matrix
    with |det| <= 1e-12 (1 + max|a|)^n is singular: it raises
    SingularMatrixError, or, given the batch's `errors`, records it there
    (unless the point has an error already) and is inverted as the
    identity, so that the rest of the batch goes on."""
    det = np.linalg.det(a)
    singular = np.abs(det) <= 1e-12 * (1.0 + amax(a, 2)) ** a.shape[-1]
    if np.any(singular):
        fail_at(errors, singular, lambda k: SingularMatrixError(complex(np.ravel(det)[k])))
        a = np.where(singular[..., None, None], np.eye(a.shape[-1]), a)
    return np.linalg.inv(a)


def inverse_jets(a, da, dda=None, errors=None):
    """Jets of the matrix inverse from jets of the matrix."""
    b = checked_inverse(a, errors)
    db = -np.einsum("...ip,...pqk,...qj->...ijk", b, da, b)
    if dda is None:
        return b, db
    return b, db, inverse_hessian(b, da, dda)


def inverse_hessian(b, da, dda):
    """Second derivatives of the inverse b of a matrix from b and the
    matrix's first and second derivatives."""
    # t0 = -b dda_kl b and t1 = (b da_k b)(da_l b), each contracted one
    # index at a time
    t0 = -np.einsum("...ip,...pjkl->...ijkl", b, np.einsum("...pqkl,...qj->...pjkl", dda, b))
    bdab = np.einsum("...iqk,...qj->...ijk", np.einsum("...ip,...pqk->...iqk", b, da), b)
    t1 = np.einsum("...irk,...rjl->...ijkl", bdab, np.einsum("...rsl,...sj->...rjl", da, b))
    return t0 + t1 + np.swapaxes(t1, -2, -1)


def metric_inverse(st: StructureAt) -> InverseJets:
    """Inverse jets of the first metric of `st`; over a batch, each point's
    error is the structure's own, else a singular metric's."""
    errors = None if st.errors is None else list(st.errors)
    return InverseJets(*inverse_jets(required(st.g, "metric"), st.dg, errors=errors),
                       errors=errors)


def christoffel_jets(g, dg, ddg, inverse=None):
    """Levi-Civita Christoffel symbols and their first derivatives;
    `inverse`: the jets (g^-1, d g^-1) where the caller has them."""
    ginv, dginv = inverse if inverse is not None else inverse_jets(g, dg)
    # bracket[q,k,m] = d_k g_qm + d_m g_qk - d_q g_km
    bracket = (np.einsum("...qmk->...qkm", dg) + dg - np.einsum("...kmq->...qkm", dg))
    gamma = 0.5 * np.einsum("...iq,...qkm->...ikm", ginv, bracket)
    dbracket = (np.einsum("...qmkp->...qkmp", ddg) + ddg - np.einsum("...kmqp->...qkmp", ddg))
    dgamma = 0.5 * (np.einsum("...iqp,...qkm->...ikmp", dginv, bracket)
                    + np.einsum("...iq,...qkmp->...ikmp", ginv, dbracket))
    return gamma, dgamma


def levi_civita(st: StructureAt, inverse: InverseJets | None = None) -> ConnectionAt:
    """The Levi-Civita connection of the first metric; `inverse`: its
    `metric_inverse`, where the caller has it."""
    inverse = inverse or metric_inverse(st)
    gamma, dgamma = christoffel_jets(st.g, st.dg, st.ddg, (inverse.inv, inverse.dinv))
    return ConnectionAt(st.n, st.point, gamma, dgamma, "levi-civita", inverse.errors)


def counit_jets(st: StructureAt):
    """theta_i = g_il e^l with first and second derivatives, plus the
    exterior derivative dtheta_qf = d_q theta_f - d_f theta_q and its
    first derivatives."""
    theta = np.einsum("...il,...l->...i", st.g, st.e)
    # dth[f,q] = d_q theta_f
    dth = (np.einsum("...flq,...l->...fq", st.dg, st.e)
           + np.einsum("...fl,...lq->...fq", st.g, st.de))
    ddth = (np.einsum("...flqp,...l->...fqp", st.ddg, st.e)
            + np.einsum("...flq,...lp->...fqp", st.dg, st.de)
            + np.einsum("...flp,...lq->...fqp", st.dg, st.de)
            + np.einsum("...fl,...lqp->...fqp", st.g, st.dde))
    dtheta = np.swapaxes(dth, -2, -1) - dth
    d_dtheta = np.swapaxes(ddth, -3, -2) - ddth  # [q,f,p] = d_p dtheta_qf
    return theta, dth, dtheta, d_dtheta


def natural_connection(st: StructureAt) -> ConnectionAt:
    """The unique torsionless connection whose non-metricity is the
    product-twisted dtheta; Levi-Civita plus the correction
    b^i_kl = -1/2 g^if c^q_kl dtheta_qf."""
    inverse = metric_inverse(st)
    return natural_from_levi_civita(st, levi_civita(st, inverse), inverse)


def natural_from_levi_civita(st: StructureAt, lc: ConnectionAt,
                             inverse: InverseJets | None = None, counit=None) -> ConnectionAt:
    """The natural connection built on `lc`, the Levi-Civita connection of
    `st.g` at the same points; `inverse` (the `metric_inverse` `lc` was
    built on) and `counit` (`counit_jets(st)`) where the caller has them."""
    inverse = inverse or metric_inverse(st)
    _, _, dtheta, d_dtheta = counit if counit is not None else counit_jets(st)
    ginv, dginv = inverse.inv, inverse.dinv
    b = -0.5 * np.einsum("...if,...qkl,...qf->...ikl", ginv, st.c, dtheta)
    db = -0.5 * (np.einsum("...ifp,...qkl,...qf->...iklp", dginv, st.c, dtheta)
                 + np.einsum("...if,...qklp,...qf->...iklp", ginv, st.dc, dtheta)
                 + np.einsum("...if,...qkl,...qfp->...iklp", ginv, st.c, d_dtheta))
    return ConnectionAt(st.n, st.point, lc.gamma + b, lc.dgamma + db, "natural", lc.errors)


def christoffel_provider(gamma_exprs, env: Mapping[str, complex] | None = None):
    """Evaluator of the Christoffel values at each of an array of points,
    shape (P, n), in one run of the table; raises the first point's domain
    error."""
    env = dict(env or {})

    def provider(points):
        jets = ej.eval_points(gamma_exprs, points, env)
        raise_first([None if err is None else ej.DomainError(err) for err in jets.errors])
        return jets.val

    return provider


def connections_from_exprs(gamma_exprs, points, env: Mapping[str, complex] | None = None,
                           provenance: str = "explicit") -> ConnectionAt:
    """The connection given by closed-form Christoffel expressions at all
    of `points`, as one batch from one run of the table; a point where it
    is singular records the domain error."""
    points = np.asarray(points, dtype=complex)
    jets = ej.eval_points(gamma_exprs, points, env)
    return ConnectionAt(len(gamma_exprs), points, jets.val, jets.grad, provenance,
                        [None if err is None else ej.DomainError(err) for err in jets.errors])


def connection_from_exprs(gamma_exprs, point, env: Mapping[str, complex] | None = None,
                          provenance: str = "explicit") -> ConnectionAt:
    """Connection given by closed-form Christoffel expressions."""
    return connections_from_exprs(gamma_exprs, [point], env, provenance).at(0)


def riemann_components(gamma, dgamma) -> np.ndarray:
    """R^h_ikj = d_k Gamma^h_ij - d_j Gamma^h_ik
                 + Gamma^s_ij Gamma^h_ks - Gamma^s_ik Gamma^h_js."""
    return (np.einsum("...hijk->...hikj", dgamma) - dgamma
            + np.einsum("...sij,...hks->...hikj", gamma, gamma)
            - np.einsum("...sik,...hjs->...hikj", gamma, gamma))


# ---------------------------------------------------------------------------
# checks: the residual and scale at each point of a connection (and the
# structure it belongs to), and the report over those points


def torsion_at(conn: ConnectionAt):
    sc = amax(conn.gamma, 3)
    return normalized(amax(conn.gamma - np.swapaxes(conn.gamma, -2, -1), 3), sc), sc


def check_torsionless(conn: ConnectionAt, tol: float = 1e-12) -> Report:
    return batch_report("torsionless", torsion_at(conn), tol)


def flatness_at(conn: ConnectionAt):
    r = riemann_components(conn.gamma, conn.dgamma)
    sc = pmax(amax(conn.gamma, 3) ** 2, amax(conn.dgamma, 4))
    return normalized(amax(r, 4), sc), sc


def check_flatness(conn: ConnectionAt, tol: float = DEFAULT_TOL) -> Report:
    return batch_report("flatness", flatness_at(conn), tol)


def nabla_e_at(conn: ConnectionAt, st: StructureAt):
    res = st.de + np.einsum("...iks,...s->...ik", conn.gamma, st.e)
    sc = pmax(amax(conn.gamma, 3), amax(st.de, 2))
    return normalized(amax(res, 2), sc), sc


def check_nabla_e(conn: ConnectionAt, st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    return batch_report("nabla-e", nabla_e_at(conn, st), tol)


def nabla_product(conn: ConnectionAt, st: StructureAt) -> np.ndarray:
    """Full covariant derivative nab[k,i,l,j] = nabla_k c^i_lj."""
    return (np.einsum("...iljk->...kilj", st.dc)
            + np.einsum("...ikm,...mlj->...kilj", conn.gamma, st.c)
            - np.einsum("...mkl,...imj->...kilj", conn.gamma, st.c)
            - np.einsum("...mkj,...ilm->...kilj", conn.gamma, st.c))


def compat_product_at(conn: ConnectionAt, st: StructureAt):
    nab = nabla_product(conn, st)
    res = nab - np.einsum("...kilj->...likj", nab)
    sc = pmax(amax(st.c, 3) * (1 + amax(conn.gamma, 3)), amax(st.dc, 4))
    return normalized(amax(res, 4), sc), sc


def check_compat_product(conn: ConnectionAt, st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    return batch_report("product-compat", compat_product_at(conn, st), tol)


def nabla_metric(conn: ConnectionAt, st: StructureAt) -> np.ndarray:
    """nabg[k,i,j] = nabla_k g_ij."""
    return (np.einsum("...ijk->...kij", st.dg)
            - np.einsum("...ski,...sj->...kij", conn.gamma, st.g)
            - np.einsum("...skj,...is->...kij", conn.gamma, st.g))


def nabla_from_g_at(conn: ConnectionAt, st: StructureAt, counit=None):
    """Residual of the defining property of the natural connection:
    (nabla_X g)(Y,Z) = 1/2 dtheta(X o Y, Z) + 1/2 dtheta(X o Z, Y);
    `counit`: `counit_jets(st)` where the caller has it."""
    _, _, dtheta, _ = counit if counit is not None else counit_jets(st)
    nabg = nabla_metric(conn, st)
    rhs = 0.5 * (np.einsum("...ski,...sj->...kij", st.c, dtheta)
                 + np.einsum("...skj,...si->...kij", st.c, dtheta))
    sc = pmax(amax(nabg, 3), amax(dtheta, 2), amax(st.dg, 3))
    return normalized(amax(nabg - rhs, 3), sc), sc


def check_nabla_from_g(conn: ConnectionAt, st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    return batch_report("nabla-from-g", nabla_from_g_at(conn, st), tol)


def _cyclic_rc(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """res[j,i,k,l,m] = R^j_skl c^s_mi + R^j_smk c^s_li + R^j_slm c^s_ki."""
    out = np.einsum("...jskl,...smi->...jiklm", r, c)
    out += np.einsum("...jsmk,...sli->...jiklm", r, c)
    out += np.einsum("...jslm,...ski->...jiklm", r, c)
    return out


def _cyclic_bis(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """res[j,i,k,l,m] = c^j_ms R^s_ikl + c^j_ks R^s_ilm + c^j_ls R^s_imk."""
    out = np.einsum("...jms,...sikl->...jiklm", c, r)
    out += np.einsum("...jks,...silm->...jiklm", c, r)
    out += np.einsum("...jls,...simk->...jiklm", c, r)
    return out


def curvature_product_at(conn: ConnectionAt, st: StructureAt, variant: str = "primal"):
    """Cyclic product condition on the curvature; `variant` picks between
    the contraction through the last curvature slot ("primal") and the
    product acting on the curvature output ("bis").  With variant "both"
    the details also carry the difference of the two forms.  Returns
    (residual, scale, details)."""
    r = riemann_components(conn.gamma, conn.dgamma)
    sc = pmax(amax(r, 4), 1.0) * pmax(amax(st.c, 3), 1.0)
    details = {}
    if variant in ("primal", "both"):
        res = amax(_cyclic_rc(r, st.c), 5)
    if variant in ("bis", "both"):
        res_bis = amax(_cyclic_bis(r, st.c), 5)
        if variant == "bis":
            res = res_bis
        else:
            details["bis_residual"] = normalized(res_bis, sc)
            details["variant_gap"] = normalized(np.abs(res - res_bis), sc)
            res = pmax(res, res_bis)
    return normalized(res, sc), sc, details


def check_curvature_product_condition(conn: ConnectionAt, st: StructureAt,
                                      variant: str = "primal",
                                      tol: float = DEFAULT_TOL) -> Report:
    res, sc, details = curvature_product_at(conn, st, variant)
    return batch_report(f"curvature-product-{variant}", (res, sc), tol,
                        details={key: float(np.max(value)) for key, value in details.items()})


def r_tr_identity_at(nat: ConnectionAt, lc: ConnectionAt, st: StructureAt):
    """The cyclic curvature sums of the natural and Levi-Civita connections
    agree whenever they differ by a product-shaped correction."""
    r_nat = riemann_components(nat.gamma, nat.dgamma)
    r_lc = riemann_components(lc.gamma, lc.dgamma)
    res = _cyclic_rc(r_nat, st.c)
    res -= _cyclic_rc(r_lc, st.c)
    sc = pmax(amax(r_lc, 4), 1.0) * pmax(amax(st.c, 3), 1.0)
    return normalized(amax(res, 5), sc), sc


def check_R_tR_identity(st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    inverse = metric_inverse(st)
    lc = levi_civita(st, inverse)
    return batch_report("r-tr-identity",
                        r_tr_identity_at(natural_from_levi_civita(st, lc, inverse), lc, st), tol)


def nabla_vector(conn: ConnectionAt, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """nabla[i,j] = nabla_j v^i."""
    return dv + np.einsum("...ijs,...s->...ij", conn.gamma, v)


def nabla_nabla_E_at(conn: ConnectionAt, st: StructureAt):
    """Second covariant derivative of the Euler field, in the reduced form
    valid for flat connections (meaningful where the connection is flat)."""
    e_gamma = np.einsum("...s,...ikjs->...ikj", required(st.E, "Euler field"), conn.dgamma)
    # (nabla nabla E)^i_kj = d_k d_j E^i + Gamma^i_jl d_k E^l + Gamma^i_km d_j E^m
    #                        - Gamma^m_kj d_m E^i + E(Gamma^i_kj)
    res = (np.einsum("...ijk->...ikj", st.ddE)
           + np.einsum("...ijl,...lk->...ikj", conn.gamma, st.dE)
           + np.einsum("...ikm,...mj->...ikj", conn.gamma, st.dE)
           - np.einsum("...mkj,...im->...ikj", conn.gamma, st.dE)
           + e_gamma)
    sc = pmax(amax(st.dE, 2) * (1 + amax(conn.gamma, 3)), amax(e_gamma, 3))
    return normalized(amax(res, 3), sc), sc


def check_nabla_nabla_E(conn: ConnectionAt, st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    return batch_report("nabla-nabla-E", nabla_nabla_E_at(conn, st), tol)


# ---------------------------------------------------------------------------
# dual structure


@dataclass
class DualStructureAt:
    cstar: np.ndarray
    dcstar: np.ndarray
    gamma_star: ConnectionAt
    report: Report


def dual_structure(st: StructureAt, conn: ConnectionAt, tol: float = DEFAULT_TOL) -> DualStructureAt:
    """Rescaled product through the Euler field and the dual connection
    Gamma*^k_ij = Gamma^k_ij - c*^l_ji nabla_l E^k, with flatness and the
    reverse reconstruction formula checked as residuals."""
    eo = np.einsum("smt,t->sm", st.c, required(st.E, "Euler field"))  # (E o)^s_m
    deo = (np.einsum("smtp,t->smp", st.dc, st.E)
           + np.einsum("smt,tp->smp", st.c, st.dE))
    k_inv, dk_inv = inverse_jets(eo, deo)
    cstar = np.einsum("is,sjk->ijk", k_inv, st.c)
    dcstar = (np.einsum("isp,sjk->ijkp", dk_inv, st.c)
              + np.einsum("is,sjkp->ijkp", k_inv, st.dc))
    nabE = nabla_vector(conn, st.E, st.dE)           # nabE[k,l] = nabla_l E^k
    dnabE = (st.ddE
             + np.einsum("klms,m->kls", conn.dgamma, st.E)
             + np.einsum("klm,ms->kls", conn.gamma, st.dE))
    gamma_star = conn.gamma - np.einsum("lji,kl->kij", cstar, nabE)
    dgamma_star = (conn.dgamma
                   - np.einsum("ljis,kl->kijs", dcstar, nabE)
                   - np.einsum("lji,kls->kijs", cstar, dnabE))
    star = ConnectionAt(st.n, st.point, gamma_star, dgamma_star, provenance="dual")

    # residual bundle: dual product axioms, unit E, dual flatness, reverse formula
    assoc = np.einsum("sjk,isl->ijkl", cstar, cstar) - np.einsum("sjl,isk->ijkl", cstar, cstar)
    unit = np.einsum("ijk,j->ik", cstar, st.E) - np.eye(st.n)
    flat = riemann_components(gamma_star, dgamma_star)
    nab_star_e = nabla_vector(star, st.e, st.de)
    reverse = conn.gamma - (gamma_star - np.einsum("lji,kl->kij", st.c, nab_star_e))
    sc_c = float(np.max(np.abs(cstar)))
    sc_g = max(float(np.max(np.abs(gamma_star))) ** 2, float(np.max(np.abs(dgamma_star))))
    res = worst((normalized(np.max(np.abs(assoc)), sc_c ** 2),
                 normalized(np.max(np.abs(unit)), sc_c),
                 normalized(np.max(np.abs(flat)), sc_g),
                 normalized(np.max(np.abs(reverse)), float(np.max(np.abs(gamma_star))))))
    report = Report.from_residual("dual-structure", res, tol, scale=sc_c, npoints=1)
    return DualStructureAt(cstar=cstar, dcstar=dcstar, gamma_star=star, report=report)
