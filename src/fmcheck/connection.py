"""Connections, curvature, and the connection-level structure checks.

The natural connection is assembled analytically from second-order jets of
the primitive fields (metric, unit, product): its Christoffel symbols are an
algebraic expression in {g, dg, c, theta, dtheta}, so dGamma never requires
numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from . import exprjet as ej
from .manifold import Report, StructureAt, normalized, required, worst
from .tensor import SingularMatrixError

__all__ = [
    "ConnectionAt", "DualStructureAt",
    "inverse_jets", "christoffel_jets", "counit_jets",
    "levi_civita", "natural_connection", "natural_from_levi_civita",
    "connection_from_exprs", "connections_from_exprs",
    "riemann_components", "check_flatness", "check_torsionless", "check_nabla_e",
    "check_compat_product", "check_nabla_from_g",
    "check_curvature_product_condition", "check_R_tR_identity", "r_tr_identity_at",
    "check_nabla_nabla_E", "dual_structure", "nabla_vector",
]

DEFAULT_TOL = 1e-8


@dataclass
class ConnectionAt:
    """Christoffel symbols and their first derivatives at a point."""
    n: int
    point: np.ndarray
    gamma: np.ndarray    # gamma[i,j,k] = Gamma^i_jk
    dgamma: np.ndarray   # dgamma[i,j,k,m] = d_m Gamma^i_jk
    provenance: str = "explicit"


def checked_inverse(g: np.ndarray) -> np.ndarray:
    det = complex(np.linalg.det(g))
    scale = (1.0 + float(np.max(np.abs(g)))) ** g.shape[0]
    if abs(det) <= 1e-12 * scale:
        raise SingularMatrixError(det)
    return np.linalg.inv(g)


def inverse_jets(a, da, dda=None):
    """Jets of the matrix inverse from jets of the matrix."""
    b = checked_inverse(a)
    db = -np.einsum("ip,pqk,qj->ijk", b, da, b)
    if dda is None:
        return b, db
    t0 = -np.einsum("ip,pqkl,qj->ijkl", b, dda, b)
    t1 = np.einsum("ip,pqk,qr,rsl,sj->ijkl", b, da, b, da, b)
    ddb = t0 + t1 + np.transpose(t1, (0, 1, 3, 2))
    return b, db, ddb


def christoffel_jets(g, dg, ddg):
    """Levi-Civita Christoffel symbols and their first derivatives."""
    ginv, dginv = inverse_jets(g, dg)
    # bracket[q,k,m] = d_k g_qm + d_m g_qk - d_q g_km
    bracket = (np.einsum("qmk->qkm", dg) + np.einsum("qkm->qkm", dg)
               - np.einsum("kmq->qkm", dg))
    gamma = 0.5 * np.einsum("iq,qkm->ikm", ginv, bracket)
    dbracket = (np.einsum("qmkp->qkmp", ddg) + np.einsum("qkmp->qkmp", ddg)
                - np.einsum("kmqp->qkmp", ddg))
    dgamma = 0.5 * (np.einsum("iqp,qkm->ikmp", dginv, bracket)
                    + np.einsum("iq,qkmp->ikmp", ginv, dbracket))
    return gamma, dgamma


def levi_civita(st: StructureAt) -> ConnectionAt:
    gamma, dgamma = christoffel_jets(required(st.g, "metric"), st.dg, st.ddg)
    return ConnectionAt(st.n, st.point, gamma, dgamma, provenance="levi-civita")


def counit_jets(st: StructureAt):
    """theta_i = g_il e^l with first and second derivatives, plus the
    exterior derivative dtheta_qf = d_q theta_f - d_f theta_q and its
    first derivatives."""
    theta = st.g @ st.e
    # dth[f,q] = d_q theta_f
    dth = np.einsum("flq,l->fq", st.dg, st.e) + np.einsum("fl,lq->fq", st.g, st.de)
    ddth = (np.einsum("flqp,l->fqp", st.ddg, st.e)
            + np.einsum("flq,lp->fqp", st.dg, st.de)
            + np.einsum("flp,lq->fqp", st.dg, st.de)
            + np.einsum("fl,lqp->fqp", st.g, st.dde))
    dtheta = dth.T - dth
    d_dtheta = np.transpose(ddth, (1, 0, 2)) - ddth  # [q,f,p] = d_p dtheta_qf
    return theta, dth, dtheta, d_dtheta


def natural_connection(st: StructureAt) -> ConnectionAt:
    """The unique torsionless connection whose non-metricity is the
    product-twisted dtheta; Levi-Civita plus the correction
    b^i_kl = -1/2 g^if c^q_kl dtheta_qf."""
    return natural_from_levi_civita(st, levi_civita(st))


def natural_from_levi_civita(st: StructureAt, lc: ConnectionAt) -> ConnectionAt:
    """The natural connection built on `lc`, the Levi-Civita connection of
    `st.g` at the same point."""
    ginv, dginv = inverse_jets(st.g, st.dg)
    _, _, dtheta, d_dtheta = counit_jets(st)
    b = -0.5 * np.einsum("if,qkl,qf->ikl", ginv, st.c, dtheta)
    db = -0.5 * (np.einsum("ifp,qkl,qf->iklp", dginv, st.c, dtheta)
                 + np.einsum("if,qklp,qf->iklp", ginv, st.dc, dtheta)
                 + np.einsum("if,qkl,qfp->iklp", ginv, st.c, d_dtheta))
    return ConnectionAt(st.n, st.point, lc.gamma + b, lc.dgamma + db, provenance="natural")


def christoffel_provider(gamma_exprs, env: Mapping[str, complex] | None = None):
    """Evaluator u -> gamma values for path integration."""
    env = dict(env or {})
    return lambda point: ej.eval_table(gamma_exprs, point, env)[0]


def connections_from_exprs(gamma_exprs, points, env: Mapping[str, complex] | None = None,
                           provenance: str = "explicit") -> Iterator[ConnectionAt]:
    """Connections given by closed-form Christoffel expressions, one per
    point, in order.  The table runs once over all the points, when the
    first connection is asked for; a point where it is singular raises
    when it is reached."""
    points = np.asarray(points, dtype=complex)
    if not len(points):
        return
    jets = ej.eval_points(gamma_exprs, points, env)
    for k, point in enumerate(points):
        gamma, dgamma, _ = jets.at(k)
        yield ConnectionAt(len(gamma_exprs), point, gamma, dgamma, provenance=provenance)


def connection_from_exprs(gamma_exprs, point, env: Mapping[str, complex] | None = None,
                          provenance: str = "explicit") -> ConnectionAt:
    """Connection given by closed-form Christoffel expressions."""
    return next(connections_from_exprs(gamma_exprs, [point], env, provenance))


def riemann_components(gamma, dgamma) -> np.ndarray:
    """R^h_ikj = d_k Gamma^h_ij - d_j Gamma^h_ik
                 + Gamma^s_ij Gamma^h_ks - Gamma^s_ik Gamma^h_js."""
    return (np.einsum("hijk->hikj", dgamma) - dgamma
            + np.einsum("sij,hks->hikj", gamma, gamma)
            - np.einsum("sik,hjs->hikj", gamma, gamma))


# ---------------------------------------------------------------------------
# pointwise checks


def check_torsionless(conn: ConnectionAt, tol: float = 1e-12) -> Report:
    res = np.max(np.abs(conn.gamma - np.swapaxes(conn.gamma, 1, 2)))
    sc = float(np.max(np.abs(conn.gamma)))
    return Report.from_residual("torsionless", normalized(res, sc), tol, scale=sc, npoints=1)


def check_flatness(conn: ConnectionAt, tol: float = DEFAULT_TOL) -> Report:
    r = riemann_components(conn.gamma, conn.dgamma)
    sc = max(float(np.max(np.abs(conn.gamma))) ** 2, float(np.max(np.abs(conn.dgamma))))
    return Report.from_residual("flatness", normalized(np.max(np.abs(r)), sc), tol,
                                scale=sc, npoints=1)


def check_nabla_e(conn: ConnectionAt, st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    res = st.de + np.einsum("iks,s->ik", conn.gamma, st.e)
    sc = max(float(np.max(np.abs(conn.gamma))), float(np.max(np.abs(st.de))))
    return Report.from_residual("nabla-e", normalized(np.max(np.abs(res)), sc), tol,
                                scale=sc, npoints=1)


def nabla_product(conn: ConnectionAt, st: StructureAt) -> np.ndarray:
    """Full covariant derivative nab[k,i,l,j] = nabla_k c^i_lj."""
    return (np.einsum("iljk->kilj", st.dc)
            + np.einsum("ikm,mlj->kilj", conn.gamma, st.c)
            - np.einsum("mkl,imj->kilj", conn.gamma, st.c)
            - np.einsum("mkj,ilm->kilj", conn.gamma, st.c))


def check_compat_product(conn: ConnectionAt, st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    nab = nabla_product(conn, st)
    res = nab - np.einsum("kilj->likj", nab)
    sc = max(float(np.max(np.abs(st.c))) * (1 + float(np.max(np.abs(conn.gamma)))),
             float(np.max(np.abs(st.dc))))
    return Report.from_residual("product-compat", normalized(np.max(np.abs(res)), sc), tol,
                                scale=sc, npoints=1)


def nabla_metric(conn: ConnectionAt, st: StructureAt) -> np.ndarray:
    """nabg[k,i,j] = nabla_k g_ij."""
    return (np.einsum("ijk->kij", st.dg)
            - np.einsum("ski,sj->kij", conn.gamma, st.g)
            - np.einsum("skj,is->kij", conn.gamma, st.g))


def check_nabla_from_g(conn: ConnectionAt, st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    """Residual of the defining property of the natural connection:
    (nabla_X g)(Y,Z) = 1/2 dtheta(X o Y, Z) + 1/2 dtheta(X o Z, Y)."""
    _, _, dtheta, _ = counit_jets(st)
    nabg = nabla_metric(conn, st)
    rhs = 0.5 * (np.einsum("ski,sj->kij", st.c, dtheta) + np.einsum("skj,si->kij", st.c, dtheta))
    sc = max(float(np.max(np.abs(nabg))), float(np.max(np.abs(dtheta))), float(np.max(np.abs(st.dg))))
    return Report.from_residual("nabla-from-g", normalized(np.max(np.abs(nabg - rhs)), sc),
                                tol, scale=sc, npoints=1)


def _cyclic_rc(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """res[j,i,k,l,m] = R^j_skl c^s_mi + R^j_smk c^s_li + R^j_slm c^s_ki."""
    return (np.einsum("jskl,smi->jiklm", r, c)
            + np.einsum("jsmk,sli->jiklm", r, c)
            + np.einsum("jslm,ski->jiklm", r, c))


def _cyclic_bis(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """res[j,i,k,l,m] = c^j_ms R^s_ikl + c^j_ks R^s_ilm + c^j_ls R^s_imk."""
    return (np.einsum("jms,sikl->jiklm", c, r)
            + np.einsum("jks,silm->jiklm", c, r)
            + np.einsum("jls,simk->jiklm", c, r))


def check_curvature_product_condition(conn: ConnectionAt, st: StructureAt,
                                      variant: str = "primal",
                                      tol: float = DEFAULT_TOL) -> Report:
    """Cyclic product condition on the curvature; `variant` picks between
    the contraction through the last curvature slot ("primal") and the
    product acting on the curvature output ("bis").  With variant "both"
    the report also carries the difference of the two forms."""
    r = riemann_components(conn.gamma, conn.dgamma)
    sc = max(float(np.max(np.abs(r))), 1.0) * max(float(np.max(np.abs(st.c))), 1.0)
    details = {}
    if variant in ("primal", "both"):
        res = np.max(np.abs(_cyclic_rc(r, st.c)))
    if variant in ("bis", "both"):
        res_bis = np.max(np.abs(_cyclic_bis(r, st.c)))
        if variant == "bis":
            res = res_bis
        else:
            details["bis_residual"] = normalized(res_bis, sc)
            details["variant_gap"] = normalized(abs(res - res_bis), sc)
            res = worst((res, res_bis))
    return Report.from_residual(f"curvature-product-{variant}", normalized(res, sc),
                                tol, scale=sc, npoints=1, details=details)


def check_R_tR_identity(st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    """The cyclic curvature sums of the natural and Levi-Civita connections
    agree whenever they differ by a product-shaped correction."""
    lc = levi_civita(st)
    return r_tr_identity_at(natural_from_levi_civita(st, lc), lc, st, tol)


def r_tr_identity_at(nat: ConnectionAt, lc: ConnectionAt, st: StructureAt,
                     tol: float = DEFAULT_TOL) -> Report:
    r_nat = riemann_components(nat.gamma, nat.dgamma)
    r_lc = riemann_components(lc.gamma, lc.dgamma)
    res = _cyclic_rc(r_nat, st.c) - _cyclic_rc(r_lc, st.c)
    sc = max(float(np.max(np.abs(r_lc))), 1.0) * max(float(np.max(np.abs(st.c))), 1.0)
    return Report.from_residual("r-tr-identity", normalized(np.max(np.abs(res)), sc),
                                tol, scale=sc, npoints=1)


def nabla_vector(conn: ConnectionAt, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """nabla[i,j] = nabla_j v^i."""
    return dv + np.einsum("ijs,s->ij", conn.gamma, v)


def check_nabla_nabla_E(conn: ConnectionAt, st: StructureAt, tol: float = DEFAULT_TOL) -> Report:
    """Second covariant derivative of the Euler field, in the reduced form
    valid for flat connections (run only after check_flatness passes)."""
    e_gamma = np.einsum("s,ikjs->ikj", required(st.E, "Euler field"), conn.dgamma)
    # (nabla nabla E)^i_kj = d_k d_j E^i + Gamma^i_jl d_k E^l + Gamma^i_km d_j E^m
    #                        - Gamma^m_kj d_m E^i + E(Gamma^i_kj)
    res = (np.einsum("ijk->ikj", st.ddE)
           + np.einsum("ijl,lk->ikj", conn.gamma, st.dE)
           + np.einsum("ikm,mj->ikj", conn.gamma, st.dE)
           - np.einsum("mkj,im->ikj", conn.gamma, st.dE)
           + e_gamma)
    sc = max(float(np.max(np.abs(st.dE))) * (1 + float(np.max(np.abs(conn.gamma)))),
             float(np.max(np.abs(e_gamma))))
    return Report.from_residual("nabla-nabla-E", normalized(np.max(np.abs(res)), sc),
                                tol, scale=sc, npoints=1)


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
