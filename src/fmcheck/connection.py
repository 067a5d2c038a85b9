"""Connections, curvature, and the connection-level structure checks.

The natural connection is assembled analytically from second-order jets of
the primitive fields (metric, unit, product): its Christoffel symbols are an
algebraic expression in {g, dg, c, theta, dtheta}, so dGamma never requires
numerical differentiation.

Everything here works on one point or on a batch of points with a leading
point axis (`...` einsums over the conventions of `tensor`), as the
`StructureAt` it is built from; a matrix singular at some point raises at
the first such point (`checked_inverse`).  The residual functions (`*_at`)
return their `Residuals` at each point of a given connection; the
`check_*` functions are views of the walk (`walk_row`), the report of the
row of that name on the spec's natural (or, for "curvature-product",
Levi-Civita) connection over a point set.  No walk reports `torsionless`
or `nabla-from-g`, which hold by construction: they are tested in the test
tree and reached only through their views here.

A connection owns its curvature (`ConnectionAt.curvature`).  The metric
inverse and the counit have one way in: the caller builds each once and
passes it, the walk from its batches and a point-level helper in plain sight.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .manifold import (DEFAULT_TOL, ManifoldSpec, PointBatch, Report, Residuals, StructureAt,
                       amax, fail_at, normalized, pmax, required, table_jets, walk_row)
from .tensor import SingularMatrixError, antisym, contract, contract_jets

__all__ = [
    "ConnectionAt", "InverseJets", "DualStructureAt",
    "checked_inverse", "inverse_jets", "inverse_hessian", "metric_inverse",
    "christoffel_jets", "counit_jets",
    "levi_civita", "natural_connection", "natural_from_levi_civita",
    "connection_from_exprs", "connections_from_exprs",
    "riemann_components", "torsion_at", "flatness_at", "nabla_e_at", "compat_product_at",
    "nabla_from_g_at", "curvature_product_at", "r_tr_identity_at", "nabla_nabla_E_at",
    "check_flatness", "check_torsionless", "check_nabla_e",
    "check_compat_product", "check_nabla_from_g",
    "check_curvature_product_condition", "check_R_tR_identity",
    "check_nabla_nabla_E", "dual_structure",
]


@dataclass
class ConnectionAt(PointBatch):
    """Christoffel symbols and their first derivatives at a point, or at
    each point of a batch, and the curvature they give."""
    n: int
    point: np.ndarray
    gamma: np.ndarray    # gamma[i,j,k] = Gamma^i_jk
    dgamma: np.ndarray   # dgamma[i,j,k,m] = d_m Gamma^i_jk

    @functools.cached_property
    def curvature(self) -> np.ndarray:
        """The connection's `riemann_components`, built on first use."""
        return riemann_components(self.gamma, self.dgamma)


@dataclass
class InverseJets(PointBatch):
    """A metric's inverse with its first derivatives (`inverse_jets`), at
    a point or over a batch."""
    inv: np.ndarray
    dinv: np.ndarray


def checked_inverse(a: np.ndarray, error=SingularMatrixError) -> np.ndarray:
    """The inverse of a matrix, or of each matrix of a batch.  A matrix
    with |det| <= 1e-12 (1 + max|a|)^n is singular: the first one raises
    `error` made from its determinant (`fail_at`)."""
    det = np.linalg.det(a)
    fail_at(np.abs(det) <= 1e-12 * (1.0 + amax(a, 2)) ** a.shape[-1],
            lambda k: error(complex(det[k])))
    return np.linalg.inv(a)


def inverse_jets(a, da):
    """The matrix inverse and its first derivatives from those of the matrix."""
    b = checked_inverse(a)
    return b, -contract("...ip,...pqk,...qj->...ijk", b, da, b)


def inverse_hessian(b, da, dda):
    """Second derivatives of the inverse b of a matrix from b and the
    matrix's first and second derivatives."""
    # -b dda_kl b + t + t swapped, t = (b da_k b)(da_l b)
    bdab = contract("...ip,...pqk,...qr->...irk", b, da, b)
    t = contract("...irk,...rsl,...sj->...ijkl", bdab, da, b)
    return -contract("...ip,...pqkl,...qj->...ijkl", b, dda, b) + t + np.swapaxes(t, -2, -1)


def metric_inverse(st: StructureAt) -> InverseJets:
    """Inverse jets of the first metric of `st`."""
    return InverseJets(*inverse_jets(required(st.g, "metric"), st.dg))


def christoffel_jets(g, dg, ddg, inverse):
    """Levi-Civita Christoffel symbols and their first derivatives, from
    the metric's jets and its inverse's, `inverse` = (g^-1, d g^-1)."""
    ginv, dginv = inverse
    # bracket[q,k,m] = d_k g_qm + d_m g_qk - d_q g_km
    bracket = (contract("...qmk->...qkm", dg) + dg - contract("...kmq->...qkm", dg))
    dbracket = (contract("...qmkp->...qkmp", ddg) + ddg - contract("...kmqp->...qkmp", ddg))
    gamma, dgamma = contract_jets("...iq,...qkm->...ikm", (ginv, dginv), (bracket, dbracket))
    return 0.5 * gamma, 0.5 * dgamma


def levi_civita(st: StructureAt, inverse: InverseJets) -> ConnectionAt:
    """The Levi-Civita connection of the first metric, whose
    `metric_inverse` is `inverse`."""
    gamma, dgamma = christoffel_jets(st.g, st.dg, st.ddg, (inverse.inv, inverse.dinv))
    return ConnectionAt(st.n, st.point, gamma, dgamma)


def counit_jets(st: StructureAt):
    """theta_i = g_il e^l with first and second derivatives, plus the
    exterior derivative dtheta_qf = d_q theta_f - d_f theta_q and its
    first derivatives."""
    # dth[f,q] = d_q theta_f
    theta, dth, ddth = contract_jets("...il,...l->...i", (st.g, st.dg, st.ddg),
                                     (st.e, st.de, st.dde))
    dtheta = np.swapaxes(dth, -2, -1) - dth
    d_dtheta = np.swapaxes(ddth, -3, -2) - ddth  # [q,f,p] = d_p dtheta_qf
    return theta, dth, dtheta, d_dtheta


def natural_connection(st: StructureAt) -> ConnectionAt:
    """The unique torsionless connection whose non-metricity is the
    product-twisted dtheta; Levi-Civita plus the correction
    b^i_kl = -1/2 g^if c^q_kl dtheta_qf."""
    inverse = metric_inverse(st)
    return natural_from_levi_civita(st, levi_civita(st, inverse), inverse, counit_jets(st))


def natural_from_levi_civita(st: StructureAt, lc: ConnectionAt, inverse: InverseJets,
                             counit) -> ConnectionAt:
    """The natural connection built on `lc`, the Levi-Civita connection of
    `st.g` at the same points, from the `metric_inverse` `inverse` that
    `lc` was built on and the `counit_jets(st)` `counit`."""
    _, _, dtheta, d_dtheta = counit
    # m[i,q] = g^if dtheta_qf, contracted with c
    m = contract_jets("...if,...qf->...iq", (inverse.inv, inverse.dinv), (dtheta, d_dtheta))
    b, db = (-0.5 * t for t in contract_jets("...iq,...qkl->...ikl", m, (st.c, st.dc)))
    return ConnectionAt(st.n, st.point, lc.gamma + b, lc.dgamma + db)


def connections_from_exprs(gamma_exprs, points,
                           env: Mapping[str, complex] | None = None) -> ConnectionAt:
    """The connection given by closed-form Christoffel expressions at all
    of `points`, as one batch from one run of the table; the first point
    where it is singular raises the domain error."""
    points = np.asarray(points)
    jets = table_jets(gamma_exprs, points, env, order=1)
    return ConnectionAt(len(gamma_exprs), points, jets.val, jets.grad)


def connection_from_exprs(gamma_exprs, point,
                          env: Mapping[str, complex] | None = None) -> ConnectionAt:
    """Connection given by closed-form Christoffel expressions."""
    return connections_from_exprs(gamma_exprs, [point], env).at(0)


def riemann_components(gamma, dgamma) -> np.ndarray:
    """R^h_ikj = d_k Gamma^h_ij - d_j Gamma^h_ik
                 + Gamma^s_ij Gamma^h_ks - Gamma^s_ik Gamma^h_js."""
    # the second pair of terms is the first with k and j swapped
    return antisym(np.swapaxes(dgamma, -2, -1) + contract("...sij,...hks->...hikj", gamma, gamma))


# ---------------------------------------------------------------------------
# checks: each row's residuals, and its view of the walk (`walk_row`)


def torsion_at(conn: ConnectionAt):
    sc = amax(conn.gamma, 3)
    return Residuals({"torsion": normalized(amax(antisym(conn.gamma), 3), sc)}, sc)


def check_torsionless(spec: ManifoldSpec, points) -> Report:
    return walk_row("torsionless", spec, {}, points)


def flatness_at(conn: ConnectionAt):
    sc = pmax(amax(conn.gamma, 3) ** 2, amax(conn.dgamma, 4))
    return Residuals({"curvature": normalized(amax(conn.curvature, 4), sc)}, sc)


def check_flatness(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("flatness", spec, {}, points, tol)


def nabla_e_at(conn: ConnectionAt, st: StructureAt):
    res = st.de + contract("...iks,...s->...ik", conn.gamma, st.e)
    sc = pmax(amax(conn.gamma, 3), amax(st.de, 2))
    return Residuals({"parallel-unit": normalized(amax(res, 2), sc)}, sc)


def check_nabla_e(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("nabla-e", spec, {}, points, tol)


def nabla_product(conn: ConnectionAt, st: StructureAt) -> np.ndarray:
    """Full covariant derivative nab[k,i,l,j] = nabla_k c^i_lj."""
    return (contract("...iljk->...kilj", st.dc)
            + contract("...ikm,...mlj->...kilj", conn.gamma, st.c)
            - contract("...mkl,...imj->...kilj", conn.gamma, st.c)
            - contract("...mkj,...ilm->...kilj", conn.gamma, st.c))


def compat_product_at(conn: ConnectionAt, st: StructureAt):
    nab = nabla_product(conn, st)
    res = nab - contract("...kilj->...likj", nab)
    sc = pmax(amax(st.c, 3) * (1 + amax(conn.gamma, 3)), amax(st.dc, 4))
    return Residuals({"symmetry": normalized(amax(res, 4), sc)}, sc)


def check_compat_product(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("product-compat", spec, {}, points, tol)


def nabla_metric(conn: ConnectionAt, st: StructureAt) -> np.ndarray:
    """nabg[k,i,j] = nabla_k g_ij."""
    return (contract("...ijk->...kij", st.dg)
            - contract("...ski,...sj->...kij", conn.gamma, st.g)
            - contract("...skj,...is->...kij", conn.gamma, st.g))


def nabla_from_g_at(conn: ConnectionAt, st: StructureAt, counit):
    """Residual of the defining property of the natural connection:
    (nabla_X g)(Y,Z) = 1/2 dtheta(X o Y, Z) + 1/2 dtheta(X o Z, Y), with
    dtheta from `counit`, the `counit_jets(st)`."""
    _, _, dtheta, _ = counit
    nabg = nabla_metric(conn, st)
    rhs = 0.5 * (contract("...ski,...sj->...kij", st.c, dtheta)
                 + contract("...skj,...si->...kij", st.c, dtheta))
    sc = pmax(amax(nabg, 3), amax(dtheta, 2), amax(st.dg, 3))
    return Residuals({"non-metricity": normalized(amax(nabg - rhs, 3), sc)}, sc)


def check_nabla_from_g(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("nabla-from-g", spec, {}, points, tol)


# t[j,i,k,l,m] = R^j_skl c^s_mi and c^j_ms R^s_ikl: matrices of R at (k, l) and c at m
_RC, _BIS = "...js,...si->...ji", "...si,...js->...ji"


@functools.cache
def _rotations(n: int):
    """The slots of the rotations (k,l,m), (m,k,l), (l,m,k) of each k < l < m < n."""
    k, l, m = np.array([*itertools.combinations(range(n), 3)], dtype=np.intp).reshape(-1, 3).T
    return np.r_[k, m, l], np.r_[l, k, m], np.r_[m, l, k]


def _cyclic(subscripts: str, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """t[j,i,k,l,m] + t[j,i,m,k,l] + t[j,i,l,m,k], in that order, for t
    the contraction `subscripts` of `r` at (k, l) and `c` at m, indexed
    [T,j,i] over the triples T = (k < l < m): for `r` antisymmetric in
    (k, l), as a curvature is, the sum's independent entries (none for n <= 2)."""
    x, y, z = _rotations(r.shape[-1])
    t = contract(subscripts, r[..., x, y].swapaxes(-1, -2).swapaxes(-2, -3),
                 c[..., z, :].swapaxes(-2, -3))
    count = len(x) // 3
    return t[..., :count, :, :] + t[..., count:2 * count, :, :] + t[..., 2 * count:, :, :]


def curvature_product_at(conn: ConnectionAt, st: StructureAt):
    """Cyclic product condition on the curvature, in both of its forms:
    the contraction through the last curvature slot and the product acting
    on the curvature output, the parts "slot" and "output", each over the
    triples k < l < m (`_cyclic`): exactly 0.0 for n <= 2."""
    r = conn.curvature
    sc = pmax(amax(r, 4), 1.0) * pmax(amax(st.c, 3), 1.0)
    return Residuals({"slot": normalized(amax(_cyclic(_RC, r, st.c), 3), sc),
                      "output": normalized(amax(_cyclic(_BIS, r, st.c), 3), sc)}, sc)


def check_curvature_product_condition(spec: ManifoldSpec, points) -> Report:
    return walk_row("curvature-product", spec, {}, points)


def r_tr_identity_at(nat: ConnectionAt, lc: ConnectionAt, st: StructureAt):
    """The cyclic sums of the natural and Levi-Civita curvatures agree
    whenever the connections differ by a product-shaped correction; over
    the triples k < l < m (`_cyclic`), so exactly 0.0 for n <= 2."""
    cyclic = _cyclic(_RC, nat.curvature - lc.curvature, st.c)
    sc = pmax(amax(lc.curvature, 4), 1.0) * pmax(amax(st.c, 3), 1.0)
    return Residuals({"cyclic": normalized(amax(cyclic, 3), sc)}, sc)


def check_R_tR_identity(spec: ManifoldSpec, points) -> Report:
    return walk_row("r-tr", spec, {}, points)


def nabla_nabla_E_at(conn: ConnectionAt, st: StructureAt):
    """Second covariant derivative of the Euler field, in the reduced form
    valid for flat connections (meaningful where the connection is flat)."""
    e_gamma = contract("...s,...ikjs->...ikj", required(st.E, "Euler field"), conn.dgamma)
    # (nabla nabla E)^i_kj = d_k d_j E^i + Gamma^i_jl d_k E^l + Gamma^i_km d_j E^m
    #                        - Gamma^m_kj d_m E^i + E(Gamma^i_kj)
    res = (contract("...ijk->...ikj", st.ddE)
           + contract("...ijl,...lk->...ikj", conn.gamma, st.dE)
           + contract("...ikm,...mj->...ikj", conn.gamma, st.dE)
           - contract("...mkj,...im->...ikj", conn.gamma, st.dE)
           + e_gamma)
    sc = pmax(amax(st.dE, 2) * (1 + amax(conn.gamma, 3)), amax(e_gamma, 3))
    return Residuals({"second-derivative": normalized(amax(res, 3), sc)}, sc)


def check_nabla_nabla_E(spec: ManifoldSpec, points) -> Report:
    return walk_row("nabla-nabla-E", spec, {}, points)


# ---------------------------------------------------------------------------
# dual structure


@dataclass
class DualStructureAt(PointBatch):
    """The dual structure at a point or over a batch, with the `Residuals`
    of its identities (`dual_structure`)."""
    cstar: np.ndarray
    dcstar: np.ndarray
    gamma_star: ConnectionAt
    residuals: Residuals


def dual_structure(st: StructureAt, conn: ConnectionAt) -> DualStructureAt:
    """Rescaled product through the Euler field and the dual connection
    Gamma*^k_ij = Gamma^k_ij - c*^l_ji nabla_l E^k, with flatness and the
    reverse reconstruction formula checked as residuals."""
    # (E o)^s_m
    eo = contract_jets("...smt,...t->...sm", (st.c, st.dc), (required(st.E, "Euler field"), st.dE))
    k_inv, dk_inv = inverse_jets(*eo)
    cstar, dcstar = contract_jets("...is,...sjk->...ijk", (k_inv, dk_inv), (st.c, st.dc))
    # nabE[k,l] = nabla_l E^k
    nabE, dnabE = (d + t for d, t in zip((st.dE, st.ddE), contract_jets(
        "...klm,...m->...kl", (conn.gamma, conn.dgamma), (st.E, st.dE))))
    gamma_star, dgamma_star = (a - t for a, t in zip((conn.gamma, conn.dgamma), contract_jets(
        "...lji,...kl->...kij", (cstar, dcstar), (nabE, dnabE))))
    star = ConnectionAt(st.n, st.point, gamma_star, dgamma_star)

    # the parts: dual product axioms, unit E, dual flatness, reverse formula
    assoc = antisym(contract("...sjk,...isl->...ijkl", cstar, cstar))
    unit = contract("...ijk,...j->...ik", cstar, st.E) - np.eye(st.n)
    flat = star.curvature
    nab_star_e = st.de + contract("...ijs,...s->...ij", gamma_star, st.e)  # nabla*_j e^i
    reverse = conn.gamma - (gamma_star - contract("...lji,...kl->...kij", st.c, nab_star_e))
    sc_c = amax(cstar, 3)
    sc_g = pmax(amax(gamma_star, 3) ** 2, amax(dgamma_star, 4))
    parts = {"associativity": normalized(amax(assoc, 4), sc_c ** 2),
             "unit": normalized(amax(unit, 2), sc_c), "flatness": normalized(amax(flat, 4), sc_g),
             "reverse": normalized(amax(reverse, 3), amax(gamma_star, 3))}
    return DualStructureAt(cstar, dcstar, star, Residuals(parts, sc_c))
