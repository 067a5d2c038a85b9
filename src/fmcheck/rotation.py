"""Semisimple canonical-coordinate machinery: Lame coefficients, rotation
coefficients, and the overdetermined first-order systems they satisfy.

The rotation data come from an entry's Lame table alone, whose closed-form
H_i carry their own branch: a source without one has no rotation rows.  As
the structure (`manifold.structures`), the rotation data of a batch of
points carry a leading point axis; the residual functions (`*_at`) return
their `Residuals` at each point, and at one point (`rotation_data`) scalars.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .manifold import (DEFAULT_TOL, Jets, ManifoldSpec, PointBatch, Report, Residuals, amax,
                       fail_at, normalized, point_walk, walk_row)
from .ode3d import (COMPONENTS, SING_MARGIN, CoordinateCollisionError, ParameterSingularError,
                    _pencil_F, _q0_F, _singular_point)
from .tensor import eigenvalues

__all__ = [
    "RotationData", "rotation_data", "rotations", "lame_weight", "v_matrix",
    "check_darboux_system", "check_lame_system", "check_flatness_constraint",
    "check_algebraic_constraints", "check_potentiality",
    "check_reduction_identity", "betas_from_F", "closed_forms",
]


class RotationData(PointBatch):
    _fields = ("n", "point", "H", "dH", "ddH", "beta", "dbeta", "V")

    def __init__(self, n: int, point, H, dH, ddH, beta, dbeta, V):
        self.n, self.point = n, point
        self.H, self.dH, self.ddH = H, dH, ddH  # H[i], dH[i,j] = d_j H_i, ddH[i,j,k]
        self.beta = beta    # beta[i,j] = d_j H_i / H_j, diagonal zeroed
        self.dbeta = dbeta  # dbeta[i,j,k] = d_k beta_ij
        self.V = V          # V[i,j] = (u^j - u^i) beta_ij


def rotations(points, lame: Jets) -> RotationData:
    """Lame coefficients, rotation coefficients and their first derivatives
    at all of `points`, shape (P, n), as one batch, from the jets `lame` of
    a Lame table over them (`_Walk.table`)."""
    H, dH, ddH = lame
    n = H.shape[-1]
    off = ~np.eye(n, dtype=bool)
    Hj = H[:, None, :]
    with np.errstate(all="ignore"):  # a closed-form H_j may vanish
        beta = np.where(off, dH / Hj, 0)
        dbeta = np.where(off[..., None], (ddH * Hj[..., None] - dH[..., None] * dH[:, None])
                         / (Hj ** 2)[..., None], 0)
    V = (points[:, None, :] - points[:, :, None]) * beta
    return RotationData(n=n, point=points, H=H, dH=dH, ddH=ddH, beta=beta, dbeta=dbeta, V=V)


def rotation_data(spec: ManifoldSpec, point, lame_exprs: Sequence[str]) -> RotationData:
    """Lame coefficients, rotation coefficients and their first derivatives
    at one point of a semisimple chart, from the Lame table `lame_exprs`:
    the walk's, at that point alone."""
    return point_walk(spec, {"lame": lame_exprs}, point).rd.at(0)


def lame_weight(rd: RotationData):
    """The homogeneity weight fitted as the median of E(H_i)/H_i, sorted by
    (real, imag) (robust to one near-zero coefficient): at each point."""
    with np.errstate(all="ignore"):  # a closed-form H_i may vanish
        ratios = np.sum(rd.point[..., None, :] * rd.dH, axis=-1) / rd.H
    return np.sort(ratios, axis=-1)[..., rd.n // 2]


def v_matrix(rd: RotationData):
    """V, its sorted eigenvalues, and the homogeneity weight (`lame_weight`)
    at one point."""
    return rd.V, eigenvalues(rd.V), lame_weight(rd)


def _masks(n):
    """[i, j] where i != j, and [i, j, k] where the three are distinct."""
    i, j, k = np.indices((n, n, n))
    return i[..., 0] != j[..., 0], (i != j) & (j != k) & (i != k)


# ---------------------------------------------------------------------------
# `ode3d`'s F on chart points, z = (u^3 - u^1) / (u^2 - u^1): closed forms and beta


def betas_from_F(F, u) -> np.ndarray:
    """beta_ij = F_ij / (u^max(i,j) - u^min(i,j)), the other entries 0, at
    a point or at each point of a batch: F (P, 6), u (P, 3)."""
    i, j = np.array([(int(name[1]) - 1, int(name[2]) - 1) for name in COMPONENTS]).T
    beta = np.zeros(np.shape(F)[:-1] + (3, 3), dtype=complex)
    beta[..., i, j] = F / (u[..., np.maximum(i, j)] - u[..., np.minimum(i, j)])
    return beta


def closed_forms(family: str, u, env) -> Jets:
    """The closed-form F of the family "q0" (parameters a and b, from
    `env`) or "pencil63" at the z of each chart point of a batch u, shape
    (P, 3), as the values of a `Jets`: F of shape (P, 6); the first point
    where u^1 = u^2, or where z or the closed form is singular, raises."""
    u = np.asarray(u, dtype=complex)
    fail_at(u[:, 1] == u[:, 0], lambda k: CoordinateCollisionError("u^1 == u^2"))
    z = (u[:, 2] - u[:, 0]) / (u[:, 1] - u[:, 0])
    fail_at((np.abs(z) < SING_MARGIN) | (np.abs(z - 1) < SING_MARGIN),
            lambda k: _singular_point(complex(z[k])))
    if family == "q0":
        a, b = complex(env["a"]), complex(env["b"])
        fail_at(a * z + b == 0, lambda k: ParameterSingularError("a*z + b vanishes"))
        with np.errstate(all="ignore"):  # F is not finite where b^2 = -1
            F = np.stack(_q0_F(z, a, b), axis=-1)
    else:
        F = np.stack(_pencil_F(*(np.sqrt(np.where(v.imag == 0, v.real + 0j, v))
                                 for v in (z - 1, -z))), axis=-1)
    return Jets(F)


# ---------------------------------------------------------------------------
# checks: the residual parts and scale at each point of the rotation data,
# and the check over a point set: the walk's row of that name (`walk_row`)
# on the Lame table `lame_exprs`


def darboux_at(rd: RotationData):
    """Residuals of d_k beta_ij = beta_ik beta_kj, e(beta) = 0 and
    E(beta) = -beta on the canonical chart."""
    u, beta, dbeta = rd.point, rd.beta, rd.dbeta
    off, distinct = _masks(rd.n)
    sc = amax(beta, 2)
    # [i, j, k]: beta_ik beta_kj
    prod = beta[..., :, None, :] * np.swapaxes(beta, -2, -1)[..., None, :, :]
    euler = np.sum(u[..., None, None, :] * dbeta, axis=-1) + beta
    return Residuals({key: normalized(res, sc + sc * sc) for key, res in (
        ("darboux", amax(np.where(distinct, dbeta - prod, 0), 3)),
        ("unit", amax(np.where(off, np.sum(dbeta, axis=-1), 0), 2)),
        ("euler", amax(np.where(off, euler, 0), 2)))}, sc)


def check_darboux_system(spec, points, lame_exprs) -> Report:
    return walk_row("darboux-system", spec, {"lame": lame_exprs}, points)


def lame_system_at(rd: RotationData, d=None, beta=None):
    """Residuals of d_j H_i = beta_ij H_j, e(H_i) = 0, E(H_i) = d H_i, with
    d fitted at each point when omitted; `beta`: rotation coefficients
    from another source, at the points of `rd`.  The fit is d."""
    u = rd.point
    off, _ = _masks(rd.n)
    sc = amax(rd.H, 1) * (1 + amax(rd.beta, 2))
    beta = rd.beta if beta is None else beta
    d_fit = lame_weight(rd)
    d_point = d_fit if d is None else complex(d)
    rotation = np.where(off, rd.dH - beta * rd.H[..., None, :], 0)
    euler = np.sum(u[..., None, :] * rd.dH, axis=-1) - np.asarray(d_point)[..., None] * rd.H
    return Residuals({"rotation": normalized(amax(rotation, 2), sc),
                      "unit": normalized(amax(np.sum(rd.dH, axis=-1), 1), sc),
                      "euler": normalized(amax(euler, 1), sc)}, sc, fits={"d": d_fit})


def check_lame_system(spec, points, companion=None, tol: float = DEFAULT_TOL) -> Report:
    """Residuals of d_j H_i = beta_ij H_j, e(H_i) = 0, E(H_i) = d H_i on an
    entry's `companion` data: its Lame table and, with an `ode_family`, the
    rotation coefficients of that family's closed form (without one the
    first equation is vacuous).  d is the spec's expected one, or fitted
    per point and checked for consistency."""
    return walk_row("lame-system", spec, companion or {}, points, tol)


def flatness_constraint_at(rd: RotationData):
    """d_i beta_ji + d_j beta_ij + sum_{k != i,j} beta_ik beta_jk = 0."""
    beta = rd.beta
    off, distinct = _masks(rd.n)
    sc = amax(beta, 2)
    # [i, j]: d_i beta_ji + d_j beta_ij
    acc = np.swapaxes(np.einsum("...jii->...ji", rd.dbeta), -2, -1) + \
        np.einsum("...ijj->...ij", rd.dbeta)
    for k in range(rd.n):
        acc = acc + np.where(distinct[..., k], beta[..., :, None, k] * beta[..., None, :, k], 0)
    return Residuals({"flatness": normalized(amax(np.where(off, acc, 0), 2), sc + sc * sc)}, sc)


def check_flatness_constraint(spec, points, lame_exprs) -> Report:
    return walk_row("flatness-constraint", spec, {"lame": lame_exprs}, points)


def algebraic_constraints_at(rd: RotationData, which: str = "ED4bis"):
    """The algebraic reductions of the flatness constraint ("ED4bis") and of
    the second-flat-metric constraint ("ED5b")."""
    u, beta = rd.point, rd.beta
    off, distinct = _masks(rd.n)
    dbt = beta - np.swapaxes(beta, -2, -1)
    sc = amax(beta, 2)
    ui, uj = u[..., :, None], u[..., None, :]
    acc = 0.0
    for k in range(rd.n):
        # over [i, j]: u^k, dbt_ik, dbt_jk, beta_ik and beta_jk
        uk = u[..., k, None, None]
        dbt_ik, dbt_jk = dbt[..., :, None, k], dbt[..., None, :, k]
        b_ik, b_jk = beta[..., :, None, k], beta[..., None, :, k]
        if which == "ED4bis":
            term = (uj - uk) * dbt_ik * b_jk + (uk - ui) * dbt_jk * b_ik
        else:
            term = ui * (uj - uk) * dbt_ik * b_jk - uj * (ui - uk) * dbt_jk * b_ik
        acc = acc + np.where(distinct[..., k], term, 0)
    target = dbt if which == "ED4bis" else 0.5 * (ui + uj) * dbt
    return Residuals({which: normalized(amax(np.where(off, acc - target, 0), 2), sc + sc * sc)},
                     sc)


def check_algebraic_constraints(spec, points, which: str, lame_exprs) -> Report:
    return walk_row(f"algebraic-{which}", spec, {"lame": lame_exprs}, points)


def potentiality_at(rd: RotationData):
    """beta_ij beta_jk beta_ki = beta_ji beta_ik beta_kj over distinct triples."""
    b = rd.beta
    bt = np.swapaxes(b, -2, -1)
    _, distinct = _masks(rd.n)
    sc = amax(b, 2) ** 3
    # over [i, j, k]: b_ij b_jk b_ki - b_ji b_ik b_kj
    gap = (b[..., :, :, None] * b[..., None, :, :] * bt[..., :, None, :]
           - bt[..., :, :, None] * b[..., :, None, :] * bt[..., None, :, :])
    return Residuals({"potentiality": normalized(amax(np.where(distinct, gap, 0), 3), sc)}, sc)


def check_potentiality(spec, points, lame_exprs) -> Report:
    return walk_row("potentiality", spec, {"lame": lame_exprs}, points)


def reduction_identity_at(rd: RotationData):
    """Identity implied by the unit/Euler equations for beta:
    d_j beta_ij = [sum_{k != i,j} (u^i - u^k) d_k beta_ij - beta_ij] / (u^j - u^i)."""
    u, beta, dbeta = rd.point, rd.beta, rd.dbeta
    off, distinct = _masks(rd.n)
    sc = amax(beta, 2)
    ui, uj = u[..., :, None], u[..., None, :]
    acc = -beta
    for k in range(rd.n):
        acc = acc + np.where(distinct[..., k], (ui - u[..., k, None, None]) * dbeta[..., k], 0)
    gap = np.einsum("...ijj->...ij", dbeta) - acc / np.where(off, uj - ui, 1)
    return Residuals({"reduction": normalized(amax(np.where(off, gap, 0), 2), sc + sc * sc)}, sc)


def check_reduction_identity(spec, points, lame_exprs) -> Report:
    return walk_row("reduction-identity", spec, {"lame": lame_exprs}, points)
