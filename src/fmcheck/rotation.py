"""Semisimple canonical-coordinate machinery: Lame coefficients, rotation
coefficients, and the overdetermined first-order systems they satisfy.

Branch policy for H_i = sqrt(g_ii): when the spec carries closed-form Lame
expressions those are evaluated directly (no square root ambiguity); when H
is derived from the metric, the principal branch is taken at each point and
`rotation_data_along` continues the sign choice along the sampled sequence.
Chosen signs are recorded on the data object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import exprjet as ej
from .manifold import ManifoldSpec, Report, normalized, point_report, worst
from .tensor import eigenvalues

__all__ = [
    "RotationData", "NonDiagonalMetricError", "ZeroLameError",
    "rotation_data", "rotation_data_along", "v_matrix",
    "check_darboux_system", "check_lame_system", "check_flatness_constraint",
    "check_algebraic_constraints", "check_potentiality",
    "check_reduction_identity", "integrate_lame", "rk4_path",
]

DEFAULT_TOL = 1e-8


class NonDiagonalMetricError(Exception):
    pass


class ZeroLameError(Exception):
    pass


@dataclass
class RotationData:
    n: int
    point: np.ndarray
    H: np.ndarray        # H[i]
    dH: np.ndarray       # dH[i,j] = d_j H_i
    ddH: np.ndarray      # ddH[i,j,k]
    beta: np.ndarray     # beta[i,j] = d_j H_i / H_j, diagonal zeroed
    dbeta: np.ndarray    # dbeta[i,j,k] = d_k beta_ij
    V: np.ndarray        # V[i,j] = (u^j - u^i) beta_ij
    signs: np.ndarray    # branch signs applied on top of the principal sqrt


def _lame_jets_from_metric(g, dg, ddg):
    """Principal-branch jets of H_i = sqrt(g_ii) from the metric jets."""
    off = g - np.diag(np.diag(g))
    if np.max(np.abs(off)) > 1e-12 * (1 + np.max(np.abs(g))):
        raise NonDiagonalMetricError("metric is not diagonal at this point")
    for i in range(g.shape[0]):
        if g[i, i] == 0:
            raise ZeroLameError(f"g_{i}{i} vanishes at this point")
    diag = np.arange(g.shape[0])
    return ej.jet_sqrt((g[diag, diag], dg[diag, diag], ddg[diag, diag]))


def _from_lame_jets(point, H, dH, ddH, signs=None) -> RotationData:
    """Rotation data from the Lame jets, with the branch of each H_i
    flipped where `signs` is -1."""
    n = len(H)
    if signs is None:
        signs = np.ones(n)
    else:
        H, dH, ddH = signs * H, signs[:, None] * dH, signs[:, None, None] * ddH
    beta = np.zeros((n, n), dtype=complex)
    dbeta = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            beta[i, j] = dH[i, j] / H[j]
            dbeta[i, j] = (ddH[i, j] * H[j] - dH[i, j] * dH[j]) / H[j] ** 2
    u = point
    V = (u[None, :] - u[:, None]) * beta
    return RotationData(n=n, point=point, H=H, dH=dH, ddH=ddH,
                        beta=beta, dbeta=dbeta, V=V, signs=signs)


def _rotation_at(point, jets, from_metric: bool, signs=None) -> RotationData:
    """Rotation data from the jets of the Lame table, or of the metric with
    the branch `signs` applied on top of the principal square roots."""
    if not from_metric:
        return _from_lame_jets(point, *jets)
    return _from_lame_jets(point, *_lame_jets_from_metric(*jets), signs)


def rotation_data(spec: ManifoldSpec, point, params=None,
                  lame_exprs: Sequence[str] | None = None,
                  signs=None) -> RotationData:
    """Lame coefficients, rotation coefficients and their first derivatives
    at one point of a semisimple chart."""
    point = np.asarray(point, dtype=complex)
    jets = ej.eval_table(spec.g if lame_exprs is None else lame_exprs, point, spec.env(params))
    return _rotation_at(point, jets, lame_exprs is None, None if signs is None else np.asarray(signs))


def rotation_data_along(spec: ManifoldSpec, points, params=None, lame_exprs=None):
    """Rotation data over a point sequence, yielded one point at a time, with
    the branch of each metric-derived Lame coefficient continued from the
    previous point.  The Lame (or metric) table runs once over all the
    points, when the first point's data is asked for; a point where it is
    singular raises when it is reached."""
    points = np.asarray(points, dtype=complex)
    if not len(points):
        return
    jets = ej.eval_points(spec.g if lame_exprs is None else lame_exprs, points, spec.env(params))
    prev = None
    for k, p in enumerate(points):
        rd = _rotation_at(p, jets.at(k), lame_exprs is None)
        if prev is not None and lame_exprs is None:
            signs = np.where(np.abs(rd.H - prev.H) <= np.abs(rd.H + prev.H), 1.0, -1.0)
            if np.any(signs < 0):
                rd = _from_lame_jets(rd.point, rd.H, rd.dH, rd.ddH, signs)
        yield rd
        prev = rd


def v_matrix(rd: RotationData):
    """V, its sorted eigenvalues, and the homogeneity weight fitted as the
    median of E(H_i)/H_i (robust to one near-zero coefficient)."""
    eig = eigenvalues(rd.V)
    ratios = sorted((np.sum(rd.point * rd.dH[i]) / rd.H[i] for i in range(rd.n)),
                    key=lambda v: (v.real, v.imag))
    d_fit = ratios[len(ratios) // 2]
    return rd.V, eig, d_fit


def _offdiag_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


# ---------------------------------------------------------------------------
# checks: a per-point residual of the point's rotation data, returning the
# normalized residual and its scale, and the check over a point set


def darboux_at(rd: RotationData):
    """Residuals of d_k beta_ij = beta_ik beta_kj, e(beta) = 0 and
    E(beta) = -beta on the canonical chart."""
    u = rd.point
    sc = float(np.max(np.abs(rd.beta)))
    terms = []
    for i, j in _offdiag_pairs(rd.n):
        terms += [abs(rd.dbeta[i, j, k] - rd.beta[i, k] * rd.beta[k, j])
                  for k in range(rd.n) if k not in (i, j)]
        terms.append(abs(np.sum(rd.dbeta[i, j])))
        terms.append(abs(np.sum(u * rd.dbeta[i, j]) + rd.beta[i, j]))
    return normalized(worst(terms), sc + sc * sc), sc


def check_darboux_system(spec, points, tol: float = DEFAULT_TOL, params=None,
                         lame_exprs=None) -> Report:
    rds = rotation_data_along(spec, points, params, lame_exprs)
    return point_report("darboux-system", map(darboux_at, rds), tol)


def lame_system_at(rd: RotationData, d=None, beta_source: Callable | None = None):
    """Residuals of d_j H_i = beta_ij H_j, e(H_i) = 0, E(H_i) = d H_i, with
    d fitted at the point when omitted.  Returns (residual, scale, fitted d)."""
    u = rd.point
    sc = float(np.max(np.abs(rd.H))) * (1 + float(np.max(np.abs(rd.beta))))
    beta = rd.beta if beta_source is None else beta_source(u)
    terms = [abs(rd.dH[i, j] - beta[i, j] * rd.H[j]) for i, j in _offdiag_pairs(rd.n)]
    terms += [abs(np.sum(rd.dH[i])) for i in range(rd.n)]
    _, _, d_fit = v_matrix(rd)
    d_point = d if d is not None else d_fit
    terms += [abs(np.sum(u * rd.dH[i]) - complex(d_point) * rd.H[i]) for i in range(rd.n)]
    return normalized(worst(terms), sc), sc, d_fit


def check_lame_system(spec, points, d=None, beta_source: Callable | None = None,
                      tol: float = DEFAULT_TOL, params=None, lame_exprs=None) -> Report:
    """Residuals of d_j H_i = beta_ij H_j, e(H_i) = 0, E(H_i) = d H_i.

    `beta_source(point) -> beta` supplies externally computed rotation
    coefficients; without it the check of the first equation is vacuous
    (beta is then defined from H itself) but the unit and Euler equations
    remain informative.  With d omitted it is fitted per point and checked
    for consistency.
    """
    rds = rotation_data_along(spec, points, params, lame_exprs)
    return point_report("lame-system", [lame_system_at(rd, d, beta_source) for rd in rds],
                        tol, fit="d")


def flatness_constraint_at(rd: RotationData):
    """d_i beta_ji + d_j beta_ij + sum_{k != i,j} beta_ik beta_jk = 0."""
    sc = float(np.max(np.abs(rd.beta)))
    terms = []
    for i, j in _offdiag_pairs(rd.n):
        acc = rd.dbeta[j, i, i] + rd.dbeta[i, j, j]
        for k in range(rd.n):
            if k not in (i, j):
                acc += rd.beta[i, k] * rd.beta[j, k]
        terms.append(abs(acc))
    return normalized(worst(terms), sc + sc * sc), sc


def check_flatness_constraint(spec, points, tol: float = DEFAULT_TOL, params=None,
                              lame_exprs=None) -> Report:
    rds = rotation_data_along(spec, points, params, lame_exprs)
    return point_report("flatness-constraint", map(flatness_constraint_at, rds), tol)


def algebraic_constraints_at(rd: RotationData, which: str = "ED4bis"):
    """The algebraic reductions of the flatness constraint ("ED4bis") and of
    the second-flat-metric constraint ("ED5b")."""
    u, beta = rd.point, rd.beta
    dbt = beta - beta.T
    sc = float(np.max(np.abs(beta)))
    terms = []
    for i, j in _offdiag_pairs(rd.n):
        acc = 0.0
        for k in range(rd.n):
            if k in (i, j):
                continue
            if which == "ED4bis":
                acc += (u[j] - u[k]) * dbt[i, k] * beta[j, k] + (u[k] - u[i]) * dbt[j, k] * beta[i, k]
            else:
                acc += u[i] * (u[j] - u[k]) * dbt[i, k] * beta[j, k] - u[j] * (u[i] - u[k]) * dbt[j, k] * beta[i, k]
        target = dbt[i, j] if which == "ED4bis" else 0.5 * (u[i] + u[j]) * dbt[i, j]
        terms.append(abs(acc - target))
    return normalized(worst(terms), sc + sc * sc), sc


def check_algebraic_constraints(spec, points, which: str = "ED4bis",
                                tol: float = DEFAULT_TOL, params=None,
                                lame_exprs=None) -> Report:
    rds = rotation_data_along(spec, points, params, lame_exprs)
    return point_report(f"algebraic-{which}", [algebraic_constraints_at(rd, which) for rd in rds],
                        tol)


def potentiality_at(rd: RotationData):
    """beta_ij beta_jk beta_ki = beta_ji beta_ik beta_kj over distinct triples."""
    b = rd.beta
    sc = float(np.max(np.abs(b))) ** 3
    terms = [abs(b[i, j] * b[j, k] * b[k, i] - b[j, i] * b[i, k] * b[k, j])
             for i in range(rd.n) for j in range(rd.n) for k in range(rd.n)
             if len({i, j, k}) == 3]
    return normalized(worst(terms), sc), sc


def check_potentiality(spec, points, tol: float = DEFAULT_TOL, params=None,
                       lame_exprs=None) -> Report:
    rds = rotation_data_along(spec, points, params, lame_exprs)
    return point_report("potentiality", map(potentiality_at, rds), tol)


def reduction_identity_at(rd: RotationData):
    """Identity implied by the unit/Euler equations for beta:
    d_j beta_ij = [sum_{k != i,j} (u^i - u^k) d_k beta_ij - beta_ij] / (u^j - u^i)."""
    u = rd.point
    sc = float(np.max(np.abs(rd.beta)))
    terms = []
    for i, j in _offdiag_pairs(rd.n):
        acc = -rd.beta[i, j]
        for k in range(rd.n):
            if k not in (i, j):
                acc += (u[i] - u[k]) * rd.dbeta[i, j, k]
        terms.append(abs(rd.dbeta[i, j, j] - acc / (u[j] - u[i])))
    return normalized(worst(terms), sc + sc * sc), sc


def check_reduction_identity(spec, points, tol: float = DEFAULT_TOL, params=None,
                             lame_exprs=None) -> Report:
    rds = rotation_data_along(spec, points, params, lame_exprs)
    return point_report("reduction-identity", map(reduction_identity_at, rds), tol)


# ---------------------------------------------------------------------------
# path integration of the Lame system


def rk4_path(rhs: Callable, y0: np.ndarray, t0: float, t1: float, steps: int) -> np.ndarray:
    """Classical fixed-step RK4 for y' = rhs(t, y), deterministic by design."""
    y = np.array(y0, dtype=complex)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def _lame_gradient(beta: np.ndarray, H: np.ndarray) -> np.ndarray:
    """grad[i,j] = d_j H_i per the first-order system: beta_ij H_j off the
    diagonal, and the diagonal closed through e(H_i) = 0."""
    grad = beta * H[None, :]
    np.fill_diagonal(grad, 0.0)
    np.fill_diagonal(grad, -grad.sum(axis=1))
    return grad


def eigenspace_projection(V: np.ndarray, d: complex, vec: np.ndarray,
                          tol: float = 1e-6) -> np.ndarray:
    """Project `vec` onto the kernel of (V - d*Id); returns `vec` unchanged
    when d is not an eigenvalue to within `tol`."""
    n = V.shape[0]
    m = V - complex(d) * np.eye(n)
    u_svd, s, vh = np.linalg.svd(m)
    null_mask = s <= tol * max(s.max(), 1.0)
    if not np.any(null_mask):
        return vec
    basis = vh[null_mask].conj().T  # columns span the kernel
    coeff, *_ = np.linalg.lstsq(basis, vec, rcond=None)
    return basis @ coeff


def integrate_lame(beta_provider: Callable, d: complex, u0: np.ndarray,
                   H0: np.ndarray, path=None, steps_per_side: int = 200,
                   loop_side: float = 0.2, project: bool = True,
                   tol: float = 1e-6) -> dict:
    """Integrate the Lame system along a path (default: a closed axis-aligned
    rectangle of side `loop_side` in the (u^1,u^2) plane) and report the loop
    closure together with the Euler-weight residual at the endpoints."""
    u0 = np.asarray(u0, dtype=complex)
    n = len(u0)
    H0 = np.asarray(H0, dtype=complex)
    V0 = (u0[None, :] - u0[:, None]) * beta_provider(u0)
    eig = eigenvalues(V0)
    if project:
        H0 = eigenspace_projection(V0, d, H0)
        if np.max(np.abs(H0)) < 1e-12:
            raise ValueError("initial Lame vector has no component in the requested eigenspace")
    if path is None:
        e1 = np.zeros(n)
        e2 = np.zeros(n)
        e1[0] = 1.0
        e2[1] = 1.0
        s = loop_side
        path = [u0, u0 + s * e1, u0 + s * e1 + s * e2, u0 + s * e2, u0]

    def segment_rhs(a, b):
        dv = b - a

        def rhs(t, H):
            u = a + t * dv
            grad = _lame_gradient(beta_provider(u), H)
            return grad @ dv

        return rhs

    H = H0.copy()
    for a, b in zip(path[:-1], path[1:]):
        H = rk4_path(segment_rhs(np.asarray(a, complex), np.asarray(b, complex)),
                     H, 0.0, 1.0, steps_per_side)
    u_end = np.asarray(path[-1], dtype=complex)
    closed = np.allclose(np.asarray(path[0], complex), u_end)
    scale = 1.0 + float(np.max(np.abs(H0)))
    closure = float(np.max(np.abs(H - H0))) / scale if closed else float("nan")

    def euler_residual(u, Hv):
        V = (u[None, :] - u[:, None]) * beta_provider(u)
        return float(np.max(np.abs(V @ Hv - complex(d) * Hv))) / (1.0 + float(np.max(np.abs(Hv))))

    out = {
        "H_end": H,
        "closure": closure,
        "euler_residual_start": euler_residual(u0, H0),
        "euler_residual_end": euler_residual(u_end, H),
        "eigenvalues": eig,
        "passed": (not closed or closure <= tol),
    }
    return out
