"""Array helpers shared by the checks: characteristic polynomials and
eigenvalues, clustering of near-equal roots, and Lie derivatives of
component arrays.

Index-order conventions used package-wide (derivative axes always last).
Over a batch of P sample points every array carries one more, leading
point axis, shape (P, ...), ahead of these indices.  The functions that
take such arrays contract and reduce only the indices below (`...`
einsums), so a single point is a batch whose leading axis is empty:

    product        c[i,j,k]        = c^i_jk,    dc[i,j,k,m]   = d_m c^i_jk
    metric         g[i,j],         dg[i,j,k]   = d_k g_ij,    ddg[i,j,k,l]
    vector field   e[i],           de[i,j]     = d_j e^i,     dde[i,j,k]
    christoffels   gamma[i,j,k]    = Gamma^i_jk, dgamma[i,j,k,m]
    curvature      r[h,i,k,j]      = R^h_ikj
                   = d_k Gamma^h_ij - d_j Gamma^h_ik
                     + Gamma^s_ij Gamma^h_ks - Gamma^s_ik Gamma^h_js
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "SingularMatrixError", "eigenvalues", "charpoly_coefficients",
    "cluster_values", "lie_from_components",
]

UP = "u"


class SingularMatrixError(Exception):
    def __init__(self, det: complex):
        super().__init__(f"matrix is numerically singular (|det| = {abs(det):.3e})")
        self.det = det


def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda*I - M) by the Faddeev-LeVerrier recursion,
    highest degree first, of a matrix or of each matrix of a batch."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    coeffs = np.zeros(m.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    aux = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = m @ aux
        coeffs[..., k] = -np.trace(aux, axis1=-2, axis2=-1) / k
        aux = aux + coeffs[..., k, None, None] * np.eye(n, dtype=complex)
    return coeffs


def finite_matrices(a: np.ndarray):
    """`a` with each matrix that is not finite replaced by the identity,
    and the mask of the finite ones: LAPACK's eigenvalue and SVD solvers
    reject a batch that holds a NaN, so the caller marks those results."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    return np.where(finite[..., None, None], a, np.eye(a.shape[-1])), finite


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Roots of the characteristic polynomial (eigenvalues of its companion
    matrix, as `np.roots` finds them) sorted by real, then imaginary part,
    of a matrix or of each of a batch; NaN for a matrix that is not finite."""
    data, finite = finite_matrices(np.asarray(m, dtype=complex))
    n = data.shape[-1]
    companion = np.zeros(data.shape, dtype=complex)
    companion[..., 0, :] = -charpoly_coefficients(data)[..., 1:]
    companion[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    vals = np.where(finite[..., None], np.linalg.eigvals(companion), np.nan)
    return np.take_along_axis(vals, np.lexsort((vals.imag, vals.real), axis=-1), -1)


def cluster_values(values: Sequence[complex], tol: float = 1e-6):
    """Group near-coincident values; returns (representative, multiplicity)."""
    groups: list = []
    for v in values:
        for k, (rep, cnt) in enumerate(groups):
            if abs(v - rep) <= tol:
                groups[k] = ((rep * cnt + v) / (cnt + 1), cnt + 1)
                break
        else:
            groups.append((complex(v), 1))
    return groups


def lie_from_components(values: np.ndarray, derivs: np.ndarray,
                        signature: Sequence[str],
                        x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Lie derivative along X of a tensor of rank <= 3 with any signature,
    at one point or at each point of a leading point axis.

    `derivs[..., k] = d_k T[...]`, `dx[..., i, k] = d_k X^i`.
    """
    idx = "abc"[:len(signature)]
    out = np.einsum(f"...{idx}k,...k->...{idx}", derivs, x)
    for axis, var in enumerate(signature):
        summed = idx[:axis] + "s" + idx[axis + 1:]
        pair = idx[axis] + "s" if var == UP else "s" + idx[axis]
        term = np.einsum(f"...{summed},...{pair}->...{idx}", values, dx)
        out = out - term if var == UP else out + term
    return out
