"""Array helpers shared by the checks: characteristic polynomials and
eigenvalues, clustering of near-equal roots, and Lie derivatives of
component arrays.

Index-order conventions used package-wide (derivative axes always last):

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
    highest degree first."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = m @ aux
        coeffs[k] = -np.trace(aux) / k
        aux = aux + coeffs[k] * np.eye(n, dtype=complex)
    return coeffs


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Roots of the characteristic polynomial (companion-matrix solve),
    sorted by real part then imaginary part."""
    data = np.asarray(m, dtype=complex)
    if data.shape[0] == 1:
        vals = np.array([data[0, 0]], dtype=complex)
    else:
        vals = np.roots(charpoly_coefficients(data))
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    return vals[order]


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
    """Lie derivative along X of a tensor of rank <= 3 with any signature.

    `derivs[..., k] = d_k T[...]`, `dx[i, k] = d_k X^i`.
    """
    rank = len(signature)
    out = np.tensordot(derivs, x, axes=(rank, 0))
    for axis, var in enumerate(signature):
        if var == UP:
            term = np.tensordot(values, dx, axes=(axis, 1))
            out = out - np.moveaxis(term, -1, axis)
        else:
            term = np.tensordot(values, dx, axes=(axis, 0))
            out = out + np.moveaxis(term, -1, axis)
    return out
