"""Test-side constructions that no check of the package runs: parallel
transport of a field along a path (`flat_field_ode`) and integration of the
Lame system around a loop (`integrate_lame`), each by `ode3d.dopri54`, and
the diagonal pencil spec of a tuple of functions f^i
(`semisimple_pencil_from_f`)."""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from fmcheck import exprjet as ej
from fmcheck.manifold import ManifoldSpec, Region, table_jets
from fmcheck.ode3d import dopri54
from fmcheck.tensor import eigenvalues


def christoffel_provider(gamma_exprs, env: Mapping[str, complex] | None = None):
    """Evaluator of the Christoffel values at one point, from a run of the
    table there; raises its domain error."""
    env = dict(env or {})

    def provider(point):
        return table_jets(gamma_exprs, np.asarray(point)[None], env, order=0).val[0]

    return provider


def flat_field_ode(gamma_provider: Callable, x0, path) -> dict:
    """Integrate the parallel-field system d_j X^i = -Gamma^i_js X^s along a
    polygonal path, one `dopri54` run per segment, with `gamma_provider`
    mapping a point to the Christoffel values there (`christoffel_provider`);
    for a closed path the return-to-start residual probes integrability
    (flatness) of the connection.  The endpoint gradient is re-derived by short two-sided
    integrations and compared with the parallel-transport equation."""

    def transport(xv, a, b):
        a, b = np.asarray(a, complex), np.asarray(b, complex)
        dv = b - a
        end = dopri54(lambda t, y: -np.einsum("ijs,j,s->i", gamma_provider(a + t * dv), dv, y),
                      0.0, xv, 1.0)[-1][1]
        return np.asarray(end)

    x = np.asarray(x0, dtype=complex)
    for a, b in zip(path[:-1], path[1:]):
        x = transport(x, a, b)
    start, end = np.asarray(path[0], complex), np.asarray(path[-1], complex)
    closed = np.allclose(start, end)
    closure = float(np.max(np.abs(x - np.asarray(x0, complex)))) / (1 + float(np.max(np.abs(x0)))) \
        if closed else float("nan")
    n = len(x)
    h = 1e-4
    dx = np.zeros((n, n), dtype=complex)
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        plus = transport(x, end, end + step)
        minus = transport(x, end, end - step)
        dx[:, j] = (plus - minus) / (2 * h)
    want = -np.einsum("ijs,s->ij", gamma_provider(end), x)
    return {"X_end": x, "closure": closure, "closed": closed,
            "endpoint_gradient_residual": float(np.max(np.abs(dx - want)))
            / (1 + float(np.max(np.abs(want))))}


def _lame_gradient(beta: np.ndarray, H: np.ndarray) -> np.ndarray:
    """grad[i,j] = d_j H_i per the first-order system: beta_ij H_j off the
    diagonal, and the diagonal closed through e(H_i) = 0."""
    grad = beta * H[None, :]
    np.fill_diagonal(grad, 0.0)
    np.fill_diagonal(grad, -grad.sum(axis=1))
    return grad


def eigenspace_projection(V: np.ndarray, d: complex, vec: np.ndarray) -> np.ndarray:
    """Project `vec` onto the kernel of (V - d*Id); returns `vec` unchanged
    when d is not an eigenvalue, that is when no singular value of V - d*Id
    is within 1e-6 of the largest (or of 1, if that is larger)."""
    n = V.shape[0]
    m = V - complex(d) * np.eye(n)
    u_svd, s, vh = np.linalg.svd(m)
    null_mask = s <= 1e-6 * max(s.max(), 1.0)
    if not np.any(null_mask):
        return vec
    basis = vh[null_mask].conj().T  # columns span the kernel
    coeff, *_ = np.linalg.lstsq(basis, vec, rcond=None)
    return basis @ coeff


def integrate_lame(beta_provider: Callable, d: complex, u0: np.ndarray,
                   H0: np.ndarray) -> dict:
    """Project H0 onto the d-eigenspace of V at u0 and integrate the Lame
    system around the closed axis-aligned square of side 0.2 in the
    (u^1,u^2) plane from u0, one `dopri54` run per side; report the loop
    closure, passed at 1e-6, together with the Euler-weight residual at
    the start and the end of the loop."""
    u0 = np.asarray(u0, dtype=complex)
    V0 = (u0[None, :] - u0[:, None]) * beta_provider(u0)
    eig = eigenvalues(V0)
    H0 = eigenspace_projection(V0, d, np.asarray(H0, dtype=complex))
    if np.max(np.abs(H0)) < 1e-12:
        raise ValueError("initial Lame vector has no component in the requested eigenspace")
    e1, e2 = 0.2 * np.eye(len(u0))[:2]
    path = [u0, u0 + e1, u0 + e1 + e2, u0 + e2, u0]

    def transport(Hv, a, b):
        dv = b - a
        end = dopri54(lambda t, y: _lame_gradient(beta_provider(a + t * dv), np.asarray(y)) @ dv,
                      0.0, Hv, 1.0)[-1][1]
        return np.asarray(end)

    H = H0
    for a, b in zip(path[:-1], path[1:]):
        H = transport(H, a, b)
    closure = float(np.max(np.abs(H - H0))) / (1.0 + float(np.max(np.abs(H0))))

    def euler_residual(Hv):  # at u0, where the loop starts and ends
        return float(np.max(np.abs(V0 @ Hv - complex(d) * Hv))) / (1.0 + float(np.max(np.abs(Hv))))

    return {"H_end": H, "closure": closure, "euler_residual_start": euler_residual(H0),
            "euler_residual_end": euler_residual(H), "eigenvalues": eig,
            "passed": closure <= 1e-6}


def semisimple_pencil_from_f(f_exprs, region: Region | None = None,
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
        name="semisimple-pencil", n=n, coords=tuple(f"u{i+1}" for i in range(n)),
        product="canonical",
        e=tuple("1" for _ in range(n)),
        E=tuple(f"u{i+1}" for i in range(n)),
        g=tuple(tuple(r) for r in g1), g2=tuple(tuple(r) for r in g2),
        params=params or {}, region=region)
