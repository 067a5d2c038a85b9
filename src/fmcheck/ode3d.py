"""The three-dimensional reduction: six-component ODE system in z, first
integrals, closed-form solution families, and a generic embedded 5(4)
Runge-Kutta integrator (Dormand-Prince pair).

State component order is (F12, F21, F13, F31, F23, F32).  z = 0 and z = 1
are singular points of the system; integration requests whose straight-line
path comes within `SING_MARGIN` of either are rejected, not regularized.

Closed forms are evaluated on principal branches; the recorded convention is
that sqrt(z-1) and sqrt(-z) are continued from principal values at the
initial point of a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exprjet import principal
from .manifold import Jets, fail_at

__all__ = [
    "OdeState3", "SingularPointError", "SingularPathError", "StepSizeUnderflowError",
    "CoordinateCollisionError", "ParameterSingularError",
    "rhs", "integrals", "first_integrals", "beta_from_F", "betas_from_F", "z_of_point",
    "closed_form_q0", "closed_form_pencil", "closed_forms",
    "dopri54", "integrate",
    "F12", "F21", "F13", "F31", "F23", "F32", "Trajectory",
]

F12, F21, F13, F31, F23, F32 = range(6)
SING_MARGIN = 1e-3


class SingularPointError(Exception):
    pass


class SingularPathError(Exception):
    pass


class StepSizeUnderflowError(Exception):
    pass


class CoordinateCollisionError(Exception):
    pass


class ParameterSingularError(Exception):
    pass


@dataclass
class OdeState3:
    z: complex
    F: np.ndarray  # shape (6,), order (F12, F21, F13, F31, F23, F32)

    def __post_init__(self):
        self.z = complex(self.z)
        self.F = np.asarray(self.F, dtype=complex).reshape(6)


def _singular_point(z: complex) -> SingularPointError:
    return SingularPointError(f"z = {z} is within {SING_MARGIN} of a singular point")


def _check_regular(z: complex):
    if abs(z) < SING_MARGIN or abs(z - 1) < SING_MARGIN:
        raise _singular_point(z)


def rhs(z: complex, F: np.ndarray) -> np.ndarray:
    """Right-hand sides of the six coupled equations at z, for F of shape
    (6,) in the order (F12, F21, F13, F31, F23, F32)."""
    _check_regular(z)
    f12, f21, f13, f31, f23, f32 = F
    out = np.empty(6, dtype=complex)
    out[F12] = f13 * f32 / (z * (z - 1))
    out[F21] = f23 * f31 / (z * (z - 1))
    out[F13] = -f12 * f23 / (z - 1)
    out[F31] = -f32 * f21 / (z - 1)
    out[F23] = f21 * f13 / z
    out[F32] = f31 * f12 / z
    return out


def integrals(state: OdeState3) -> dict:
    """All eight first integrals / constraint functions, plus the (3,3)
    constraint-matrix determinant computed directly and via its
    factorization in terms of the first two integrals."""
    z = state.z
    _check_regular(z)
    f12, f21, f13, f31, f23, f32 = state.F
    d12, d13, d23 = f12 - f21, f13 - f31, f23 - f32
    i1, i2 = _first_two(f12, f21, f13, f31, f23, f32)
    i3 = (z * z - z) * d12 + (z - 1) * f23 * d13 - z * f13 * d23
    i4 = (z * z - z) * f31 * d12 + (1 - z) * f21 * d13 + z * d23
    i5 = (z * z - z) * f32 * d12 + (1 - z) * d13 - z * f12 * d23
    i6 = -0.5 * d12 + f13 / (z - 1) * d23
    i7 = f21 * (z - 1) / z * d13 - 0.5 * d23
    i8 = f32 * z * d12 - 0.5 * d13
    w = np.array([
        [z * z - z, (z - 1) * f23, -z * f13],
        [(z * z - z) * f31, (1 - z) * f21, z],
        [(z * z - z) * f32, 1 - z, -z * f12],
    ], dtype=complex)
    det_w = complex(np.linalg.det(w))
    det_w_factored = z * z * (z - 1) ** 2 * (i1 - i2 + 1)
    return {"I1": i1, "I2": i2, "I3": i3, "I4": i4, "I5": i5,
            "I6": i6, "I7": i7, "I8": i8,
            "detW": det_w, "detW_factored": det_w_factored}


def first_integrals(F):
    """I1 and I2 at a state's F, or at each F of a batch, shape (P, 6)."""
    return _first_two(*F.T)


def _first_two(f12, f21, f13, f31, f23, f32):
    return f12 * f21 + f13 * f31 + f23 * f32, f13 * f32 * f21 - f23 * f31 * f12


def z_of_point(u) -> complex:
    u = np.asarray(u, dtype=complex)
    if u[1] == u[0]:
        raise CoordinateCollisionError("u^1 == u^2")
    return (u[2] - u[0]) / (u[1] - u[0])


def beta_from_F(state: OdeState3, u) -> np.ndarray:
    """Assemble the 3x3 rotation-coefficient matrix at a chart point whose
    cross-ratio variable matches the state."""
    u = np.asarray(u, dtype=complex)
    if len({complex(v) for v in u}) < 3:
        raise CoordinateCollisionError("coordinates must be pairwise distinct")
    z = z_of_point(u)
    if abs(z - state.z) > 1e-12 * (1 + abs(state.z)):
        raise ValueError("point is not on the state's z level set")
    return betas_from_F(state.F, u)


def betas_from_F(F, u) -> np.ndarray:
    """beta_ij = F_ij / (u^max(i,j) - u^min(i,j)), the other entries 0, at
    a point or at each point of a batch: F (P, 6), u (P, 3)."""
    i, j = np.array([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]).T  # of F12 .. F32
    beta = np.zeros(np.shape(F)[:-1] + (3, 3), dtype=complex)
    beta[..., i, j] = F / (u[..., np.maximum(i, j)] - u[..., np.minimum(i, j)])
    return beta


# ---------------------------------------------------------------------------
# closed-form families


def closed_form_q0(z, a=1.0, b=1.0) -> OdeState3:
    """Rational solution family on the variety {I1 = -1, I2 = I3 = I4 = I5 = 0}."""
    z = complex(z)
    _check_regular(z)
    a, b = complex(a), complex(b)
    if a * z + b == 0:
        raise ParameterSingularError("a*z + b vanishes")
    return OdeState3(z, _q0_F(z, a, b))


def _q0_F(z, a: complex, b: complex):
    den = a * z + b
    sb = complex(np.sqrt(principal(-b * b - 1)))
    return np.stack([b * (a + b) / den, -1 / den, z * (a + b) * sb / den, -a * z / (den * sb),
                     -(z - 1) * sb / den, -a * b * (z - 1) / (den * sb)], axis=-1)


def closed_form_pencil(z) -> OdeState3:
    """Square-root solution family on {I3 = ... = I8 = 0}, with
    I1 = -3/4 and I2 = 1/4 (so I1 = I2 - 1 as the non-symmetric case
    requires; the eigenvalues of the associated antisymmetric-pattern
    matrix are 1 and -1/2 with multiplicity two)."""
    z = complex(z)
    _check_regular(z)
    return OdeState3(z, _pencil_F(complex(np.sqrt(principal(z - 1))),
                                  complex(np.sqrt(principal(-z)))))


def _pencil_F(p, q):
    return np.stack([q / (2 * p), -p / (2 * q), -1 / (2 * p), p / 2, -1 / (2 * q), q / 2],
                    axis=-1)


def closed_forms(family: str, u, a=1.0, b=1.0) -> Jets:
    """The closed-form F of the family "q0" (parameters a, b) or "pencil63"
    at the z of each chart point of a batch u, shape (P, 3), as the values
    of a `Jets`: F of shape (P, 6), zero where `z_of_point` or the closed
    form at one point raises, and that error in `errors`."""
    u = np.asarray(u, dtype=complex)
    errors = [None] * len(u)
    fail_at(errors, u[:, 1] == u[:, 0], lambda k: CoordinateCollisionError("u^1 == u^2"))
    with np.errstate(all="ignore"):  # at a point in error
        z = (u[:, 2] - u[:, 0]) / (u[:, 1] - u[:, 0])
        fail_at(errors, (np.abs(z) < SING_MARGIN) | (np.abs(z - 1) < SING_MARGIN),
                lambda k: _singular_point(complex(z[k])))
        if family == "q0":
            a, b = complex(a), complex(b)
            fail_at(errors, a * z + b == 0, lambda k: ParameterSingularError("a*z + b vanishes"))
            F = _q0_F(z, a, b)
        else:
            F = _pencil_F(*(np.sqrt(np.where(v.imag == 0, v.real + 0j, v)) for v in (z - 1, -z)))
    F[[err is not None for err in errors]] = 0
    return Jets(F, errors=errors)


# ---------------------------------------------------------------------------
# embedded Dormand-Prince 5(4)

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _stage_sum(coeffs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """sum(c * k for c, k in zip(coeffs, ks)) over the first len(coeffs)
    stages, with the same bits: one reduction over the stage axis adds the
    terms in stage order onto 0, zero coefficients included."""
    return np.add.reduce(coeffs[:, None] * ks[:len(coeffs)], axis=0, initial=0)


def dopri54(f: Callable, t0: float, y0: np.ndarray, t1: float,
            rtol: float = 1e-10, atol: float = 1e-12,
            dense_ts: Sequence[float] | None = None) -> list:
    """Adaptive integration of y' = f(t, y) over the real parameter t, for
    a 1-D state y.

    Returns [(t, y), ...] at every requested dense time (always including
    t1); complex states are handled natively, the error norm runs over
    real and imaginary parts through abs().  The seven stages of a step
    are the rows of one (7, len(y)) complex array, and each stage sum adds
    its terms in stage order (`_stage_sum`), so a trajectory has the bits
    of the term-by-term Python sum.
    """
    y = np.asarray(y0, dtype=complex).copy()
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0:
        return [(t0, y)]
    dense_ts = [] if dense_ts is None else list(dense_ts)
    targets = sorted(set(float(s) for s in dense_ts) | {float(t1)},
                     key=lambda s: direction * s)
    for s in targets:
        if direction * (s - t0) < -1e-12 or direction * (s - t1) > 1e-12:
            raise ValueError("dense output time outside the integration span")
    out = []
    h = direction * (span / 100.0)
    ks = np.empty((7, y.size), dtype=complex)
    ks[0] = f(t, y)
    ti = 0
    while ti < len(targets):
        target = targets[ti]
        if direction * (target - t) <= 1e-14 * span:
            out.append((target, y.copy()))
            ti += 1
            continue
        h_try = direction * min(abs(h), abs(target - t))
        if abs(h_try) < 1e-14 * span:
            raise StepSizeUnderflowError(f"step size underflow at t = {t}")
        for i in range(1, 7):
            ks[i] = f(t + _DP_C[i] * h_try, y + h_try * _stage_sum(_DP_A[i], ks))
        y_new = y + h_try * _stage_sum(_DP_B5, ks)
        err_vec = h_try * _stage_sum(_DP_ERR, ks)
        tol_vec = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean(np.abs(err_vec / tol_vec) ** 2)))
        if err <= 1.0:
            t = t + h_try
            y = y_new
            ks[0] = ks[6]  # FSAL
            factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h = h_try * factor
    return out


def _segment_distance(z0: complex, z1: complex, w: complex) -> float:
    """Distance from w to the segment [z0, z1] in the complex plane."""
    d = z1 - z0
    if d == 0:
        return abs(w - z0)
    t = ((w - z0) * d.conjugate()).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(w - (z0 + t * d))


@dataclass
class Trajectory:
    states: list          # [(z, OdeState3), ...] at the dense grid
    I_start: dict
    drift_I1: float
    drift_I2: float
    max_constraint_drift: float  # max |I3|,|I4|,|I5| growth along the way


def integrate(state0: OdeState3, z_target, rtol: float = 1e-10,
              atol: float = 1e-12, n_dense: int = 16) -> Trajectory:
    """Integrate along the straight segment from state0.z to z_target and
    monitor the first integrals on a dense grid."""
    z0, z1 = complex(state0.z), complex(z_target)
    for w in (0.0, 1.0):
        if _segment_distance(z0, z1, complex(w)) < SING_MARGIN:
            raise SingularPathError(f"integration path approaches z = {w}")
    dz = z1 - z0

    def f(t, y):
        return dz * rhs(z0 + t * dz, y)

    dense = np.linspace(0.0, 1.0, n_dense + 1)[1:]
    raw = dopri54(f, 0.0, state0.F, 1.0, rtol=rtol, atol=atol, dense_ts=dense)
    i0 = integrals(state0)
    states = []
    drift1 = drift2 = cdrift = 0.0
    c0 = max(abs(i0["I3"]), abs(i0["I4"]), abs(i0["I5"]))
    for t, y in raw:
        s = OdeState3(z0 + t * dz, y)
        vals = integrals(s)
        drift1 = max(drift1, abs(vals["I1"] - i0["I1"]))
        drift2 = max(drift2, abs(vals["I2"] - i0["I2"]))
        cdrift = max(cdrift, max(abs(vals["I3"]), abs(vals["I4"]), abs(vals["I5"])) - c0)
        states.append((s.z, s))
    return Trajectory(states=states, I_start=i0, drift_I1=drift1,
                      drift_I2=drift2, max_constraint_drift=cdrift)
