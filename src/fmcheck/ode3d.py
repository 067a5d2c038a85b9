"""The three-dimensional reduction: six-component ODE system in z, first
integrals, closed-form solution families, and a generic embedded 5(4)
Runge-Kutta integrator (Dormand-Prince pair).

State component order is `COMPONENTS`.  z = 0 and z = 1
are singular points of the system; integration requests whose straight-line
path comes within `SING_MARGIN` of either are rejected, not regularized.

Closed forms are evaluated on principal branches; the recorded convention is
that sqrt(z-1) and sqrt(-z) are continued from principal values at the
initial point of a trajectory.

The module imports only the standard library, so `fmcheck ode` starts
without numpy: a state's F is a tuple of Python complex, `rhs` takes a
sequence, and the rows of `dopri54` are lists.  `integrate` hands `rhs`
itself to `dopri54`, which steps along the segment in z.  Only the
endpoint is a stepped value; the dense rows between steps come from the
pair's continuous extension, so their error is about the requested
tolerance, not the stepper's smaller global error, and the integral
drifts measured on them include that error.  The closed forms over a
batch of chart points, and beta from F, are in `rotation`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "OdeState3", "SingularPointError", "SingularPathError", "StepSizeUnderflowError",
    "CoordinateCollisionError", "ParameterSingularError",
    "rhs", "integrals", "first_integrals", "principal", "closed_form_q0", "closed_form_pencil",
    "dopri54", "integrate",
    "COMPONENTS", "Trajectory",
]

COMPONENTS = ("F12", "F21", "F13", "F31", "F23", "F32")
SING_MARGIN = 1e-3
# the stepper's tolerances, and the dense rows of a trajectory
DEFAULT_RTOL, DEFAULT_ATOL, DEFAULT_ROWS = 1e-10, 1e-12, 16


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
    F: tuple  # six Python complex, in the order of `COMPONENTS`

    def __post_init__(self):
        self.z = complex(self.z)
        self.F = tuple(complex(v) for v in self.F)
        if len(self.F) != 6:
            raise ValueError(f"a state has 6 components, not {len(self.F)}")


def _singular_point(z: complex) -> SingularPointError:
    return SingularPointError(f"z = {z} is within {SING_MARGIN} of a singular point")


def _check_regular(z: complex):
    if abs(z) < SING_MARGIN or abs(z - 1) < SING_MARGIN:
        raise _singular_point(z)


def rhs(z: complex, F: Sequence) -> list:
    """Right-hand sides of the six coupled equations at z, for F (a
    sequence of six) in the order of `COMPONENTS`, as a list."""
    zm1 = z - 1
    if abs(z) < SING_MARGIN or abs(zm1) < SING_MARGIN:  # `_check_regular`, inlined
        raise _singular_point(z)
    f12, f21, f13, f31, f23, f32 = F
    zzm1 = z * zm1
    return [f13 * f32 / zzm1, f23 * f31 / zzm1, -f12 * f23 / zm1, -f32 * f21 / zm1,
            f21 * f13 / z, f31 * f12 / z]


def integrals(state: OdeState3) -> dict:
    """All eight first integrals / constraint functions, plus the (3,3)
    constraint-matrix determinant computed directly and via its
    factorization in terms of the first two integrals."""
    z = state.z
    _check_regular(z)
    f12, f21, f13, f31, f23, f32 = state.F
    d12, d13, d23 = f12 - f21, f13 - f31, f23 - f32
    i1, i2 = first_integrals(state.F)
    # W, the constraint matrix: I3, I4, I5 are its rows applied to (d12, d13, d23)
    w11, w12, w13 = z * z - z, (z - 1) * f23, -z * f13
    w21, w22, w23 = (z * z - z) * f31, (1 - z) * f21, z
    w31, w32, w33 = (z * z - z) * f32, 1 - z, -z * f12
    i3 = w11 * d12 + w12 * d13 + w13 * d23
    i4 = w21 * d12 + w22 * d13 + w23 * d23
    i5 = w31 * d12 + w32 * d13 + w33 * d23
    i6 = -0.5 * d12 + f13 / (z - 1) * d23
    i7 = f21 * (z - 1) / z * d13 - 0.5 * d23
    i8 = f32 * z * d12 - 0.5 * d13
    det_w = (w11 * (w22 * w33 - w23 * w32) - w12 * (w21 * w33 - w23 * w31)
             + w13 * (w21 * w32 - w22 * w31))
    det_w_factored = z * z * (z - 1) ** 2 * (i1 - i2 + 1)
    return {"I1": i1, "I2": i2, "I3": i3, "I4": i4, "I5": i5,
            "I6": i6, "I7": i7, "I8": i8,
            "detW": det_w, "detW_factored": det_w_factored}


def first_integrals(F):
    """I1 and I2 at the six components F (F12, ..., F32): a state's, or
    arrays over a batch (the transpose of its F, shape (6, P))."""
    f12, f21, f13, f31, f23, f32 = F
    return f12 * f21 + f13 * f31 + f23 * f32, f13 * f32 * f21 - f23 * f31 * f12


# ---------------------------------------------------------------------------
# closed-form families


def principal(v) -> complex:
    """Canonicalize a complex scalar for principal-branch functions: a
    negative-zero imaginary part would select the lower side of the cut,
    so exact-real inputs are flattened to +0j."""
    v = complex(v)
    return complex(v.real, 0.0) if v.imag == 0 else v


def closed_form_q0(z, a=1.0, b=1.0) -> OdeState3:
    """Rational solution family on the variety {I1 = -1, I2 = I3 = I4 = I5 = 0}."""
    z = complex(z)
    _check_regular(z)
    a, b = complex(a), complex(b)
    if a * z + b == 0:
        raise ParameterSingularError("a*z + b vanishes")
    return OdeState3(z, _q0_F(z, a, b))


def _q0_F(z, a: complex, b: complex) -> list:
    """The six components of the q0 family at z, a scalar or an array."""
    den = a * z + b
    sb = cmath.sqrt(principal(-b * b - 1))
    return [b * (a + b) / den, -1 / den, z * (a + b) * sb / den, -a * z / (den * sb),
            -(z - 1) * sb / den, -a * b * (z - 1) / (den * sb)]


def closed_form_pencil(z) -> OdeState3:
    """Square-root solution family on {I3 = ... = I8 = 0}, with
    I1 = -3/4 and I2 = 1/4 (so I1 = I2 - 1 as the non-symmetric case
    requires; the eigenvalues of the associated antisymmetric-pattern
    matrix are 1 and -1/2 with multiplicity two)."""
    z = complex(z)
    _check_regular(z)
    return OdeState3(z, _pencil_F(cmath.sqrt(principal(z - 1)), cmath.sqrt(principal(-z))))


def _pencil_F(p, q) -> list:
    """The six components of the pencil family at p = sqrt(z - 1) and
    q = sqrt(-z), scalars or arrays."""
    return [q / (2 * p), -p / (2 * q), -1 / (2 * p), p / 2, -1 / (2 * q), q / 2]


# ---------------------------------------------------------------------------
# embedded Dormand-Prince 5(4)

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                                22 / 525, -1 / 40)
# Shampine's continuous extension: over a step from y of size H, the
# solution at the fraction x of the step is y + H sum_i w_i(x) k_i with
# w_1 = x + _D12 x^2 + _D13 x^3 + _D14 x^4 and w_i = _Di2 x^2 + _Di3 x^3 +
# _Di4 x^4 for i = 3..7 (w_2 = 0); at x = 1 the w_i are the _B weights
_D12, _D13, _D14 = (-8048581381 / 2820520608, 8663915743 / 2820520608,
                    -12715105075 / 11282082432)
_D32, _D33, _D34 = (131558114200 / 32700410799, -68118460800 / 10900136933,
                    87487479700 / 32700410799)
_D42, _D43, _D44 = -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072
_D52, _D53, _D54 = (127303824393 / 49829197408, -318862633887 / 49829197408,
                    701980252875 / 199316789632)
_D62, _D63, _D64 = -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844
_D72, _D73, _D74 = 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423


def dopri54(f: Callable, t0, y0, t1, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
            dense_ts: Sequence | None = None) -> list:
    """Adaptive integration of y' = f(t, y) along the straight segment from
    t0 to t1 (real or complex) for a 1-D complex state: f gets y as a list
    of Python complex and returns a sequence.  Returns [(t, y as a list of
    Python complex), ...] at each dense time (points of the segment) and
    t1.

    The stepper advances a real fraction s of the segment, the stage point
    being t0 + (s + c h) (t1 - t0); only t1 shortens a step.  t1's row is
    the stepped value.  A dense row inside a step comes from the pair's
    4th-order continuous extension over that step's own stages (no extra
    calls of f), so its error is about the requested tolerance, not the
    stepper's smaller global error, and anything measured on the row (such
    as `integrate`'s integral drifts) includes that error.  The stages are
    lists, each written out (numpy's per-call cost would outweigh the
    arithmetic on a few components); the error norm is the RMS of |err| /
    (atol + rtol max(|y|, |y_new|)), infinite where it cannot be formed (a
    zero or overflowing scale), so that the step is rejected.
    """
    y = [complex(v) for v in y0]
    dt = t1 - t0
    if dt == 0:
        return [(t0, y)]
    rows = {t1: 1.0}
    for t in () if dense_ts is None else dense_ts:
        s = ((t - t0) / dt).real
        if s < -1e-12 or s > 1 + 1e-12 or abs(t - (t0 + s * dt)) > 1e-12 * abs(dt):
            raise ValueError("dense output time outside the integration span")
        rows.setdefault(t, s)
    targets = sorted(rows.items(), key=lambda row: row[1])
    out = []
    s, h = 0.0, 1 / 100.0
    k1 = f(t0, y)
    ti = 0
    while True:
        while ti < len(targets) and targets[ti][1] - s <= 1e-14:
            out.append((targets[ti][0], list(y)))
            ti += 1
        if ti == len(targets):
            return out
        h_try = min(h, 1.0 - s)
        if h_try < 1e-14:
            raise StepSizeUnderflowError(f"step size underflow at t = {t0 + s * dt}")
        H = h_try * dt
        k2 = f(t0 + (s + _C2 * h_try) * dt, [v + H * (_A21 * a) for v, a in zip(y, k1)])
        k3 = f(t0 + (s + _C3 * h_try) * dt, [v + H * (_A31 * a + _A32 * b)
                                             for v, a, b in zip(y, k1, k2)])
        k4 = f(t0 + (s + _C4 * h_try) * dt, [v + H * (_A41 * a + _A42 * b + _A43 * c)
                                             for v, a, b, c in zip(y, k1, k2, k3)])
        k5 = f(t0 + (s + _C5 * h_try) * dt, [v + H * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                                             for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
        k6 = f(t0 + (s + h_try) * dt, [v + H * (_A61 * a + _A62 * b + _A63 * c + _A64 * d
                                                + _A65 * e)
                                       for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
        y_new = [v + H * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                 for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t0 + (s + h_try) * dt, y_new)
        try:
            sq = 0.0
            for v, w, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                q = (abs(H * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k))
                     / (atol + rtol * max(abs(v), abs(w))))
                sq += q * q
            err = math.sqrt(sq / len(y))
        except (ZeroDivisionError, OverflowError):
            err = math.inf
        if err <= 1.0:
            s_new = s + h_try
            while ti < len(targets) and targets[ti][1] < s_new - 1e-14:
                x = (targets[ti][1] - s) / h_try
                w1 = x * (1 + x * (_D12 + x * (_D13 + x * _D14)))
                w3 = x * x * (_D32 + x * (_D33 + x * _D34))
                w4 = x * x * (_D42 + x * (_D43 + x * _D44))
                w5 = x * x * (_D52 + x * (_D53 + x * _D54))
                w6 = x * x * (_D62 + x * (_D63 + x * _D64))
                w7 = x * x * (_D72 + x * (_D73 + x * _D74))
                out.append((targets[ti][0],
                            [v + H * (w1 * a + w3 * c + w4 * d + w5 * e + w6 * g + w7 * k)
                             for v, a, c, d, e, g, k in zip(y, k1, k3, k4, k5, k6, k7)]))
                ti += 1
            s = s_new
            y = y_new
            k1 = k7  # FSAL
            factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h = h_try * factor


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
    I_states: list        # integrals() of each state, in the order of `states`
    I_start: dict
    drift_I1: float
    drift_I2: float
    max_constraint_drift: float  # max |I3|,|I4|,|I5| growth along the way


def integrate(state0: OdeState3, z_target, rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL, n_dense: int = DEFAULT_ROWS) -> Trajectory:
    """Integrate along the straight segment from state0.z to z_target and
    monitor the first integrals on a dense grid."""
    z0, z1 = complex(state0.z), complex(z_target)
    for w in (0.0, 1.0):
        if _segment_distance(z0, z1, complex(w)) < SING_MARGIN:
            raise SingularPathError(f"integration path approaches z = {w}")
    dz = z1 - z0
    dense = [z0 + k * (1.0 / n_dense) * dz for k in range(1, n_dense)]  # as np.linspace
    raw = dopri54(rhs, z0, state0.F, z1, rtol=rtol, atol=atol, dense_ts=dense)
    i0 = integrals(state0)
    states, values = [], []
    drift1 = drift2 = cdrift = 0.0
    c0 = max(abs(i0["I3"]), abs(i0["I4"]), abs(i0["I5"]))
    for z, y in raw:
        s = OdeState3(z, y)
        vals = integrals(s)
        drift1 = max(drift1, abs(vals["I1"] - i0["I1"]))
        drift2 = max(drift2, abs(vals["I2"] - i0["I2"]))
        cdrift = max(cdrift, max(abs(vals["I3"]), abs(vals["I4"]), abs(vals["I5"])) - c0)
        states.append((s.z, s))
        values.append(vals)
    return Trajectory(states=states, I_states=values, I_start=i0, drift_I1=drift1,
                      drift_I2=drift2, max_constraint_drift=cdrift)
