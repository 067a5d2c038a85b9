import cmath
import itertools
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from fmcheck import ode3d
from fmcheck.exprjet import eval_jet, parse
from fmcheck.ode3d import (COMPONENTS, CoordinateCollisionError, OdeState3,
                           ParameterSingularError, SingularPathError, SingularPointError,
                           StepSizeUnderflowError,
                           closed_form_pencil, closed_form_q0, dopri54, integrals, integrate,
                           rhs)
from fmcheck.rotation import betas_from_F, closed_forms

F12, F21, F31 = (COMPONENTS.index(name) for name in ("F12", "F21", "F31"))


def z_of(u):
    """z = (u^3 - u^1) / (u^2 - u^1) at a chart point."""
    return (u[2] - u[0]) / (u[1] - u[0])


def rhs_fd(fn, z, h=1e-6):
    return (np.asarray(fn(z + h).F) - np.asarray(fn(z - h).F)) / (2 * h)


def test_state_is_six_python_complex():
    s = OdeState3(2, np.arange(6))
    assert type(s.z) is complex and type(s.F) is tuple
    assert [type(v) for v in s.F] == [complex] * 6 and s.F[5] == 5
    for F in ([1j] * 5, [1j] * 7, np.zeros(12)):
        with pytest.raises(ValueError):
            OdeState3(2.0, F)


def test_rhs_zero_state():
    s = OdeState3(2.5, np.zeros(6))
    assert np.max(np.abs(rhs(s.z, s.F))) == 0.0


def test_rhs_singular_points():
    with pytest.raises(SingularPointError):
        rhs(1.0 + 1e-5j, np.ones(6, dtype=complex))
    with pytest.raises(SingularPointError):
        integrals(OdeState3(1e-6, np.ones(6)))


def test_q0_closed_form_values():
    s = closed_form_q0(2.0, 1.0, 1.0)
    assert abs(s.F[F21] + 1 / 3) < 1e-14
    vals = integrals(s)
    assert abs(vals["I1"] + 1.0) < 1e-10
    assert abs(vals["I2"]) < 1e-10
    for k in ("I3", "I4", "I5"):
        assert abs(vals[k]) < 1e-10
    assert np.max(np.abs(rhs(s.z, s.F) - rhs_fd(lambda z: closed_form_q0(z, 1, 1), 2.0))) < 1e-8


def test_q0_parameter_singularities():
    with pytest.raises(ParameterSingularError):
        closed_form_q0(2.0, 1.0, -2.0)


def test_pencil_closed_form_values():
    s = closed_form_pencil(-1.0)
    assert abs(s.F[F31] - 0.5j * np.sqrt(2)) < 1e-14
    vals = integrals(s)
    assert abs(vals["I1"] + 0.75) < 1e-10
    assert abs(vals["I2"] - 0.25) < 1e-10
    for k in range(3, 9):
        assert abs(vals[f"I{k}"]) < 1e-12
    for z in (-1.0, 2.0, 5.5, -0.3):
        s = closed_form_pencil(z)
        assert np.max(np.abs(rhs(s.z, s.F) - rhs_fd(closed_form_pencil, z))) < 1e-8


def test_q0_rhs_oracle_other_params():
    for (z, a, b) in ((2.0, 1.0, 2.0), (3.5, 0.5, 1.0), (-2.0, 1.0, 1.0)):
        s = closed_form_q0(z, a, b)
        assert np.max(np.abs(rhs(s.z, s.F) - rhs_fd(lambda w: closed_form_q0(w, a, b), z))) < 1e-8


def test_det_w_factorization_random_states():
    rng = np.random.default_rng(12)
    for _ in range(50):
        z = complex(rng.uniform(1.5, 4.0), rng.uniform(-1, 1))
        F = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        vals = integrals(OdeState3(z, F))
        scale = 1 + abs(vals["detW"])
        assert abs(vals["detW"] - vals["detW_factored"]) <= 1e-9 * scale


def test_first_integrals_are_conserved_analytically():
    # jet check of dI/dz = dI/dz|_explicit + grad_F I . F' along the flow,
    # with (z, F12, F21, F13, F31, F23, F32) as the jet coordinates u1..u7
    i1 = parse("u2*u3 + u4*u5 + u6*u7")
    i2 = parse("u4*u7*u3 - u6*u5*u2")
    rng = np.random.default_rng(5)
    for _ in range(100):
        zv = complex(rng.uniform(1.5, 3.5), rng.uniform(-0.5, 0.5))
        Fv = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        fdot = rhs(zv, Fv)
        flow = np.concatenate(([1.0], fdot))
        for expr in (i1, i2):
            jet = eval_jet(expr, [zv, *Fv])
            rate = np.dot(jet.grad, flow)
            assert abs(rate) <= 1e-9 * (1 + abs(jet.val))


def test_integrate_endpoint_against_closed_forms():
    traj = integrate(closed_form_pencil(-1.0), -3.0)
    end = traj.states[-1][1]
    assert np.max(np.abs(np.asarray(end.F) - closed_form_pencil(-3.0).F)) < 1e-7
    traj = integrate(closed_form_q0(2.0, 1.0, 2.0), 5.0)
    end = traj.states[-1][1]
    assert np.max(np.abs(np.asarray(end.F) - closed_form_q0(5.0, 1.0, 2.0).F)) < 1e-7


def test_integrate_conserves_constraints_on_variety():
    # states on the constraint variety with asymmetric entries stay on it
    for state in (closed_form_q0(2.2, 1.0, 1.5), closed_form_pencil(2.4)):
        d12 = state.F[F12] - state.F[F21]
        assert abs(d12) > 1e-3  # genuinely non-symmetric data
        traj = integrate(state, state.z + 3.0)
        assert traj.max_constraint_drift <= 1e-6
        assert traj.drift_I1 <= 1e-7 and traj.drift_I2 <= 1e-7


def test_integrate_rejects_singular_paths():
    with pytest.raises(SingularPathError):
        integrate(closed_form_q0(0.5, 1, 1), 1.5)   # crosses z = 1
    with pytest.raises(SingularPathError):
        integrate(closed_form_q0(-0.5, 1, 1), 0.5)  # crosses z = 0


def test_beta_from_F_consistency_both_families():
    u = np.array([0.0, 1.0, 2.0])
    from fmcheck.rotation import rotation_data
    import fmcheck.catalog as cat
    for name, fn in (("q0-d-minus1", lambda z: closed_form_q0(z, 1, 1)),
                     ("pencil-63", closed_form_pencil)):
        ent = cat.entry(name)
        pts = [np.array([-1.6, -0.2, 1.4]), np.array([-2.0, -0.55, 2.8])]
        for p in pts:
            rd = rotation_data(ent.spec, p, lame_exprs=ent.companion["lame"])
            b = betas_from_F(np.asarray(fn(z_of(p)).F), p)
            assert np.max(np.abs(rd.beta - b)) < 1e-9, name
        # the walk's closed forms of the entry's ODE family give the same
        F = closed_forms(ent.companion["ode_family"], np.array(pts), ent.spec.env()).val
        for p, b in zip(pts, betas_from_F(F, np.array(pts))):
            assert np.max(np.abs(betas_from_F(np.asarray(fn(z_of(p)).F), p) - b)) < 1e-12


def test_beta_from_F_errors_and_scaling():
    s = closed_form_q0(2.0, 1, 1)
    with pytest.raises(CoordinateCollisionError):
        closed_forms("q0", np.array([[0.0, 0.0, 2.0]]), {"a": 1.0, "b": 1.0})
    u = np.array([0.0, 1.0, 2.0])
    b1 = betas_from_F(np.asarray(s.F), u)
    b2 = betas_from_F(np.asarray(s.F), 2 * u)  # same z level set, scaled chart
    assert np.max(np.abs(2 * b2 - b1)) < 1e-12


def test_dopri_dense_output_and_direction():
    out = dopri54(lambda t, y: np.array([y[0]]), 0.0, np.array([1.0 + 0j]), -1.0,
                  dense_ts=[-0.25, -0.5, -0.75])
    ts = [t for t, _ in out]
    assert ts == [-0.25, -0.5, -0.75, -1.0]
    for t, y in out:
        assert abs(y[0] - np.exp(t)) < 1e-10, t
    with pytest.raises(ValueError, match="no components"):
        dopri54(lambda t, y: y, 0.0, [], 1.0)


def test_step_count_does_not_depend_on_row_count(monkeypatch):
    # dense rows come from the steps' continuous extension: asking for more
    # rows takes no extra steps, and the rows sit at the requested points
    calls = [0]

    def counted(z, F):
        calls[0] += 1
        return rhs(z, F)

    monkeypatch.setattr(ode3d, "rhs", counted)
    for state, z1 in ((closed_form_q0(2.0 + 0.5j, 1.3, 0.7), 4.0 + 1.5j),
                      (closed_form_pencil(-1.0), -3.0)):
        counts = []
        for n in (1, 64):
            calls[0] = 0
            traj = integrate(state, z1, n_dense=n)
            counts.append(calls[0])
            zs = [z for z, _ in traj.states]
            assert len(zs) == n and zs[-1] == z1
            for k, z in enumerate(zs, start=1):
                assert abs(z - (state.z + k / n * (z1 - state.z))) <= 1e-15 * abs(z1), (n, k)
        assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("rtol", [1e-8, 1e-10, 1e-12])
def test_dense_rows_match_closed_forms(rtol):
    # every row, stepped or interpolated, is within a few rtol of the closed form
    paths = [(lambda z: closed_form_q0(z, 1.0, 2.0), 2.0, 5.0),
             (lambda z: closed_form_q0(z, 1.3, 0.7), 2.0 + 0.5j, 4.0 + 1.5j),
             (closed_form_pencil, -0.5, -6.5),
             (closed_form_pencil, 1.8, 4.8),
             (closed_form_pencil, 2.0 + 0.5j, 4.0 + 1.5j)]
    for family, z0, z1 in paths:
        traj = integrate(family(z0), z1, rtol=rtol, atol=rtol * 1e-2, n_dense=64)
        for z, s in traj.states:
            want = family(z).F
            err = np.max(np.abs(np.asarray(s.F) - want)) / (1 + np.max(np.abs(want)))
            assert err <= 10 * rtol, (z0, z1, z, err / rtol)


# the Dormand-Prince 5(4) tableau, exact; the last row of A is the
# 5th-order weights b, so stage 7 is f at the new solution
DP_C = [Q(0), Q(1, 5), Q(3, 10), Q(4, 5), Q(8, 9), Q(1), Q(1)]
DP_A = [[],
        [Q(1, 5)],
        [Q(3, 40), Q(9, 40)],
        [Q(44, 45), Q(-56, 15), Q(32, 9)],
        [Q(19372, 6561), Q(-25360, 2187), Q(64448, 6561), Q(-212, 729)],
        [Q(9017, 3168), Q(-355, 33), Q(46732, 5247), Q(49, 176), Q(-5103, 18656)],
        [Q(35, 384), Q(0), Q(500, 1113), Q(125, 192), Q(-2187, 6784), Q(11, 84)]]
DP_E = [Q(71, 57600), Q(0), Q(-71, 16695), Q(71, 1920), Q(-17253, 339200), Q(22, 525),
        Q(-1, 40)]
# Shampine's continuous extension: row i holds the coefficients of x, x^2,
# x^3, x^4 in the weight of stage i at the fraction x of a step
DP_P = [[Q(1), Q(-8048581381, 2820520608), Q(8663915743, 2820520608),
         Q(-12715105075, 11282082432)],
        [Q(0)] * 4,
        [Q(0), Q(131558114200, 32700410799), Q(-68118460800, 10900136933),
         Q(87487479700, 32700410799)],
        [Q(0), Q(-1754552775, 470086768), Q(14199869525, 1410260304),
         Q(-10690763975, 1880347072)],
        [Q(0), Q(127303824393, 49829197408), Q(-318862633887, 49829197408),
         Q(701980252875, 199316789632)],
        [Q(0), Q(-282668133, 205662961), Q(2019193451, 616988883),
         Q(-1453857185, 822651844)],
        [Q(0), Q(40617522, 29380423), Q(-110615467, 29380423), Q(69997945, 29380423)]]


def test_continuous_extension_weights():
    # the stepper's constants are the exact weights rounded once; at x = 1
    # they are the 5th-order weights, and for every x they meet the eight
    # order conditions of a 4th-order method (one per rooted tree, as
    # polynomials in x: sum_i w_i(x) phi_i = x^k / gamma)
    tableau = ode3d._TABLEAU
    assert tableau["c"] == tuple(map(float, DP_C[1:]))
    assert tableau["a"] == tuple(tuple(map(float, row)) for row in DP_A[1:])
    assert tableau["e"] == tuple(map(float, DP_E))
    assert tableau["d"] == tuple(tuple(map(float, row[1:])) if any(row) else () for row in DP_P)
    assert [sum(row) for row in DP_P] == DP_A[6] + [Q(0)]
    ac = [sum((a * c for a, c in zip(DP_A[i], DP_C)), Q(0)) for i in range(7)]
    ac2 = [sum((a * c * c for a, c in zip(DP_A[i], DP_C)), Q(0)) for i in range(7)]
    aac = [sum((a * v for a, v in zip(DP_A[i], ac)), Q(0)) for i in range(7)]
    trees = [([Q(1)] * 7, 1, 1), (DP_C, 2, 2), ([c * c for c in DP_C], 3, 3), (ac, 3, 6),
             ([c ** 3 for c in DP_C], 4, 4), ([c * v for c, v in zip(DP_C, ac)], 4, 8),
             (ac2, 4, 12), (aac, 4, 24)]
    for phi, order, gamma in trees:
        got = [sum(DP_P[i][j] * phi[i] for i in range(7)) for j in range(4)]
        assert got == [Q(1, gamma) if j + 1 == order else Q(0) for j in range(4)], (order, gamma)


class _Stop(Exception):
    pass


def _near(got: float, terms: list, ulps: int = 8) -> bool:
    """got is the float sum of exact `terms` to within `ulps` of sum |terms|."""
    return abs(Q(got) - sum(terms)) <= ulps * 2.0 ** -53 * sum(abs(x) for x in terms)


def test_stage_sums_match_sequential_sum():
    # f returns fixed random stages and records (t, y) of every call; the
    # first step's stage times t + c_i H, stage inputs y + H sum_j a_ij k_j
    # and new solution are rebuilt from the exact tableau, and the second
    # step's size from the error norm with the E weights
    rng = np.random.default_rng(8)
    accepted = []
    for _ in range(20):
        t0 = float(rng.uniform(-1, 1))
        t1 = t0 + float(rng.choice([-1, 1]) * rng.uniform(0.5, 2))
        tol = float(10 ** rng.uniform(-4.5, -2.5))
        y0 = (rng.standard_normal(6) + 1j * rng.standard_normal(6)).tolist()
        ks = (rng.standard_normal((13, 6)) + 1j * rng.standard_normal((13, 6))).tolist()
        calls = []

        def f(t, y):
            if len(calls) == len(ks):
                raise _Stop
            calls.append((t, list(y)))
            return ks[len(calls) - 1]

        with pytest.raises(_Stop):
            dopri54(f, t0, y0, t1, rtol=tol, atol=tol)
        h = np.copysign(abs(t1 - t0) / 100, t1 - t0)  # the first step, span/100
        assert calls[0] == (t0, y0)
        for i in range(1, 7):
            t, y = calls[i]
            assert _near(t, [Q(t0), DP_C[i] * Q(h)]), (i, t)
            for j in range(6):
                for part in ("real", "imag"):
                    terms = [Q(getattr(y0[j], part))]
                    terms += [Q(h) * a * Q(getattr(ks[m][j], part)) for m, a in enumerate(DP_A[i])]
                    assert _near(getattr(y[j], part), terms), (i, j, part)
        y_new = calls[6][1]
        err = np.sqrt(np.mean([
            (abs(complex(float(sum(Q(h) * e * Q(ks[m][j].real) for m, e in enumerate(DP_E))),
                         float(sum(Q(h) * e * Q(ks[m][j].imag) for m, e in enumerate(DP_E)))))
             / (tol + tol * max(abs(y0[j]), abs(y_new[j])))) ** 2 for j in range(6)]))
        assert 0.2 < 0.9 * err ** -0.2 < 5.0  # an unclamped step-size factor
        t_next = t0 + h if err <= 1 else t0
        h_next = h * 0.9 * err ** -0.2
        # FSAL: the second attempt calls f only for stages 2..7
        slack = 1e-12 * abs(h_next) + 2.0 ** -52 * abs(t_next)
        assert abs(Q(calls[12][0]) - Q(t_next) - Q(h_next)) <= slack
        accepted.append(err <= 1)
    assert 0 < sum(accepted) < len(accepted)  # both branches of the controller


# the stepper that `ode3d.dopri54` ran before its loop was generated per state
# length: the stages are lists, each built by a comprehension over zip, with
# the tableau's constants rounded once from the exact fractions above
_C2, _C3, _C4, _C5 = (float(c) for c in DP_C[1:5])
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65) = ([float(a) for a in row] for row in DP_A[1:6])
_B1, _, _B3, _B4, _B5, _B6 = map(float, DP_A[6])
_E1, _, _E3, _E4, _E5, _E6, _E7 = map(float, DP_E)
(_D12, _D13, _D14), _, (_D32, _D33, _D34), (_D42, _D43, _D44), (_D52, _D53, _D54), \
    (_D62, _D63, _D64), (_D72, _D73, _D74) = ([float(p) for p in row[1:]] for row in DP_P)


def reference_dopri54(f, t0, y0, t1, rtol=ode3d.DEFAULT_RTOL, atol=ode3d.DEFAULT_ATOL,
                      dense_ts=None):
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


def _linear(rng: random.Random, n: int, scale: float, dt):
    """f(t, y) = M y + g t, on Python complex, for an n-vector g and an
    n x n M whose entries are about `scale` / |dt|, its diagonal shifted so
    that the solution decays along the direction dt; f records each
    call's t."""
    def draw(sigma):
        return complex(rng.gauss(0, sigma), rng.gauss(0, sigma))

    m = [[(draw(scale / n) - (i == j) * 2 * scale) / dt for j in range(n)] for i in range(n)]
    g = [draw(1.0) for _ in range(n)]
    calls = []

    def f(t, y):
        calls.append(t)
        return [sum((mij * yj for mij, yj in zip(row, y)), 0j) + gi * t for row, gi in zip(m, g)]

    return f, calls


def _same(got, want) -> bool:
    return got == want and repr(got) == repr(want)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_generated_stepper_equals_the_reference(n):
    # identical (t, y) rows, to the bit, on random linear systems along
    # real, negative and complex directions; the dense rows lie inside
    # steps and on the ends of accepted and rejected steps (the stage-7
    # times of a first run); on the stiff systems the first step (span/100)
    # is rejected
    rng = random.Random(f"dopri54:{n}")
    segments = ((0.3, 2.1), (1.5, -0.7), (0.5 + 0.2j, -1.0 + 1.5j), (2j, 0.4 - 1j))
    for (t0, t1), scale in itertools.product(segments, (0.3, 2.0, 300.0)):
        f, calls = _linear(rng, n, scale, t1 - t0)
        y0 = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        tol = 10 ** rng.uniform(-11, -6)
        assert dopri54(f, t0, y0, t1, rtol=tol, atol=tol / 10)[-1][0] == t1
        # the second attempt's stage 2 lies before the first's end: it was rejected
        assert scale < 300 or ((calls[7] - t0) / (t1 - t0)).real < 1 / 100
        dense = [t0 + rng.uniform(0, 1) * (t1 - t0) for _ in range(12)] + calls[6::6][::2]
        for kwargs in ({}, {"dense_ts": dense}):
            got = dopri54(f, t0, y0, t1, rtol=tol, atol=tol / 10, **kwargs)
            want = reference_dopri54(f, t0, y0, t1, rtol=tol, atol=tol / 10, **kwargs)
            assert _same(got, want), (n, t0, t1, scale)
    # an f that turns NaN rejects every later step until the step size underflows
    f, _ = _linear(rng, n, 1.0, 1.0)
    nan_f = lambda t, y: f(t, y) if t.real < 1.3 else [complex("nan")] * n  # noqa: E731
    messages = []
    for stepper in (dopri54, reference_dopri54):
        with pytest.raises(StepSizeUnderflowError) as err:
            stepper(nan_f, 1.0, [1j] * n, 2.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and messages[0].startswith("step size underflow at t = 1.2")


def test_integrate_equals_the_reference_on_benchmark_paths(monkeypatch):
    # the 36 paths of one ode-trajectories round, drawn as the benchmark
    # draws them: for each span, four paths from a q0 state, from a pencil63
    # state and from a random state, all in Im z >= 0.3
    rng = random.Random("ode:1:0")

    def upper_path(span):
        while True:
            z0 = complex(round(rng.uniform(-2.0, 3.0), 6), round(rng.uniform(0.3, 2.5), 6))
            z1 = z0 + span * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            z1 = complex(round(z1.real, 6), round(z1.imag, 6))
            if z1.imag >= 0.3:
                return z0, z1

    paths = []
    for span in (0.5, 1.5, 4.0):
        for _ in range(4):
            a, b = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
            z0, z1 = upper_path(span)
            paths.append((closed_form_q0(z0, a, b), z1))
            z0, z1 = upper_path(span)
            paths.append((closed_form_pencil(z0), z1))
            z0, z1 = upper_path(span)
            paths.append((OdeState3(z0, [complex(rng.gauss(0, 0.3), rng.gauss(0, 0.3))
                                         for _ in range(6)]), z1))
    assert len(paths) == 36
    # and a start near z = 1, whose first steps are rejected
    paths.append((OdeState3(1.01 + 0.01j, paths[2][0].F), 3.5))
    got = [integrate(state, z1, rtol=1e-10, atol=1e-12) for state, z1 in paths]
    monkeypatch.setattr(ode3d, "dopri54", reference_dopri54)
    want = [integrate(state, z1, rtol=1e-10, atol=1e-12) for state, z1 in paths]
    def fields(traj):  # a trajectory's fields, each state's as its fields
        return {**vars(traj), "states": [(z, vars(state)) for z, state in traj.states]}

    for g, w in zip(got, want):
        assert _same(fields(g), fields(w)), g.states[0][0]


# generic second-order linear ODE through dopri54


def legendre_coefficients(nu: float, mu: float):
    """Coefficient provider for (1-x^2) y'' - 2x y' + [nu(nu+1) - mu^2/(1-x^2)] y = 0,
    returned in the normal form y'' = p(x) y' + q(x) y."""

    def coeffs(x: complex):
        s = 1 - x * x
        if s == 0:
            raise SingularPointError("x = +-1 is singular")
        return 2 * x / s, -(nu * (nu + 1) - mu * mu / s) / s

    return coeffs


def solve_linear_ode2(coeffs, x0: float, y0: complex, dy0: complex, x_target: float,
                      rtol: float = 1e-10, atol: float = 1e-12, dense_xs=None):
    """Integrate y'' = p(x) y' + q(x) y from (y0, y0') at x0 to x_target.

    Returns [(x, y, y'), ...] at the dense grid (always including x_target).
    """

    def f(x, state):
        y, dy = state
        p, q = coeffs(x)
        return np.array([dy, p * dy + q * y], dtype=complex)

    raw = dopri54(f, float(x0), np.array([y0, dy0], dtype=complex), float(x_target),
                  rtol=rtol, atol=atol, dense_ts=dense_xs)
    return [(x, s[0], s[1]) for x, s in raw]


def test_linear_ode_first_kind_degree_one():
    out = solve_linear_ode2(legendre_coefficients(1, 0), 0.2, 0.2, 1.0, 0.8)
    assert abs(out[-1][1] - 0.8) < 1e-9


def test_linear_ode_degree_two():
    p2 = lambda x: (3 * x * x - 1) / 2
    out = solve_linear_ode2(legendre_coefficients(2, 0), 0.1, p2(0.1), 3 * 0.1, 0.7)
    assert abs(out[-1][1] - p2(0.7)) < 1e-8


def test_linear_ode_wronskian_abel_identity():
    xs = list(np.linspace(-0.4, 0.45, 12))
    s1 = solve_linear_ode2(legendre_coefficients(-0.5, 1), -0.4, 1.0, 0.0, 0.45, dense_xs=xs)
    s2 = solve_linear_ode2(legendre_coefficients(-0.5, 1), -0.4, 0.0, 1.0, 0.45, dense_xs=xs)
    ws = [(1 - x * x) * (y1 * dy2 - y2 * dy1)
          for (x, y1, dy1), (_, y2, dy2) in zip(s1, s2)]
    assert max(abs(w - ws[0]) for w in ws) < 1e-7


def _constraint_jacobian(s, keys, eps=1e-7):
    base = integrals(s)
    jac = np.zeros((len(keys), 6), dtype=complex)
    for j in range(6):
        F = np.array(s.F)
        F[j] += eps
        vals = integrals(OdeState3(s.z, F))
        for r, k in enumerate(keys):
            jac[r, j] = (vals[k] - base[k]) / eps
    return jac


def test_constraint_rank_drops_on_q0_variety():
    # the Jacobian of the five constraint functions has rank 4 on the
    # rational-family variety and full rank 5 at a generic state
    keys = [f"I{k}" for k in range(1, 6)]
    sv = np.linalg.svd(_constraint_jacobian(closed_form_q0(2.0, 1.0, 1.0), keys),
                       compute_uv=False)
    assert int(np.sum(sv > 1e-4 * sv.max())) == 4
    generic = OdeState3(2.0, np.arange(1, 7) + 0.5j)
    sv = np.linalg.svd(_constraint_jacobian(generic, keys), compute_uv=False)
    assert int(np.sum(sv > 1e-4 * sv.max())) == 5


def test_zero_state_beta_is_zero():
    b = betas_from_F(np.asarray(OdeState3(2.0, np.zeros(6)).F), np.array([0.0, 1.0, 2.0]))
    assert np.max(np.abs(b)) == 0.0


def test_each_component_gives_the_beta_of_its_pair():
    # Fij alone is beta_ij times |u^j - u^i|, and every other beta is 0
    u = np.array([0.0, 1.0, 3.0])
    pairs = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))
    for k, (name, (i, j)) in enumerate(zip(COMPONENTS, pairs, strict=True)):
        want = np.zeros((3, 3))
        want[i, j] = 1 / abs(u[j] - u[i])
        assert np.array_equal(betas_from_F(np.eye(6)[k], u), want), name


def test_det_w_vanishes_on_nonsymmetric_variety():
    rng = np.random.default_rng(21)
    for _ in range(20):
        z = rng.uniform(1.6, 3.2)
        for s in (closed_form_q0(z, 1.0, rng.uniform(0.5, 2.0)), closed_form_pencil(z)):
            vals = integrals(s)
            scale = max(1.0, abs(z) ** 2 * abs(z - 1) ** 2 * 2)
            assert abs(vals["detW"]) <= 1e-9 * scale
