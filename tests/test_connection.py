import numpy as np
import pytest

import fmcheck.catalog as cat
from fmcheck.connection import (check_compat_product,
                                check_curvature_product_condition, check_flatness,
                                check_nabla_e, check_nabla_from_g,
                                check_nabla_nabla_E, check_R_tR_identity,
                                check_torsionless, connection_from_exprs,
                                counit_jets, dual_structure,
                                levi_civita, natural_connection, nabla_metric,
                                riemann_components)
from fmcheck.exprjet import finite_diff_oracle, parse
from fmcheck.manifold import (ManifoldSpec, Region, SamplePlan, sample_points,
                              structure_at)
from fmcheck.tensor import SingularMatrixError


def euclid(n=2):
    g = tuple(tuple("1" if i == j else "0" for j in range(n)) for i in range(n))
    return ManifoldSpec(name="euclid", n=n, coords=tuple(f"u{i+1}" for i in range(n)),
                        product="canonical", e=("1",) * n, E=tuple(f"u{i+1}" for i in range(n)),
                        g=g, region=Region(box=((0.2, 1.0),) * n, min_sep=0.05))


def test_levi_civita_euclidean_zero():
    st = structure_at(euclid(), np.array([0.5, 0.7]))
    conn = levi_civita(st)
    assert np.max(np.abs(conn.gamma)) == 0.0


def test_levi_civita_metricity():
    spec = cat.entry("lobachevsky").spec
    for p in sample_points(spec, SamplePlan(seed=0, count=10)):
        st = structure_at(spec, p)
        conn = levi_civita(st)
        assert np.max(np.abs(nabla_metric(conn, st))) <= 1e-10 * (1 + np.max(np.abs(st.g)))


def test_levi_civita_diagonal_log_formula():
    # off-diagonal symbols of a diagonal metric are coordinate derivatives
    # of log sqrt(g_ii)
    ent = cat.entry("lauricella-eps-minus1-n3")
    p = np.array([-1.5, -0.4, 1.2])
    st = structure_at(ent.spec, p)
    conn = levi_civita(st)
    for i in range(3):
        gii = parse(ent.spec.g[i][i])
        for j in range(3):
            if i == j:
                continue
            grad, _ = finite_diff_oracle(gii, p, ent.spec.params, step=1e-6)
            from fmcheck.exprjet import eval_value
            val = eval_value(gii, p, ent.spec.params)
            assert abs(conn.gamma[i, i, j] - grad[j] / (2 * val)) < 1e-8


def test_counit_and_dtheta_on_half_plane():
    spec = cat.entry("lobachevsky").spec
    p = np.array([1.7, 0.2])
    st = structure_at(spec, p)
    theta, _, dtheta, _ = counit_jets(st)
    w = p[0] - p[1]
    assert np.allclose(theta, [2 / w ** 2, 2 / w ** 2])
    assert abs(dtheta[0, 1] + dtheta[1, 0]) == 0.0
    # oracle: dtheta component from finite differences of theta
    th_expr = parse("2/(x-y)^2*1+0")
    g1, _ = finite_diff_oracle(th_expr, p)
    # theta_1 = theta_2 here, so dtheta_12 = d_1 theta_2 - d_2 theta_1
    assert abs(dtheta[0, 1] - (g1[0] - g1[1])) < 1e-6


def test_dtheta_zero_for_separable_diag_metric():
    spec = ManifoldSpec(name="egorov-ish", n=2, coords=("u1", "u2"),
                        product="canonical", e=("1", "1"),
                        g=(("exp(u1)", "0"), ("0", "exp(u2)")),
                        region=Region(box=((0.1, 1.0), (1.2, 2.0)), min_sep=0.1))
    st = structure_at(spec, np.array([0.5, 1.5]))
    _, _, dtheta, d_dtheta = counit_jets(st)
    assert np.max(np.abs(dtheta)) == 0.0 and np.max(np.abs(d_dtheta)) == 0.0
    # with no counit twist the structure connection is Levi-Civita
    assert np.max(np.abs(natural_connection(st).gamma - levi_civita(st).gamma)) == 0.0


def test_zero_unit_gives_zero_counit():
    spec = ManifoldSpec(name="degenerate", n=2, coords=("u1", "u2"),
                        product="canonical", e=("0", "0"),
                        g=(("exp(u1)", "0"), ("0", "exp(u2)")),
                        region=Region(box=((0.1, 1.0), (1.2, 2.0)), min_sep=0.1))
    st = structure_at(spec, np.array([0.5, 1.5]))
    theta, dth, dtheta, _ = counit_jets(st)
    assert np.max(np.abs(theta)) == 0.0 and np.max(np.abs(dth)) == 0.0
    assert np.max(np.abs(dtheta)) == 0.0


def test_half_plane_curvature_golden():
    spec = cat.entry("lobachevsky").spec
    for p in sample_points(spec, SamplePlan(seed=1, count=5)):
        st = structure_at(spec, p)
        lc = levi_civita(st)
        r = riemann_components(lc.gamma, lc.dgamma)
        ginv = np.linalg.inv(st.g)
        r_up = np.einsum("s,s->", ginv[0], r[1, :, 0, 1])
        assert abs(r_up - 1.0) < 1e-8
        # mixed-Riemann antisymmetry in the last two slots
        assert np.max(np.abs(r + np.transpose(r, (0, 1, 3, 2)))) < 1e-12
        nat = natural_connection(st)
        assert check_flatness(nat).residual < 1e-8
        assert not check_flatness(lc).passed


def test_theorem_connection_suite_over_killing_entries():
    killing = [n for n in cat.names() if "riemannian-f-killing" in cat.entry(n).flags]
    assert len(killing) >= 6
    for name in killing:
        spec = cat.entry(name).spec
        pts = sample_points(spec, SamplePlan(seed=9, count=5))
        for p in pts:
            st = structure_at(spec, p)
            nat = natural_connection(st)
            assert check_torsionless(nat).passed
            assert check_flatness(nat).residual <= 1e-8
            assert check_nabla_e(nat, st).residual <= 1e-8
            assert check_compat_product(nat, st).residual <= 1e-8
            assert check_nabla_from_g(nat, st).residual <= 1e-8
            lc = levi_civita(st)
            assert check_curvature_product_condition(lc, st, "both").residual <= 1e-8
            assert check_R_tR_identity(st).residual <= 1e-8


def test_uniqueness_probe():
    # perturbing the connection breaks the defining residual
    spec = cat.entry("lobachevsky").spec
    p = np.array([1.2, -0.2])
    st = structure_at(spec, p)
    nat = natural_connection(st)
    rng = np.random.default_rng(5)
    pert = rng.standard_normal((2, 2, 2)) * 1e-3
    pert = (pert + np.transpose(pert, (0, 2, 1))) / 2
    bumped = type(nat)(nat.n, nat.point, nat.gamma + pert, nat.dgamma, "explicit")
    assert check_nabla_from_g(bumped, st).residual >= 1e-4


def test_nabla_e_negative_control():
    spec = cat.entry("lauricella-eps-minus1-n3").spec
    p = np.array([-1.4, -0.5, 1.0])
    st = structure_at(spec, p)
    nat = natural_connection(st)
    bad = type(nat)(nat.n, nat.point, nat.gamma + 1e-2, nat.dgamma, "explicit")
    assert not check_nabla_e(bad, st).passed


def test_curvature_product_random_control():
    # needs n >= 3: on a two-dimensional canonical chart the cyclic
    # condition follows from curvature skew-symmetry alone
    spec = cat.entry("q0-d0").spec
    p = np.array([-1.5, -0.3, 1.1])
    st = structure_at(spec, p)
    rng = np.random.default_rng(8)
    zeros = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    conn = connection_from_exprs(zeros, p)
    conn.gamma = rng.standard_normal((3, 3, 3))
    conn.gamma = (conn.gamma + np.transpose(conn.gamma, (0, 2, 1))) / 2
    conn.dgamma = rng.standard_normal((3, 3, 3, 3))
    assert not check_curvature_product_condition(conn, st).passed


def test_r_tr_identity_on_family():
    spec = cat.entry("nonss3d").spec
    for p in sample_points(spec, SamplePlan(seed=4, count=5)):
        st = structure_at(spec, p)
        assert check_R_tR_identity(st).residual <= 1e-8


def test_nabla_nabla_E_trivial_and_families():
    st = structure_at(euclid(), np.array([0.4, 0.9]))
    nat = natural_connection(st)
    assert check_nabla_nabla_E(nat, st).residual == 0.0
    for name in ("lauricella-eps-minus1-n3", "q0-d0"):
        spec = cat.entry(name).spec
        for p in sample_points(spec, SamplePlan(seed=6, count=4)):
            st = structure_at(spec, p)
            assert check_nabla_nabla_E(natural_connection(st), st).residual <= 1e-8


def test_dual_structure_closed_forms():
    ent = cat.entry("lauricella-eps-minus1-n3")
    spec = ent.spec
    p = np.array([-1.3, -0.4, 1.1])
    st = structure_at(spec, p)
    conn = natural_connection(st)
    dual = dual_structure(st, conn)
    assert dual.report.passed
    # rescaled product: (1/u^i) on the canonical diagonal
    for i in range(3):
        assert abs(dual.cstar[i, i, i] - 1 / p[i]) < 1e-12
    # off-diagonal symbols of the dual connection keep the printed form
    for i in range(3):
        for j in range(3):
            if i != j:
                assert abs(dual.gamma_star.gamma[i, i, j] + 1 / (p[i] - p[j])) < 1e-9


def test_dual_structure_singular_at_zero_coordinate():
    ent = cat.entry("lauricella-eps-minus1-n3")
    st = structure_at(ent.spec, np.array([0.0, 1.0, 3.0]))
    conn = natural_connection(st)
    with pytest.raises(SingularMatrixError):
        dual_structure(st, conn)


def test_curvature_variants_agree_on_metric_connections():
    # both cyclic forms of the curvature condition coincide for the
    # Levi-Civita connection of an invariant metric
    for name in ("lobachevsky", "lauricella-eps-minus1-n3", "nonss3d"):
        spec = cat.entry(name).spec
        for p in sample_points(spec, SamplePlan(seed=2, count=3)):
            st = structure_at(spec, p)
            rep = check_curvature_product_condition(levi_civita(st), st, "both")
            assert rep.details["variant_gap"] <= 1e-8


def test_levi_civita_not_product_compatible_on_curved_metric():
    # the metric connection of the curved half-plane fails product
    # compatibility; only the counit-twisted connection satisfies it
    spec = cat.entry("lobachevsky").spec
    st = structure_at(spec, np.array([1.6, 0.1]))
    assert not check_compat_product(levi_civita(st), st).passed
