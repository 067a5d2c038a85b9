import functools
import math

import numpy as np
import pytest

import fmcheck.catalog as cat
from fmcheck.connection import (check_compat_product,
                                check_curvature_product_condition, check_flatness,
                                check_nabla_e, check_nabla_from_g,
                                check_nabla_nabla_E, check_R_tR_identity,
                                check_torsionless, compat_product_at, connection_from_exprs,
                                counit_jets, curvature_product_at, dual_structure, flatness_at,
                                levi_civita, metric_inverse, nabla_e_at, nabla_from_g_at,
                                natural_connection, natural_from_levi_civita, nabla_metric)
from fmcheck.exprjet import parse
from fmcheck.manifold import (DEFAULT_TOL, ManifoldSpec, Region, SamplePlan, StructureAt,
                              batch_report, sample_points, structure_at, structures, worst)
from fmcheck.tensor import SingularMatrixError

from finite_diff import finite_diff_oracle


def euclid(n=2):
    g = tuple(tuple("1" if i == j else "0" for j in range(n)) for i in range(n))
    return ManifoldSpec(name="euclid", n=n, coords=tuple(f"u{i+1}" for i in range(n)),
                        product="canonical", e=("1",) * n, E=tuple(f"u{i+1}" for i in range(n)),
                        g=g, region=Region(box=((0.2, 1.0),) * n, min_sep=0.05))


def test_levi_civita_euclidean_zero():
    st = structure_at(euclid(), np.array([0.5, 0.7]))
    conn = levi_civita(st, metric_inverse(st))
    assert np.max(np.abs(conn.gamma)) == 0.0


def test_levi_civita_metricity():
    spec = cat.entry("lobachevsky").spec
    for p in sample_points(spec, SamplePlan(seed=0, count=10)):
        st = structure_at(spec, p)
        conn = levi_civita(st, metric_inverse(st))
        assert np.max(np.abs(nabla_metric(conn, st))) <= 1e-10 * (1 + np.max(np.abs(st.g)))


def test_levi_civita_diagonal_log_formula():
    # off-diagonal symbols of a diagonal metric are coordinate derivatives
    # of log sqrt(g_ii)
    ent = cat.entry("lauricella-eps-minus1-n3")
    p = np.array([-1.5, -0.4, 1.2])
    st = structure_at(ent.spec, p)
    conn = levi_civita(st, metric_inverse(st))
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
    assert np.max(np.abs(natural_connection(st).gamma
                         - levi_civita(st, metric_inverse(st)).gamma)) == 0.0


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
        lc = levi_civita(st, metric_inverse(st))
        r = lc.curvature
        ginv = np.linalg.inv(st.g)
        r_up = np.einsum("s,s->", ginv[0], r[1, :, 0, 1])
        assert abs(r_up - 1.0) < 1e-8
        # mixed-Riemann antisymmetry in the last two slots
        assert np.max(np.abs(r + np.transpose(r, (0, 1, 3, 2)))) < 1e-12
        # the walk's row on the natural connection, and the Levi-Civita
        # connection in its place
        assert check_flatness(spec, [p]).residual < 1e-8
        assert not batch_report("flatness", flatness_at(lc), DEFAULT_TOL).passed


def test_theorem_connection_suite_over_killing_entries():
    # the natural connection's rows hold on every Riemannian F-manifold:
    # every entry with a metric
    metric = [n for n in cat.names() if cat.entry(n).spec.g is not None]
    assert len(metric) >= 10
    for name in metric:
        spec = cat.entry(name).spec
        pts = sample_points(spec, SamplePlan(seed=9, count=5))
        # each report's residual is its worst over the five points
        assert check_torsionless(spec, pts).passed
        assert check_flatness(spec, pts).residual <= 1e-8
        assert check_nabla_e(spec, pts).residual <= 1e-8
        assert check_compat_product(spec, pts).residual <= 1e-8
        assert check_nabla_from_g(spec, pts).residual <= 1e-8
        assert check_curvature_product_condition(spec, pts).residual <= 1e-8
        assert check_R_tR_identity(spec, pts).residual <= 1e-8


def test_uniqueness_probe():
    # perturbing the connection breaks the defining residual
    spec = cat.entry("lobachevsky").spec
    p = np.array([1.2, -0.2])
    st = structure_at(spec, p)
    nat = natural_connection(st)
    rng = np.random.default_rng(5)
    pert = rng.standard_normal((2, 2, 2)) * 1e-3
    pert = (pert + np.transpose(pert, (0, 2, 1))) / 2
    bumped = type(nat)(nat.n, nat.point, nat.gamma + pert, nat.dgamma)
    rep = batch_report("nabla-from-g", nabla_from_g_at(bumped, st, counit_jets(st)), DEFAULT_TOL)
    assert rep.residual >= 1e-4


@functools.cache
def _symbolic_structure(n: int, commutative: bool):
    """Symbolic g, c and e on u1..un (sympy), and at three points the
    `StructureAt` of their exact jets with sympy's dtheta_qf = d_q theta_f -
    d_f theta_q of theta = g e and its first derivatives.  g is symmetric
    and nondegenerate on the points; c and e are generic, so dtheta is
    nonzero, and so is c's antisymmetric part unless `commutative`."""
    import sympy as sp
    u = sp.symbols(f"u1:{n + 1}")
    g = sp.Matrix(n, n, lambda i, j: (3 + i + u[i] ** 2) * int(i == j)
                  + (u[i] * u[j] + u[i] + u[j]) / 5)
    c = [[[(1 + i + j + k) * u[(i + j + k) % n] + u[j] * u[k] + u[i] * u[j] * u[k] / 3
           + (0 if commutative else (j - 2 * k) * u[i] ** 2)
           for k in range(n)] for j in range(n)] for i in range(n)]
    e = [u[(i + 1) % n] ** 2 + u[i] * u[(i + 1) % n] + i + 1 for i in range(n)]
    theta = [sum(g[i, l] * e[l] for l in range(n)) for i in range(n)]
    dtheta = [[sp.diff(theta[f], u[q]) - sp.diff(theta[q], u[f]) for f in range(n)]
              for q in range(n)]
    jets = {
        "g": g.tolist(),
        "dg": [[[sp.diff(g[i, j], x) for x in u] for j in range(n)] for i in range(n)],
        "ddg": [[[[sp.diff(g[i, j], x, y) for y in u] for x in u] for j in range(n)]
                for i in range(n)],
        "c": c, "dc": [[[[sp.diff(c[i][j][k], x) for x in u] for k in range(n)] for j in range(n)]
                       for i in range(n)],
        "e": e, "de": [[sp.diff(ei, x) for x in u] for ei in e],
        "dde": [[[sp.diff(ei, x, y) for y in u] for x in u] for ei in e],
        "dtheta": dtheta, "d_dtheta": [[[sp.diff(d, x) for x in u] for d in row] for row in dtheta],
    }
    points = np.random.default_rng(n).uniform(0.2, 0.8, (3, n))
    values = {key: np.array([sp.lambdify(u, table, "numpy")(*p) for p in points], dtype=float)
              for key, table in jets.items()}
    dtheta = values.pop("dtheta"), values.pop("d_dtheta")
    return StructureAt(n, points, ddc=None, **values), dtheta


@pytest.mark.parametrize("n", [2, 3])
def test_natural_connection_is_torsionless_exactly_where_the_product_commutes(n):
    # against sympy's jets of symbolic g, c and e: the natural connection's
    # torsion Gamma^i_kl - Gamma^i_lk, and its first derivatives, equal
    # -1/2 g^if dtheta_qf (c^q_kl - c^q_lk): zero for a commutative c, and
    # not zero for this c that does not commute
    for commutative in (True, False):
        st, (dtheta, d_dtheta) = _symbolic_structure(n, commutative)
        inverse = metric_inverse(st)
        nat = natural_from_levi_civita(st, levi_civita(st, inverse), inverse, counit_jets(st))
        torsion = nat.gamma - np.swapaxes(nat.gamma, -1, -2)
        dtorsion = nat.dgamma - np.swapaxes(nat.dgamma, -2, -3)
        twist = st.c - np.swapaxes(st.c, -1, -2)  # c^q_kl - c^q_lk
        dtwist = st.dc - np.swapaxes(st.dc, -2, -3)
        m = np.einsum("...if,...qf->...iq", inverse.val, dtheta)
        dm = (np.einsum("...ifp,...qf->...iqp", inverse.grad, dtheta)
              + np.einsum("...if,...qfp->...iqp", inverse.val, d_dtheta))
        want = -0.5 * np.einsum("...iq,...qkl->...ikl", m, twist)
        dwant = -0.5 * (np.einsum("...iqp,...qkl->...iklp", dm, twist)
                        + np.einsum("...iq,...qklp->...iklp", m, dtwist))
        assert np.max(np.abs(torsion - want)) <= 1e-12 * np.max(np.abs(nat.gamma)), commutative
        assert np.max(np.abs(dtorsion - dwant)) <= 1e-12 * np.max(np.abs(nat.dgamma))
        assert (np.max(np.abs(want)) == 0.0) == commutative
        assert commutative or np.min(np.max(np.abs(torsion), axis=(1, 2, 3))) >= 1e-2


@pytest.mark.parametrize("n", [2, 3])
def test_natural_connection_solves_its_defining_equation(n):
    # against sympy's jets of symbolic g, c and e, commutative or not:
    # (nabla_k g)_ij = 1/2 (c^s_ki dtheta_sj + c^s_kj dtheta_si), with
    # dtheta nonzero, and its first derivatives
    for commutative in (True, False):
        st, (dtheta, d_dtheta) = _symbolic_structure(n, commutative)
        inverse = metric_inverse(st)
        nat = natural_from_levi_civita(st, levi_civita(st, inverse), inverse, counit_jets(st))
        gam, dgam = nat.gamma, nat.dgamma
        nabg = (np.einsum("...ijk->...kij", st.dg) - np.einsum("...ski,...sj->...kij", gam, st.g)
                - np.einsum("...skj,...is->...kij", gam, st.g))
        dnabg = (np.einsum("...ijkm->...kijm", st.ddg)
                 - np.einsum("...skim,...sj->...kijm", dgam, st.g)
                 - np.einsum("...ski,...sjm->...kijm", gam, st.dg)
                 - np.einsum("...skjm,...is->...kijm", dgam, st.g)
                 - np.einsum("...skj,...ism->...kijm", gam, st.dg))
        rhs = 0.5 * (np.einsum("...ski,...sj->...kij", st.c, dtheta)
                     + np.einsum("...skj,...si->...kij", st.c, dtheta))
        drhs = 0.5 * (np.einsum("...skim,...sj->...kijm", st.dc, dtheta)
                      + np.einsum("...ski,...sjm->...kijm", st.c, d_dtheta)
                      + np.einsum("...skjm,...si->...kijm", st.dc, dtheta)
                      + np.einsum("...skj,...sim->...kijm", st.c, d_dtheta))
        assert np.min(np.max(np.abs(rhs), axis=(1, 2, 3))) >= 1e-2
        assert np.max(np.abs(nabg - rhs)) <= 1e-12 * np.max(np.abs(rhs)), commutative
        assert np.max(np.abs(dnabg - drhs)) <= 1e-12 * np.max(np.abs(drhs)), commutative


def test_nabla_e_negative_control():
    spec = cat.entry("lauricella-eps-minus1-n3").spec
    p = np.array([-1.4, -0.5, 1.0])
    st = structure_at(spec, p)
    nat = natural_connection(st)
    bad = type(nat)(nat.n, nat.point, nat.gamma + 1e-2, nat.dgamma)
    assert not batch_report("nabla-e", nabla_e_at(bad, st), DEFAULT_TOL).passed


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
    assert not batch_report("curvature-product", curvature_product_at(conn, st),
                            DEFAULT_TOL).passed


def _cyclic_rank5(subscripts, a, b):
    """The cyclic sum over (k, l, m) of every entry t[j,i,k,l,m] of the
    contraction `subscripts` of `a` and `b`: the rank-5 reference that
    `connection._cyclic` replaces."""
    from fmcheck.tensor import contract
    t = contract(subscripts, a, b)
    out = t + contract("...jimkl->...jiklm", t)
    out += contract("...jilmk->...jiklm", t)
    return out


def test_cyclic_over_triples_matches_the_rank5_sum():
    # over the triples k < l < m, for R antisymmetric in (k, l) and a
    # random non-commutative c (per point, or point-free): per point, the
    # largest |entry| of both cyclic forms is the rank-5 sum's to 4 ulp,
    # and for n = 2, where there is no triple, exactly 0.0
    from fmcheck.connection import _BIS, _RC, _cyclic
    from fmcheck.manifold import amax
    from fmcheck.tensor import antisym
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        for complex_ in (False, True):
            def draw(*shape):
                out = rng.standard_normal(shape)
                return out + 1j * rng.standard_normal(shape) if complex_ else out
            r = antisym(draw(10, n, n, n, n))
            for c in (draw(10, n, n, n), draw(1, n, n, n)):
                assert not np.allclose(c, np.swapaxes(c, -2, -1))
                for got, want in ((_cyclic(_RC, r, c), _cyclic_rank5(
                        "...jskl,...smi->...jiklm", r, c)),
                                  (_cyclic(_BIS, r, c), _cyclic_rank5(
                                      "...jms,...sikl->...jiklm", c, r))):
                    assert got.shape == (10, math.comb(n, 3), n, n)
                    got, want = amax(got, 3), amax(want, 5)
                    if n == 2:
                        assert np.array_equal(got, np.zeros(10)) and (want == 0.0).all()
                    else:
                        assert (want > 0).all()
                        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)


def test_cyclic_rows_fail_where_the_curvature_is_nan():
    # a NaN in R at one point of 10 makes both cyclic rows NaN there, and
    # only there, so that they fail; n = 3, 4
    from types import SimpleNamespace
    from fmcheck.connection import _BIS, _RC, _cyclic, r_tr_identity_at
    from fmcheck.tensor import antisym
    rng = np.random.default_rng(23)
    for n in (3, 4):
        x = rng.standard_normal((10, n, n, n, n))
        x[5, 1, 0, 0, 1] = np.nan
        r = antisym(x)
        c = rng.standard_normal((10, n, n, n))
        lc = SimpleNamespace(curvature=antisym(rng.standard_normal((10, n, n, n, n))))
        st = SimpleNamespace(c=c)
        for subscripts in (_RC, _BIS):  # the sums themselves, not only the scale
            sums = np.isnan(_cyclic(subscripts, r, c)).any(axis=(-3, -2, -1))
            assert sums[5] and not np.delete(sums, 5).any()
        for name, result in (("curvature-product", curvature_product_at(SimpleNamespace(
                curvature=r), st)), ("r-tr", r_tr_identity_at(SimpleNamespace(curvature=r), lc,
                                                               st))):
            for part in result.parts.values():
                assert np.isnan(part[5]) and np.isfinite(np.delete(part, 5)).all(), name
            report = batch_report(name, result, DEFAULT_TOL)
            assert np.isnan(report.residual) and not report.passed and report.npoints == 10


def test_r_tr_identity_on_family():
    spec = cat.entry("nonss3d").spec
    assert check_R_tR_identity(spec, sample_points(spec, SamplePlan(seed=4, count=5))
                               ).residual <= 1e-8


def test_r_tr_identity_reports_as_the_walk_row():
    # the check is the walk's row, named as `verify` names it
    spec = cat.entry("nonss3d").spec
    pts = sample_points(spec, SamplePlan(seed=4, count=3))
    rep = check_R_tR_identity(spec, pts)
    assert vars(rep) == vars(cat.run_checks(spec, {}, ["r-tr"], pts)[0])
    assert rep.name == "r-tr" and rep.npoints == 3


def test_nabla_nabla_E_trivial_and_families():
    assert check_nabla_nabla_E(euclid(), [np.array([0.4, 0.9])]).residual == 0.0
    for name in ("lauricella-eps-minus1-n3", "q0-d0"):
        spec = cat.entry(name).spec
        pts = sample_points(spec, SamplePlan(seed=6, count=4))
        assert check_nabla_nabla_E(spec, pts).residual <= 1e-8


def test_dual_structure_closed_forms():
    ent = cat.entry("lauricella-eps-minus1-n3")
    spec = ent.spec
    p = np.array([-1.3, -0.4, 1.1])
    st = structure_at(spec, p)
    conn = natural_connection(st)
    dual = dual_structure(st, conn)
    assert batch_report("dual-structure", dual.residuals, 1e-8).passed
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
        st = structures(spec, sample_points(spec, SamplePlan(seed=2, count=3)))
        parts = curvature_product_at(levi_civita(st, metric_inverse(st)), st).parts
        assert worst(np.abs(parts["slot"] - parts["output"])) <= 1e-8


def test_levi_civita_not_product_compatible_on_curved_metric():
    # the metric connection of the curved half-plane fails product
    # compatibility; only the counit-twisted connection satisfies it
    spec = cat.entry("lobachevsky").spec
    st = structure_at(spec, np.array([1.6, 0.1]))
    lc = levi_civita(st, metric_inverse(st))
    assert not batch_report("product-compat", compat_product_at(lc, st), DEFAULT_TOL).passed


def _same(got, want, what, k=None):
    # bit for bit, or within the golden-report margin where a reduction
    # order changed the last bits; with k, `got` is a batch and its point
    # k is compared, the only row of an array that has one (a named
    # product, or what is computed from it alone, is point-free)
    from fmcheck.manifold import Residuals
    if isinstance(want, Residuals):
        assert got.show_parts == want.show_parts, what
        _same([got.parts, got.scale, got.fits, got.least],
              [want.parts, want.scale, want.fits, want.least], what, k)
        return
    if isinstance(want, dict):
        assert list(got) == list(want), what
        for key in want:
            _same(got[key], want[key], (what, key), k)
        return
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want), what
        for g, w in zip(got, want):
            _same(g, w, what, k)
        return
    got, want = np.asarray(got), np.asarray(want)
    if k is not None:
        got = got[0 if len(got) == 1 else k]
    assert got.shape == want.shape, what
    if not np.array_equal(got, want, equal_nan=True):
        assert np.all(np.abs(got - want) <= 1e-12 + 1e-6 * np.abs(want)), what


def _batched_functions(spec, comp):
    """The batched functions that apply to `spec`, by name, each mapping a
    structure (a batch, or one point) to its result."""
    from fmcheck import connection as cn, manifold as mf, pencil as pn
    from fmcheck.tensor import lie_from_components
    out = {"product_axioms_at": mf.product_axioms_at, "hertling_manin_at": mf.hertling_manin_at,
           "lie_from_components": lambda st: lie_from_components(st.c, st.dc, ("u", "d", "d"),
                                                                 st.e, st.de)}
    if spec.g is not None:
        def lc(st):
            return cn.levi_civita(st, cn.metric_inverse(st))
        out.update({
            "metric_invariance_at": mf.metric_invariance_at,
            "killing_unit_at": mf.killing_unit_at,
            "checked_inverse": lambda st: cn.checked_inverse(st.g),
            "inverse_jets": lambda st: cn.inverse_jets(st.g, st.dg),
            "inverse_hessian": lambda st: cn.inverse_hessian(cn.checked_inverse(st.g), st.dg,
                                                             st.ddg),
            "metric_inverse": lambda st: (cn.metric_inverse(st).val, cn.metric_inverse(st).grad),
            "christoffel_jets": lambda st: cn.christoffel_jets(st.g, st.dg, st.ddg,
                                                               cn.inverse_jets(st.g, st.dg)),
            "counit_jets": cn.counit_jets,
            "levi_civita": lambda st: (lc(st).gamma, lc(st).dgamma),
            "natural_connection": lambda st: (cn.natural_connection(st).gamma,
                                              cn.natural_connection(st).dgamma),
            "riemann_components": lambda st: cn.riemann_components(lc(st).gamma, lc(st).dgamma),
            "torsion_at": lambda st: cn.torsion_at(cn.natural_connection(st)),
            "flatness_at": lambda st: cn.flatness_at(lc(st)),
            "nabla_e_at": lambda st: cn.nabla_e_at(cn.natural_connection(st), st),
            "compat_product_at": lambda st: cn.compat_product_at(cn.natural_connection(st), st),
            "nabla_from_g_at": lambda st: cn.nabla_from_g_at(cn.natural_connection(st), st,
                                                             cn.counit_jets(st)),
            "curvature_product_at": lambda st: cn.curvature_product_at(lc(st), st),
            "r_tr_identity_at": lambda st: cn.r_tr_identity_at(cn.natural_connection(st), lc(st),
                                                               st),
        })
    if spec.g is not None and spec.E is not None:
        out["homogeneity_at"] = mf.homogeneity_at
        out["nabla_nabla_E_at"] = lambda st: cn.nabla_nabla_E_at(cn.natural_connection(st), st)
        out["fit_scalar"] = lambda st: mf.fit_scalar(
            lie_from_components(st.g, st.dg, ("d", "d"), st.E, st.dE), st.g, 2)
    if "gamma" in comp:
        out["connections_from_exprs"] = lambda st: cn.connections_from_exprs(
            comp["gamma"], st.point.reshape(-1, spec.n), spec.env()).gamma.reshape(
                np.shape(st.point)[:-1] + (spec.n,) * 3)
    if spec.g2 is not None:
        def pa(st):
            return pn.pencil_data(st, cn.metric_inverse(st), lc(st))

        def pencil(st):
            return [getattr(pa(st), f) for f in ("eta_inv", "deta_inv", "g_inv", "dg_inv",
                                                 "ddg_inv", "gamma1", "dgamma1", "gamma2",
                                                 "dgamma2", "L", "dL", "E", "dE", "ddE")]
        out.update({
            "pencil_data": pencil,
            "exactness_at": lambda st: pn.exactness_at(pa(st)),
            "pencil_homogeneity_at": lambda st: pn.pencil_homogeneity_at(pa(st)),
            "flat_pencil_at": lambda st: pn.flat_pencil_at(pa(st)),
        })
        out.update(_pencil_construction_functions())
    out.update(_point_axis_functions(spec, comp))
    return out


def _pencil_construction_functions():
    """The batched functions of the pencil's difference tensor, recursion
    operator and rebuilt product and structure, by name, as in
    `_batched_functions`."""
    from fmcheck import connection as cn, pencil as pn

    def pa(st):
        inverse = cn.metric_inverse(st)
        return pn.pencil_data(st, inverse, cn.levi_civita(st, inverse))

    def weight(st):
        return pn.pencil_weight(pa(st))[0]

    def product(st):
        return pn.product_from_pencil_at(pa(st), pn.delta_jets(pa(st))[0])

    def reconstructed(st):
        # the rebuilt structure and its natural connection (the rows on it,
        # `reconstructed/<row>`, are compared with the other rows below)
        recon = pn.reconstructed_at(pa(st), product(st))
        nat = cn.natural_connection(recon)
        return [getattr(recon, f) for f in ("c", "dc", "E", "dE", "ddE")] + [nat.gamma, nat.dgamma]
    return {
        "pencil_weight": weight,
        "delta_jets": lambda st: pn.delta_jets(pa(st)),
        "delta_identities_at": lambda st: pn.delta_identities_at(pa(st), weight(st),
                                                                 pn.delta_jets(pa(st))),
        "r_operator_at": lambda st: pn.r_operator_at(pa(st), weight(st), cn.counit_jets(st)),
        "product_from_pencil_at": lambda st: [getattr(product(st), f)
                                              for f in ("c", "dc", "residuals")],
        "reconstructed_at": reconstructed,
    }


def _point_axis_functions(spec, comp):
    """The batched functions of the rotation data, the spanning fields, the
    dual structure, the flat chart and a transform that apply to `spec`,
    by name, as in `_batched_functions`."""
    from fmcheck import connection as cn, hamops as hm, legendre as lg, manifold as mf
    from fmcheck import ode3d as ode, rotation as rot
    from fmcheck.manifold import table_jets
    from fmcheck.tensor import eigenvalues
    out = {}

    def points(st):
        return st.point.reshape(-1, spec.n)

    def own(batch, st):
        # the batch, or at a single point its point's data
        return batch if st.point.ndim > 1 else batch.at(0)

    def table(key, st):
        return own(table_jets(key, points(st), spec.env()), st)

    def single(value, st):
        # the batch's arrays, or at a single point its point's
        return value if st.point.ndim > 1 else value[0]

    if "lame" in comp:
        def rd(st):
            return own(rot.rotations(points(st), table_jets(comp["lame"], points(st), spec.env())),
                       st)
        out.update({
            "rotations": lambda st: [getattr(rd(st), f)
                                     for f in ("H", "dH", "ddH", "beta", "dbeta", "V")],
            "lame_weight": lambda st: rot.lame_weight(rd(st)),
            "darboux_at": lambda st: rot.darboux_at(rd(st)),
            "reduction_identity_at": lambda st: rot.reduction_identity_at(rd(st)),
            "lame_system_at": lambda st: rot.lame_system_at(rd(st), spec.expected.get("d")),
            "flatness_constraint_at": lambda st: rot.flatness_constraint_at(rd(st)),
            "algebraic_constraints_at": lambda st: [rot.algebraic_constraints_at(rd(st), which)
                                                    for which in ("ED4bis", "ED5b")],
            "potentiality_at": lambda st: rot.potentiality_at(rd(st)),
            "eigenvalues": lambda st: eigenvalues(rd(st).V),
        })
        if "ode_family" in comp:
            def states(st):
                # builds without raising
                F = rot.closed_forms(comp["ode_family"], points(st), spec.env())
                return single(F.val, st)
            out.update({
                "closed_forms": states,
                "betas_from_F": lambda st: rot.betas_from_F(states(st), st.point),
                "first_integrals": lambda st: ode.first_integrals(states(st).T),
                "lame_system_at(beta)": lambda st: rot.lame_system_at(
                    rd(st), None, rot.betas_from_F(states(st), st.point)),
            })
    if "normal_bundle" in comp:
        nb = comp["normal_bundle"]

        def fields(st):
            return own(hm.spanning_fields(nb, points(st), spec.n, spec.env()), st)
        out.update({
            "spanning_fields": lambda st: (fields(st).val, fields(st).grad),
            "quadratic_expansion_at": lambda st: hm.quadratic_expansion_at(
                st, cn.levi_civita(st, cn.metric_inverse(st)), nb.eps, fields(st).val,
                cn.metric_inverse(st).val),
            "sym_condition_at": lambda st: hm.sym_condition_at(
                st, cn.natural_connection(st), fields(st).val, fields(st).grad),
            "gmc_at": lambda st: hm.gmc_at(st, cn.levi_civita(st, cn.metric_inverse(st)), nb.eps,
                                           fields(st).val, fields(st).grad,
                                           cn.metric_inverse(st).val),
            "rank_of": lambda st: hm.rank_of(fields(st).val),
        })
    if "gamma_star" in comp:
        def dual(st):
            d = cn.dual_structure(st, cn.natural_connection(st))
            return [d.cstar, d.dcstar, d.gamma_star.gamma, d.gamma_star.dgamma, d.residuals]
        out["dual_structure"] = dual
    if "flat_chart" in comp:
        def conn(st):
            if "gamma" not in comp:
                return cn.natural_connection(st)
            return own(cn.connections_from_exprs(comp["gamma"], points(st), spec.env()), st)
        out["flat_coordinates_at"] = lambda st: cat.flat_coordinates_at(
            table(comp["flat_chart"], st), conn(st))
    if "legendre_fields" in comp:
        def field(st):
            x = table(comp["legendre_fields"]["X3"], st)
            return x.val, x.grad, x.hess

        def stbar(st):
            return lg.transformed_at(st, cn.natural_connection(st), *field(st))

        def conj(st):
            return lg.transform_connection(cn.natural_connection(st), st, *field(st))
        out.update({
            "legendre_field_at": lambda st: lg.legendre_field_at(st, cn.natural_connection(st),
                                                                 *field(st)[:2]),
            "transformed_at": lambda st: [getattr(stbar(st), f) for f in ("g", "dg", "ddg")],
            "transform_connection": lambda st: [getattr(conj(st), f) for f in ("gamma", "dgamma")],
            "transform_metric_at": lambda st: lg.transform_metric_at(
                mf.metric_invariance_at(stbar(st)), mf.killing_unit_at(stbar(st)),
                cn.natural_connection(stbar(st)), conj(st)),
            "homogeneous_legendre_at": lambda st: lg.homogeneous_legendre_at(
                st, mf.homogeneity_at(st), mf.homogeneity_at(stbar(st)), *field(st)[:2]),
        })
    return out


def test_batched_functions_and_rows_equal_single_point_runs():
    # every batched function, and every row of the check table (a catalog
    # entry's, a Legendre transform's and its theorems', and a pencil's
    # whose product takes both routes in one batch), gives at each of 10
    # points what it gives on that point alone
    from fmcheck.manifold import structures
    from fmcheck.connection import levi_civita, metric_inverse
    from fmcheck.pencil import pencil_data

    from constructions import semisimple_pencil_from_f
    # R = (Gamma1 - Gamma2) E of this pencil is singular where u2 - u1 = 1
    both = semisimple_pencil_from_f(("exp(-u2)", "exp(u1)"))
    both_points = [np.array(p, dtype=complex) for p in (
        (0.5, 1.5), (0.3, 1.9), (0.25, 1.25), (0.6, 1.1), (0.2, 1.7), (0.75, 1.75), (0.4, 1.2),
        (0.35, 1.35), (0.1, 0.8), (0.45, 1.6))]
    st = structures(both, both_points[:4])
    inverse = metric_inverse(st)
    pa = pencil_data(st, inverse, levi_civita(st, inverse))
    cond = np.linalg.cond(np.einsum("...msl,...l->...ms", pa.gamma1 - pa.gamma2, pa.E))
    assert pa.diagonal.all() and (cond <= 1e8).any() and (cond > 1e8).any()
    entries = [(name, cat.entry(name)) for name in cat.names()]
    entries.append(("semisimple-both-routes", cat.CatalogEntry(both)))
    names = set()
    sources = []
    for name, ent in entries:
        spec, comp = ent.spec, ent.companion
        pts = both_points if spec is both else sample_points(spec, SamplePlan(seed=0, count=10))
        batch = structures(spec, pts)
        singles = [structure_at(spec, p) for p in pts]
        for fn_name, fn in _batched_functions(spec, comp).items():
            result = fn(batch)
            for k, st in enumerate(singles):
                _same(result, fn(st), (name, fn_name, k), k)
            names.add(fn_name)
        # and levi-civita-flat, whose claim no entry makes, and with a
        # metric the natural connection's construction rows, which no walk
        # reports
        rows = cat._chosen(spec, comp, ent.flags | {cat._BY_NAME["levi-civita-flat"].flag})
        if spec.g is not None:
            rows += [cat._BY_NAME["torsionless"], cat._BY_NAME["nabla-from-g"]]
        sources.append((name, spec, comp, pts, rows))
    source = cat.entry("q0-d-minus1")
    fields = source.companion["legendre_fields"]
    for field, target in (("X2", "q0-d0"), ("X3", None)):
        transform = cat.Transform(source.spec, fields[field], field, target)
        comp, rows, _ = transform.rows()
        pts = sample_points(source.spec, SamplePlan(seed=0, count=10))
        sources.append((f"{field}->{target}", source.spec, comp, pts, rows))
    sources.append(("X3 theorems", source.spec, {"legendre_field": fields["X3"]}, pts,
                    [cat._BY_NAME["transform-metric"], cat._BY_NAME["homogeneous-legendre"]]))
    from fmcheck.manifold import Residuals

    def at(value, k):
        # point k of a row's `Residuals`: of each of its arrays over the
        # points, in its parts, groups of parts, fits and least values
        if isinstance(value, Residuals):
            return Residuals(at(value.parts, k), at(value.scale, k), at(value.fits, k),
                             at(value.least, k), value.show_parts)
        if isinstance(value, dict):
            return {key: at(v, k) for key, v in value.items()}
        return value[0 if len(value) == 1 else k]
    for name, spec, comp, pts, rows in sources:
        for row in rows:
            got = row.at(cat._Walk(spec, comp, pts))
            # a row that reads only a named product computes it once
            point_free = row.name == "hertling-manin" and isinstance(spec.product, str)
            assert len(got.scale) == (1 if point_free else len(pts)) and len(pts) == 10
            for k, p in enumerate(pts):
                want = row.at(cat._Walk(spec, comp, [p]))
                _same(at(got, k), at(want, 0), (name, row.name, k))
            names.add("match" if row.name.startswith("match-") else row.name)
    # 39 rows, the 11 theorem rows of the structure rebuilt from the pencil,
    # and the 4 rows that no walk reports
    rows = cat.CHECKS + cat._NAMED
    assert len([c for c in rows if c.name in names]) == len(rows) == 39 + 11 + 4
    # every row and at least 59 batched functions
    assert len(names) >= 39 + 11 + 4 + 59


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_at_one_point_of_a_batch_fails_its_rows(monkeypatch):
    # one array of the structure batch, the rotation data, the spanning
    # fields or the closed-form ODE states is moved by 1e-3, or turns to
    # NaN, at one point of 10, point 5 or the last, 9; each row whose
    # residual the move changes reads that array there, and the NaN makes
    # it NaN, so every row, the pencil's and the rebuilt structure's
    # included, fails at each of the two points
    from fmcheck import hamops, manifold, rotation
    from fmcheck.legendre import HypothesisViolatedError
    poison = {"field": None}

    def poisoning(build):
        def poisoned(*args, **kwargs):
            out = build(*args, **kwargs)
            field, bump, at = poison["field"], poison.get("bump"), poison.get("at")
            value = None if field is None else getattr(out, field, None)
            if value is not None:
                # a point-free array (a named product) is first broadcast
                # to the points, so that the poisoned point is its own
                count = len(getattr(out, "point", value))
                value = np.broadcast_to(value, (count,) + value.shape[1:])
                at_k = (np.arange(len(value)) == at).reshape((-1,) + (1,) * (value.ndim - 1))
                setattr(out, field, np.where(at_k, value + bump, value))
            return out
        return poisoned

    monkeypatch.setattr(cat, "structures", poisoning(manifold.structures))
    # the rows reach the rotation data and the spanning fields through their modules
    monkeypatch.setattr(rotation, "rotations", poisoning(rotation.rotations))
    monkeypatch.setattr(hamops, "spanning_fields", poisoning(hamops.spanning_fields))
    monkeypatch.setitem(cat._BATCHED, "ode", poisoning(cat._BATCHED["ode"]))
    names = ("lobachevsky", "q0-d-minus1", "q0-d0", "af-pencil-n3", "nonss3d",
             "lauricella-eps-minus1-n3", "pencil-63", "case-i")
    runs = [(cat.entry(name), None) for name in names]
    # the natural connection's construction rows, which no walk reports
    runs += [(cat.entry(name), ("torsionless", "nabla-from-g")) for name in names
             if cat.entry(name).spec.g is not None]
    runs += [(cat.entry("lobachevsky"), "levi-civita-flat"),
             (cat.entry("lobachevsky"), "flatness")]
    source = cat.entry("q0-d-minus1")
    x2 = source.companion["legendre_fields"]["X2"]
    runs.append((cat.Transform(source.spec, x2, "X2", "q0-d0"), None))
    runs.append((source, ("transform-metric", "homogeneous-legendre")))
    fields = [name for cls in (manifold.StructureAt, rotation.RotationData, manifold.Jets)
              for name in cls._fields if name not in ("n", "point")]

    def residuals(source, check, rows):
        # by row name, a transform's match-<target> as "match"
        if isinstance(check, tuple):  # rows that only their wrappers pick
            pts = sample_points(source.spec, SamplePlan(seed=0, count=10))
            reports = cat.run_checks(source.spec, {"legendre_field": x2}, check, pts)
        else:
            reports = cat.run_suite(source, seed=0, count=10, check=check).reports
        by_name = {"match" if r.name.startswith("match-") else r.name: r for r in reports}
        return {name: r for name, r in by_name.items() if name in rows}

    rows = {c.name for c in cat.CHECKS + cat._NAMED}
    for at in (5, 9):
        failed = set()
        for source, check in runs:
            poison.update(field=None, at=at)
            base = residuals(source, check, rows)
            assert base, (source.spec.name, check)
            for field in fields:
                poison.update(field=field, bump=1e-3)
                try:
                    moved = residuals(source, check, rows)
                except (HypothesisViolatedError, cat.SingularSampleError):
                    # the moved field is no longer flat, or the moved metric
                    # is no longer diagonal where R is singular
                    moved = None
                poison.update(bump=np.nan)
                for row, r in residuals(source, check, rows).items():
                    if np.isnan(r.residual):
                        assert not r.passed, (source.spec.name, field, row)
                        failed.add(row)
                    elif moved is not None:
                        assert moved[row].residual == base[row].residual, \
                            (source.spec.name, field, row)
        assert failed == rows
