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


def _same(got, want, what, k=None):
    # bit for bit, or within the golden-report margin where a reduction
    # order changed the last bits; with k, `got` is a batch and its point
    # k is compared
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
        got = got[k]
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
        out.update({
            "metric_invariance_at": mf.metric_invariance_at,
            "killing_unit_at": mf.killing_unit_at,
            "checked_inverse": lambda st: cn.checked_inverse(st.g),
            "inverse_jets": lambda st: cn.inverse_jets(st.g, st.dg, st.ddg),
            "metric_inverse": lambda st: (cn.metric_inverse(st).inv, cn.metric_inverse(st).dinv),
            "christoffel_jets": lambda st: cn.christoffel_jets(st.g, st.dg, st.ddg),
            "counit_jets": cn.counit_jets,
            "levi_civita": lambda st: (cn.levi_civita(st).gamma, cn.levi_civita(st).dgamma),
            "natural_connection": lambda st: (cn.natural_connection(st).gamma,
                                              cn.natural_connection(st).dgamma),
            "riemann_components": lambda st: cn.riemann_components(cn.levi_civita(st).gamma,
                                                                   cn.levi_civita(st).dgamma),
            "torsion_at": lambda st: cn.torsion_at(cn.natural_connection(st)),
            "flatness_at": lambda st: cn.flatness_at(cn.levi_civita(st)),
            "nabla_e_at": lambda st: cn.nabla_e_at(cn.natural_connection(st), st),
            "compat_product_at": lambda st: cn.compat_product_at(cn.natural_connection(st), st),
            "nabla_from_g_at": lambda st: cn.nabla_from_g_at(cn.natural_connection(st), st),
            "curvature_product_at": lambda st: cn.curvature_product_at(cn.levi_civita(st), st,
                                                                       "both"),
            "r_tr_identity_at": lambda st: cn.r_tr_identity_at(cn.natural_connection(st),
                                                               cn.levi_civita(st), st),
        })
    if spec.g is not None and spec.E is not None:
        out["homogeneity_at"] = mf.homogeneity_at
        out["nabla_nabla_E_at"] = lambda st: cn.nabla_nabla_E_at(cn.natural_connection(st), st)
        out["fit_scalar"] = lambda st: mf.fit_scalar(
            lie_from_components(st.g, st.dg, ("d", "d"), st.E, st.dE), st.g, rank=2)
    if "gamma" in comp:
        out["connections_from_exprs"] = lambda st: cn.connections_from_exprs(
            comp["gamma"], st.point.reshape(-1, spec.n), spec.env()).gamma.reshape(
                np.shape(st.c))
    if spec.g2 is not None:
        def pencil(st):
            pa = pn.pencil_from_structure(st)
            return [getattr(pa, f) for f in ("eta_inv", "deta_inv", "ddeta_inv", "g_inv",
                                             "dg_inv", "ddg_inv", "gamma1", "dgamma1", "gamma2",
                                             "dgamma2", "L", "dL", "E", "dE", "ddE")]
        out.update({
            "pencil_from_structure": pencil,
            "exactness_at": lambda st: pn.exactness_at(pn.pencil_first_order(st)),
            "pencil_homogeneity_at": lambda st: pn.pencil_homogeneity_at(
                pn.pencil_first_order(st)),
            "flat_pencil_at": lambda st: pn.flat_pencil_at(pn.pencil_from_structure(st)),
        })
    return out


def test_batched_functions_and_rows_equal_single_point_runs():
    # every batched function, and every batched row of the check table,
    # gives at each of 10 points what it gives on that point alone
    from fmcheck.manifold import per_point, structures
    names = set()
    for name in cat.names():
        ent = cat.entry(name)
        spec, comp = ent.spec, ent.companion
        pts = sample_points(spec, SamplePlan(seed=0, count=10))
        batch = structures(spec, pts)
        singles = [structure_at(spec, p) for p in pts]
        for fn_name, fn in _batched_functions(spec, comp).items():
            result = fn(batch)
            for k, st in enumerate(singles):
                _same(result, fn(st), (name, fn_name, k), k)
            names.add(fn_name)
        rows = [c for c in cat.CHECKS if c.batched and (c.flag in ent.flags or c.flag is None)
                and all(getattr(spec, key, None) is not None or key in comp for key in c.needs)]
        for row in rows:
            if row.flag is None and spec.g is None:
                continue
            walk = cat._Walk(spec, comp, pts, 1e-8)
            limit = {None: 10, "head": walk.head}.get(row.points, row.points)
            got = per_point(row.at(cat._RowData(walk, limit)))
            assert len(got) == limit
            for k, p in enumerate(pts[:limit]):
                want = per_point(row.at(cat._RowData(cat._Walk(spec, comp, [p], 1e-8), 1)))
                _same(got[k], want[0], (name, row.name, k))
            names.add(row.name)
    assert len([c for c in cat.CHECKS if c.batched and c.name in names]) == 19
    assert len(names) >= 19 + 25


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_at_one_point_of_a_batch_fails_its_rows(monkeypatch):
    # one array of the structure batch is moved by 1e-3, or turns to NaN,
    # at point 5 of 10: each batched row whose residual the move changes
    # reads that array there, and the NaN makes it NaN, so the row fails
    import dataclasses
    from fmcheck import manifold
    real_structures = manifold.structures
    poison = {"field": None}

    def poisoned(spec, points, params=None):
        st = real_structures(spec, points, params)
        field, bump = poison["field"], poison.get("bump")
        value = None if field is None else getattr(st, field)
        if value is not None:
            at_5 = (np.arange(len(points)) == 5).reshape((-1,) + (1,) * (value.ndim - 1))
            setattr(st, field, np.where(at_5, value + bump, value))
        return st

    monkeypatch.setattr(cat, "structures", poisoned)
    batched = {c.name for c in cat.CHECKS if c.batched and c.points is None}
    runs = [(name, None) for name in ("lobachevsky", "q0-d-minus1", "af-pencil-n3", "nonss3d")]
    runs += [("lobachevsky", "levi-civita-flat"), ("lobachevsky", "natural-flat")]
    fields = [f.name for f in dataclasses.fields(manifold.StructureAt)
              if f.name not in ("n", "point", "errors")]

    def residuals(name, check):
        return {r.name: r for r in cat.run_suite(cat.entry(name), seed=0, count=10,
                                                  check=check).reports if r.name in batched}

    failed = set()
    for name, check in runs:
        poison["field"] = None
        base = residuals(name, check)
        assert base, name
        for field in fields:
            poison.update(field=field, bump=1e-3)
            moved = residuals(name, check)
            poison.update(bump=np.nan)
            for row, r in residuals(name, check).items():
                if np.isnan(r.residual):
                    assert not r.passed, (name, field, row)
                    failed.add(row)
                else:
                    assert moved[row].residual == base[row].residual, (name, field, row)
    assert failed == batched
