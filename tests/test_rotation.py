import numpy as np
import pytest

import fmcheck.catalog as cat
from fmcheck.exprjet import eval_value, parse
from fmcheck.manifold import (ManifoldSpec, Region, SamplePlan, sample_points, structures,
                              table_jets)
from fmcheck.rotation import (betas_from_F, check_algebraic_constraints,
                              check_darboux_system, check_flatness_constraint,
                              check_lame_system, check_potentiality,
                              check_reduction_identity, closed_forms, rotation_data, rotations,
                              v_matrix)

from constructions import eigenspace_projection, integrate_lame
from finite_diff import finite_diff_oracle


def closed_form_beta(family, env=None):
    """beta at a chart point from the closed form of the ODE family
    `family` there (`closed_forms`, a batch of one)."""
    def beta(u):
        u = np.asarray(u)[None]
        return betas_from_F(closed_forms(family, u, env or {}).val, u)[0]
    return beta


def euclid2():
    return ManifoldSpec(name="euclid2", n=2, coords=("u1", "u2"), product="canonical",
                        e=("1", "1"), E=("u1", "u2"),
                        g=(("1", "0"), ("0", "1")),
                        region=Region(box=((0.2, 1.0), (1.2, 2.0)), min_sep=0.1))


def test_euclidean_beta_vanishes():
    rd = rotation_data(euclid2(), np.array([0.5, 1.5]), ("1", "1"))
    assert np.max(np.abs(rd.beta)) == 0.0
    _, eig, _ = v_matrix(rd)
    assert np.allclose(eig, 0.0)


def test_lame_jets_of_a_positive_real_metric_are_real():
    # the principal square root keeps a real array with no negative value
    # real, so the Lame jets sqrt(g_ii) of lobachevsky's metric, and their
    # rotation data, are float64; a real array with a negative value still
    # takes the branch
    from fmcheck.exprjet import jet_sqrt
    spec = cat.entry("lobachevsky").spec
    pts = np.asarray(sample_points(spec, SamplePlan(seed=0, count=20)))
    lame = tuple(f"sqrt({spec.g[i][i]})" for i in range(spec.n))
    rd = rotations(pts, table_jets(lame, pts, spec.env()))
    for key in ("H", "dH", "ddH", "beta", "dbeta", "V"):
        assert getattr(rd, key).dtype == np.float64, key
    jets = (np.array([4.0, 9.0]), np.ones((2, 1)), np.zeros((2, 1, 1)))
    root = jet_sqrt(jets, 2, lambda *_: None)
    assert [part.dtype for part in root] == [np.float64] * 3
    assert root[0].tolist() == [2.0, 3.0] and root[1][:, 0].tolist() == [0.25, 1 / 6]
    negative = jet_sqrt((np.array([-4.0, 9.0]), *jets[1:]), 2, lambda *_: None)
    assert negative[0].dtype == np.complex128 and negative[0].tolist() == [2j, 3]


def test_rotation_rows_need_a_lame_table():
    # the rotation data come from a Lame table alone: every row that reads
    # them needs one, so with every flag claimed a source without one runs
    # none of them, and a run of one there names the missing table
    flags = frozenset(c.flag for c in cat.CHECKS if c.flag)
    reads = set()
    for name in cat.names():
        ent = cat.entry(name)
        pts = sample_points(ent.spec, SamplePlan(seed=0, count=3))
        for check in cat._chosen(ent.spec, ent.companion, flags):
            walk = cat._Walk(ent.spec, ent.companion, pts)
            check.at(walk)
            if "rd" in walk.data:
                reads.add(check.name)
                assert "lame" in check.needs, check.name
    assert reads == {"darboux-system", "reduction-identity", "lame-system", "flatness-constraint",
                     "algebraic-ED4bis", "algebraic-ED5b", "potentiality", "v-eigenvalues"}
    for name in ("nonss3d", "lobachevsky", "af-pencil-n3"):
        ent = cat.entry(name)
        assert not reads & {c.name for c in cat._chosen(ent.spec, ent.companion, flags)}, name
    spec = cat.entry("lobachevsky").spec
    pts = sample_points(spec, SamplePlan(seed=0, count=3))
    with pytest.raises(cat.MissingCompanionDataError, match="no lame"):
        cat.run_checks(spec, {}, ["darboux-system"], pts)


def test_lauricella_lame_vs_fd_oracle():
    ent = cat.entry("lauricella-eps-minus1-n3")
    p = np.array([0.0, 1.0, 3.0])
    rd = rotation_data(ent.spec, p, lame_exprs=ent.companion["lame"])
    # H_i is the coordinate-difference product; beta from its derivatives
    for i in range(3):
        h_expr = parse(ent.companion["lame"][i])
        grad, _ = finite_diff_oracle(h_expr, p, ent.spec.params, step=1e-6)
        for j in range(3):
            if i != j:
                hj = eval_value(parse(ent.companion["lame"][j]), p, ent.spec.params)
                assert abs(rd.beta[i, j] - grad[j] / hj) < 1e-6


def lame_metric_gap(spec, lame, points):
    """The largest gap, relative at each point to the metric's part, of
    H_i^2 = g_ii, 2 H_i dH_i = dg_ii and 2 (dH_i dH_i + H_i ddH_i) = ddg_ii
    over `points`, with H the jets of the Lame table `lame`."""
    points = np.asarray(points)
    st = structures(spec, points)
    H, dH, ddH = table_jets(lame, points, spec.env())
    diag = np.arange(spec.n)
    pairs = ((H ** 2, st.g[:, diag, diag]),
             (2 * H[..., None] * dH, st.dg[:, diag, diag]),
             (2 * (dH[..., :, None] * dH[..., None, :] + H[..., None, None] * ddH),
              st.ddg[:, diag, diag]))
    return max(np.max(np.max(np.abs(lhs - rhs).reshape(len(points), -1), axis=1)
                      / np.max(np.abs(rhs).reshape(len(points), -1), axis=1))
               for lhs, rhs in pairs)


def test_af_metric_beta_from_closed_form_lame():
    # each entry's closed-form Lame table squares to its diagonal metric,
    # to second order; a table off by a factor 1 + 1e-6 u2 does not
    tables = {name: cat.entry(name).companion.get("lame") for name in cat.names()}
    tables = {name: lame for name, lame in tables.items() if lame is not None}
    assert sorted(tables) == ["lauricella-eps-minus1-n3", "pencil-63", "q0-d-minus1", "q0-d0",
                              "q0-d1"]
    for name, lame in tables.items():
        spec = cat.entry(name).spec
        assert all(spec.g[i][j] == "0" for i in range(spec.n) for j in range(spec.n) if i != j)
        off = (f"({lame[0]})*(1+1e-6*u2)",) + lame[1:]
        for seed in range(5):
            pts = sample_points(spec, SamplePlan(seed=seed, count=50))
            assert lame_metric_gap(spec, lame, pts) <= 1e-12, (name, seed)
            assert lame_metric_gap(spec, off, pts) > 1e-8, (name, seed)


def test_darboux_system_families():
    for name in ("lauricella-eps-minus1-n3", "q0-d-minus1", "pencil-63"):
        ent = cat.entry(name)
        pts = sample_points(ent.spec, SamplePlan(seed=3, count=6))
        rep = check_darboux_system(ent.spec, pts, lame_exprs=ent.companion["lame"])
        assert rep.passed, name
        rep = check_reduction_identity(ent.spec, pts, lame_exprs=ent.companion["lame"])
        assert rep.passed, name


def test_darboux_negative_control():
    # break scale invariance: beta of this metric, from the Lame table
    # sqrt(g_ii), violates the Euler equation
    spec = ManifoldSpec(name="bad", n=3, coords=("u1", "u2", "u3"), product="canonical",
                        e=("1", "1", "1"), E=("u1", "u2", "u3"),
                        g=(("(u2-u1)*(u3-u1)*exp(u1)", "0", "0"),
                           ("0", "(u1-u2)*(u3-u2)", "0"),
                           ("0", "0", "(u1-u3)*(u2-u3)")),
                        region=cat.entry("pencil-63").spec.region)
    pts = sample_points(spec, SamplePlan(seed=1, count=4))
    lame = tuple(f"sqrt({spec.g[i][i]})" for i in range(3))
    assert not check_darboux_system(spec, pts, lame).passed


def test_lame_systems_of_printed_families():
    # all three rational-family weight triples share one set of rotation
    # coefficients, supplied by the closed-form state of the entries' ODE
    # family (q0 at a = b = 1) as a second path, at each entry's weight d
    for name, d in (("q0-d-minus1", -1.0), ("q0-d0", 0.0), ("q0-d1", 1.0)):
        ent = cat.entry(name)
        spec = ent.spec
        assert ent.companion["ode_family"] == "q0" and spec.params == {"a": 1.0, "b": 1.0}
        assert spec.expected["d"] == d
        pts = sample_points(spec, SamplePlan(seed=4, count=6))
        rep = check_lame_system(spec, pts, ent.companion)
        assert rep.passed, (name, rep.residual)


def test_lame_system_exact_pencil_family():
    ent = cat.entry("pencil-63")
    assert ent.companion["ode_family"] == "pencil63" and ent.spec.expected["d"] == 1.0
    pts = sample_points(ent.spec, SamplePlan(seed=4, count=6))
    rep = check_lame_system(ent.spec, pts, ent.companion)
    assert rep.passed


def test_flatness_constraint_pass_and_fail():
    for name, want in (("q0-d0", True), ("pencil-63", True),
                       ("lauricella-eps-minus1-n3", False)):
        ent = cat.entry(name)
        pts = sample_points(ent.spec, SamplePlan(seed=5, count=5))
        rep = check_flatness_constraint(ent.spec, pts, lame_exprs=ent.companion["lame"])
        assert rep.passed == want, name


def test_algebraic_constraints():
    egorov = ManifoldSpec(name="egorov", n=3, coords=("u1", "u2", "u3"),
                          product="canonical", e=("1", "1", "1"), E=("u1", "u2", "u3"),
                          g=(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
                          region=Region(box=((-1.7, -1.1), (-0.6, -0.1), (0.8, 1.6)),
                                        min_sep=0.1))
    pts = sample_points(egorov, SamplePlan(seed=0, count=3))
    for which in ("ED4bis", "ED5b"):
        assert check_algebraic_constraints(egorov, pts, which, ("1", "1", "1")).residual == 0.0

    ent = cat.entry("q0-d-minus1")
    pts = sample_points(ent.spec, SamplePlan(seed=2, count=5))
    assert check_algebraic_constraints(ent.spec, pts, "ED4bis",
                                       lame_exprs=ent.companion["lame"]).passed

    ent = cat.entry("pencil-63")
    pts = sample_points(ent.spec, SamplePlan(seed=2, count=5))
    for which in ("ED4bis", "ED5b"):
        assert check_algebraic_constraints(ent.spec, pts, which,
                                           lame_exprs=ent.companion["lame"]).passed


def test_second_metric_constraint_fails_off_exact_pencils():
    # the rational family is flat but carries no second flat metric
    ent = cat.entry("q0-d-minus1")
    pts = sample_points(ent.spec, SamplePlan(seed=2, count=5))
    assert not check_algebraic_constraints(ent.spec, pts, "ED5b",
                                           lame_exprs=ent.companion["lame"]).passed


def test_potentiality():
    ent = cat.entry("q0-d0")
    pts = sample_points(ent.spec, SamplePlan(seed=6, count=5))
    assert check_potentiality(ent.spec, pts, lame_exprs=ent.companion["lame"]).passed
    ent = cat.entry("pencil-63")
    pts = sample_points(ent.spec, SamplePlan(seed=6, count=5))
    assert not check_potentiality(ent.spec, pts, lame_exprs=ent.companion["lame"]).passed


def test_two_dimensional_flat_case_is_symmetric():
    spec = euclid2()
    pts = sample_points(spec, SamplePlan(seed=0, count=5))
    for p in pts:
        rd = rotation_data(spec, p, ("1", "1"))
        assert abs(rd.beta[0, 1] - rd.beta[1, 0]) < 1e-12


def test_combescure_between_weight_families():
    # weight -1 and weight 0 families differ by a field factor on the Lame
    # coefficients and share the rotation coefficients
    a = cat.entry("q0-d-minus1")
    b = cat.entry("q0-d0")
    pts = sample_points(a.spec, SamplePlan(seed=7, count=5))
    for p in pts:
        rd_a = rotation_data(a.spec, p, lame_exprs=a.companion["lame"])
        rd_b = rotation_data(b.spec, p, lame_exprs=b.companion["lame"])
        assert np.max(np.abs(rd_a.beta - rd_b.beta)) < 1e-8


def test_v_matrix_weight_fit():
    ent = cat.entry("pencil-63")
    rd = rotation_data(ent.spec, np.array([-2.0, -0.5, 2.9]), lame_exprs=ent.companion["lame"])
    _, eig, d_fit = v_matrix(rd)
    assert abs(d_fit - 1.0) < 1e-10


def test_integrate_lame_loop_closure_q0():
    ent = cat.entry("q0-d-minus1")

    beta = closed_form_beta("q0", {"a": 1.0, "b": 1.0})
    u0 = np.array([-1.5, -0.4, 1.2])
    h0 = np.array([eval_value(parse(src), u0, ent.spec.params)
                   for src in ent.companion["lame"]])
    out = integrate_lame(beta, -1.0, u0, h0)
    assert out["closure"] <= 1e-6
    assert out["euler_residual_end"] <= 1e-6


def test_integrate_lame_half_weight_family():
    # generic seed projected onto the two-dimensional weight eigenspace
    beta = closed_form_beta("pencil63")
    u0 = np.array([-1.9, -0.5, 2.6])
    h0 = np.array([1.0, 0.7, -0.4], dtype=complex)
    out = integrate_lame(beta, -0.5, u0, h0)
    assert out["closure"] <= 1e-6
    assert out["euler_residual_start"] <= 1e-8
    assert out["euler_residual_end"] <= 1e-6
    # a second independent seed also works: the eigenspace is 2-dimensional
    out2 = integrate_lame(beta, -0.5, u0, np.array([0.1, -1.0, 2.0], dtype=complex))
    assert out2["closure"] <= 1e-6
    v0 = (u0[None, :] - u0[:, None]) * beta(u0)
    basis = np.stack([eigenspace_projection(v0, -0.5, h) for h in
                      (h0, np.array([0.1, -1.0, 2.0], dtype=complex))])
    assert np.linalg.matrix_rank(basis, tol=1e-8) == 2


def test_integrate_lame_rejects_non_eigenvalue_weight():
    beta = closed_form_beta("pencil63")
    u0 = np.array([-1.9, -0.5, 2.6])
    out = integrate_lame(beta, 0.3, u0, np.array([1.0, 1.0, 1.0], dtype=complex))
    assert out["euler_residual_start"] > 1e-3


def test_hand_computed_rotation_coefficients_at_reference_point():
    # symbolic-by-hand values for the degree-one Lame triple at (0, 1, 3)
    ent = cat.entry("pencil-63")
    rd = rotation_data(ent.spec, np.array([0.0, 1.0, 3.0]), lame_exprs=ent.companion["lame"])
    s2, s3, s6 = np.sqrt(2), np.sqrt(3), np.sqrt(6)
    want = np.array([
        [0.0, 1j * s6 / 4, -s2 / 12],
        [1j * s6 / 6, 0.0, 1j * s3 / 12],
        [s2 / 6, 1j * s3 / 4, 0.0],
    ])
    assert np.max(np.abs(rd.beta - want)) < 1e-12
