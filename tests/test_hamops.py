import numpy as np
import pytest

import fmcheck.catalog as cat
from fmcheck.entries import lauricella_normal_fields
from fmcheck.hamops import (GmcFailedError, NormalBundleData, check_gmc,
                            check_quadratic_expansion, check_sym_condition,
                            emit_operator, field_rank, fields_from_exprs,
                            fields_from_gradients, spanning_fields)
from fmcheck.manifold import ManifoldSpec, Region, SamplePlan, sample_points, structure_at


def lob_nb():
    ent = cat.entry("lobachevsky")
    return ent.spec, fields_from_exprs([("1", "1")], eps=(-1,))


def test_half_plane_quadratic_expansion_and_sym():
    spec, nb = lob_nb()
    pts = sample_points(spec, SamplePlan(seed=0, count=10))
    assert check_quadratic_expansion(spec, nb, pts, tol=1e-9).passed
    assert check_sym_condition(spec, nb, pts).residual <= 1e-10


def test_half_plane_gmc_and_operator_golden():
    spec, nb = lob_nb()
    p = np.array([2.0, 0.0])  # w = u1 - u2 = 2
    rep = check_gmc(spec, nb, [p])
    assert rep.passed
    op = emit_operator(spec, nb, p)
    w = 2.0
    lead = np.array(op["metric_term"])[..., 0]
    assert np.allclose(lead, np.diag([w * w / 2, w * w / 2]), atol=1e-10)
    conv = np.array(op["christoffel_term"])[..., 0]
    want = np.empty((2, 2, 2))
    want[0, 0] = [w / 2, -w / 2]
    want[0, 1] = [w / 2, w / 2]
    want[1, 0] = [-w / 2, -w / 2]
    want[1, 1] = [w / 2, -w / 2]
    assert np.allclose(conv, want, atol=1e-10)
    assert len(op["tails"]) == 1 and op["tails"][0]["epsilon"] == -1
    assert np.allclose(np.array(op["tails"][0]["W_matrix"])[..., 0], np.eye(2), atol=1e-12)


def test_flat_metric_empty_bundle():
    spec = ManifoldSpec(name="euclid", n=2, coords=("u1", "u2"), product="canonical",
                        e=("1", "1"), g=(("1", "0"), ("0", "1")),
                        region=Region(box=((0.0, 1.0), (1.2, 2.0)), min_sep=0.1))
    nb = NormalBundleData(eps=(), exprs=())
    pts = sample_points(spec, SamplePlan(seed=1, count=3))
    assert check_quadratic_expansion(spec, nb, pts).residual == 0.0
    op = emit_operator(spec, nb, pts[0])
    assert op["tails"] == []


def test_lauricella_bundle_full():
    ent = cat.entry("lauricella-eps-minus1-n3")
    spec = ent.spec
    nb = lauricella_normal_fields(3)
    pts = sample_points(spec, SamplePlan(seed=2, count=8))
    assert check_quadratic_expansion(spec, nb, pts, tol=1e-8).passed
    assert check_sym_condition(spec, nb, pts).passed
    rep = check_gmc(spec, nb, pts)
    assert rep.passed
    for p in pts[:4]:
        assert field_rank(nb, p, spec.env()) == 2
    op = emit_operator(spec, nb, pts[0])
    assert len(op["tails"]) == 3
    assert all(t["epsilon"] == -1 for t in op["tails"])


def test_lauricella_rank_n2():
    nb = lauricella_normal_fields(2)
    assert field_rank(nb, np.array([0.3, 1.1]), {"c1": 1.0, "c2": 1.0}) == 1


def test_sym_condition_negative_control():
    ent = cat.entry("lauricella-eps-minus1-n3")
    nb = fields_from_exprs([("u1*u2", "u3", "1")], eps=(-1,))
    pts = sample_points(ent.spec, SamplePlan(seed=3, count=4))
    assert not check_sym_condition(ent.spec, nb, pts).passed


def test_gmc_sign_flip_fails():
    spec, _ = lob_nb()
    nb = fields_from_exprs([("1", "1")], eps=(+1,))
    pts = sample_points(spec, SamplePlan(seed=4, count=4))
    rep = check_gmc(spec, nb, pts)
    assert not rep.passed and rep.details["gmc0"] > 1e-3
    with pytest.raises(GmcFailedError):
        emit_operator(spec, nb, pts[0])


def test_qexp_equals_gmc0_when_affinors_match():
    # the two dressings of the same identity agree to machine precision
    ent = cat.entry("lauricella-eps-minus1-n3")
    nb = lauricella_normal_fields(3)
    pts = sample_points(ent.spec, SamplePlan(seed=5, count=5))
    q = check_quadratic_expansion(ent.spec, nb, pts)
    g = check_gmc(ent.spec, nb, pts)
    assert abs(q.residual - g.details["gmc0"]) <= 1e-12


def test_gmc2_follows_from_invariance():
    # for an invariant metric, multiplication operators are g-symmetric for
    # arbitrary fields, not only bundle-spanning ones
    ent = cat.entry("lauricella-eps-minus1-n3")
    rng = np.random.default_rng(6)
    pts = sample_points(ent.spec, SamplePlan(seed=6, count=5))
    for p in pts:
        st = structure_at(ent.spec, p)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = np.einsum("ijs,s->ij", st.c, x)
        gw = st.g @ w
        assert np.max(np.abs(gw - gw.T)) <= 1e-12 * (1 + np.max(np.abs(gw)))


def test_gradient_fields_match_jet_hessian():
    nb = fields_from_gradients(["u1^2*u2"], eps=(-1,))
    xs, dxs, _ = spanning_fields(nb, [np.array([1.0, 2.0])], 2, {}).at(0)
    assert np.allclose(xs[0], [4.0, 1.0])
    assert np.allclose(dxs[0], [[4.0, 2.0], [2.0, 0.0]])
