import numpy as np
import pytest

import fmcheck.catalog as cat
import fmcheck.exprjet as ej
from fmcheck.connection import (compat_product_at, natural_connection, riemann_components,
                                torsion_at)
from fmcheck.legendre import (HypothesisViolatedError, NotInvertibleError, check_legendre_field,
                              transform_connection, transform_metric_exprs, transformed_at,
                              transformed_structure)
from fmcheck.manifold import SamplePlan, fit_scalar, normalized, sample_points, structure_at
from fmcheck.rotation import rotation_data

from constructions import christoffel_provider, flat_field_ode


@pytest.fixture(scope="module")
def q0():
    ent = cat.entry("q0-d-minus1")
    pts = sample_points(ent.spec, SamplePlan(seed=5, count=6))
    return ent, pts


def test_unit_field_is_identity_transform(q0):
    ent, pts = q0
    spec = ent.spec
    st = structure_at(spec, pts[0])
    conn = natural_connection(st)
    x, dx, ddx = ej.eval_points(("1", "1", "1"), [st.point], spec.env()).at(0)
    new = transform_connection(conn, st, x, dx, ddx)
    assert np.max(np.abs(new.gamma - conn.gamma)) < 1e-13
    gbar = transformed_at(st, conn, x, dx, ddx).g
    assert np.max(np.abs(gbar - st.g)) < 1e-13


def test_fields_flat_and_rank_three(q0):
    ent, pts = q0
    spec = ent.spec
    fields = ent.companion["legendre_fields"]
    for name in ("e", "X2", "X3"):
        assert check_legendre_field(spec, fields[name], pts).passed
        for p in pts[:3]:
            st = structure_at(spec, p)
            conn = natural_connection(st)
            x, dx, _ = ej.eval_points(fields[name], [st.point], spec.env()).at(0)
            nab = dx + np.einsum("lks,s->lk", conn.gamma, x)
            assert np.max(np.abs(nab)) <= 1e-8 * (1 + np.max(np.abs(x)))
    m = np.array([ej.eval_points(fields[k], [pts[0]], spec.env()).at(0)[0]
                  for k in ("e", "X2", "X3")])
    assert np.linalg.matrix_rank(m, tol=1e-8 * np.linalg.svd(m, compute_uv=False).max()) == 3


def test_not_invertible_field(q0):
    ent, pts = q0
    with pytest.raises(NotInvertibleError):
        check_legendre_field(ent.spec, ("0", "u1-u3", "u2-u1"), pts[:1])


def test_transform_requires_flat_field(q0):
    ent, pts = q0
    spec = ent.spec
    st = structure_at(spec, pts[0])
    conn = natural_connection(st)
    x, dx, ddx = ej.eval_points(("u1", "u2", "u3"), [st.point], spec.env()).at(0)
    with pytest.raises(HypothesisViolatedError):
        transformed_at(st, conn, x, dx, ddx)


def test_connection_transform_properties(q0):
    ent, pts = q0
    spec = ent.spec
    fields = ent.companion["legendre_fields"]
    for p in pts[:3]:
        st = structure_at(spec, p)
        conn = natural_connection(st)
        x, dx, ddx = ej.eval_points(fields["X2"], [st.point], spec.env()).at(0)
        new = transform_connection(conn, st, x, dx, ddx)
        # torsion-free, compatible with the product, and with the old
        # curvature conjugated by multiplication with the field, W = X o
        assert torsion_at(new).parts["torsion"] <= 1e-8
        assert compat_product_at(new, st).parts["symmetry"] <= 1e-8
        w = np.einsum("lks,s->lk", st.c, x)
        r_old = riemann_components(conn.gamma, conn.dgamma)
        conj = np.einsum("ha,abkj,bi->hikj", np.linalg.inv(w), r_old, w)
        gap = np.max(np.abs(riemann_components(new.gamma, new.dgamma) - conj))
        assert normalized(gap, max(np.max(np.abs(r_old)), 1.0)) <= 1e-8
        # canonical-chart shortcut for the off-diagonal symbols
        for i in range(3):
            for j in range(3):
                if i != j:
                    want = conn.gamma[i, i, j] + dx[i, j] / x[i]
                    assert abs(new.gamma[i, i, j] - want) < 1e-10


def test_metric_transform_maps_between_families(q0):
    ent, pts = q0
    spec = ent.spec
    fields = ent.companion["legendre_fields"]
    for fname, target in (("X2", "q0-d0"), ("X3", "q0-d1")):
        tgt = cat.entry(target).spec
        for p in pts:
            stb = transformed_structure(spec, fields[fname], p)
            stt = structure_at(tgt, p)
            s = fit_scalar(stb.g, stt.g, 2)
            res = np.max(np.abs(stb.g - s * stt.g)) / (1 + np.max(np.abs(stt.g)))
            assert res <= 1e-7
    # wrong target fails
    p = pts[0]
    stb = transformed_structure(spec, fields["X2"], p)
    stt = structure_at(spec, p)
    s = fit_scalar(stb.g, stt.g, 2)
    assert np.max(np.abs(stb.g - s * stt.g)) / (1 + np.max(np.abs(stt.g))) > 1e-3


def test_metric_transform_report(q0):
    ent, pts = q0
    comp = {"legendre_field": ent.companion["legendre_fields"]["X2"]}
    rep = cat.run_checks(ent.spec, comp, ["transform-metric"], pts[:4])[0]
    assert rep.passed


def test_lame_coefficients_scale_by_field(q0):
    ent, pts = q0
    spec = ent.spec
    fields = ent.companion["legendre_fields"]
    lame = ent.companion["lame"]
    for p in pts[:3]:
        stb = transformed_structure(spec, fields["X2"], p)
        x, _, _ = ej.eval_points(fields["X2"], [p], spec.env()).at(0)
        h = np.array([ej.eval_value(ej.parse(s), p, spec.params) for s in lame])
        assert np.max(np.abs(np.diag(stb.g) - (h * x) ** 2)) < 1e-10 * (1 + np.max(np.abs(stb.g)))


def test_combescure_invariance(q0):
    ent, pts = q0
    spec = ent.spec
    fields = ent.companion["legendre_fields"]
    lame = ent.companion["lame"]
    for fname in ("X2", "X3"):
        bar = tuple(ej.to_source(ej.parse(h) * ej.parse(x))
                    for h, x in zip(lame, fields[fname]))
        for p in pts[:3]:
            rd0 = rotation_data(spec, p, lame_exprs=lame)
            rd1 = rotation_data(spec, p, lame_exprs=bar)
            assert np.max(np.abs(rd0.beta - rd1.beta)) <= 1e-8


def test_homogeneous_transform_weights(q0):
    ent, pts = q0
    spec = ent.spec
    fields = ent.companion["legendre_fields"]
    for fname, dbar, Dbar in (("e", -1.0, 0.0), ("X2", 0.0, 2.0), ("X3", 1.0, 4.0)):
        rep = cat.run_checks(spec, {"legendre_field": fields[fname]}, ["homogeneous-legendre"],
                             pts)[0]
        assert rep.passed
        assert abs(complex(*rep.details["dbar_fit"]) - dbar) < 1e-8
        assert abs(complex(*rep.details["Dbar_fit"]) - Dbar) < 1e-8


def test_homogeneous_transform_negative_control(q0):
    ent, pts = q0
    # flat but inhomogeneous combination of the three flat fields
    fields = ent.companion["legendre_fields"]
    mixed = tuple(ej.to_source(ej.parse(a) + ej.parse(b))
                  for a, b in zip(fields["e"], fields["X3"]))
    rep = cat.run_checks(ent.spec, {"legendre_field": mixed}, ["homogeneous-legendre"], pts)[0]
    assert not rep.passed


def test_flat_field_ode_reproduces_printed_field(q0):
    ent, pts = q0
    spec = ent.spec
    fields = ent.companion["legendre_fields"]

    gamma_provider = christoffel_provider(ent.companion["gamma"], spec.env())

    u0, u1 = pts[0], pts[1]
    x0 = ej.eval_points(fields["X2"], [u0], spec.env()).at(0)[0]
    out = flat_field_ode(gamma_provider, x0, [u0, u1])
    x1 = ej.eval_points(fields["X2"], [u1], spec.env()).at(0)[0]
    assert np.max(np.abs(out["X_end"] - x1)) <= 1e-6 * (1 + np.max(np.abs(x1)))
    assert out["endpoint_gradient_residual"] <= 1e-6

    loop = [u0, u0 + np.array([0.2, 0, 0]), u0 + np.array([0.2, 0.2, 0]),
            u0 + np.array([0, 0.2, 0]), u0]
    out = flat_field_ode(gamma_provider, np.array([1.0, -0.4, 2.0]), loop)
    assert out["closure"] <= 1e-6


def test_flat_field_ode_constant_unit_stays(q0):
    ent, pts = q0

    gamma_provider = christoffel_provider(ent.companion["gamma"], ent.spec.env())

    u0 = pts[0]
    out = flat_field_ode(gamma_provider, np.ones(3), [u0, pts[1], pts[2]])
    assert np.max(np.abs(out["X_end"] - 1.0)) <= 1e-9


def test_flat_field_ode_half_weight_connection():
    # closed loop for the square-root-family connection, seeded numerically
    ent = cat.entry("pencil-63")

    gamma_provider = christoffel_provider(ent.companion["gamma"], ent.spec.env())

    u0 = np.array([-1.9, -0.6, 2.5])
    loop = [u0, u0 + np.array([0.2, 0, 0]), u0 + np.array([0.2, 0.2, 0]),
            u0 + np.array([0, 0.2, 0]), u0]
    out = flat_field_ode(gamma_provider, np.array([0.3, -1.2, 2.0]), loop)
    assert out["closure"] <= 1e-6


def test_componentwise_inverse_field_is_informational(q0):
    # transforming by a field and then by its pointwise product inverse
    # restores the metric; whether the inverse is itself flat is reported,
    # not required
    ent, pts = q0
    spec = ent.spec
    fields = ent.companion["legendre_fields"]
    p = pts[0]
    st = structure_at(spec, p)
    conn = natural_connection(st)
    x, dx, ddx = ej.eval_points(fields["X2"], [p], spec.env()).at(0)
    gbar = transformed_at(st, conn, x, dx, ddx).g
    # componentwise inverse on the canonical chart
    inv_exprs = tuple(ej.to_source(ej.Num(1.0) / ej.parse(s)) for s in fields["X2"])
    xi, _, _ = ej.eval_points(inv_exprs, [p], spec.env()).at(0)
    w = np.einsum("ijs,s->ij", st.c, xi)
    g_back = np.einsum("ki,lj,kl->ij", w, w, gbar)
    assert np.max(np.abs(g_back - st.g)) <= 1e-8 * (1 + np.max(np.abs(st.g)))
    info = check_legendre_field(spec, inv_exprs, pts[:3])
    assert isinstance(info.passed, bool)  # informational only


def test_transform_metric_exprs_roundtrip(q0):
    ent, pts = q0
    new_spec = transform_metric_exprs(ent.spec, ent.companion["legendre_fields"]["X2"])
    for p in pts[:4]:
        stb = transformed_structure(ent.spec, ent.companion["legendre_fields"]["X2"], p)
        stx = structure_at(new_spec, p)
        assert np.max(np.abs(stb.g - stx.g)) <= 1e-10 * (1 + np.max(np.abs(stb.g)))
