import copy
import re

import numpy as np
import pytest

import fmcheck.catalog as cat
from fmcheck.connection import levi_civita, metric_inverse
from fmcheck.manifold import (ManifoldSpec, MissingFieldError, Region, SamplePlan,
                              check_hertling_manin, check_homogeneity, check_killing_unit,
                              check_metric_invariance, check_product_axioms, point_walk,
                              sample_points, structures, worst)
from fmcheck.pencil import (MissingSecondMetricError, check_exactness,
                            check_flat_pencil, check_pencil_homogeneity,
                            delta_tensor, pencil_at, pencil_data, product_from_pencil,
                            r_operator, reconstructed_structure)
from fmcheck.rotation import check_algebraic_constraints
from fmcheck.tensor import SingularMatrixError

from constructions import semisimple_pencil_from_f


def af(n=3):
    return cat.entry(f"af-pencil-n{n}").spec


def second_order(spec, points):
    """The pencil's second-order data over `points`, built as the walk
    builds it."""
    st = structures(spec, points)
    inverse = metric_inverse(st)
    return pencil_data(st, inverse, levi_civita(st, inverse))


def test_exactness_and_negative_control():
    spec = af()
    pts = sample_points(spec, SamplePlan(seed=0, count=6))
    assert check_exactness(spec, pts).passed
    doubled = ManifoldSpec(name="bad", n=3, coords=spec.coords, product="canonical",
                           e=spec.e, E=spec.E, g=spec.g,
                           g2=tuple(tuple(f"2*({s})" if s != "0" else "0" for s in row)
                                    for row in spec.g2),
                           region=spec.region)
    assert not check_exactness(doubled, pts).passed


def test_missing_second_metric():
    spec = cat.entry("lobachevsky").spec
    with pytest.raises(MissingSecondMetricError):
        pencil_at(spec, np.array([1.5, 0.0]))
    # the walk's pencil rows name it too, as the missing field it is
    with pytest.raises(MissingFieldError, match="no second metric"):
        check_exactness(spec, [np.array([1.5, 0.0])])


def test_homogeneity_weights():
    for n in (3, 4):
        spec = af(n)
        pts = sample_points(spec, SamplePlan(seed=1, count=5))
        rep = check_pencil_homogeneity(spec, pts)
        assert rep.passed
        assert abs(complex(*rep.details["d_fit"]) - (1 - n)) < 1e-9


def test_homogeneity_negative_control():
    spec = af()
    bad = ManifoldSpec(name="bad", n=3, coords=spec.coords, product="canonical",
                       e=spec.e, E=spec.E,
                       g=spec.g,
                       g2=tuple(tuple(f"({s})*exp(u1)" if s != "0" else "0" for s in row)
                                for row in spec.g2),
                       region=spec.region)
    pts = sample_points(bad, SamplePlan(seed=1, count=5))
    assert not check_pencil_homogeneity(bad, pts).passed


def _unrelated():
    """Two individually flat metrics (Euclidean and a sheared pullback of
    it) that do not combine into a flat pencil."""
    return ManifoldSpec(
        name="unrelated", n=2, coords=("u1", "u2"), product="canonical",
        e=("1", "1"), E=("u1", "u2"),
        g=(("1", "0"), ("0", "1")),
        g2=(("1", "u2"), ("u2", "1+u2^2")),
        region=Region(box=((0.2, 1.0), (1.4, 2.2)), min_sep=0.1))


def _conformal(spec, f, extra=""):
    """The pencil of spec's first metric g and g2 = f g: its member at
    lambda is (f - lambda) g, singular where f = lambda.  extra is
    appended to each entry of g2."""
    return ManifoldSpec(name="met", n=3, coords=spec.coords, product="canonical", e=spec.e,
                        E=spec.E, g=spec.g,
                        g2=tuple(tuple(f"{f}*({s}){extra}" for s in row) for row in spec.g))


def _mutated(spec, slot, eps):
    """`spec` with eps u2 added to the (1, 1) entry of its metric `slot`."""
    table = [list(row) for row in getattr(spec, slot)]
    table[0][0] = f"({table[0][0]})+{eps!r}*u2"
    mutated = copy.copy(spec)
    setattr(mutated, slot, tuple(map(tuple, table)))
    return mutated


def test_flat_pencil_with_nonreal_member():
    # the lambda-coefficient route checks every complex lambda at once: on
    # every pencil spec the tests build, its verdict is the member route's
    # (tests/pencil_members.py) at the members 0, 1, -1, 2, 1j and a random
    # complex lambda, each member inverted and checked on its own.  The
    # pencils g2 = f g are taken away from the points where a member is
    # singular, which the member route cannot evaluate
    from pencil_members import LAMBDAS, check_flat_pencil_members
    rng = np.random.default_rng(7)
    lambdas = (*LAMBDAS, complex(*rng.uniform(-3, 3, 2)))
    ref = af()
    six = sample_points(ref, SamplePlan(seed=0, count=6))
    a, b = (float(six[k][0].real) for k in (2, 4))
    f = tuple("1/(" + "*".join(f"(u{k+1}-u{i+1})" for k in range(3) if k != i) + ")"
              for i in range(3))
    q0 = cat.entry("q0-d1")
    cases = [(af(3), True), (af(4), True), (_unrelated(), False),
             (_conformal(ref, f"(1+(u1-({a!r}))*(u1-({b!r})))"), False),
             (semisimple_pencil_from_f(f, region=ref.region), True),
             (semisimple_pencil_from_f(("1", "1"),
                                       region=Region(box=((0.3, 0.9), (1.3, 2.0)), min_sep=0.1)),
              True),
             (semisimple_pencil_from_f(tuple(f"1/({q0.spec.g[i][i]})" for i in range(3)),
                                       region=q0.spec.region, params=q0.spec.params), False),
             *((_mutated(af(n), slot, 1e-3), False) for n in (3, 4) for slot in ("g", "g2"))]
    for seed, (spec, flat) in enumerate(cases):
        pts = ([six[k] for k in (0, 1, 3, 5)] if spec.region is None
               else sample_points(spec, SamplePlan(seed=seed, count=6)))
        rep = check_flat_pencil(spec, pts)
        members = check_flat_pencil_members(spec, pts, lambdas)
        assert rep.passed == members.passed == flat, (spec.name, rep, members)
        assert list(members.details)[-1] == f"per_lambda/{lambdas[-1]}"


def test_flat_pencil_negative_control():
    # two individually flat metrics (Euclidean and a sheared pullback of it)
    # that do not combine into a linear pencil
    spec = _unrelated()
    pts = sample_points(spec, SamplePlan(seed=3, count=4))
    # both members are flat on their own
    from fmcheck.connection import christoffel_jets, inverse_jets, riemann_components
    from fmcheck.manifold import structure_at
    st = structure_at(spec, pts[0])
    for g, dg, ddg in ((st.g, st.dg, st.ddg), (st.g2, st.dg2, st.ddg2)):
        gamma = christoffel_jets(g, dg, ddg, inverse_jets(g, dg))
        assert np.max(np.abs(riemann_components(*gamma))) < 1e-12
    rep = check_flat_pencil(spec, pts)
    assert not rep.passed


def test_contravariant_curvature_sign_on_polar_coordinates():
    # the flat plane in polar coordinates, g = diag(1, r^2): its
    # contravariant curvature R^ijk_l = g^is (d_s C^jk_l - d_l C^jk_s)
    # - C^ij_s C^sk_l + C^ik_s C^sj_l reads rounding, and the same formula
    # with its quadratic terms' sign flipped reads O(1), so the sign is
    # pinned
    from fmcheck.pencil import _contravariant_christoffels, _contravariant_curvature
    from fmcheck.tensor import antisym, contract
    polar = ManifoldSpec(name="polar", n=2, coords=("u1", "u2"), product="canonical",
                         e=("1", "0"), E=("u1", "0"), g=(("1", "0"), ("0", "u1^2")),
                         g2=(("1", "0"), ("0", "u1^2")),
                         region=Region(box=((0.5, 2.0), (-1.0, 1.0))))
    pa = second_order(polar, sample_points(polar, SamplePlan(seed=0, count=8)))
    c, dc = _contravariant_christoffels((pa.eta_inv, pa.deta_inv), (pa.gamma1, pa.dgamma1))
    assert np.max(np.abs(c)) > 0.5  # the chart is curvilinear
    r = _contravariant_curvature(pa.eta_inv, c, c, dc)
    flipped = r + 2 * antisym(contract("...ijs,...skl->...ijkl", c, c), -3, -2)
    assert np.max(np.abs(r)) <= 1e-15
    assert np.max(np.abs(flipped)) >= 0.5
    assert check_flat_pencil(polar, sample_points(polar, SamplePlan(seed=1, count=8))).passed


def test_flat_pencil_fails_on_a_mutated_metric():
    # eps u2 added to g2_11 or to g_11 of af-pencil-n3 or n4 breaks the
    # pencil: at eps = 1e-6 the row fails on each of the four.  The mutated
    # metric's own curvature moves with the mixed parts, and the other
    # metric's stays at rounding
    pts = {n: sample_points(af(n), SamplePlan(seed=0, count=20)) for n in (3, 4)}
    for n in (3, 4):
        for slot, own, other in (("g2", "curvature-2", "curvature-1"),
                                 ("g", "curvature-1", "curvature-2")):
            rep = check_flat_pencil(_mutated(af(n), slot, 1e-6), pts[n])
            assert not rep.passed, (n, slot, rep)
            assert rep.details[own] >= 1e-9 and rep.details[other] <= 1e-15, (n, slot, rep)
            assert rep.details["mixed-curvature"] > rep.tol, (n, slot, rep)


def test_flat_pencil_records_a_singular_member_at_its_points():
    # g2 = f g with f = 1 at sample points 2 and 4 only: there the member
    # at lambda = 1 is singular, which is no error, since no member is
    # inverted.  g2 is only conformally flat, so the row fails at each of
    # the six points, those two included, by curvature-2 and the mixed
    # curvature; the mixed torsion and g's own curvature read rounding.
    # Each point's parts are its own: the batch after sample 2 gives the
    # same, and a run at one point fails there
    from fmcheck.pencil import flat_pencil_at
    spec = af()
    pts = sample_points(spec, SamplePlan(seed=0, count=6))
    a, b = (float(pts[k][0].real) for k in (2, 4))
    spec = _conformal(spec, f"(1+(u1-({a!r}))*(u1-({b!r})))")
    parts = flat_pencil_at(second_order(spec, pts)).parts
    assert list(parts) == ["mixed-torsion", "curvature-2", "curvature-1", "mixed-curvature"]
    assert (parts["curvature-2"] >= 0.1).all() and (parts["mixed-curvature"] >= 0.05).all()
    assert (parts["mixed-torsion"] <= 1e-15).all() and (parts["curvature-1"] <= 1e-15).all()
    after = flat_pencil_at(second_order(spec, pts[3:])).parts
    for key in parts:
        assert np.allclose(after[key], parts[key][3:], rtol=1e-12, atol=1e-15), key
    for k in (2, 4, 0):
        rep = check_flat_pencil(spec, [pts[k]])
        assert not rep.passed and rep.npoints == 1
        assert rep.residual == pytest.approx(max(parts["curvature-2"][k],
                                                 parts["mixed-curvature"][k]), rel=1e-12)


def _named(pts, k):
    coords = ", ".join(str(x) for x in np.asarray(pts[k]).tolist())
    return re.escape(f"sample {k} at ({coords}) is singular")


def test_flat_pencil_names_the_lowest_singular_member():
    # g2 = f g with f linear in u1, -1 at sample 2 and 1 at sample 4: the
    # members at lambda = -1 and 1 are singular there, which is no error,
    # so the row gives a failing verdict over all 6 points (g2 is only
    # conformally flat).  Where g2 also fails to evaluate, at sample 3,
    # that is the lowest point where a datum is singular: the walk and the
    # check name sample 3, and no member
    spec = af()
    pts = sample_points(spec, SamplePlan(seed=0, count=6))
    a, b = (float(pts[k][0].real) for k in (2, 4))
    linear = f"(-1+2*(u1-({a!r}))/(({b!r})-({a!r})))"
    rep, = cat.run_checks(_conformal(spec, linear), {}, ["flat-pencil"], pts)
    assert not rep.passed and rep.npoints == 6
    assert check_flat_pencil(_conformal(spec, linear), pts).to_dict() == rep.to_dict()
    c = float(pts[3][0].real)
    broken = _conformal(spec, linear, f"+0/(u1-({c!r}))")
    for run in (lambda: cat.run_checks(broken, {}, ["pencil-exactness", "flat-pencil"], pts),
                lambda: check_flat_pencil(broken, pts)):
        with pytest.raises(cat.SingularSampleError, match=_named(pts, 3)) as exc:
            run()
        assert "division by zero" in str(exc.value) and "pencil member" not in str(exc.value)
        assert exc.value.__cause__.point == 3


def test_flat_pencil_row_meets_a_singular_last_sample():
    # g2 = (u1 - u1 of sample 5) g is singular at the last of 6 samples
    # alone: the row reads every point, so the walk and the check both
    # name sample 5, and the five points below it give a verdict
    spec = af()
    pts = sample_points(spec, SamplePlan(seed=0, count=6))
    last = _conformal(spec, f"(u1-({float(pts[5][0].real)!r}))")
    for run in (lambda: cat.run_checks(last, {}, ["flat-pencil"], pts),
                lambda: check_flat_pencil(last, pts)):
        with pytest.raises(cat.SingularSampleError, match=_named(pts, 5)) as exc:
            run()
        assert isinstance(exc.value.__cause__, SingularMatrixError)
        assert exc.value.__cause__.point == 5
    assert check_flat_pencil(last, pts[:5]).npoints == 5


def test_flat_pencil_raises_a_member_singular_at_every_point():
    # with g2 = g every member is (1 - lambda) g, so the pencil is flat,
    # and the member at lambda = 1 vanishes at each of 8 points: that is no
    # error.  The check, the walk and the kernel over the batch pass, every
    # part at every point reading rounding
    from fmcheck.pencil import flat_pencil_at
    ref = af()
    spec = ManifoldSpec(name="g2-is-g", n=3, coords=ref.coords, product="canonical", e=ref.e,
                        E=ref.E, g=ref.g, g2=ref.g, region=ref.region)
    pts = sample_points(spec, SamplePlan(seed=0, count=8))
    assert check_flat_pencil(spec, pts).passed
    assert cat.run_checks(spec, {}, ["flat-pencil"], pts)[0].passed
    parts = flat_pencil_at(second_order(spec, pts)).parts
    assert all(np.shape(part) == (8,) and np.max(part) <= 1e-15 for part in parts.values())
    # the two curvatures are one metric's
    assert np.array_equal(parts["curvature-1"], parts["curvature-2"])


def test_delta_identities_and_closed_form():
    spec = af()
    for p in sample_points(spec, SamplePlan(seed=4, count=4)):
        delta, rep = delta_tensor(spec, p)
        # the pencil is diagonal, so its closed form is one of the parts
        assert rep.passed and pencil_at(spec, p).diagonal


def test_r_operator_two_routes_and_diagonal():
    spec = af()
    for p in sample_points(spec, SamplePlan(seed=5, count=4)):
        r, rep = r_operator(spec, p)
        assert rep.passed
        assert np.max(np.abs(np.diag(r) - 0.5)) < 1e-10


def test_product_reconstruction_canonical():
    spec = af()
    for p in sample_points(spec, SamplePlan(seed=6, count=4)):
        c, dc, rep = product_from_pencil(spec, p)
        assert rep.passed
        canonical = point_walk(spec, {}, p).pencil_product.residuals.parts["canonical"]
        assert worst(canonical) <= 1e-9
        want = np.zeros((3, 3, 3))
        for i in range(3):
            want[i, i, i] = 1
        assert np.max(np.abs(c - want)) <= 1e-9


def test_reconstructed_structure_full_suite():
    spec = af()
    pts = sample_points(spec, SamplePlan(seed=7, count=5))
    # the walk's rows on the natural connection of the rebuilt structure,
    # and the defining property it has by construction, on the same walk
    rows = ["reconstructed/" + row for row in ("flatness", "nabla-e", "product-compat")]
    recon = cat._Walk(spec, {}, pts).recon
    for rep in [*cat.run_checks(spec, {}, rows, pts), recon.report("nabla-from-g")]:
        assert rep.residual <= 1e-8, rep.name
    for p in pts:
        st = reconstructed_structure(spec, p)
        # manifold-level axioms for the reconstructed product
        comm = st.c - np.swapaxes(st.c, 1, 2)
        unit = np.einsum("ijk,j->ik", st.c, st.e) - np.eye(3)
        assert np.max(np.abs(comm)) <= 1e-9 and np.max(np.abs(unit)) <= 1e-9


def test_reconstructed_rows_fail_on_a_broken_first_metric():
    # g11 + 1e-3 u2 breaks the pencil: all 11 rows of the structure
    # rebuilt from it fail through the walk.  `nabla-from-g`, which no walk
    # reports, holds by the natural connection's construction: its
    # non-metricity is the product-twisted dtheta of whatever metric,
    # product and unit it is built from, so it reads rounding on any
    # structure, the broken rebuilt one too
    spec = af()
    g = [list(row) for row in spec.g]
    g[0][0] = f"({g[0][0]})+1e-3*u2"
    broken = copy.copy(spec)
    broken.g = tuple(map(tuple, g))
    names = [c.name for c in cat.CHECKS if c.name.startswith("reconstructed/")]
    assert len(names) == 11
    for seed in range(2):
        pts = sample_points(broken, SamplePlan(seed=seed, count=20))
        passed = [r.name for r in cat.run_checks(broken, {}, names, pts) if r.passed]
        assert passed == [], (seed, passed)
        assert cat._Walk(broken, {}, pts).recon.report("nabla-from-g").residual <= 1e-14
        # the unbroken pencil passes all 11 at the same points
        assert all(r.passed for r in cat.run_checks(spec, {}, names, pts)), seed


def test_rebuilt_product_homogeneity_is_the_reconstructed_row():
    # g2_11 (1 + 1e-6 u1) breaks the pencil's homogeneity: the rebuilt
    # product's L_E c = c is checked by `reconstructed/homogeneity` alone,
    # which fails, while `product-from-pencil`, which checks the product's
    # construction, passes
    spec = af()
    g2 = [list(row) for row in spec.g2]
    g2[0][0] = f"({g2[0][0]})*(1+1e-6*u1)"
    broken = copy.copy(spec)
    broken.g2 = tuple(map(tuple, g2))
    pts = sample_points(broken, SamplePlan(seed=0, count=20))
    hom, prod = cat.run_checks(broken, {}, ["reconstructed/homogeneity", "product-from-pencil"],
                               pts)
    assert not hom.passed and hom.residual >= 1e-6, hom.residual
    assert prod.passed, prod.residual
    assert all(r.passed for r in cat.run_checks(spec, {}, ["reconstructed/homogeneity"], pts))


def test_semisimple_pencil_from_f_reproduces_af():
    n = 3
    f = tuple("1/(" + "*".join(f"(u{k+1}-u{i+1})" for k in range(n) if k != i) + ")"
              for i in range(n))
    built = semisimple_pencil_from_f(f, region=af().region)
    pts = sample_points(built, SamplePlan(seed=8, count=4))
    ref = af()
    for p in pts:
        pa_b = pencil_at(built, p)
        pa_r = pencil_at(ref, p)
        assert np.max(np.abs(pa_b.st.g - pa_r.st.g)) < 1e-12
        assert np.max(np.abs(pa_b.st.g2 - pa_r.st.g2)) < 1e-12
    assert check_flat_pencil(built, pts[:2]).passed


def test_semisimple_pencil_trivial_f():
    built = semisimple_pencil_from_f(("1", "1"),
                                     region=Region(box=((0.3, 0.9), (1.3, 2.0)), min_sep=0.1))
    p = np.array([0.5, 1.5])
    pa = pencil_at(built, p)
    assert np.allclose(pa.st.g, np.eye(2))
    assert np.allclose(np.diag(pa.st.g2), 1 / p)


def test_pencil_from_rational_family_fails_flatness_like_its_constraint():
    # a diagonal metric violating the second-flat-metric constraint cannot
    # feed a flat pencil: both signals must agree
    ent = cat.entry("q0-d1")
    # first metric of the would-be pencil: the family metric itself
    f = tuple(f"1/({ent.spec.g[i][i]})" for i in range(3))
    built = semisimple_pencil_from_f(f, region=ent.spec.region, params=ent.spec.params)
    pts = sample_points(built, SamplePlan(seed=9, count=3))
    ed5b = check_algebraic_constraints(ent.spec, pts, "ED5b",
                                       lame_exprs=ent.companion["lame"])
    pencil_rep = check_flat_pencil(built, pts)
    assert not ed5b.passed and not pencil_rep.passed


def test_reconstruction_passes_homogeneous_manifold_checks():
    # criterion-level: the reconstructed data forms a homogeneous structure
    spec = af()
    pts = sample_points(spec, SamplePlan(seed=10, count=4))
    solo = ManifoldSpec(name="af-recon", n=3, coords=spec.coords, product="canonical",
                        e=spec.e, E=spec.E, g=spec.g, region=spec.region)
    assert check_product_axioms(solo, pts).passed
    assert check_hertling_manin(solo, pts).passed
    assert check_metric_invariance(solo, pts).passed
    assert check_killing_unit(solo, pts).passed
    assert check_homogeneity(solo, pts).passed


def test_multiplication_operator_eigencoordinates():
    # eigenvalues of the pairing operator are the chart coordinates
    from fmcheck.tensor import eigenvalues
    spec = af()
    for p in sample_points(spec, SamplePlan(seed=11, count=4)):
        pa = pencil_at(spec, p)
        eig = eigenvalues(pa.L)
        want = np.array(sorted(p))
        assert np.max(np.abs(eig - want)) <= 1e-9


def test_reconstructed_product_axioms_twenty_points():
    # product axioms of the reconstructed multiplication over a larger
    # sample, through the generic chart-level checker
    from fmcheck.manifold import check_product_axioms as axioms
    spec = af()
    pts = sample_points(spec, SamplePlan(seed=12, count=20))
    worst = 0.0
    for p in pts:
        st = reconstructed_structure(spec, p)
        comm = np.max(np.abs(st.c - np.swapaxes(st.c, 1, 2)))
        assoc = np.max(np.abs(np.einsum("sjk,isl->ijkl", st.c, st.c)
                              - np.einsum("sjl,isk->ijkl", st.c, st.c)))
        unit = np.max(np.abs(np.einsum("ijk,j->ik", st.c, st.e) - np.eye(3)))
        worst = max(worst, comm, assoc, unit)
    assert worst <= 1e-9
