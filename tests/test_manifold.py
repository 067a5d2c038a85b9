import contextlib
import copy
import io
import json

import numpy as np
import pytest

import fmcheck.catalog as cat
import fmcheck.manifold as mf
from fmcheck.manifold import (ManifoldSpec, Region, RegionEmptyError, SamplePlan,
                              check_hertling_manin, check_homogeneity,
                              check_killing_unit, check_metric_invariance,
                              check_product_axioms, sample_points, structure_at)


def lob():
    return cat.entry("lobachevsky").spec


def test_sampling_respects_region():
    spec = lob()
    pts = sample_points(spec, SamplePlan(seed=42, count=5))
    assert len(pts) == 5
    for p in pts:
        assert abs(p[0] - p[1]) >= 0.1
        assert 0.6 <= p[0] <= 2.0 and -1.5 <= p[1] <= 0.4


def test_sampling_min_separation_n3():
    spec = cat.entry("q0-d0").spec
    for p in sample_points(spec, SamplePlan(seed=1, count=10)):
        d = np.abs(p[:, None] - p[None, :]) + np.eye(3)
        assert d.min() >= 0.1


def test_sampling_deterministic():
    spec = lob()
    a = sample_points(spec, SamplePlan(seed=7, count=8))
    b = sample_points(spec, SamplePlan(seed=7, count=8))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sampling_region_empty():
    spec = lob()
    spec.region = Region(box=((0.0, 0.01), (0.0, 0.01)), min_sep=0.5)
    bad = SamplePlan(seed=0, count=1)
    with pytest.raises(RegionEmptyError):
        sample_points(spec, bad)


def test_spec_json_roundtrip_bit_exact():
    for name in ("lobachevsky", "nonss3d", "af-pencil-n4", "case-iv"):
        spec = cat.entry(name).spec
        text = spec.to_json()
        again = ManifoldSpec.from_dict(json.loads(text))
        # field by field, the region's fields among them
        assert {**vars(again), "region": vars(again.region)} == \
            {**vars(spec), "region": vars(spec.region)}
        assert again.to_json() == text


def test_spec_json_schema_fields():
    doc = json.loads(cat.entry("af-pencil-n3").spec.to_json())
    for key in ("name", "n", "coords", "product", "e", "E", "g", "g2",
                "params", "region", "expected"):
        assert key in doc


def test_product_axioms_shifted_canonical():
    spec = cat.entry("nonss3d").spec
    pts = sample_points(spec, SamplePlan(seed=0, count=4))
    assert check_product_axioms(spec, pts).residual == 0.0


def test_hertling_manin_constant_products_exact():
    for name in ("lobachevsky", "nonss3d"):
        spec = cat.entry(name).spec
        pts = sample_points(spec, SamplePlan(seed=0, count=3))
        assert check_hertling_manin(spec, pts).residual == 0.0


def _corrupted_product_spec():
    # canonical 2d product with c^1_22 polluted by a coordinate
    n = 2
    table = [[["0"] * n for _ in range(n)] for _ in range(n)]
    table[0][0][0] = "1"
    table[1][1][1] = "1"
    table[0][1][1] = "u1"
    return ManifoldSpec(name="corrupt", n=2, coords=("u1", "u2"),
                        product=tuple(tuple(tuple(r) for r in m) for m in table),
                        e=("1", "1"),
                        region=Region(box=((0.6, 2.0), (-1.5, 0.4)), min_sep=0.1))


def test_hertling_manin_negative_control():
    spec = _corrupted_product_spec()
    pts = sample_points(spec, SamplePlan(seed=3, count=5))
    rep = check_hertling_manin(spec, pts, tol=1e-8)
    assert not rep.passed and rep.residual > 1e-3


def test_metric_invariance_family_point():
    # the 3d family at the reference point with all slots zeroed
    ent = cat.entry("nonss3d")
    ent.spec.params["b"] = 0.0
    rep = check_metric_invariance(ent.spec, [np.array([0.0, 1.0, 1.0])])
    assert rep.residual <= 1e-10


def test_killing_negative_control():
    spec = lob()
    bad = ManifoldSpec(name="bad", n=2, coords=spec.coords, product="canonical",
                       e=spec.e, g=(("2/(x-y)^2+u1", "0"), ("0", "2/(x-y)^2")),
                       region=spec.region)
    pts = sample_points(bad, SamplePlan(seed=0, count=5))
    assert not check_killing_unit(bad, pts).passed


def test_homogeneity_af_first_metric():
    # covariant first metric of the n=3 diagonal pencil: weight 2*1+2
    spec = cat.entry("af-pencil-n3").spec
    solo = ManifoldSpec(name="af-g1", n=3, coords=spec.coords, product="canonical",
                        e=spec.e, E=spec.E, g=spec.g, region=spec.region,
                        expected={"D": 4.0})
    pts = sample_points(solo, SamplePlan(seed=2, count=6))
    rep = check_homogeneity(solo, pts)
    assert rep.passed
    assert abs(complex(*rep.details["D_fit"]) - 4.0) < 1e-10


def test_homogeneity_scales_with_euler_field():
    spec = cat.entry("af-pencil-n3").spec
    doubled = ManifoldSpec(name="af-2E", n=3, coords=spec.coords, product="canonical",
                           e=spec.e, E=("2*u1", "2*u2", "2*u3"), g=spec.g,
                           region=spec.region)
    pts = sample_points(doubled, SamplePlan(seed=2, count=4))
    rep = check_homogeneity(doubled, pts)
    # L_E c = c fails for the doubled field, but the fitted weight doubles
    assert abs(complex(*rep.details["D_fit"]) - 8.0) < 1e-9


def test_structure_at_shapes():
    st = structure_at(cat.entry("nonss3d").spec, np.array([0.5, 1.0, 0.9]))
    assert st.c.shape == (3, 3, 3) and st.dc.shape == (3, 3, 3, 3)
    assert st.g.shape == (3, 3) and st.ddg.shape == (3, 3, 3, 3)
    assert np.allclose(st.ddg, np.transpose(st.ddg, (0, 1, 3, 2)))


def test_hm_residual_invariant_under_relabeling():
    # permuting the coordinates of a semisimple chart permutes the residual
    # tensor entries, leaving its max unchanged
    ent = cat.entry("q0-d0")
    p = np.array([-1.5, -0.3, 1.2])
    perm = [2, 0, 1]
    from fmcheck.manifold import hertling_manin_residual
    st = structure_at(ent.spec, p)
    r1 = np.max(np.abs(hertling_manin_residual(st.c, st.dc)))
    spec_p = ManifoldSpec(name="perm", n=3, coords=ent.spec.coords, product="canonical",
                          e=("1", "1", "1"),
                          g=tuple(tuple(ent.spec.g[perm[i]][perm[j]] for j in range(3))
                                  for i in range(3)),
                          params=ent.spec.params, region=ent.spec.region)
    st2 = structure_at(spec_p, p)
    r2 = np.max(np.abs(hertling_manin_residual(st2.c, st2.dc)))
    assert abs(r1 - r2) <= 1e-12


def test_merge_reports_nan_fails_in_either_order():
    from fmcheck.manifold import Report, merge_reports
    ok = Report("a", 0.0, 1e-8, npoints=1)
    bad = Report("a", float("nan"), 1e-8, npoints=1)
    assert ok.passed and not bad.passed
    for pair in ([ok, bad], [bad, ok]):
        merged = merge_reports("a", pair, 1e-8)
        assert not merged.passed and np.isnan(merged.residual)


def test_nan_residual_at_one_point_fails(monkeypatch):
    # a structure batch that turns to NaN at the second of five points, in
    # the walk that `verify` runs, fails the row and the command
    from fmcheck.cli import main
    spec = lob()
    pts = sample_points(spec, SamplePlan(seed=0, count=5))
    real_structures = cat.structures
    calls = []

    def poisoned(spec_, points):
        st = real_structures(spec_, points)
        assert np.array_equal(st.point[1], pts[1])
        st.c = st.c * np.where(np.arange(len(points)) == 1, np.nan, 1.0)[:, None, None, None]
        calls.append(len(points))
        return st

    monkeypatch.setattr(cat, "structures", poisoned)
    rep = check_product_axioms(spec, pts)
    assert not rep.passed and np.isnan(rep.residual)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "lobachevsky", "--check", "product-axioms", "--seed", "0",
                     "--points", "5"])
    doc = json.loads(out.getvalue())
    assert code == 1 and not doc["ok"] and np.isnan(doc["reports"][0]["residual"])
    assert calls == [5, 5]


def test_sampling_matches_one_candidate_at_a_time():
    # the reference draws, tests and accepts one candidate at a time
    from fmcheck import exprjet as ej

    def reference(spec, seed, count):
        region = spec.region
        rng = np.random.Generator(np.random.PCG64(seed))
        lo = np.array([b[0] for b in region.box])
        hi = np.array([b[1] for b in region.box])
        points = []
        while len(points) < count:
            p = lo + rng.random(len(lo)) * (hi - lo)
            if region.min_sep > 0 and len(p) > 1:
                diffs = np.abs(p[:, None] - p[None, :])
                np.fill_diagonal(diffs, np.inf)
                if diffs.min() < region.min_sep:
                    continue
            try:
                guards = ej.eval_points(region.guards, [p], spec.env()).at(0)[0]
                if np.any(np.abs(guards) < region.guard_min):
                    continue
            except ej.EvalError:
                continue
            points.append(p)
        return points

    # a region whose guard keeps about one candidate in twelve, so that
    # sampling takes several blocks
    sparse = copy.copy(cat.entry("case-i").spec)
    sparse.region = Region(sparse.region.box, min_sep=0.0, guards=("x - 1",), guard_min=0.55)
    blocks = []
    random = mf._PCG64.random

    def counted(rng, shape):
        blocks.append(shape[0])
        return random(rng, shape)

    # seeds of one to four 32-bit words of SeedSequence entropy
    seeds = [0, 1, 2, 3, 4, 2**32 - 1, 2**32, 2**64 + 3, 10**20]
    for spec in [cat.entry(name).spec for name in cat.names()] + [sparse]:
        for seed in seeds:
            # the reference accepts in draw order, so its first k points
            # are its points at count k
            want = reference(spec, seed, 50)
            for count in (1, 12, 50):
                blocks.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(mf._PCG64, "random", counted)
                    got = sample_points(spec, SamplePlan(seed=seed, count=count))
                assert (np.array(got).tobytes() == np.array(want[:count]).tobytes()), (
                    spec.name, seed, count)
                if spec is sparse and count > 1:
                    assert len(blocks) >= 3, (seed, count, blocks)


def test_stream_is_numpys_pcg64():
    # successive blocks of several shapes, and numpy's seed errors
    for seed in [0, 1, 5, 2**32 - 1, 2**32, 2**64 + 3, 10**20, 2**200 + 7, np.int64(9)]:
        rng = mf._PCG64(seed)
        ref = np.random.Generator(np.random.PCG64(seed))
        for shape in [(58, 3), (1,), (0, 3), (7, 2), (13, 4), (2, 3, 5)]:
            got, want = rng.random(shape), ref.random(shape)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, shape)
    for seed, error in ((-1, ValueError), (1.5, TypeError), (2.0, TypeError), ("3", TypeError)):
        with pytest.raises(error):
            np.random.PCG64(seed)
        with pytest.raises(error):
            mf._PCG64(seed)
