import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import fmcheck.catalog as cat
from fmcheck.catalog import (MissingCompanionDataError, UnknownEntryError,
                             run_suite, verify_flat_coordinates,
                             verify_vector_potential)
from fmcheck.cli import main
from fmcheck import manifold
from fmcheck.manifold import ManifoldSpec, SamplePlan, sample_points


def test_unknown_entry():
    with pytest.raises(UnknownEntryError):
        cat.entry("nope")


def test_names_cover_families():
    got = set(cat.names())
    assert {"lobachevsky", "nonss2d", "nonss3d", "lauricella-eps-minus1-n3",
            "q0-d-minus1", "q0-d0", "q0-d1", "pencil-63",
            "af-pencil-n3", "af-pencil-n4",
            "case-i", "case-ii", "case-iii", "case-iv", "case-v"} <= got


@pytest.mark.parametrize("name", cat.names())
def test_entry_suite_ok(name):
    res = run_suite(cat.entry(name), seed=0, count=8)
    failed = [r.name for r in res.reports if r.passed == (r.name in res.expected_failures)]
    assert res.ok, f"{name}: unexpected outcomes in {failed}"


def test_expected_constants_reproduced():
    for name in cat.names():
        ent = cat.entry(name)
        if not ent.spec.expected:
            continue
        res = run_suite(ent, seed=3, count=6)
        by_name = {r.name: r for r in res.reports}
        if "D" in ent.spec.expected:
            assert by_name["homogeneity"].passed
        if "V_eigenvalues" in ent.spec.expected:
            assert by_name["v-eigenvalues"].passed
        if "I1" in ent.spec.expected:
            assert by_name["ode-integrals"].passed


def test_missing_companion_data():
    ent = cat.entry("q0-d0")
    pts = sample_points(ent.spec, SamplePlan(seed=0, count=2))
    with pytest.raises(MissingCompanionDataError):
        verify_flat_coordinates(ent, pts)
    with pytest.raises(MissingCompanionDataError):
        verify_vector_potential(ent, pts)


def test_half_plane_potential_unit_components():
    ent = cat.entry("lobachevsky")
    pts = sample_points(ent.spec, SamplePlan(seed=1, count=5))
    assert verify_vector_potential(ent, pts, tol=1e-10).passed
    assert verify_flat_coordinates(ent, pts).passed


@pytest.mark.parametrize("name", ["case-i", "case-ii", "case-iii", "case-iv", "case-v"])
def test_appendix_cases(name):
    ent = cat.entry(name)
    pts = sample_points(ent.spec, SamplePlan(seed=2, count=20))
    assert verify_flat_coordinates(ent, pts).passed
    assert verify_vector_potential(ent, pts, tol=1e-8).passed


def test_family_metric_random_draws():
    # five random parameter draws with degree-two function slots
    ent = cat.entry("nonss3d")
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = float(rng.uniform(0.3, 1.8))  # keeps the exponents moderate
        params = {"a": a, "b": float(rng.uniform(-1, 1)), "c": float(rng.uniform(0.5, 2.0)),
                  "f0": float(rng.uniform(-1, 1)), "f1": float(rng.uniform(-1, 1)),
                  "f2": float(rng.uniform(-1, 1)), "g0": float(rng.uniform(-1, 1)),
                  "g1": float(rng.uniform(-1, 1)), "g2": float(rng.uniform(-1, 1))}
        ent.spec.params.update(params)
        res = run_suite(ent, seed=4, count=5)
        assert res.ok, params


def test_export_roundtrip_all_entries():
    for name in cat.names():
        spec = cat.entry(name).spec
        text = spec.to_json()
        assert ManifoldSpec.from_json(text).to_json() == text


def test_every_flag_picks_a_check():
    # a flag that picks no check is dead: dropping any flag of any entry
    # changes the suite's report names
    import dataclasses
    for name in cat.names():
        ent = cat.entry(name)
        full = [r.name for r in run_suite(ent, seed=0, count=2).reports]
        for flag in ent.flags:
            cut = dataclasses.replace(ent, flags=ent.flags - {flag})
            assert [r.name for r in run_suite(cut, seed=0, count=2).reports] != full, (name, flag)


def test_run_suite_builds_point_data_once_per_point(monkeypatch, tmp_path):
    # record the points of every structure batch, pencil batch (first and
    # second order) and rotation data built, every matrix inverted, every
    # metric given Christoffel jets, and every run of an expression table
    # with the points it runs over, binding the recorders wherever fmcheck
    # holds the function
    import sys
    from fmcheck import exprjet as ej
    built, runs, inverted, christoffel = {}, [], [], []

    def points_of(batch):
        return [tuple(p) for p in np.asarray(batch.point, dtype=complex).reshape(-1, batch.n)]

    def yielded(key, fn):
        def recording(*args, **kwargs):
            for item in fn(*args, **kwargs):
                built[key].append(tuple(np.asarray(item.point, dtype=complex)))
                yield item
        return recording

    def returned(key, fn):
        def recording(*args, **kwargs):
            out = fn(*args, **kwargs)
            built[key].append(points_of(out))
            return out
        return recording

    def inverse(fn):
        def recording(a, errors=None):
            inverted.append(np.array(a))
            return fn(a, errors)
        return recording

    def christoffel_of(fn):
        def recording(g, *args, **kwargs):
            christoffel.append(np.array(g))
            return fn(g, *args, **kwargs)
        return recording

    def table_run(fn):
        def recording(table, points, params=None):
            runs.append((repr(table), [tuple(p) for p in np.asarray(points, dtype=complex)]))
            return fn(table, points, params)
        return recording

    targets = {("manifold", "structures"): lambda fn: returned("structure", fn),
               ("rotation", "rotation_data_along"): lambda fn: yielded("rotation", fn),
               ("pencil", "pencil_first_order"): lambda fn: returned("pencil", fn),
               ("pencil", "pencil_second_order"): lambda fn: returned("pencil2", fn),
               ("connection", "checked_inverse"): inverse,
               ("connection", "christoffel_jets"): christoffel_of,
               ("exprjet", "eval_points"): table_run}
    for (mod, fn), wrap in targets.items():
        orig = getattr(sys.modules[f"fmcheck.{mod}"], fn)
        recording = wrap(orig)
        for name, module in list(sys.modules.items()):
            if name == "fmcheck" or name.startswith("fmcheck."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, attr, recording)

    def check_runs(spec, pts, chart_values, what):
        # sampling runs the guards over blocks of candidates; every other
        # table runs once, over the sample points (the vector potential's
        # tables over the flat-chart values at them)
        walk = [(table, tuple(over)) for table, over in runs if table != repr(spec.region.guards)]
        assert len(set(walk)) == len(walk), what
        for table, over in walk:
            assert list(over) in (pts, chart_values), (what, table)
        return {table for table, _ in walk}

    def check_inverses(metrics, what):
        # each metric is inverted at most once, over all the sample points
        # at once, never point by point, and given Christoffel jets at most
        # once, over the points that read them
        for a in inverted:
            for m in metrics:
                assert not (a.ndim == 2 and any(np.array_equal(a, row) for row in m)), what
        for m in metrics:
            assert sum(a.shape == m.shape and np.array_equal(a, m) for a in inverted) <= 1, what
            assert sum(np.array_equal(g, m[:len(g)]) for g in christoffel) <= 1, what

    rotation_flags = {"darboux", "lame", "ed4", "ed4bis", "ed5b", "potentiality"}
    for name in cat.names():
        ent = cat.entry(name)
        pts = [tuple(np.asarray(p, dtype=complex))
               for p in sample_points(ent.spec, SamplePlan(seed=0, count=10))]
        head = pts[:4]  # max(4, 10 // 5): the points of the costlier pencil rows
        chart_values = None
        if "flat_chart" in ent.companion:
            chart_values = [tuple(ej.eval_table(ent.companion["flat_chart"], p, ent.spec.env())[0])
                            for p in pts]
        built["structure"] = []
        st = manifold.structures(ent.spec, pts)
        metrics = [m for m in (st.g, st.g2) if m is not None]
        for key in ("structure", "rotation", "pencil", "pencil2"):
            built[key] = []
        runs.clear()
        inverted.clear()
        christoffel.clear()
        run_suite(ent, seed=0, count=10)
        needs_rotation = bool(ent.flags & rotation_flags) or "V_eigenvalues" in ent.spec.expected
        assert built["structure"] == [pts], name
        assert built["rotation"] == (pts if needs_rotation else []), name
        assert built["pencil"] == ([pts] if "pencil" in ent.flags else []), name
        assert built["pencil2"] == ([head] if "pencil" in ent.flags else []), name
        check_inverses(metrics, name)
        tables = check_runs(ent.spec, pts, chart_values, name)
        spec_tables = [ent.spec.e, ent.spec.E, ent.spec.g, ent.spec.g2]
        assert {repr(t) for t in spec_tables if t is not None} <= tables, name
        # `verify` on the exported spec file, and each `--check` that applies
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(ent.spec.to_json())
        argvs = [["verify", str(spec_path)]]
        argvs += [["verify", name, "--check", check] for check in cat.SINGLE_CHECKS]
        for argv in argvs:
            for key in ("structure", "pencil", "pencil2"):
                built[key] = []
            runs.clear()
            inverted.clear()
            christoffel.clear()
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv + ["--points", "10", "--seed", "0"])
            if code != 2:  # 2: the spec lacks a field the check needs
                assert built["structure"] == [pts], argv
                if ent.spec.g2 is not None and argv[1] == str(spec_path):
                    assert built["pencil"] == [pts] and built["pencil2"] == [head], argv
                check_inverses(metrics, argv)
                check_runs(ent.spec, pts, chart_values, argv)
