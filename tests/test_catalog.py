import io
import json
import os
import pathlib
import subprocess
import sys
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


def test_run_catalog_script_writes_a_bundle_per_source(tmp_path):
    # every catalog entry and each of its catalog transforms, at 2 points
    root = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "bundle.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_catalog.py"), "--points",
                           "2", "--json", str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    want = list(cat.names())
    for name in cat.names():
        want += [f"{name} {field}->{target}" for field, target
                 in cat.entry(name).companion.get("legendre_targets", {}).items()]
    assert sorted(bundle["name"] for bundle in json.loads(out.read_text())) == sorted(want)


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


def test_free_parameters_move_without_false_failures():
    # every parameter of every entry is free: moved on its own, it leaves
    # each verdict as expected (a value that a family forces is a table
    # constant, not a parameter)
    moves = 0
    for name in cat.names():
        for key in cat.entry(name).spec.params:
            for delta in (0.3, -0.7, 1.3):
                ent = cat.entry(name)
                ent.spec.params[key] += delta
                res = run_suite(ent, seed=1, count=20)
                failed = [r.name for r in res.reports
                          if r.passed == (r.name in res.expected_failures)]
                assert res.ok, (name, key, delta, failed)
                moves += 1
    assert moves == 87


def test_export_roundtrip_all_entries():
    for name in cat.names():
        spec = cat.entry(name).spec
        text = spec.to_json()
        assert ManifoldSpec.from_json(text).to_json() == text


def test_every_flag_picks_a_check():
    # a flag names a claim the data cannot show.  Some entry claims each
    # row's flag but levi-civita-flat's, which only `--check` runs; no row
    # reads `homogeneous`, which the benchmark's D_fit check reads on the
    # entries that declare D; and dropping any other flag of any entry
    # changes the suite's report names
    import dataclasses
    row_flags = {c.flag for c in cat.CHECKS} - {None}
    claimed = set().union(*(cat.entry(name).flags for name in cat.names()))
    assert row_flags - claimed == {cat._BY_NAME["levi-civita-flat"].flag}
    assert claimed - row_flags == {"homogeneous"}
    for name in cat.names():
        ent = cat.entry(name)
        assert "homogeneous" not in ent.flags or "D" in ent.spec.expected, name
        full = [r.name for r in run_suite(ent, seed=0, count=2).reports]
        for flag in ent.flags - {"homogeneous"}:
            cut = dataclasses.replace(ent, flags=ent.flags - {flag})
            assert [r.name for r in run_suite(cut, seed=0, count=2).reports] != full, (name, flag)


def test_rows_run_wherever_their_inputs_exist():
    # an entry runs exactly the rows whose inputs (`needs`) its spec
    # fields, expected values and companion tables hold and whose flag, if
    # any, it claims; its exported spec file claims none and has no
    # companion tables, so it runs exactly the entry's rows that read only
    # spec fields: with a metric, every theorem row whose fields it has,
    # and with a second metric every pencil row.  No entry or spec file
    # runs a transform's rows, or a row that only `run_checks` runs
    transform_rows = {"legendre-field", "transform-exprs", "match",
                      *(c.name for c in cat._NAMED)}
    assert {"torsionless", "nabla-from-g", "transform-metric", "homogeneous-legendre"} <= \
        transform_rows
    for name in cat.names():
        ent = cat.entry(name)
        exported = ManifoldSpec.from_json(ent.spec.to_json())
        fields = {key for key in ("g", "E", "g2") if getattr(ent.spec, key) is not None}
        fields |= set(ent.spec.expected)
        entry_rows, spec_rows = ([r.name for r in run_suite(source, seed=0, count=2).reports]
                                 for source in (ent, exported))
        for rows, inputs, flags in ((entry_rows, fields | set(ent.companion), ent.flags),
                                    (spec_rows, fields, frozenset())):
            assert rows == [c.name for c in cat.CHECKS
                            if set(c.needs) <= inputs and (c.flag is None or c.flag in flags)], name
            assert not transform_rows & set(rows), name
        assert spec_rows == [row for row in entry_rows if cat._BY_NAME[row].flag is None
                             and set(cat._BY_NAME[row].needs) <= fields], name
        assert {"product-axioms", "hertling-manin"} <= set(spec_rows), name
        if "g" in fields:
            assert {"metric-invariance", "killing-unit", "flatness", "nabla-e",
                    "product-compat", "curvature-product", "r-tr"} <= set(spec_rows), name
        if "g2" in fields:
            assert {"pencil-exactness", "flat-pencil", "product-from-pencil",
                    *(c.name for c in cat.CHECKS if c.name.startswith("reconstructed/"))} <= set(
                        spec_rows), name


def test_every_expected_failure_runs_and_fails():
    # an entry's expected failure is a negative control: its `verify` runs
    # the row, and the row fails on every seed
    for name in cat.names():
        ent = cat.entry(name)
        for seed in range(5):
            reports = {r.name: r for r in run_suite(ent, seed=seed, count=20).reports}
            for row in ent.expected_failures:
                assert row in reports and not reports[row].passed, (name, row, seed)


def test_run_suite_builds_point_data_once_per_point(monkeypatch, tmp_path):
    # record the points of every structure, pencil (first and second
    # order), rotation data, spanning-field and transformed-structure batch
    # built, every matrix inverted, every metric given Christoffel jets,
    # the Christoffel symbols of every curvature built, the points of every
    # counit built, and every run of an expression table with the points it
    # runs over and the derivative order it computes, binding the recorders
    # wherever fmcheck holds the function
    import sys
    from fmcheck import exprjet as ej
    from fmcheck.legendre import transform_metric_exprs
    built, runs, inverted, christoffel, curved, counits = {}, [], [], [], [], []

    def points_of(batch):
        return [tuple(p) for p in np.asarray(batch.point, dtype=complex).reshape(-1, batch.n)]

    def fields_over(fn):
        def recording(nb, points, n, env):
            built["fields"].append([tuple(p) for p in np.asarray(points, dtype=complex)])
            return fn(nb, points, n, env)
        return recording

    def returned(key, fn):
        def recording(*args, **kwargs):
            out = fn(*args, **kwargs)
            built[key].append(points_of(out))
            return out
        return recording

    def inverse(fn):
        def recording(a, *args, **kwargs):
            inverted.append(np.array(a))
            return fn(a, *args, **kwargs)
        return recording

    def christoffel_of(fn):
        def recording(g, *args, **kwargs):
            christoffel.append(np.array(g))
            return fn(g, *args, **kwargs)
        return recording

    def curvature_of(fn):
        def recording(gamma, *args, **kwargs):
            curved.append(gamma)  # the array itself, which a cut of it shares
            return fn(gamma, *args, **kwargs)
        return recording

    def counit_over(fn):
        def recording(st):
            counits.append(points_of(st))
            return fn(st)
        return recording

    def transformed_over(fn):
        def recording(st, *args, **kwargs):
            built["transformed"].append(points_of(st))
            return fn(st, *args, **kwargs)
        return recording

    def table_run(fn):
        def recording(table, points, params=None, order=2):
            runs.append((repr(table), [tuple(p) for p in np.asarray(points, dtype=complex)], order))
            return fn(table, points, params, order)
        return recording

    targets = {("manifold", "structures"): lambda fn: returned("structure", fn),
               ("rotation", "rotations"): lambda fn: returned("rotation", fn),
               ("hamops", "spanning_fields"): fields_over,
               ("pencil", "pencil_data"): lambda fn: returned("pencil", fn),
               ("connection", "checked_inverse"): inverse,
               ("connection", "christoffel_jets"): christoffel_of,
               ("connection", "riemann_components"): curvature_of,
               ("connection", "counit_jets"): counit_over,
               ("legendre", "transformed_at"): transformed_over,
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
        # sampling runs the guards, values only, over blocks of
        # candidates; every other table runs once, over the sample points
        # (the vector potential's tables over the flat-chart values at
        # them), to the order its rows read
        guards = repr(spec.region.guards)
        assert all(order == 0 for table, _, order in runs if table == guards), what
        walk = [(table, tuple(over), order) for table, over, order in runs if table != guards]
        assert len({run[:2] for run in walk}) == len(walk), what
        for table, over, _ in walk:
            assert list(over) in (pts, chart_values), (what, table)
        return {(table, over): order for table, over, order in walk}

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
        # and no connection is given its curvature twice: no two
        # curvatures come from the same Christoffel symbols, or a cut of them
        for k, gamma in enumerate(curved):
            assert not any(np.shares_memory(gamma, other) for other in curved[:k]), what

    rotation_flags = {"ed4", "ed4bis", "ed5b", "potentiality"}
    for name in cat.names():
        ent = cat.entry(name)
        pts = [tuple(np.asarray(p, dtype=complex))
               for p in sample_points(ent.spec, SamplePlan(seed=0, count=10))]
        chart_values = None
        if "flat_chart" in ent.companion:
            chart_values = [tuple(ej.eval_points(ent.companion["flat_chart"], [p],
                                                 ent.spec.env()).at(0)[0])
                            for p in pts]
        built["structure"] = []
        st = manifold.structures(ent.spec, pts)
        metrics = [m for m in (st.g, st.g2) if m is not None]
        for key in ("structure", "rotation", "fields", "pencil"):
            built[key] = []
        runs.clear()
        inverted.clear()
        christoffel.clear()
        curved.clear()
        run_suite(ent, seed=0, count=10)
        needs_rotation = bool(ent.flags & rotation_flags) or "lame" in ent.companion
        assert built["structure"] == [pts], name
        assert built["rotation"] == ([pts] if needs_rotation else []), name
        assert built["fields"] == ([pts] if "normal_bundle" in ent.companion else []), name
        assert built["pencil"] == ([pts] if ent.spec.g2 is not None else []), name
        check_inverses(metrics, name)
        orders = check_runs(ent.spec, pts, chart_values, name)
        tables = {table for table, _ in orders}
        spec_tables = [ent.spec.e, ent.spec.E, ent.spec.g, ent.spec.g2]
        assert {repr(t) for t in spec_tables if t is not None} <= tables, name
        # the structure's tables to second order, printed Christoffel
        # symbols to first, and the flat chart's unit and Euler fields as
        # values only
        for t in spec_tables:
            assert t is None or orders[repr(t), tuple(pts)] == 2, name
        for key, order, over in (("gamma", 1, pts), ("gamma_star", 1, pts),
                                 ("flat_e", 0, chart_values), ("flat_E", 0, chart_values)):
            if key in ent.companion:
                assert orders[repr(ent.companion[key]), tuple(over)] == order, (name, key)
        # `verify` on the exported spec file, and each `--check` that applies
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(ent.spec.to_json())
        argvs = [["verify", str(spec_path)]]
        argvs += [["verify", name, "--check", check] for check in cat.SINGLE_CHECKS]
        for argv in argvs:
            for key in ("structure", "pencil"):
                built[key] = []
            runs.clear()
            inverted.clear()
            christoffel.clear()
            curved.clear()
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv + ["--points", "10", "--seed", "0"])
            if code != 2:  # 2: the spec lacks a field the check needs
                assert built["structure"] == [pts], argv
                if ent.spec.g2 is not None and argv[1] == str(spec_path):
                    assert built["pencil"] == [pts], argv
                check_inverses(metrics, argv)
                check_runs(ent.spec, pts, chart_values, argv)

    # `legendre`: one structure batch over the sample points, the field's,
    # the expression-level metric's and the target metric's tables once
    # over them, and one transformed structure batch over them
    ent = cat.entry("q0-d-minus1")
    pts = [tuple(np.asarray(p, dtype=complex))
           for p in sample_points(ent.spec, SamplePlan(seed=0, count=10))]
    st = manifold.structures(ent.spec, pts)
    for field, target in (("X2", "q0-d0"), ("X3", "q0-d1"), ("e", None)):
        argv = ["legendre", "q0-d-minus1", "--field", field, "--points", "10", "--seed", "0"]
        argv += ["--target", target] if target else []
        for key in ("structure", "transformed"):
            built[key] = []
        runs.clear()
        inverted.clear()
        christoffel.clear()
        curved.clear()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
        assert built["structure"] == [pts], argv
        assert built["transformed"] == [pts], argv
        check_inverses([st.g], argv)
        exprs = ent.companion["legendre_fields"][field]
        # the metrics that rows compare only as values run to order 0
        want = [(repr(t), pts, 2) for t in (ent.spec.e, ent.spec.E, ent.spec.g, exprs)]
        want.append((repr(transform_metric_exprs(ent.spec, exprs).g), pts, 0))
        if target:
            want.append((repr(cat.entry(target).spec.g), pts, 0))
        got = [run for run in runs if run[0] != repr(ent.spec.region.guards)]
        assert sorted(map(repr, got)) == sorted(map(repr, want)), argv

    # the pencil's walk at 20 points builds one counit and gives the first
    # metric Christoffel jets once, both over all 20 points, which the
    # walk's own rows, the pencil's rows and the walk of the structure
    # rebuilt from it share
    ent = cat.entry("af-pencil-n3")
    pts = [tuple(np.asarray(p, dtype=complex))
           for p in sample_points(ent.spec, SamplePlan(seed=0, count=20))]
    g = manifold.structures(ent.spec, pts).g
    counits.clear()
    christoffel.clear()
    assert run_suite(ent, seed=0, count=20).ok
    assert counits == [pts]
    assert [len(a) for a in christoffel if np.array_equal(a, g[:len(a)])] == [20]


def test_row_data_cuts_array_batches_to_the_row_points():
    # no batch is cut: in a 25-point walk of every af-pencil-n3 row, each
    # array of each batch, the pencil's second-order data and the walk of
    # the structure rebuilt from it included, runs over all 25 points, but
    # the named product's c, dc and ddc, which have one point-free row,
    # and `hertling-manin`, which reads only them; every report reads the
    # 25 points; and the rebuilt structure's walk reads the walk's own
    # inverse metric, Levi-Civita connection and counit, not copies of them
    ent = cat.entry("af-pencil-n3")
    points = sample_points(ent.spec, SamplePlan(seed=0, count=25))
    walk = cat._Walk(ent.spec, ent.companion, points)
    checks = cat._chosen(ent.spec, ent.companion, ent.flags)
    assert {"flat-pencil", "reconstructed/flatness"} <= {c.name for c in checks}
    assert ent.spec.product == "canonical"
    for check in checks:
        assert len(check.at(walk).scale) == (1 if check.name == "hertling-manin" else 25), \
            check.name
        assert walk.report(check).npoints == 25, check.name
    assert {"st", "pa", "recon"} <= walk.data.keys()
    product = (walk.st.c, walk.st.dc, walk.st.ddc)
    assert [a.shape[0] for a in product] == [1, 1, 1]
    for key, a in _walk_arrays(walk):
        assert a.shape[0] == 25 or any(a is b for b in product), (key, a.shape)
    recon = walk.recon
    assert np.array_equal(recon.points, walk.points)
    for key in ("ginv", "lc", "counit"):
        assert recon.data[key] is walk.data[key], key
    assert recon.st is not walk.st and recon.st.c is walk.pencil_product.c
    # a mixed walk's rows each read all the points
    mixed = cat.run_checks(ent.spec, ent.companion, ["pencil-exactness", "flat-pencil"], points)
    assert [r.npoints for r in mixed] == [25, 25]


def test_every_row_reads_every_sample_point():
    # every report of every catalog entry, of the af-pencil-n3 spec file
    # and of both catalog transforms reads all of its run's points, at 1,
    # 3, 4, 7 and 20: the pencil's rows and the 11 theorem rows of the
    # structure rebuilt from it too, and the rows that a named product,
    # which is point-free, computes once
    pencil_rows = {"flat-pencil", "delta-identities", "r-operator", "product-from-pencil",
                   *(c.name for c in cat.CHECKS if c.name.startswith("reconstructed/"))}
    assert len(pencil_rows) == 4 + 11
    sources = [cat.entry(name) for name in cat.names()]
    sources.append(ManifoldSpec.from_dict(json.loads(cat.entry("af-pencil-n3").spec.to_json())))
    source = cat.entry("q0-d-minus1")
    for field, target in source.companion["legendre_targets"].items():
        sources.append(cat.Transform(source.spec, source.companion["legendre_fields"][field],
                                     field, target))
    seen = set()
    for src in sources:
        name = getattr(src, "spec", src).name
        for count in (1, 3, 4, 7, 20):
            reports = run_suite(src, seed=0, count=count).reports
            assert reports, (name, count)
            for r in reports:
                assert r.npoints == count, (name, count, r.name, r.npoints)
                seen.add(r.name)
    assert pencil_rows <= seen and {"v-eigenvalues", "ode-integrals", "normal-rank",
                                    "transform-exprs", "match-q0-d0", "match-q0-d1"} <= seen


def test_q0_d1_fault_seeds_fail_only_curvature_product():
    # catalog-sweep runs q0-d1 on these seeds and counts one wrong verdict,
    # curvature-product's; any other row failing there (r-tr reads about
    # 1e-9 against 1e-8 wherever its two curvature sums are contracted
    # apart) would make the benchmark report wrong outputs
    import importlib.util
    import pathlib
    import sys
    path = pathlib.Path(__file__).resolve().parents[1] / "fmbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("fmbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert len(workloads.Q0_D1_FAULT_SEEDS) == 10
    for seed in workloads.Q0_D1_FAULT_SEEDS:
        reports = run_suite(cat.entry("q0-d1"), seed=seed, count=workloads.SWEEP_POINTS).reports
        assert "r-tr" in [r.name for r in reports]
        assert [r.name for r in reports if not r.passed and r.name != workloads.Q0_D1_FAULT] == [], \
            seed


def _walk_arrays(walk):
    """(batch, array) for every array in a walk's batches: their fields, a
    connection's cached curvature and the batches of a derived walk."""
    import dataclasses

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, cat._Walk):
            for inner in value.data.values():
                yield from arrays(inner)
        elif isinstance(value, (tuple, list)):
            for inner in value:
                yield from arrays(inner)
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                yield from arrays(getattr(value, f.name))
            yield from arrays(vars(value).get("curvature"))
    return [(key, a) for key, batch in walk.data.items() for a in arrays(batch)]


def test_structures_are_real_exactly_where_the_tape_is():
    # the tape computes in complex; a run whose parts have no imaginary
    # part but zeros leaves it as float64 with the same real bits, and a
    # structure batch takes that dtype from its table (a named product's
    # constants are real).  The tape's complex output is the table's
    # entries run with one imaginary constant beside them, which keeps the
    # whole run complex and leaves each entry's jets as they are
    from fmcheck import exprjet as ej
    for name in cat.names():
        spec = cat.entry(name).spec
        points = sample_points(spec, SamplePlan(seed=0, count=20))
        tables = {"c": None if isinstance(spec.product, str) else spec.product,
                  "e": spec.e, "E": spec.E, "g": spec.g, "g2": spec.g2}
        st = manifold.structures(spec, points)
        for key, table in tables.items():
            if table is None:
                continue
            entries = np.array(table, dtype=object)
            run = ej.eval_points([*entries.flat, "1i"], points, spec.env())
            shape = (len(points),) + entries.shape
            raw = [part[:, :-1].reshape(shape + part.shape[2:])
                   for part in (run.val, run.grad, run.hess)]
            real = not any(part.imag.any() for part in raw)
            for part, d in zip(raw, ("", "d", "dd")):
                got = getattr(st, d + key)
                assert got.dtype == (np.float64 if real else np.complex128), (name, d + key)
                assert np.array_equal(got.view(float), np.ascontiguousarray(
                    part.real if real else part).view(float)), (name, d + key)
        if tables["c"] is None:
            assert st.c.dtype == st.dc.dtype == st.ddc.dtype == np.float64


def test_only_batches_with_imaginary_parts_stay_complex():
    # at seed 0 and 20 points every array of every catalog walk is float64,
    # but for the batches whose data is complex: case-ii's potentials, and
    # the ODE solutions and rotation data of pencil-63 and the q0 entries
    complex_batches = {("case-ii", "potentials"),
                       *((name, key) for name in ("pencil-63", "q0-d-minus1", "q0-d0", "q0-d1")
                         for key in ("ode", "rd"))}
    seen = set()
    for name in cat.names():
        ent = cat.entry(name)
        points = sample_points(ent.spec, SamplePlan(seed=0, count=20))
        walk = cat._Walk(ent.spec, ent.companion, points)
        for check in cat._chosen(ent.spec, ent.companion, ent.flags):
            check.at(walk)
        for key, a in _walk_arrays(walk):
            if a.dtype == np.complex128:
                assert (name, key) in complex_batches, (name, key)
                if a.imag.any():
                    seen.add((name, key))
            else:
                assert a.dtype in (np.float64, np.bool_), (name, key, a.dtype)  # masks are bool
    assert seen == complex_batches


def test_flat_pencil_is_real_on_real_data():
    # the row's four parts and its scale on af-pencil-n3 and n4 are float64
    # at each of the 20 points: no pencil member is formed, so no complex
    # lambda
    from fmcheck.pencil import flat_pencil_at
    for n in (3, 4):
        ent = cat.entry(f"af-pencil-n{n}")
        points = sample_points(ent.spec, SamplePlan(seed=0, count=20))
        result = flat_pencil_at(cat._Walk(ent.spec, ent.companion, points).pa)
        assert list(result.parts) == ["mixed-torsion", "curvature-2", "curvature-1",
                                      "mixed-curvature"]
        for value in (*result.parts.values(), result.scale):
            assert value.dtype == np.float64 and value.shape == (20,)


def test_a_complex_parameter_keeps_the_walk_complex():
    # q0-d0 with a = 1.1+0.3i, the [re, im] pair a spec file or `--param`
    # gives: the metric and all built on it carry imaginary parts, stay
    # complex128, and all 20 of its rows pass, and the natural connection's
    # two construction rows, which only `run_checks` runs
    ent = cat.entry("q0-d0")
    doc = json.loads(ent.spec.to_json())
    doc["params"]["a"] = [1.1, 0.3]
    spec = ManifoldSpec.from_dict(doc)
    assert spec.params["a"] == 1.1 + 0.3j
    points = sample_points(spec, SamplePlan(seed=0, count=20))
    checks = cat._chosen(spec, ent.companion, ent.flags)
    reports = cat.run_checks(spec, ent.companion,
                             [c.name for c in checks] + ["torsionless", "nabla-from-g"], points)
    assert len(reports) == 20 + 2
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    walk = cat._Walk(spec, ent.companion, points)
    for check in checks:
        check.at(walk)
    assert walk.st.g.dtype == walk.st.dg.dtype == walk.st.ddg.dtype == np.complex128
    assert {"ginv", "lc", "nat", "counit", "rd", "ode"} <= {
        key for key, a in _walk_arrays(walk) if a.dtype == np.complex128 and a.imag.any()}
