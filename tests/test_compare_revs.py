import importlib.util
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _comparator():
    spec = importlib.util.spec_from_file_location("compare_revs", ROOT / "scripts" / "compare_revs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_comparator_finds_the_working_tree_identical():
    # one run of each kind of the corpus, both sides on the working tree
    cmp = _comparator()
    runs = cmp.corpus()
    kinds = list(dict.fromkeys(kind for kind, _ in runs))
    assert kinds == ["entry", "spec-file", "check", "fault-seed", "complex-param", "transform",
                     "row", "ode", "catalog", "bad-input"]
    # the complex path: q0-d0 off the real axis at seeds 0-2, 20 and 50 points
    assert [argv for kind, argv in runs if kind == "complex-param"] == [
        ["verify", "q0-d0", "--param", "a=1.1+0.3j", "--seed", str(seed), "--points", str(points)]
        for seed in range(3) for points in (20, 50)]
    picked = [next(run for run in runs if run[0] == kind) for kind in kinds]
    picked.append(next(run for run in runs if run[0] == "bad-input" and "third" in run[1][1]))
    results = cmp.compare(ROOT, ROOT, picked)
    assert [res["kind"] for res in results] == ["identical"] * len(picked), results


def test_comparator_classifies_moves_and_changes():
    cmp = _comparator()

    def run(residual, passed=True, code=0, err="", npoints=5):
        doc = {"ok": passed, "reports": [{"name": "r-tr", "residual": residual, "passed": passed,
                                          "npoints": npoints}]}
        return {"code": code, "out": json.dumps(doc), "err": err}
    assert cmp.classify(run(1e-10), run(1e-10))["kind"] == "identical"
    moved = cmp.classify(run(1e-10), run(1e-10 + 5e-13))
    assert moved["kind"] == "moved" and moved["inside_margin"]
    assert moved["values"] == [("/reports/r-tr/residual", 1e-10, 1e-10 + 5e-13)]
    assert not cmp.classify(run(1e-10), run(3e-12))["inside_margin"]
    # an integer field has no margin: it is listed apart from the floats
    counted = cmp.classify(run(1e-10), run(1e-10, npoints=20))
    assert counted["kind"] == "moved" and counted["inside_margin"]
    assert (counted["values"], counted["integers"]) == ([], [("/reports/r-tr/npoints", 5, 20)])
    assert moved["integers"] == []
    for head in (run(1e-10, passed=False), run(1e-10, code=1), run(1e-10, err="x")):
        assert cmp.classify(run(1e-10), head)["kind"] == "changed"
    # a changed run names each part that changed, with its value on each side
    assert cmp.classify(run(1e-10), run(1e-10, passed=False))["changes"] == [
        ("report/ok", True, False), ("report/reports/r-tr/passed", True, False)]
    assert cmp.classify(run(1e-10), run(1e-10, code=2, err="input error: x\n"))["changes"] == [
        ("exit code", 0, 2), ("stderr", "", "input error: x\n")]
    failed = {"code": 1, "out": "", "err": "uncaught ValueError: x"}
    assert cmp.classify(run(1e-10), failed)["changes"] == [
        ("exit code", 0, 1), ("stderr", "", "uncaught ValueError: x"),
        ("report", run(1e-10)["out"], "")]


def test_comparator_matches_report_rows_by_name():
    # a run that adds and removes rows lists them apart, and still names
    # each number that moved in the rows both sides run
    cmp = _comparator()

    def run(*rows):
        doc = {"ok": True, "reports": [{"name": name, "residual": residual, "passed": True}
                                       for name, residual in rows]}
        return {"code": 0, "out": json.dumps(doc), "err": ""}
    res = cmp.classify(run(("flatness", 1e-12), ("r-tr", 2e-12), ("gmc", 3e-12)),
                       run(("flatness", 1e-12), ("gmc", 3.5e-12), ("dual-structure", 0.0)))
    assert res["kind"] == "changed" and res["changes"] == []
    assert (res["added"], res["removed"]) == (["report/reports/dual-structure"],
                                              ["report/reports/r-tr"])
    assert res["values"] == [("/reports/gmc/residual", 3e-12, 3.5e-12)]
    # the same rows in another order are a change of the report
    swapped = cmp.classify(run(("flatness", 1e-12), ("gmc", 3e-12)),
                           run(("gmc", 3e-12), ("flatness", 1e-12)))
    assert swapped["changes"] == [("report/reports (order)", ["flatness", "gmc"],
                                   ["gmc", "flatness"])]
    assert swapped["added"] == swapped["removed"] == [] and swapped["values"] == []


def test_comparator_compares_ode_csv_cell_by_cell():
    cmp = _comparator()

    def run(*rows, header="z_re,F12_re"):
        return {"code": 0, "out": "\n".join([header, *rows]) + "\n", "err": ""}
    moved = cmp.classify(run("2.0,0.5", "3.0,0.25"), run("2.0,0.5", "3.0,0.2500000000000001"))
    assert moved["kind"] == "moved" and moved["inside_margin"]
    assert moved["values"] == [("/1/F12_re", 0.25, 0.2500000000000001)]
    for head in (run("2.0,0.5"), run("2.0,0.5", "3.0,0.25", header="z_re,F21_re"),
                 run("2.0,0.5", "3.0")):
        assert cmp.classify(run("2.0,0.5", "3.0,0.25"), head)["kind"] == "changed"


def test_comparator_classifies_jet_parts():
    cmp = _comparator()
    base = np.array([[0.0, 1.5 - 2j], [0j, -3.0]])
    assert cmp.classify_part(base, base.copy()) == {"kind": "identical"}
    # -0.0 against +0.0 in a real and an imaginary part
    signed = base.copy()
    signed[0, 0] = complex(-0.0, 0.0)
    signed[1, 0] = complex(0.0, -0.0)
    assert cmp.classify_part(base, signed) == {"kind": "sign of zero"}
    moved = signed.copy()
    moved[1, 1] += 2e-15
    assert cmp.classify_part(base, moved) == {"kind": "moved", "max_abs": abs(moved[1, 1] - base[1, 1])}
    assert cmp.classify_part(base, base[:1]) == {"kind": "changed"}
    # a float64 part against a complex one with the same real bits and every
    # imaginary part zero, of either sign, is its own class, either way round
    real = np.array([[0.0, 1.5], [-0.0, -3.0]])
    cplx = np.array([[complex(0.0, -0.0), 1.5 + 0j], [complex(-0.0, 0.0), -3.0 + 0j]])
    assert cmp.classify_part(cplx, real) == {"kind": "real"}
    assert cmp.classify_part(real, cplx) == {"kind": "real"}
    # but not where a real part's bits differ or an imaginary part is not zero
    assert cmp.classify_part(cplx, np.array([[-0.0, 1.5], [-0.0, -3.0]])) == {
        "kind": "sign of zero"}
    assert cmp.classify_part(cplx, real + 1e-15)["kind"] == "moved"
    assert cmp.classify_part(base, base.real)["kind"] == "moved"


def test_comparator_runs_every_catalog_table_for_its_jets():
    # the jets corpus is the 85 tables of the jet tests' catalog list, and
    # the working tree against itself is identical in every part and error
    from test_exprjet import _catalog_tables
    cmp = _comparator()
    tables = cmp.compare_jets(ROOT, ROOT)
    assert sorted(t["table"] for t in tables) == sorted(f"{name} {key}"
                                                       for name, key, _, _ in _catalog_tables())
    assert len(tables) == 85
    assert all(t[part] == {"kind": "identical"} and t["errors"] == "identical"
               for t in tables for part in cmp.PARTS)
