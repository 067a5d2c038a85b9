import importlib.util
import json
import pathlib
import sys

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
    assert kinds == ["entry", "spec-file", "check", "fault-seed", "transform", "bad-input"]
    picked = [next(run for run in runs if run[0] == kind) for kind in kinds]
    picked.append(next(run for run in runs if run[0] == "bad-input" and "third" in run[1][1]))
    results = cmp.compare(ROOT, ROOT, picked)
    assert [res["kind"] for res in results] == ["identical"] * len(picked), results


def test_comparator_classifies_moves_and_changes():
    cmp = _comparator()

    def run(residual, passed=True, code=0, err=""):
        doc = {"ok": passed, "reports": [{"name": "r-tr", "residual": residual, "passed": passed}]}
        return {"code": code, "out": json.dumps(doc), "err": err}
    assert cmp.classify(run(1e-10), run(1e-10))["kind"] == "identical"
    moved = cmp.classify(run(1e-10), run(1e-10 + 5e-13))
    assert moved["kind"] == "moved" and moved["inside_margin"]
    assert moved["values"] == [("/reports/r-tr/residual", 1e-10, 1e-10 + 5e-13)]
    assert not cmp.classify(run(1e-10), run(3e-12))["inside_margin"]
    for head in (run(1e-10, passed=False), run(1e-10, code=1), run(1e-10, err="x")):
        assert cmp.classify(run(1e-10), head)["kind"] == "changed"
