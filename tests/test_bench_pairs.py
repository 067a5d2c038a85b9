import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(ops_per_s, setup_s, failed=0, attempted=100):
    """The last line `fmbench/run.py` prints, with two of its metrics."""
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                                   "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}})


def test_summary_of_canned_pairs():
    bench = _bench_pairs()
    output = "ode-trajectories ops_per_s = 400 1/s\nattempted = 100\n" + _line(400.0, 0.2) + "\n"
    assert bench.last_result(output)["metrics"]["ops_per_s"]["value"] == 400.0
    sides = ([(400.0, 0.20), (410.0, 0.18), (390.0, 0.21), (420.0, 0.19)],
             [(900.0, 0.19), (880.0, 0.20), (950.0, 0.22, 1), (860.0, 0.17)])
    pairs = [{"parent": bench.last_result(_line(*p)), "change": bench.last_result(_line(*c))}
             for p, c in zip(*sides)]
    metrics = [{"name": "setup_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    summary = bench.summarize(pairs, metrics)
    assert summary["failed"] == [[0, 0, 100], [0, 0, 100], [0, 1, 100], [0, 0, 100]]
    assert summary["ops_per_s"] == {"parent_median": 405.0, "parent_iqr": [397.5, 412.5],
                                    "change_median": 890.0, "change_iqr": [875.0, 912.5],
                                    "change_better_pairs": 4}
    # lower is better for setup_s: the change wins pairs 0 and 3 only
    assert summary["setup_s"]["change_better_pairs"] == 2
    assert summary["setup_s"]["parent_median"] == 0.195
    # one pair: both quartiles are its value
    one = bench.summarize(pairs[:1], metrics)
    assert one["setup_s"]["change_iqr"] == [0.19, 0.19]


def test_no_bytecode_from_the_tree_reaches_a_run(tmp_path, monkeypatch):
    # a run neither writes bytecode nor reads any from outside its tree, and
    # a tree that holds a `__pycache__` anywhere is refused before it runs
    bench = _bench_pairs()
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        seen.append((env.get("PYTHONDONTWRITEBYTECODE"), "PYTHONPYCACHEPREFIX" in env))
        return bench.subprocess.CompletedProcess(argv, 0, stdout=_line(400.0, 0.2), stderr="")
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    tree = tmp_path / "tree"
    (tree / "src" / "pkg").mkdir(parents=True)
    for _ in range(2):
        assert bench.run_bench(tree, "catalog-sweep", 1, 1.0, 0)["failed"] == 0
    assert seen == [("1", False)] * 2
    (tree / "src" / "pkg" / "__pycache__").mkdir()
    with pytest.raises(RuntimeError, match="src/pkg/__pycache__"):
        bench.run_bench(tree, "catalog-sweep", 1, 1.0, 0)
    assert len(seen) == 2


def test_work_diff_of_both_sides():
    # the counters run against a tree's src/, and the diff keeps each
    # entry's totals per point count, parent beside change
    bench = _bench_pairs()
    golden = json.loads((ROOT / "tests" / "golden" / "work.json").read_text(encoding="utf-8"))
    here = bench.run_work(ROOT)
    assert here == golden
    parent = {"columns": here["columns"], "a/4": [2, 10, 1, 5], "a/4/row x": [2, 10, 0, 0],
              "b/4": [1, 1, 1, 1]}
    change = {"columns": here["columns"], "a/4": [2, 6, 1, 5], "a/4/row x": [2, 6, 0, 0],
              "c/4": [3, 3, 0, 0]}
    assert bench.work_diff(parent, change) == {"columns": here["columns"], "entries": {
        "a/4": {"parent": [2, 10, 1, 5], "change": [2, 6, 1, 5]},
        "b/4": {"parent": [1, 1, 1, 1], "change": None},
        "c/4": {"parent": None, "change": [3, 3, 0, 0]}}}


def test_both_sides_are_extracted_into_their_own_trees(tmp_path):
    # the parent is its revision's files; the change is the working tree's
    # tracked files with their edits and its untracked files, without the
    # ignored ones, a deleted file or anything else of the repository
    bench = _bench_pairs()
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)

    def git(*argv):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *argv], check=True, capture_output=True)

    git("init", "-q")
    files = {"kept.txt": "kept", "edited.txt": "before", "deleted.txt": "gone",
             "sub/module.py": "x = 1", ".gitignore": "ignored.txt\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "edited.txt").write_text("after")
    (repo / "deleted.txt").unlink()
    (repo / "new.txt").write_text("new")
    (repo / "ignored.txt").write_text("ignored")

    def contents(tree):
        return {str(p.relative_to(tree)): p.read_text() for p in tree.rglob("*") if p.is_file()}

    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    bench.extract_rev(repo, "HEAD", parent)
    bench.extract_working_tree(repo, change)
    assert contents(parent) == files
    want = {**files, "edited.txt": "after", "new.txt": "new"}
    del want["deleted.txt"]
    assert contents(change) == want
