import importlib.util
import json
import pathlib
import sys

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


def test_each_run_gets_a_fresh_empty_bytecode_cache(tmp_path, monkeypatch):
    # a `__pycache__` in a tree must not reach its runs: each run's
    # PYTHONPYCACHEPREFIX is its own empty directory, outside the tree
    bench = _bench_pairs()
    (tmp_path / "__pycache__").mkdir()
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = pathlib.Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((prefix, prefix.is_dir() and not any(prefix.iterdir())))
        (prefix / "stale.pyc").write_bytes(b"")
        return bench.subprocess.CompletedProcess(argv, 0, stdout=_line(400.0, 0.2), stderr="")
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    for _ in range(2):
        assert bench.run_bench(tmp_path, "catalog-sweep", 1, 1.0, 0)["failed"] == 0
    (first, empty1), (_, empty2) = seen
    assert empty1 and empty2
    assert tmp_path not in first.parents and not first.exists()


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
