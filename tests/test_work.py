"""The walk's work, counted exactly (`work_counts`), against
`tests/golden/work.json`.  A change that changes the work rewrites the
file (`PYTHONPATH=src python tests/work_counts.py > tests/golden/work.json`)
and says why, row by row."""

import json
import pathlib

from work_counts import COLUMNS, catalog_work, dumps

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "work.json"


def test_work_counts_match_the_golden_file():
    first, second = catalog_work(), catalog_work()
    assert first == second  # exact, run to run
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden.pop("columns") == COLUMNS
    moved = {key: (golden.get(key), first.get(key)) for key in golden.keys() | first.keys()
             if golden.get(key) != first.get(key)}
    assert not moved, f"work moved (golden, now): {dict(sorted(moved.items()))}"
    assert json.loads(dumps(first)) == {"columns": COLUMNS, **first}
