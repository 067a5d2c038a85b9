"""Exact work counters for the catalog walk, counted from outside `src/`.

Per catalog entry at seed 0, at 4 and at 20 points, one `run_suite` is
counted by wrapping five places of the package, with every module of
the package loaded first (a walk loads some of them only for the rows
that read them):

- `tensor.contract` (wherever a module of the package holds it): its calls
  and the elements of its outputs;
- `exprjet._run`: the tape runs and the operations each run goes through;
- `manifold.amax` (wherever a module of the package holds it): its calls;
- `catalog._Walk.report` (one row) and each builder of `catalog._BATCHED`
  (one batch): the label the counts above are charged to, the innermost
  that is running.

The counts are exact and machine-independent, so two trees can be
compared by their work as well as by their time.  `tests/golden/work.json`
pins them (`tests/test_work.py`).  Run as a script, it prints the same
JSON for the package that `PYTHONPATH` imports:

    PYTHONPATH=src python tests/work_counts.py
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pkgutil
import sys

COLUMNS = ["contract calls", "contract output elements", "tape runs", "tape operations",
           "amax calls"]
POINT_COUNTS = (4, 20)


@contextlib.contextmanager
def counting():
    """Count the work done inside the block: yields a dict from label
    ("row <name>", "batch <name>" or "walk" outside both) to the counts
    of `COLUMNS`, each charged to the innermost label."""
    import numpy as np

    import fmcheck
    import fmcheck.catalog as catalog
    from fmcheck import exprjet, manifold, tensor

    for info in pkgutil.iter_modules(fmcheck.__path__):
        importlib.import_module(f"fmcheck.{info.name}")
    counts: dict = {}
    stack = ["walk"]

    def charge(column, amount):
        row = counts.setdefault(stack[-1], [0] * len(COLUMNS))
        row[column] += amount

    def labelled(label, fn):
        def run(*args, **kwargs):
            stack.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return run

    contract, amax = tensor.contract, manifold.amax
    run_tape, report = exprjet._run, catalog._Walk.report
    batched = dict(catalog._BATCHED)

    def counted_contract(subscripts, *operands):
        out = contract(subscripts, *operands)
        charge(0, 1)
        charge(1, int(np.size(out)))
        return out

    def counted_amax(x, rank):
        charge(4, 1)
        return amax(x, rank)

    def counted_run(program, points, params, order):
        charge(2, 1)
        charge(3, len(program.ops))
        return run_tape(program, points, params, order)

    def counted_report(self, check, *args, **kwargs):
        name = check if isinstance(check, str) else check.name
        return labelled(f"row {name}", report)(self, check, *args, **kwargs)

    modules = [m for name, m in list(sys.modules.items()) if name.startswith("fmcheck")]
    holders = [(m, key, fn, counted) for m in modules
               for key, fn, counted in (("contract", contract, counted_contract),
                                        ("amax", amax, counted_amax))
               if getattr(m, key, None) is fn]
    try:
        for module, key, _, counted in holders:
            setattr(module, key, counted)
        exprjet._run = counted_run
        catalog._Walk.report = counted_report
        catalog._BATCHED.update((key, labelled(f"batch {key}", fn)) for key, fn in batched.items())
        yield counts
    finally:
        for module, key, fn, _ in holders:
            setattr(module, key, fn)
        exprjet._run = run_tape
        catalog._Walk.report = report
        catalog._BATCHED.update(batched)


def catalog_work() -> dict:
    """The counts of every catalog entry's `run_suite` at seed 0, at each
    of `POINT_COUNTS`, keyed "<entry>/<points>" for the entry's total and
    "<entry>/<points>/<label>" for each row and batch, in key order."""
    import fmcheck.catalog as catalog

    out = {}
    for name in catalog.names():
        for count in POINT_COUNTS:
            with counting() as counts:
                catalog.run_suite(catalog.entry(name), seed=0, count=count)
            out[f"{name}/{count}"] = [sum(col) for col in zip(*counts.values())]
            out.update((f"{name}/{count}/{label}", row) for label, row in counts.items())
    return dict(sorted(out.items()))


def dumps(work: dict) -> str:
    """`work` as JSON with one key per line, so that a diff reads per label."""
    lines = [f" {json.dumps('columns')}: {json.dumps(COLUMNS)}"]
    lines += [f" {json.dumps(key)}: {json.dumps(row)}" for key, row in work.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(dumps(catalog_work()))
