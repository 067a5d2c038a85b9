#!/usr/bin/env python3
"""Compare the CLI reports of another revision with the working tree's.

Usage:
    python scripts/compare_revs.py REV [--json OUT]

REV (any git revision of this repository) is extracted with `git archive`
into a temporary directory; nothing is fetched.  The corpus is run once on
each side, in one process per side, through `fmcheck.cli.main` (the row
runs through `catalog.run_checks`):

- `verify` on every catalog entry at seeds 0-2 with 20 and 50 points;
- `verify` on each entry's bare spec (`ManifoldSpec.to_json`) as a file;
- `verify --check NAME` for every entry and each of seven rows;
- `verify q0-d1` at 50 points on each seed of the benchmark's
  `Q0_D1_FAULT_SEEDS`;
- `verify q0-d0 --param a=1.1+0.3j`, whose data is complex, at seeds 0-2
  with 20 and 50 points;
- both catalog Legendre transforms at seeds 0-2 with 20 and 50 points;
- the rows that no CLI command runs, through `catalog.run_checks` at
  seeds 0-2 with 20 and 50 points, each run printing its JSON reports:
  `transform-metric` and `homogeneous-legendre` for the fields X2 and X3
  of q0-d-minus1, `torsionless` and `nabla-from-g` on lobachevsky,
  q0-d0 and af-pencil-n4, and the benchmark's three negative controls on
  lobachevsky's points (`killing-unit` with +u1 in the metric, `gmc` with
  the flipped normal and `sym-condition` with a random field);
- `ode` on three paths of each closed-form family, one with `--steps 40`,
  one run at `--rtol 1e-8 --atol 1e-10` and one from a random `--state`;
- `catalog list`, and `catalog export` of every entry;
- the unevaluable specs and arguments of the CLI's bad-input test (the
  spec directory given as a spec path, a spec file that lacks its fields,
  and lobachevsky's spec with e singular at sample 5 and g at sample 3,
  the reverse, or both at sample 3, among them), a spec file that is not
  UTF-8, q0-d0's spec file with a region guard that names an unbound
  parameter or a coordinate beyond its dimension, a non-finite `--param`
  and spec files with a non-finite parameter, box bound, `min_sep` (NaN,
  or an integer beyond a float's range) or `guard_min` or a reversed box
  pair, `catalog` without an entry name to export or with one to list,
  `legendre` with a `--field` of the wrong length, a named field the entry
  lacks or on an entry with none, a complex `--param` and `ode --from`
  with an infinite part, `ode` with 11 floats, a path through z = 1, a
  non-finite state and a non-finite or negative `--drift-tol`, and
  `verify`, `legendre` and `ode` with an `--output` path that cannot be
  written (the spec directory, or a file in a missing directory).

Each side writes its own exported and unevaluable spec files, at the same
paths.  Each run is classified as

- identical: the same exit code, stdout and stderr;
- moved: only numbers in the JSON report, or cells of the `ode` CSV,
  differ.  The golden-report margin 1e-12 + 1e-6 |r|
  (`tests/test_cli.py::test_golden_report_fixtures`) governs the floats
  (residuals, scales, details and CSV cells): the run gives their largest
  |change| and whether every one is inside the margin, and lists each.
  Integers (such as a row's `npoints`) have no margin; each moved one is
  listed apart;
- changed: the exit code, stderr, a verdict or any other part of the
  report (a CSV header, the number of rows) differs; the run lists each
  such difference, as the exit code, stderr or the path in the report
  (`report` alone where the stdout is neither a JSON report nor a CSV),
  with its value on each side.  A report's rows are matched by name: the
  rows that only one side runs are listed apart, as added or removed, and
  the numbers that moved in the rows both sides run are listed as for a
  moved run.

Then every expression table of every catalog entry (the spec's tables
and the companion tables, as `tests/test_exprjet.py::_catalog_tables`
lists them) runs through `exprjet.eval_points` at order 2 on each side,
at 50 sample points of seed 1.  Each part of each table's jets (values,
gradients, Hessians) is classified as

- identical: the same bytes;
- real: one side is float64 and the other complex, with the same bytes
  in the real parts and every imaginary part zero (of either sign);
- sign of zero: equal, but some zero has the other sign;
- moved: some number differs; the part gives the largest |change|;
- changed: its shape differs;

and each table's per-point errors as identical or changed.

The second-to-last line counts each kind of run, the moved runs with a
float outside the margin (0 included) and the moved runs with a moved
integer; the last line counts each class of part, and the
tables whose errors changed.  The exit code is 1 if any run, part or
errors changed, else 0: a move, inside the margin or not, leaves every
verdict as it was.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter on one side: argv[1] is the spec directory,
# stdin the corpus, stdout the results
WORKER = r"""
import contextlib, io, json, sys
import fmcheck.catalog as cat
from fmcheck.cli import main
from fmcheck.hamops import fields_from_exprs
from fmcheck.manifold import ManifoldSpec, SamplePlan, sample_points


def row(check, source, seed, count):
    # one row through the walk: on a catalog entry, on a field of
    # q0-d-minus1, or one of the benchmark's controls on lobachevsky's points
    lob = cat.entry("lobachevsky").spec
    sampled, spec, comp = lob, lob, {}
    if source in cat.names():
        sampled = spec = cat.entry(source).spec
    elif source in ("X2", "X3"):
        ent = cat.entry("q0-d-minus1")
        sampled = spec = ent.spec
        comp = {"legendre_field": ent.companion["legendre_fields"][source]}
    elif source == "+u1":
        spec = ManifoldSpec(name="lobachevsky-bad-metric", n=2, coords=lob.coords,
                            product="canonical", e=lob.e, region=lob.region,
                            g=(("2/(x-y)^2+u1", "0"), ("0", "2/(x-y)^2")))
    else:
        exprs, eps = {"flipped-normal": ([("1", "1")], (+1,)),
                      "random-field": ([("u1*u2", "u1")], (-1,))}[source]
        comp = {"normal_bundle": fields_from_exprs(exprs, eps=eps)}
    points = sample_points(sampled, SamplePlan(seed=int(seed), count=int(count)))
    reports = cat.run_checks(spec, comp, [check], points)
    print(json.dumps({"reports": [r.to_dict() for r in reports]}, sort_keys=True))
    return 0


specs = sys.argv[1]
for name in cat.names():
    with open(f"{specs}/{name}.json", "w") as fh:
        fh.write(cat.entry(name).spec.to_json())
doc = json.loads(cat.entry("lobachevsky").spec.to_json())
samples = sample_points(cat.entry("lobachevsky").spec, SamplePlan(seed=0, count=6))
x3, x5 = float(samples[3][0]), float(samples[5][0])
bad = {"table": {**doc, "product": {"table": [[["1", "0"], ["0", "0"]],
                                              [["0", "0"], ["0", "1"]]]}}}
for key, g in (("unbound", [["k*2/(x-y)^2", "0"], ["0", "k*2/(x-y)^2"]]),
               ("divzero", [["1/(x-x)", "0"], ["0", "2/(x-y)^2"]]),
               ("zero", [["0", "0"], ["0", "0"]]),
               ("third", [[f"2/(x-y)^2+1/(x-{x3!r})", "0"], ["0", "2/(x-y)^2"]]),
               ("singular-third", [[f"x-{x3!r}", "0"], ["0", "2/(x-y)^2"]]),
               ("unparseable", [["1+", "0"], ["0", "2/(x-y)^2"]])):
    bad[key] = {**doc, "g": g}
for key, xe, xg in (("e5-g3", x5, x3), ("e3-g5", x3, x5), ("e3-g3", x3, x3)):
    bad[key] = {**doc, "e": [f"1+ln(x-{xe!r})", "1"],
                "g": [[f"2/(x-y)^2+1/(x-{xg!r})", "0"], ["0", "2/(x-y)^2"]]}
bad["missing"] = {"n": 2}
q0 = json.loads(cat.entry("q0-d0").spec.to_json())
for key, guard in (("unbound-guard", "u1-kk"), ("coordinate-guard", "u4")):
    bad[key] = {**q0, "region": {**q0["region"], "guards": [guard]}}
nan, inf = float("nan"), float("inf")
bad["nan-param"] = {**doc, "params": {"a": nan}}
for key, region in (("nan-box", {"box": [[nan, 2.0], [-1.5, 0.4]]}),
                    ("inf-box", {"box": [[0.6, inf], [-1.5, 0.4]]}),
                    ("reversed-box", {"box": [[0.6, 2.0], [1.0, -1.0]]}),
                    ("nan-min-sep", {"min_sep": nan}), ("huge-min-sep", {"min_sep": 10 ** 400}),
                    ("inf-guard-min", {"guard_min": inf})):
    bad[key] = {**doc, "region": {**doc["region"], **region}}
for key, value in bad.items():
    with open(f"{specs}/bad-{key}.json", "w") as fh:
        json.dump(value, fh)
with open(f"{specs}/bad-binary.json", "wb") as fh:
    fh.write(bytes([0x89]) + b"PNG")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if argv[0] == "row":
                code = row(*argv[1:])
            else:
                code = main([arg.replace("{specs}", specs) for arg in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            code, err = 1, io.StringIO(f"uncaught {type(exc).__name__}: {exc}")
    results.append({"code": code, "out": out.getvalue(), "err": err.getvalue()})
json.dump(results, sys.stdout)
"""

# run in a fresh interpreter on one side: argv[1] is the file for the
# jets, stdout the table names and errors
JETS_WORKER = r"""
import json, sys
import numpy as np
import fmcheck.catalog as cat
from fmcheck import exprjet as ej
from fmcheck.manifold import SamplePlan, sample_points

arrays, tables = {}, []
for name in cat.names():
    ent = cat.entry(name)
    spec = ent.spec
    found = {"e": spec.e, "E": spec.E, "g": spec.g, "g2": spec.g2,
             "product": None if isinstance(spec.product, str) else spec.product}
    for key, value in ent.companion.items():
        if key == "normal_bundle":
            found[key] = value.exprs
        elif key == "legendre_fields":
            found.update({f"field {k}": v for k, v in value.items()})
        elif isinstance(value, tuple):
            found[key] = value
    points = np.array(sample_points(spec, SamplePlan(seed=1, count=50)))
    for key, table in found.items():
        if table is not None:
            jets = ej.eval_points(table, points, spec.env())
            for part in ("val", "grad", "hess"):
                arrays[f"{len(tables)} {part}"] = getattr(jets, part)
            tables.append({"table": f"{name} {key}", "errors": jets.errors})
np.savez(sys.argv[1], **arrays)
json.dump(tables, sys.stdout)
"""
PARTS = ("val", "grad", "hess")

TRANSFORMS = (("X2", "q0-d0"), ("X3", "q0-d1"))
# (row, source) of the runs through `catalog.run_checks`
ROWS = (*((check, field) for check in ("transform-metric", "homogeneous-legendre")
          for field in ("X2", "X3")),
        *((check, name) for check in ("torsionless", "nabla-from-g")
          for name in ("lobachevsky", "q0-d0", "af-pencil-n4")),
        ("killing-unit", "+u1"), ("gmc", "flipped-normal"), ("sym-condition", "random-field"))
BAD = ((["verify", "lobachevsky", "--check", "homogeneity"]),
       (["verify", "case-i", "--check", "metric-invariance"]),
       *(["verify", f"{{specs}}/bad-{key}.json"]
         for key in ("unbound", "divzero", "zero", "third", "singular-third", "unparseable",
                     "e5-g3", "e3-g5", "e3-g3", "missing", "binary", "unbound-guard",
                     "coordinate-guard", "nan-param", "nan-box", "inf-box", "reversed-box", "nan-min-sep", "huge-min-sep",
                     "inf-guard-min")),
       (["verify", "{specs}/bad-divzero.json", "--check", "homogeneity"]),
       (["legendre", "q0-d-minus1", "--field", "1+,1,1"]),
       (["legendre", "q0-d-minus1", "--field", "1,0"]),
       (["legendre", "q0-d-minus1", "--field", "1,0,0,0"]),
       (["legendre", "q0-d-minus1", "--field", "X9"]),
       (["legendre", "lobachevsky", "--field", "X2"]),
       (["legendre", "case-i", "--field", "1,0"]),
       (["legendre", "lobachevsky", "--field", "1,1", "--target", "case-i"]),
       *(["legendre", f"{{specs}}/bad-{key}.json", "--field", "1,1"]
         for key in ("unbound", "table", "zero", "divzero", "third", "singular-third")),
       (["verify", "lobachevsky", "--param", "a"]),
       (["verify", "lobachevsky", "--param", "=3"]),
       (["verify", "lobachevsky", "--param", "b=zz"]),
       (["verify", "q0-d0", "--param", "a=nan"]),
       (["verify", "q0-d0", "--param", "a=inf"]),
       (["verify", "q0-d0", "--param", "a=-inf+1j"]),
       (["verify", "lauricella-eps-minus1-n3", "--param", "c1=nan"]),
       (["verify", "q0-d0", "--param", "aa=2"]),
       (["legendre", "q0-d-minus1", "--field", "X2", "--param", "zz=3"]),
       (["legendre", "q0-d-minus1", "--field", "X2", "--target", "q0-d0", "--param", "zz=3"]),
       (["verify", "{specs}"]),
       (["legendre", "{specs}", "--field", "1,1"]),
       (["catalog", "export"]),
       (["catalog", "list", "lobachevsky"]),
       (["ode", "--state", "1,0,1,0,1,0,1,0,1,0,1", "--from", "2", "--to", "3"]),
       (["ode", "--init", "q0", "--from", "0.5", "--to", "1.5"]),
       (["ode", "--state", "nan,0,1,0,1,0,1,0,1,0,1,0", "--from", "2", "--to", "3"]),
       (["ode", "--init", "pencil63", "--from=inf+1i", "--to=3+0.5i"]),
       *(["ode", "--init", "pencil63", "--from=2+0.5i", "--to=3+0.5i", f"--drift-tol={tol}"]
         for tol in ("nan", "inf", "-1e-7")),
       (["verify", "lobachevsky", "--output", "{specs}"]),
       (["legendre", "q0-d-minus1", "--field", "X2", "--output", "{specs}/none/out.json"]),
       (["ode", "--init", "q0", "--from", "2", "--to", "3", "--output", "{specs}"]))
ODE = ((["--init", "q0", "--from", "2", "--to", "5"]),
       (["--init", "q0", "--a", "0.5", "--b", "1.5", "--from", "1.5+0.5i", "--to", "3-0.5i",
         "--steps", "40"]),
       (["--init", "q0", "--a", "1.2", "--b", "0.8", "--from=-2", "--to=-0.5+0.7i"]),
       (["--init", "pencil63", "--from", "-1", "--to", "-3"]),
       (["--init", "pencil63", "--from", "2.4", "--to", "5.4-1i", "--steps", "40"]),
       (["--init", "pencil63", "--from=-0.5+1i", "--to", "1.5+1.5i"]),
       (["--init", "pencil63", "--from", "-1", "--to", "-3", "--rtol", "1e-8", "--atol", "1e-10"]),
       (["--state", "0.3,-0.1,0.2,0.4,-0.5,0.1,0.25,0.05,-0.3,0.2,0.1,-0.4",
         "--from", "2+0.5i", "--to", "3.5"]))


def fault_seeds() -> tuple:
    """`Q0_D1_FAULT_SEEDS` of the benchmark's workloads, loaded by path."""
    path = ROOT / "fmbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("fmbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Q0_D1_FAULT_SEEDS


def corpus() -> list:
    """(kind, argv) for every run, with "{specs}" for the spec directory."""
    sys.path.insert(0, str(ROOT / "src"))
    import fmcheck.catalog as cat
    names = cat.names()
    runs = [("entry", ["verify", name, "--seed", str(seed), "--points", str(points)])
            for name in names for seed in range(3) for points in (20, 50)]
    runs += [("spec-file", ["verify", f"{{specs}}/{name}.json"]) for name in names]
    runs += [("check", ["verify", name, "--check", check]) for name in names
             for check in ("product-axioms", "hertling-manin", "metric-invariance", "killing-unit",
                           "homogeneity", "levi-civita-flat", "flatness")]
    runs += [("fault-seed", ["verify", "q0-d1", "--seed", str(seed), "--points", "50"])
             for seed in fault_seeds()]
    runs += [("complex-param", ["verify", "q0-d0", "--param", "a=1.1+0.3j", "--seed", str(seed),
                                "--points", str(points)])
             for seed in range(3) for points in (20, 50)]
    runs += [("transform", ["legendre", "q0-d-minus1", "--field", field, "--target", target,
                            "--seed", str(seed), "--points", str(points)])
             for field, target in TRANSFORMS for seed in range(3) for points in (20, 50)]
    runs += [("row", ["row", check, source, str(seed), str(points)])
             for check, source in ROWS for seed in range(3) for points in (20, 50)]
    runs += [("ode", ["ode", *argv]) for argv in ODE]
    runs += [("catalog", ["catalog", "list"])]
    runs += [("catalog", ["catalog", "export", name]) for name in names]
    return runs + [("bad-input", list(argv)) for argv in BAD]


def run_side(root: Path, argvs: list, specs: str) -> list:
    """The results of `argvs` through the CLI of the tree at `root`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", WORKER, specs], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=root, env=env, check=True)
    return json.loads(proc.stdout)


def _by_name(rows) -> dict | None:
    """A list of named rows (a report's) by name, or None where some item
    has no name or two share one."""
    names = [row.get("name") if isinstance(row, dict) else None for row in rows]
    if None in names or len(set(names)) < len(names):
        return None
    return dict(zip(names, rows))


def _diff(base, head, path: str, out: dict) -> None:
    """Collect where `head` differs from `base` into `out`: as (path, base,
    head) in "moved" where both are numbers and in "changed" where anything
    else differs (a verdict, a string, the keys of a dict, a list's length);
    and, in two lists of named rows, matched by name, the paths of the rows
    only `head` has in "added" and of those only `base` has in "removed"
    (a change of order among the rows both have is changed)."""
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (base, head)):
        if base != head:
            out["moved"].append((path, base, head))
    elif isinstance(base, dict) and isinstance(head, dict) and base.keys() == head.keys():
        for k in base:
            _diff(base[k], head[k], f"{path}/{k}", out)
    elif isinstance(base, list) and isinstance(head, list):
        rows = _by_name(base), _by_name(head)
        if None not in rows:
            out["removed"] += [f"{path}/{name}" for name in rows[0] if name not in rows[1]]
            out["added"] += [f"{path}/{name}" for name in rows[1] if name not in rows[0]]
            both = [[name for name in side if name in other]
                    for side, other in (rows, rows[::-1])]
            if both[0] != both[1]:
                out["changed"].append((f"{path} (order)", both[0], both[1]))
            for name in both[0]:
                _diff(rows[0][name], rows[1][name], f"{path}/{name}", out)
        elif len(base) == len(head):
            for i, (b, h) in enumerate(zip(base, head)):
                _diff(b, h, f"{path}/{i}", out)
        else:
            out["changed"].append((path, base, head))
    elif base != head:
        out["changed"].append((path, base, head))


def _document(out: str):
    """A run's stdout as data: its JSON report, or the rows of `ode`'s CSV
    as one {column: number} dict each; ValueError for anything else."""
    try:
        return json.loads(out)
    except ValueError:
        header, *rows = out.splitlines() or [""]
        names = header.split(",")
        cells = [row.split(",") for row in rows]
        if len(names) < 2 or any(len(row) != len(names) for row in cells):
            raise
        return [dict(zip(names, map(float, row))) for row in cells]


def classify(base: dict, head: dict) -> dict:
    """identical, moved (with the moved numbers, the largest |change| and
    whether all are inside the golden margin) or changed (with what
    changed, and its value on each side, the rows added and removed, and
    the numbers moved in the rows both sides run)."""
    if base == head:
        return {"kind": "identical"}
    parts = (("exit code", "code"), ("stderr", "err"))
    changes = [(part, base[key], head[key]) for part, key in parts if base[key] != head[key]]
    out: dict = {"moved": [], "changed": [], "added": [], "removed": []}
    try:
        docs = _document(base["out"]), _document(head["out"])
    except ValueError:
        if base["out"] != head["out"]:
            changes.append(("report", base["out"], head["out"]))
    else:
        _diff(*docs, "", out)
        changes += [(f"report{path}", b, h) for path, b, h in out["changed"]]
    moved = out["moved"]
    floats = [m for m in moved if isinstance(m[1], float) or isinstance(m[2], float)]
    numbers = {"values": floats, "integers": [m for m in moved if m not in floats],
               "max_abs": max((abs(h - b) for _, b, h in floats), default=0.0),
               "inside_margin": all(abs(h - b) <= 1e-12 + 1e-6 * abs(b) for _, b, h in floats)}
    if changes or out["added"] or out["removed"]:
        return {"kind": "changed", "changes": changes,
                **{key: [f"report{path}" for path in out[key]] for key in ("added", "removed")},
                **numbers}
    return {"kind": "moved", **numbers}


def _clip(value, width: int = 200) -> str:
    """repr(value), cut to `width` characters for the printed line."""
    text = repr(value)
    return text if len(text) <= width else text[:width - 3] + "..."


def compare(base_root: Path, head_root: Path, runs: list) -> list:
    """The classification of each of `runs` between the two trees."""
    with tempfile.TemporaryDirectory() as specs:
        argvs = [argv for _, argv in runs]
        base = run_side(base_root, argvs, specs)
        head = run_side(head_root, argvs, specs)
    return [{"kind_of_run": kind, "argv": argv, **classify(b, h)}
            for (kind, argv), b, h in zip(runs, base, head)]


def jets_side(root: Path, path: str):
    """The catalog tables' jets and errors on the tree at `root`, through
    `path`: [{"table", "errors", "val", "grad", "hess"}]."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", JETS_WORKER, path], capture_output=True,
                          text=True, cwd=root, env=env, check=True)
    with np.load(path) as arrays:
        return [{**table, **{part: arrays[f"{i} {part}"] for part in PARTS}}
                for i, table in enumerate(json.loads(proc.stdout))]


def classify_part(base: np.ndarray, head: np.ndarray) -> dict:
    """identical, real, sign of zero, moved (with the largest |change|)
    or changed (another shape), for one part of a table's jets."""
    if base.shape != head.shape:
        return {"kind": "changed"}
    if np.iscomplexobj(base) != np.iscomplexobj(head):
        real, cplx = (head, base) if np.iscomplexobj(base) else (base, head)
        if not cplx.imag.any() and np.array_equal(
                np.ascontiguousarray(real, dtype=float).view(np.uint64),
                np.ascontiguousarray(cplx.real).view(np.uint64)):
            return {"kind": "real"}
    b, h = (np.ascontiguousarray(x, dtype=complex).view(float).ravel() for x in (base, head))
    differ = b.view(np.uint64) != h.view(np.uint64)
    if not differ.any():
        return {"kind": "identical"}
    b, h = b[differ], h[differ]
    if ((b == 0) & (h == 0)).all():
        return {"kind": "sign of zero"}
    return {"kind": "moved", "max_abs": float(np.max(np.abs(h - b)))}


def compare_jets(base_root: Path, head_root: Path) -> list:
    """Per catalog table: its name, whether its errors are identical, and
    the classification of each part."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = [jets_side(root, f"{tmp}/{side}.npz")
                 for side, root in (("base", base_root), ("head", head_root))]
    if [t["table"] for t in sides[0]] != [t["table"] for t in sides[1]]:
        raise ValueError("the two sides list different catalog tables")
    return [{"table": b["table"], "errors": "identical" if b["errors"] == h["errors"] else "changed",
             **{part: classify_part(b[part], h[part]) for part in PARTS}}
            for b, h in zip(*sides)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--json", default=None, help="also write every classification here")
    args = parser.parse_args()
    runs = corpus()
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        results = compare(Path(tree), ROOT, runs)
        jets = compare_jets(Path(tree), ROOT)
    counts: dict = {}
    for res in results:
        counts[res["kind"]] = counts.get(res["kind"], 0) + 1
        if res["kind"] == "identical":
            continue
        line = f"{res['kind']:<8} {' '.join(res['argv'])}"
        if res["kind"] == "moved" or res["values"]:
            line += (f"  max|d|={res['max_abs']:.2e}"
                     f" {'inside' if res['inside_margin'] else 'OUTSIDE'} margin")
        if res["kind"] == "changed":
            line += "".join(f"\n           {part}: {_clip(b)} -> {_clip(h)}"
                            for part, b, h in res["changes"])
            line += "".join(f"\n           {key} row {path}"
                            for key in ("added", "removed") for path in res[key])
        line += "".join(f"\n           {path}: {b!r} -> {h!r}" for path, b, h in res["values"])
        line += "".join(f"\n           {path}: {b!r} -> {h!r} (integer)"
                        for path, b, h in res["integers"])
        print(line)
    outside = sum(res["kind"] == "moved" and not res["inside_margin"] for res in results)
    integers = sum(res["kind"] == "moved" and bool(res["integers"]) for res in results)
    classes: dict = {}
    for table in jets:
        for part in PARTS:
            res = table[part]
            classes[res["kind"]] = classes.get(res["kind"], 0) + 1
            if res["kind"] != "identical":
                print(f"{res['kind']:<12} jets of {table['table']}: {part}"
                      + (f"  max|d|={res['max_abs']:.2e}" if "max_abs" in res else ""))
        if table["errors"] != "identical":
            print(f"changed      jets of {table['table']}: errors")
    errors = sum(table["errors"] != "identical" for table in jets)
    print(f"{len(results)} runs: " + ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
          + f"; {outside} moved runs with a float OUTSIDE the margin, {integers} with a moved "
            f"integer")
    print(f"{len(jets)} tables, {len(jets) * len(PARTS)} parts: "
          + ", ".join(f"{n} {k}" for k, n in sorted(classes.items()))
          + f"; errors changed in {errors}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"runs": results, "jets": jets}, fh, indent=1)
    return 1 if counts.get("changed") or classes.get("changed") or errors else 0


if __name__ == "__main__":
    sys.exit(main())
