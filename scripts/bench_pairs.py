#!/usr/bin/env python3
"""Benchmark another revision against the working tree in alternating pairs.

Usage:
    python scripts/bench_pairs.py REV --topic T --pairs N --seed S

REV (any git revision of this repository) is extracted with `git archive`
into a temporary directory, and the working tree into another: the files
git tracks, with their edits, and the untracked ones that no ignore rule
names.  So the two sides differ only in their files, not in where they lie
or what else their directory holds.  Nothing is fetched.  For each
workload of BENCHMARK.json, N pairs of

    python3 fmbench/run.py --workload W --seed S --seconds X --trace 0

run, X being BENCHMARK.json's `run_seconds`, one in REV's tree (the
parent) and one in the working tree's copy (the change).  Pair i runs the parent
first when i is even and the change first when i is odd, so that a drift
in the machine's speed falls on both sides.  Each run's result is the
JSON object on the last line of its output.  Each run has
`PYTHONDONTWRITEBYTECODE=1` and no `PYTHONPYCACHEPREFIX`, and its tree
must hold no `__pycache__`: so fmcheck compiles from source in every
process on both sides, and numpy and the standard library load from
their installed bytecode, as where the benchmark's own runs take place.
One `--trace 1` run of each workload on each side follows, for the
per-layer counts and self times.  Last, the exact work counters of the
working tree's `tests/work_counts.py` (contract calls and output elements,
tape runs and operations, and amax calls, per catalog entry at seed 0 and
at 4 and 20 points) run once against each side's `src/`.

BENCH_<T>.json, at the root of the working tree, holds:

- `summary`: per workload, `failed` as [parent failed, change failed,
  attempted] for each pair, and for each end-to-end metric of
  BENCHMARK.json the parent's and the change's median and quartiles
  (`*_iqr`, inclusive method) and `change_better_pairs`, the number of
  pairs in which the change is better in the metric's direction;
- `workloads`: every pair's two results;
- `trace`: per workload, each side's per-layer metrics;
- `work`: the counters' `columns` and, per "<entry>/<points>", the
  parent's and the change's counts.

The exit code is 1 if a run fails or prints no result, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]


def last_result(stdout: str) -> dict:
    """The result object on the last line of a `fmbench/run.py` output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list, metrics: list) -> dict:
    """The summary of one workload's pairs, each {"parent": result,
    "change": result}, over `metrics`, BENCHMARK.json's `end_to_end`
    entries ({"name", "better"})."""
    summary: dict = {"failed": [[p["parent"]["failed"], p["change"]["failed"],
                                 p["change"]["attempted"]] for p in pairs]}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        summary[name] = {
            "parent_median": statistics.median(parent), "parent_iqr": _quartiles(parent),
            "change_median": statistics.median(change), "change_iqr": _quartiles(change),
            "change_better_pairs": sum(sign * (c - b) > 0 for b, c in zip(parent, change)),
        }
    return summary


def extract_rev(root: Path, rev: str, dest: Path) -> None:
    """The files of the revision `rev` of the repository at `root`, into
    `dest`."""
    archive = subprocess.run(["git", "-C", str(root), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def extract_working_tree(root: Path, dest: Path) -> None:
    """The working tree of the repository at `root`, into `dest`: each
    tracked file as it is on disk (one deleted there is left out) and each
    untracked file that no ignore rule names."""
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True, check=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = Path(root) / name
        if source.is_file():
            (Path(dest) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, Path(dest) / name)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `fmbench/run.py` run in `tree`; its result object.  A tree that
    holds a `__pycache__` is refused, and the run writes none
    (`PYTHONDONTWRITEBYTECODE=1`) and keeps none elsewhere (no
    `PYTHONPYCACHEPREFIX`), so that no side loads bytecode of its tree."""
    cached = sorted(str(p.relative_to(tree)) for p in Path(tree).rglob("__pycache__"))
    if cached:
        raise RuntimeError(f"{tree} holds bytecode caches: {', '.join(cached)}")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPYCACHEPREFIX"}
    proc = subprocess.run([sys.executable, "fmbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True,
                          env={**env, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited with code {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return last_result(proc.stdout)


def run_work(tree: Path) -> dict:
    """The work counts of the working tree's `tests/work_counts.py` run
    against `tree`'s `src/`."""
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "work_counts.py")], cwd=tree,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(tree) / "src")})
    if proc.returncode != 0:
        raise RuntimeError(f"work counts in {tree} exited with code {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def work_diff(parent: dict, change: dict) -> dict:
    """Per catalog entry and point count, the parent's and the change's
    total counts, from two `run_work` results."""
    entries = {key: {"parent": parent.get(key), "change": change.get(key)}
               for key in sorted(parent.keys() | change.keys())
               if key != "columns" and key.count("/") == 1}
    return {"columns": change["columns"], "entries": entries}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
                            capture_output=True, text=True, check=True).stdout.strip()
    doc: dict = {
        "topic": args.topic, "parent": parent,
        "command": f"python3 fmbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds} --trace 0",
        "machine": f"{os.cpu_count()} CPUs, {platform.system()}, "
                   f"Python {platform.python_version()}, numpy {numpy.__version__}",
        "note": f"the last JSON line of the command; {args.pairs} pairs per workload, the "
                f"parent from its git archive and the change from a copy of the working "
                f"tree, each in a temporary directory; pair i runs the parent first when i "
                f"is even, the change first when i is odd",
        "summary": {}, "workloads": {},
    }
    with tempfile.TemporaryDirectory() as parent_tree, \
            tempfile.TemporaryDirectory() as change_tree:
        sides = {"parent": Path(parent_tree), "change": Path(change_tree)}
        extract_rev(ROOT, args.rev, sides["parent"])
        extract_working_tree(ROOT, sides["change"])
        try:
            for name in names:
                pairs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {side: run_bench(sides[side], name, args.seed, seconds, 0)
                            for side in order}
                    pairs.append(pair)
                    print(f"{name} pair {i}: " + ", ".join(
                        f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']['value']:.4g}"
                        for side in order), flush=True)
                doc["workloads"][name] = {"pairs": pairs}
                doc["summary"][name] = summarize(pairs, bench["end_to_end"])
            doc["trace"] = {name: {side: run_bench(root, name, args.seed, seconds, 1)["metrics"]
                                   for side, root in sides.items()} for name in names}
            doc["work"] = work_diff(run_work(sides["parent"]), run_work(sides["change"]))
        except (RuntimeError, ValueError) as err:
            sys.stderr.write(f"{err}\n")
            return 1
    out = ROOT / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, summary in doc["summary"].items():
        for metric in bench["end_to_end"]:
            row = summary[metric["name"]]
            print(f"{name} {metric['name']}: {row['parent_median']:.4g} -> "
                  f"{row['change_median']:.4g} (change better in "
                  f"{row['change_better_pairs']}/{args.pairs} pairs)")
    for column, name in enumerate(doc["work"]["columns"]):
        parent, change = (sum(row[side][column] for row in doc["work"]["entries"].values()
                              if row[side] is not None) for side in ("parent", "change"))
        print(f"work {name}: {parent} -> {change}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
