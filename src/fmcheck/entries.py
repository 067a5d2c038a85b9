"""The catalog: the built-in spec files in `specs/`, one per entry, each
read by the one spec-file loader (`spec.CatalogEntry.from_dict`) like a
spec file named on the command line, so `catalog export X` prints X's file
and that file verifies to X's report.

An entry is a spec, companion data (closed-form connections, Lame
coefficients, flat charts, vector potentials, transform fields,
normal-bundle fields) and flags.  A check runs wherever its inputs exist
(`catalog.Check`); a flag is only a claim the data cannot show: a
constraint of the rotation coefficients (`ed4`, `ed4bis`, `ed5b`) or
potentiality.  No check reads `homogeneous`: the benchmark's catalog-sweep
(`fmbench/workloads.py`) compares the fitted D with the declared one on
the entries that carry the flag.

Free constants default to 1 (0 for the arbitrary-function slots, which are
degree-two polynomial coefficients).  A value that a family forces is a
constant in its tables, not a parameter: the connection constant a of
case-ii to case-v (-2, -1, 0 and 1) and nonss2d's b (0).  Square roots of
sign-indefinite parameter combinations make several entries complex-valued
for real defaults; everything is evaluated on principal branches, which is
the convention recorded in reports.

Like `spec`, this module loads no numpy: `fmcheck catalog` reads it
without the walk (`catalog`).
"""

from __future__ import annotations

import json
import os

from .spec import CatalogEntry

__all__ = ["CatalogEntry", "UnknownEntryError", "entry", "names", "text"]

_SPECS = os.path.join(os.path.dirname(__file__), "specs")


class UnknownEntryError(Exception):
    pass


def names() -> list:
    return sorted(name[:-len(".json")] for name in os.listdir(_SPECS) if name.endswith(".json"))


def text(name: str) -> str:
    """The text of the spec file of the entry `name`."""
    if name not in names():
        raise UnknownEntryError(f"unknown catalog entry {name!r}")
    with open(os.path.join(_SPECS, f"{name}.json"), encoding="utf-8") as fh:
        return fh.read()


def entry(name: str) -> CatalogEntry:
    return CatalogEntry.from_dict(json.loads(text(name)))
