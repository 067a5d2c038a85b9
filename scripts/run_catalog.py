#!/usr/bin/env python3
"""Run every built-in suite, and each entry's catalog Legendre transforms
(its `legendre_targets`), and print a residual table.

Usage:
    python scripts/run_catalog.py [--seed N] [--points N] [--json OUT]
"""

import argparse
import json
import sys
import time

import fmcheck.catalog as cat
from fmcheck.manifold import worst as worst_of


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--json", default=None, help="also dump the full report bundle")
    args = parser.parse_args()

    sources = []
    for name in cat.names():
        ent = cat.entry(name)
        sources.append((name, ent))
        fields = ent.companion.get("legendre_fields", {})
        for field, target in ent.companion.get("legendre_targets", {}).items():
            sources.append((f"{name} {field}->{target}",
                            cat.Transform(ent.spec, fields[field], field, target)))
    bundle = []
    all_ok = True
    for name, source in sources:
        t0 = time.time()
        res = cat.run_suite(source, seed=args.seed, count=args.points)
        bundle.append({**res.to_dict(), "name": name})
        all_ok &= res.ok
        worst = worst_of([r.residual for r in res.reports])
        print(f"{name:<26} {'ok' if res.ok else 'BROKEN':<7} "
              f"checks={len(res.reports):<3} worst={worst:.3e}  ({time.time()-t0:.2f}s)")
        for r in res.reports:
            expected_fail = r.name in res.expected_failures
            if r.passed == expected_fail:
                print(f"    !! {r.name}: residual {r.residual:.3e} (tol {r.tol:.1e})"
                      + (" [expected to fail]" if expected_fail else ""))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, sort_keys=True, indent=1)
        print(f"wrote {args.json}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
