"""Run the fmcheck CLI once under the per-module tracer.

    python fmbench/traced_cli.py OUT_PREFIX OP_INDEX -- CLI_ARGS...

Behaves like `python -m fmcheck.cli CLI_ARGS...` (same output, same exit
code) and, on the way out, writes the counts and self times to
OUT_PREFIX.json and the spans to OUT_PREFIX.csv.  The time of
`import fmcheck.cli` in this fresh interpreter is recorded as import_s.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import fmtrace


def main() -> int:
    out_prefix, op = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: traced_cli.py OUT_PREFIX OP_INDEX -- CLI_ARGS...")
    t0 = time.perf_counter()
    cli = importlib.import_module("fmcheck.cli")
    import_s = time.perf_counter() - t0
    tracer = fmtrace.Tracer()
    tracer.op = op
    tracer.install()
    try:
        return cli.main(sys.argv[4:])
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        fmtrace.write_spans(out_prefix + ".csv", tracer.span_rows())


if __name__ == "__main__":
    sys.exit(main())
