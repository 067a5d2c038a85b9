"""One process running one benchmark workload.

Started by run.py with fmcheck on PYTHONPATH and single-threaded BLAS.  It
sets the workload up (imports, inputs, one untimed warm-up operation),
prints `ready`, then runs every round, times each operation, checks each
result outside the timed region, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.

With --trace 1 it runs every round twice, once under the per-module tracer
and once untraced, and reports per-module counts and self times plus the
tracing overhead (traced minus untraced time of the same operations, both
scaled to the reference machine's speed).
Spans are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import fmtrace
import workloads

OUT_DIR = os.path.join(workloads.ROOT, ".bench_out")


def build(workload: str, seed: int, rounds: int):
    if workload == "catalog-sweep":
        return workloads.catalog_sweep(seed, rounds)
    if workload == "ode-trajectories":
        return workloads.ode_trajectories(seed, rounds)
    return workloads.cli_cold(seed, rounds)


def execute(ops, ctx, cal, tracer=None, first_index=0):
    """Run each operation once.

    Returns (durations, scaled, failed, correct): the wall time of each
    operation, the same times at the reference machine's undisturbed speed
    (scaled by the calibration samples of `cal` taken before and after it;
    one is taken whenever `cal.every_s` has passed), the number of failed
    operations and whether every failed operation showed only the known
    fault (workloads.KNOWN_FAULT)."""
    durations, failed, correct = [], 0, True
    cal_at, cal_s = [], []        # operation index a sample precedes, its time
    clock = time.perf_counter
    last_cal = -cal.every_s
    for pos, op in enumerate(ops):
        if clock() - last_cal >= cal.every_s:
            cal_at.append(pos)
            cal_s.append(cal.sample())
            last_cal = clock()
        index = first_index + pos
        ctx["op"] = index
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            result = op.run(ctx)
        except Exception:  # an operation that raises is a failed operation
            durations.append(clock() - t0)
            reason = "raised\n" + traceback.format_exc()
        else:
            durations.append(clock() - t0)
            reason = op.check(result)
        if reason is not None:
            failed += 1
            if reason is not workloads.KNOWN_FAULT:
                correct = False
                sys.stderr.write(f"FAIL {op.name}: {reason}\n")
    cal_at.append(len(ops))
    cal_s.append(cal.sample())
    scaled = []
    for pos, dt in enumerate(durations):
        after = bisect.bisect_right(cal_at, pos)
        scaled.append(dt * cal.scale(cal_s[after - 1], cal_s[after]))
    return durations, scaled, failed, correct


def fresh_import_s(env) -> float:
    """Median time of `import fmcheck.cli` in three fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import fmcheck.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True, timeout=60).stdout)
             for _ in range(3)]
    return statistics.median(times)


def traced_run(workload, seed, rounds_ops, ctx, cal):
    """Run each round traced and untraced, alternating which goes first, so
    that slow phases of the machine fall on both sides of the overhead."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.csv")
    trace_dir = os.path.join(OUT_DIR, f"cli-trace-seed{seed}")
    tracer = fmtrace.Tracer()
    attempted = failed = 0
    correct = True
    wall = {True: 0.0, False: 0.0}
    if workload == "cli-cold":
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    for k, ops in enumerate(rounds_ops):
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced and workload == "cli-cold":
                ctx["trace_dir"] = trace_dir
            elif traced:
                tracer.install()
            try:
                durations, scaled, n_failed, ok = execute(ops, ctx, cal,
                                                          tracer if traced else None, attempted)
            finally:
                ctx["trace_dir"] = None
                tracer.uninstall()
            wall[traced] += sum(scaled)
            attempted += len(durations)
            failed += n_failed
            correct = correct and ok
    if workload == "cli-cold":
        parts = []
        with open(spans_path, "w", encoding="utf-8") as out:
            out.write(fmtrace.SPAN_HEADER)
            for prefix in sorted(p[:-5] for p in glob.glob(os.path.join(trace_dir, "*.json"))):
                with open(prefix + ".json", encoding="utf-8") as fh:
                    parts.append(json.load(fh))
                with open(prefix + ".csv", encoding="utf-8") as fh:
                    next(fh)
                    shutil.copyfileobj(fh, out)
        shutil.rmtree(trace_dir)
        summary = fmtrace.merge_summaries(parts)
        import_s = statistics.median(p["import_s"] for p in parts)
    else:
        fmtrace.write_spans(spans_path, tracer.span_rows())
        summary = tracer.summary()
        import_s = fresh_import_s(ctx["env"])
    sys.stderr.write(f"traced {wall[True]:.3f} s, untraced {wall[False]:.3f} s "
                     f"(overhead {100 * (wall[True] / wall[False] - 1):.1f}%, at reference "
                     f"speed), {summary['spans']} spans in {spans_path}\n")
    metrics = fmtrace.per_layer_metrics(summary, import_s, wall[True] - wall[False])
    return attempted, failed, correct, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog-sweep", "cli-cold", "ode-trajectories"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ctx = {"env": workloads.child_env(), "trace_dir": None, "op": 0}
    cal = (calibrate.process_start(ctx["env"]) if args.workload == "cli-cold"
           else calibrate.INTERPRETER)
    rounds = workloads.round_count(args.workload, args.seconds)
    rounds_ops, warmup = build(args.workload, args.seed, rounds)
    reason = warmup.check(warmup.run(ctx))
    if reason is not None:
        sys.stderr.write(f"warm-up {warmup.name} failed: {reason}\n")
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        attempted, failed, correct, metrics = traced_run(args.workload, args.seed, rounds_ops,
                                                         ctx, cal)
    else:
        durations, scaled, failed, correct = execute([op for ops in rounds_ops for op in ops],
                                                     ctx, cal)
        attempted = len(durations)
        sys.stderr.write(f"unscaled: ops_per_s {attempted / sum(durations):.4g}, "
                         f"op_p50_s {statistics.median(durations):.4g}\n")
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        metrics = {
            "ops_per_s": {"value": attempted / sum(scaled), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
