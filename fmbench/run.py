"""Benchmark for fmcheck: run one workload and print its metrics.

    python3 fmbench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fmcheck is taken from its `src/` tree.
Workloads: catalog-sweep, cli-cold, ode-trajectories (see README.md).

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_s, peak_rss_mb); with --trace 1 they are the per-module counts and
self times of a separate traced run.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.

The work itself runs in worker.py processes.  setup_s is the time from
starting a worker to its `ready` line (interpreter start, imports, inputs
and one warm-up operation), scaled to the reference machine's speed (see
calibrate.py), the median over SETUP_SAMPLES workers.  Exit code 2 means
there is no fmcheck source tree, 1 that a worker failed; neither prints a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def run_worker(argv, deadline):
    """Start worker.py; return (seconds to its `ready` line, later output).

    The worker leads its own process group, so that a timeout or a
    termination of this process also ends the CLI processes it started."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            cwd=workloads.ROOT, env=workloads.child_env(),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        kill_group()
        proc.wait()
    if code != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {code}")
    return ready_s, rest


def setup_times(argv, deadline) -> list:
    """Set-up time of SETUP_SAMPLES workers at the reference machine's
    speed, each scaled by the process-start samples taken around it."""
    cal = calibrate.process_start(workloads.child_env())
    samples, setups = [cal.sample()], []
    for _ in range(SETUP_SAMPLES):
        ready_s, _ = run_worker(argv + ["--setup-only"], deadline)
        samples.append(cal.sample())
        setups.append(ready_s * cal.scale(samples[-2], samples[-1]))
    return setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fmcheck benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("catalog-sweep", "cli-cold", "ode-trajectories"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.ROOT, "src", "fmcheck", "cli.py")):
        sys.stderr.write(f"no fmcheck source tree under {workloads.ROOT}/src\n")
        return 2

    # on SIGTERM unwind through run_worker's cleanup instead of leaving
    # the worker running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    calibrate.pin()
    try:
        setups = [] if args.trace else setup_times(common, deadline)
        _, out = run_worker(common + ["--trace", str(args.trace)], deadline)
    except RuntimeError as err:
        sys.stderr.write(f"{err}\n")
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
