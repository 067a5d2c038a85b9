"""The three benchmark workloads: their inputs, operations and checks.

Every workload is a list of rounds; every round is the same list of
operations with fresh inputs drawn from the run seed and the round index.
The number of rounds follows from the requested run length and a nominal
round time fixed here, never from the clock, so a run with the same
arguments always does the same work.

An operation is a callable plus a check of its result against a known
answer (a hand-derived verdict, a closed form, a conservation bound or an
exit code).  Checks run outside the timed region.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import zlib
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# nominal seconds of one round on the reference machine (see README.md)
ROUND_S = {"catalog-sweep": 6.0, "cli-cold": 10.0, "ode-trajectories": 0.3}

SWEEP_POINTS = 50      # sample points per catalog entry and round
CLI_POINTS = "20"      # the CLI default, passed explicitly
# q0-d1 fails `curvature-product` on some sampling seeds (a fault in
# fmcheck).  It runs on seeds where that check, and only that one, fails at
# SWEEP_POINTS points, a different one each round (the list is cycled past
# its end), so it fails once in every round; see README.md
Q0_D1_FAULT_SEEDS = (14, 43, 44, 49, 54, 103, 120, 165, 168, 234)
Q0_D1_FAULT = "curvature-product"
# the catalog as the workloads use it; fixed here so that the work stays the
# same when the catalog grows
CATALOG = ("af-pencil-n3", "af-pencil-n4", "case-i", "case-ii", "case-iii", "case-iv",
           "case-v", "lauricella-eps-minus1-n3", "lobachevsky", "nonss2d", "nonss3d",
           "pencil-63", "q0-d-minus1", "q0-d0", "q0-d1")
ODE_RTOL, ODE_ATOL = 1e-10, 1e-12
ODE_SPANS = (0.5, 1.5, 4.0)
ODE_PER_SPAN = 4       # paths per family and span length in one round
ODE_END_TOL = 1e-7     # closed-form endpoint agreement, relative to 1 + |F|
DRIFT_TOL = 1e-7       # |I1(z) - I1(z0)| and |I2(z) - I2(z0)| along a path


@dataclass(frozen=True)
class Op:
    """One timed operation and the check of its result.

    `run(ctx)` does the work; `check(result)` returns None when the result
    agrees with the known answer, KNOWN_FAULT when it shows the one known
    fault of fmcheck the workloads keep, else the reason it is wrong.
    """
    name: str
    run: Callable
    check: Callable


KNOWN_FAULT = "the known fault"


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def derived_seed(seed: int, index: int) -> int:
    """A sampling seed for round `index` of a run with seed `seed`."""
    return zlib.crc32(f"{seed}:{index}".encode())


def child_env() -> dict:
    """Environment for every process the benchmark starts: fmcheck from the
    checkout's source tree and single-threaded BLAS (the matrices are at
    most 4x4, so extra BLAS threads only contend for the two cores)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# closed-form solutions of the six-component system, written out here with
# cmath so that endpoints are checked against an evaluation that shares no
# code with fmcheck; component order (F12, F21, F13, F31, F23, F32)


def q0_state(z: complex, a: float, b: float) -> list:
    den = a * z + b
    sb = cmath.sqrt(complex(-b * b - 1, 0.0))
    return [b * (a + b) / den, -1 / den, z * (a + b) * sb / den,
            -a * z / (den * sb), -(z - 1) * sb / den, -a * b * (z - 1) / (den * sb)]


def pencil_state(z: complex) -> list:
    p, q = cmath.sqrt(z - 1), cmath.sqrt(-z)
    return [q / (2 * p), -p / (2 * q), -1 / (2 * p), p / 2, -1 / (2 * q), q / 2]


def upper_path(rng: random.Random, span: float):
    """A straight path of length `span` with both ends (hence all of it) in
    Im z >= 0.3: clear of the singular points 0 and 1, of the q0 pole at
    z = -b/a and of the branch cuts of the pencil family."""
    while True:
        z0 = complex(round(rng.uniform(-2.0, 3.0), 6), round(rng.uniform(0.3, 2.5), 6))
        angle = rng.uniform(0.0, 2 * math.pi)
        z1 = z0 + span * cmath.exp(1j * angle)
        z1 = complex(round(z1.real, 6), round(z1.imag, 6))
        if z1.imag >= 0.3:
            return z0, z1


def _endpoint_error(got, want) -> float:
    return max(abs(g - w) for g, w in zip(got, want)) / (1 + max(abs(w) for w in want))


# ---------------------------------------------------------------------------
# catalog-sweep


def _suite_check(ent, known_fault=None):
    """Every verdict equals the entry's known answer, except that a result
    whose one wrong verdict is the check named by `known_fault` shows the
    known fault."""
    def check(result):
        wrong = [r.name for r in result.reports
                 if r.passed == (r.name in ent.expected_failures)]
        if result.ok != (not wrong):
            return f"ok={result.ok} disagrees with the wrong verdicts {wrong}"
        if wrong and wrong != [known_fault]:
            return f"verdicts differ from the known answers: {wrong}"
        if "homogeneous" in ent.flags:
            (hom,) = [r for r in result.reports if r.name == "homogeneity"]
            d_fit = complex(*hom.details["D_fit"])
            d_want = complex(ent.spec.expected["D"])
            if abs(d_fit - d_want) > 1e-6 * (1 + abs(d_want)):
                return f"D_fit {d_fit} != D {d_want}"
        return KNOWN_FAULT if wrong else None
    return check


_TRANSFORM_REPORTS = ("legendre-field", "transform-exprs")


def _report_check(want_code, target=None, reports=()):
    """A CLI run's exit code is the known answer, its report is JSON whose
    `ok` agrees with the exit code, names `target` and has a passing report
    of each name in `reports`."""
    def check(result):
        code, out = result
        if code != want_code:
            return f"exit code {code}, want {want_code}"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as err:
            return f"report is not JSON: {err}"
        if doc.get("ok") is not (code == 0):
            return f"report ok={doc.get('ok')} disagrees with exit code {code}"
        if target is not None and doc.get("target") != target:
            return f"report is for {doc.get('target')!r}"
        passing = {r["name"] for r in doc["reports"] if r["passed"]}
        missing = [name for name in reports if name not in passing]
        if missing:
            return f"report has no passing {missing}"
        return None
    return check


def _transform_op(field, target, seed):
    """`fmcheck legendre q0-d-minus1 --field F --target T` at SWEEP_POINTS
    points, run through the CLI's own entry point in this process; returns
    (exit code, the JSON report it printed)."""
    from fmcheck import cli
    argv = ["legendre", "q0-d-minus1", "--field", field, "--target", target,
            "--seed", str(seed), "--points", str(SWEEP_POINTS)]

    def run(ctx):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return Op(f"transform:q0-d-minus1:{field}->{target}@{seed}", run,
              _report_check(0, reports=_TRANSFORM_REPORTS + (f"match-{target}",)))


def _control_op(name, run, seed):
    """A negative control: the correct outcome is a failing report."""
    def check(report):
        return f"{report.name} passed a broken structure" if report.passed else None
    return Op(f"control:{name}@{seed}", run, check)


def catalog_sweep(seed: int, rounds: int) -> tuple:
    import fmcheck.catalog as catalog
    from fmcheck import hamops, manifold

    entries = {name: catalog.entry(name) for name in CATALOG}
    lob = entries["lobachevsky"].spec
    bad_metric = manifold.ManifoldSpec(
        name="lobachevsky-bad-metric", n=2, coords=lob.coords, product="canonical",
        e=lob.e, g=(("2/(x-y)^2+u1", "0"), ("0", "2/(x-y)^2")), region=lob.region)
    flipped_normal = hamops.fields_from_exprs([("1", "1")], eps=(+1,))
    random_normal = hamops.fields_from_exprs([("u1*u2", "u1")], eps=(-1,))
    source = entries["q0-d-minus1"]

    def suite(ent, s, known_fault=None):
        return Op(f"suite:{ent.spec.name}@{s}",
                  lambda ctx: catalog.run_suite(ent, seed=s, count=SWEEP_POINTS),
                  _suite_check(ent, known_fault))

    def one_round(k):
        s = derived_seed(seed, k)
        ops = [suite(ent, s) for name, ent in entries.items() if name != "q0-d1"]
        ops.append(suite(entries["q0-d1"], Q0_D1_FAULT_SEEDS[k % len(Q0_D1_FAULT_SEEDS)],
                         Q0_D1_FAULT))
        for field, target in sorted(source.companion["legendre_targets"].items()):
            ops.append(_transform_op(field, target, s))

        def lob_points():
            return manifold.sample_points(lob, manifold.SamplePlan(seed=s, count=SWEEP_POINTS))

        ops.append(_control_op("killing-unit+u1",
                               lambda ctx: manifold.check_killing_unit(bad_metric, lob_points()), s))
        ops.append(_control_op("gmc-flipped-sign",
                               lambda ctx: hamops.check_gmc(lob, flipped_normal, lob_points()), s))
        ops.append(_control_op("sym-random-field",
                               lambda ctx: hamops.check_sym_condition(lob, random_normal, lob_points()), s))
        return ops

    rounds_ops = [one_round(k) for k in range(rounds)]
    warmup = suite(entries["lobachevsky"], derived_seed(seed, -1))
    return rounds_ops, warmup


# ---------------------------------------------------------------------------
# ode-trajectories


def ode_trajectories(seed: int, rounds: int) -> tuple:
    from fmcheck import ode3d

    def path_op(kind, state0, z1, want):
        def run(ctx):
            return ode3d.integrate(state0, z1, rtol=ODE_RTOL, atol=ODE_ATOL)

        def check(traj):
            z_end, s_end = traj.states[-1]
            if abs(z_end - z1) > 1e-12 * (1 + abs(z1)):
                return f"trajectory ends at {z_end}, not {z1}"
            if want is not None:
                err = _endpoint_error(list(s_end.F), want)
                if err > ODE_END_TOL:
                    return f"endpoint differs from the closed form by {err:.3e}"
            drift = max(traj.drift_I1, traj.drift_I2)
            if drift > DRIFT_TOL:
                return f"first-integral drift {drift:.3e}"
            return None

        return Op(f"ode:{kind}:{state0.z}->{z1}", run, check)

    def one_round(k):
        rng = random.Random(f"ode:{seed}:{k}")
        ops = []
        for span in ODE_SPANS:
            for _ in range(ODE_PER_SPAN):
                a, b = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
                z0, z1 = upper_path(rng, span)
                ops.append(path_op("q0", ode3d.OdeState3(z0, q0_state(z0, a, b)), z1,
                                   q0_state(z1, a, b)))
                z0, z1 = upper_path(rng, span)
                ops.append(path_op("pencil63", ode3d.OdeState3(z0, pencil_state(z0)), z1,
                                   pencil_state(z1)))
                z0, z1 = upper_path(rng, span)
                F = [complex(rng.gauss(0, 0.3), rng.gauss(0, 0.3)) for _ in range(6)]
                ops.append(path_op("random", ode3d.OdeState3(z0, F), z1, None))
        return ops

    rounds_ops = [one_round(k) for k in range(rounds)]
    return rounds_ops, one_round(-1)[0]


# ---------------------------------------------------------------------------
# cli-cold


def _fmt_z(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def run_cli(argv, ctx):
    """Run one `python -m fmcheck.cli` process (or its traced wrapper) and
    return (exit code, stdout)."""
    if ctx.get("trace_dir"):
        op_file = os.path.join(ctx["trace_dir"], f"op{ctx['op']:05d}")
        cmd = [sys.executable, os.path.join(ROOT, "fmbench", "traced_cli.py"),
               op_file, str(ctx["op"]), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "fmcheck.cli", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=ctx["env"], capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout


def _ode_csv_check(z1, want):
    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}, want 0"
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) < 2:
            return "trajectory CSV has no rows"
        last = rows[-1]
        z_end = complex(float(last["z_re"]), float(last["z_im"]))
        if abs(z_end - z1) > 1e-9:
            return f"trajectory ends at {z_end}, not {z1}"
        got = [complex(float(last[f"{c}_re"]), float(last[f"{c}_im"]))
               for c in ("F12", "F21", "F13", "F31", "F23", "F32")]
        err = _endpoint_error(got, want)
        if err > ODE_END_TOL:
            return f"endpoint differs from the closed form by {err:.3e}"
        drift = max(max(float(r["dI1_abs"]), float(r["dI2_abs"])) for r in rows)
        if drift > DRIFT_TOL:
            return f"first-integral drift {drift:.3e}"
        return None
    return check


def cli_cold(seed: int, rounds: int) -> tuple:
    def op(argv, check):
        return Op("cli:" + " ".join(argv), lambda ctx: run_cli(argv, ctx), check)

    def one_round(k):
        s = str(derived_seed(seed, k))
        rng = random.Random(f"cli:{seed}:{k}")
        ops = [op(["verify", name, "--seed", s, "--points", CLI_POINTS],
                  _report_check(0, target=name))
               for name in CATALOG if name != "q0-d1"]
        ops.append(op(["verify", "lobachevsky", "--check", "levi-civita-flat", "--seed", s,
                       "--points", CLI_POINTS],
                      _report_check(1, target="lobachevsky")))
        for field, target in (("X2", "q0-d0"), ("X3", "q0-d1")):
            ops.append(op(["legendre", "q0-d-minus1", "--field", field, "--target", target,
                           "--seed", s, "--points", CLI_POINTS],
                          _report_check(0, reports=_TRANSFORM_REPORTS + (f"match-{target}",))))
        a, b = round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(0.5, 1.5), 6)
        z0, z1 = upper_path(rng, ODE_SPANS[1])
        ops.append(op(["ode", "--init", "q0", "--a", repr(a), "--b", repr(b),
                       f"--from={_fmt_z(z0)}", f"--to={_fmt_z(z1)}"],
                      _ode_csv_check(z1, q0_state(z1, a, b))))
        z0, z1 = upper_path(rng, ODE_SPANS[1])
        ops.append(op(["ode", "--init", "pencil63", f"--from={_fmt_z(z0)}", f"--to={_fmt_z(z1)}"],
                      _ode_csv_check(z1, pencil_state(z1))))
        return ops

    rounds_ops = [one_round(k) for k in range(rounds)]
    warmup = op(["catalog", "list"], lambda result: None if result[0] == 0 else "catalog list failed")
    return rounds_ops, warmup
