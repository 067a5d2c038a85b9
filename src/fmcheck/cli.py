"""Command-line front door: suite execution, trajectory runs, transform
runs, and catalog access.

Exit codes: 0 all requested checks pass, 1 a check fails (or a transform
hypothesis is violated), 2 bad input (unparseable spec, a malformed spec
file, named by its missing or malformed field (a non-finite parameter,
region bound, `min_sep` or `guard_min`, or a region box pair with lo >
hi, among them), a non-finite `--param`, a spec path that cannot be
read, such as a directory or a file that is not UTF-8, named with the
reason, unknown entry or check, a spec that lacks a field a check or a
transform needs or leaves a parameter unbound, a product table where a
transform needs a named product, a sample point where the spec is
singular, which `verify` and `legendre` name by index and coordinates, a
sampling region that admits fewer points than `--points`, a negative
`--seed`, a `--field` whose component count is not the spec's dimension,
a named `--field` that is not one of a catalog entry's fields (on n >= 2;
on n = 1 a `--field` that names none is its one component),
a non-finite `--state`, `--from`, `--to`, `--rtol`, `--atol`,
`--drift-tol`, `--a` or `--b`, `--a` or `--b` without `--init q0`, a
negative tolerance, `--steps` below 1, both tolerances zero, a singular
integration path, an integration whose step size underflows, `catalog
export` without an entry name, `catalog list` with one, an `--output`
path that cannot be written, named with the reason).
`--param K=V` sets a parameter of the spec; for `legendre`, also the
target's parameter of the same name.  A name that neither declares in its
parameters is bad input.

Reports embed the tool version, seed, tolerances, parameter values and the
branch convention, and are byte-deterministic for a fixed configuration.

`ode` runs on the standard library and `ode3d` alone (a state's F is a
tuple, the rows of `dopri54` are lists).  `catalog`, and every spec that
`verify` or `legendre` cannot load, need only `spec` and `entries`, which
use the standard library too; the walk's modules, which load numpy, are
imported by `_run_suite` alone.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys

from . import DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL, __version__
from .ode3d import (COMPONENTS, DEFAULT_ATOL, DEFAULT_ROWS, DEFAULT_RTOL, OdeState3,
                    SingularPathError, SingularPointError, StepSizeUnderflowError,
                    closed_form_pencil, closed_form_q0, integrate)

BRANCH_NOTE = "principal (cut on the negative real axis, +0j side)"


def _parse_scalar(text: str) -> complex:
    try:
        return complex(float(text))
    except ValueError:
        return complex(text[:-1] + "j" if text.endswith("i") else text)


def _ode_point(option: str, text: str) -> complex:
    """A finite `--from` or `--to` value; ValueError names the option and
    what it holds."""
    try:
        z = _parse_scalar(text)
    except ValueError:
        raise ValueError(f"{option} {text!r}: not a number") from None
    if not cmath.isfinite(z):
        raise ValueError(f"{option} {text!r}: must be finite")
    return z


def _parse_param(text: str):
    """A `--param NAME=VALUE` as (name, value); ValueError names the option
    and what it holds."""
    name, eq, value = text.partition("=")
    if not (name and eq):
        raise ValueError(f"--param {text!r}: expected NAME=VALUE")
    try:
        z = _parse_scalar(value)
    except ValueError:
        raise ValueError(f"--param {name}: {value!r} is not a number") from None
    if not cmath.isfinite(z):
        raise ValueError(f"--param {name}: {value!r} is not finite")
    return name, z


def _load_spec(args):
    """Load `args.spec`, a catalog entry's name or a spec JSON file, and
    apply each `--param` override to it, a parameter that the spec (or for
    `legendre` its catalog target) declares.  Returns (spec, entry or None,
    overrides), or None once one line on stderr names the bad input."""
    from . import entries
    from .spec import ManifoldSpec
    try:
        overrides = dict(_parse_param(kv) for kv in args.param)
        if os.path.exists(args.spec):
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec, ent = ManifoldSpec.from_json(fh.read()), None
        else:
            ent = entries.entry(args.spec)
            spec = ent.spec
    except (OSError, UnicodeDecodeError) as err:  # a directory, an unreadable or non-UTF-8 file
        sys.stderr.write(f"spec error: {args.spec}: {getattr(err, 'strerror', None) or err}\n")
        return None
    except (entries.UnknownEntryError, json.JSONDecodeError, ValueError) as err:
        sys.stderr.write(f"spec error: {err}\n")
        return None
    target = getattr(args, "target", None)
    known = set(spec.params).union(entries.entry(target).spec.params
                                   if target in entries.names() else ())
    unknown = sorted(set(overrides) - known)
    if unknown:
        owners = " or ".join([spec.name] + ([target] if target else []))
        sys.stderr.write(f"spec error: --param {unknown[0]}: {owners} has no such parameter\n")
        return None
    spec.params.update(overrides)
    return spec, ent, overrides


def _emit(doc: dict, fmt: str, out_path: str | None) -> bool:
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "markdown":
        lines = [f"# {doc.get('command', 'report')}",
                 f"version: {doc['version']}  seed: {doc.get('seed')}  ok: {doc.get('ok')}", "",
                 "| check | residual | tol | verdict |", "|---|---|---|---|"]
        for r in doc.get("reports", []):
            lines.append(f"| {r['name']} | {r['residual']:.6e} | {r['tol']:.1e} | "
                         f"{'pass' if r['passed'] else 'FAIL'} |")
        text = "\n".join(lines) + "\n"
    else:  # csv
        lines = ["name,residual,tol,passed"]
        for r in doc.get("reports", []):
            lines.append(f"{r['name']},{r['residual']!r},{r['tol']!r},{int(r['passed'])}")
        text = "\n".join(lines) + "\n"
    return _write(text, out_path)


def _write(text: str, out_path: str | None) -> bool:
    """Write `text` to `out_path`, or without one to stdout.  A path that
    cannot be written (a directory, a missing parent) returns False once
    one line on stderr names it and the reason."""
    if not out_path:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        sys.stderr.write(f"output error: {out_path}: {err.strerror or err}\n")
        return False
    return True


def _report(command: str, args, spec, suite, **fields) -> int:
    """Emit the report of a `verify` or `legendre` walk, with the command's
    own `fields`, and return its exit code."""
    params = {k: [complex(v).real, complex(v).imag] for k, v in sorted(spec.params.items())}
    if not _emit({"command": command, "version": __version__, "seed": args.seed,
                  "tolerances": {"rtol": args.rtol}, "branch_convention": BRANCH_NOTE,
                  "params": params, **fields, "reports": [r.to_dict() for r in suite.reports],
                  "ok": suite.ok}, args.format, args.output):
        return 2
    return 0 if suite.ok else 1


def _run_suite(args, source, check=None, transform=()):
    """The command's one walk, `catalog.run_suite` on `source`, or with
    `transform` (the arguments of `catalog.Transform` after the spec) on
    that transform of `source`; for a bad `--seed` or `--rtol`, or an error
    the walk raises, one line on stderr and its exit code instead.  The
    walk's modules, and so numpy, load here and nowhere else in the CLI."""
    from . import catalog, exprjet as ej
    from .legendre import HypothesisViolatedError, NotInvertibleError, ProductTableError
    from .manifold import MissingFieldError, PointCountError, RegionEmptyError
    if args.seed < 0:
        sys.stderr.write(f"input error: --seed {args.seed}: must be non-negative\n")
        return 2
    if not (math.isfinite(args.rtol) and args.rtol >= 0):
        sys.stderr.write(f"input error: --rtol {args.rtol!r}: must be finite and non-negative\n")
        return 2
    if transform:
        source = catalog.Transform(source, *transform)
    try:
        return catalog.run_suite(source, seed=args.seed, count=args.points, tol=args.rtol,
                                 check=check)
    except KeyError as err:
        sys.stderr.write(f"unknown check: {err}\n")
    except ej.ParseError as err:
        sys.stderr.write(f"spec error: cannot parse {err.source!r}: {err}\n")
    except (PointCountError, RegionEmptyError, MissingFieldError, ProductTableError,
            catalog.UnknownEntryError, catalog.SingularSampleError, ej.EvalError) as err:
        sys.stderr.write(f"input error: {err}\n")
    except (NotInvertibleError, HypothesisViolatedError) as err:
        sys.stderr.write(f"transform rejected: {err}\n")
        return 1
    return 2


def cmd_verify(args) -> int:
    loaded = _load_spec(args)
    if loaded is None:
        return 2
    spec, ent, _ = loaded
    suite = _run_suite(args, spec if ent is None else ent, args.check)
    if isinstance(suite, int):
        return suite
    if ent is not None and args.check is None:
        return _report("verify", args, spec, suite, target=spec.name,
                       expected_failures=sorted(suite.expected_failures))
    return _report("verify", args, spec, suite, target=spec.name)


def cmd_ode(args) -> int:
    try:
        z_from, z_to = _ode_point("--from", args.z_from), _ode_point("--to", args.z_to)
        for option, value in (("--a", args.a), ("--b", args.b)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{option} {value!r}: must be finite")
            if value is not None and args.init != "q0":
                raise ValueError(f"{option} {value!r}: only --init q0 reads it")
        for option, tol in (("--rtol", args.rtol), ("--atol", args.atol),
                            ("--drift-tol", args.drift_tol)):
            if not (math.isfinite(tol) and tol >= 0):
                raise ValueError(f"{option} {tol!r}: must be finite and non-negative")
        if args.rtol == 0 and args.atol == 0:
            raise ValueError(f"--atol {args.atol!r}: must be positive where --rtol is 0")
        if args.steps < 1:
            raise ValueError(f"--steps {args.steps}: must be at least 1")
        if args.init is not None and args.state is not None:
            raise ValueError(f"--init {args.init} and --state: give one of them, not both")
        if args.init == "q0":
            state = closed_form_q0(z_from, **{k: v for k, v in (("a", args.a), ("b", args.b))
                                              if v is not None})
        elif args.init == "pencil63":
            state = closed_form_pencil(z_from)
        elif args.state:
            vals = [float(v) for v in args.state.split(",")]
            if len(vals) != 12:
                raise ValueError("--state needs 12 comma-separated floats (re,im pairs)")
            if not all(map(math.isfinite, vals)):
                raise ValueError("--state values must be finite")
            state = OdeState3(z_from, [complex(*vals[i:i + 2]) for i in range(0, 12, 2)])
        else:
            raise ValueError("give --init q0|pencil63 or --state")
        traj = integrate(state, z_to, rtol=args.rtol, atol=args.atol, n_dense=args.steps)
    except (SingularPathError, SingularPointError) as err:
        sys.stderr.write(f"singular segment: {err}\n")
        return 2
    except StepSizeUnderflowError as err:
        sys.stderr.write(f"integration failed: {err}\n")
        return 2
    except ValueError as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2
    names = ["z", *COMPONENTS, *(f"I{k}" for k in range(1, 9))]
    header = [f"{c}_{p}" for c in names for p in ("re", "im")] + ["dI1_abs", "dI2_abs"]
    lines = [",".join(header)]
    i0 = traj.I_start
    for (z, s), vals in zip(traj.states, traj.I_states):
        cells = [z, *s.F, *(vals[f"I{k}"] for k in range(1, 9))]
        row = [part for c in cells for part in (c.real, c.imag)]
        row += [abs(vals["I1"] - i0["I1"]), abs(vals["I2"] - i0["I2"])]
        lines.append(",".join(repr(float(v)) for v in row))
    if not _write("\n".join(lines) + "\n", args.output):
        return 2
    drift = max(traj.drift_I1, traj.drift_I2)
    limit = args.drift_tol
    if drift > limit:
        sys.stderr.write(f"integral drift {drift:.3e} exceeds {limit:.1e}\n")
        return 1
    return 0


def cmd_legendre(args) -> int:
    loaded = _load_spec(args)
    if loaded is None:
        return 2
    spec, ent, overrides = loaded
    # a field's name, else its components: a comma separates them, and on n = 1 there is one
    field_exprs = (ent.companion if ent else {}).get("legendre_fields", {}).get(args.field)
    field_name = args.field
    if field_exprs is None:
        if "," not in args.field and spec.n != 1:
            sys.stderr.write(f"input error: --field {args.field!r}: not a field of {spec.name}\n")
            return 2
        field_exprs, field_name = tuple(args.field.split(",")), "custom"
    if len(field_exprs) != spec.n:
        sys.stderr.write(f"input error: --field {args.field!r}: {len(field_exprs)} components, "
                         f"but {spec.name} has n = {spec.n}\n")
        return 2
    suite = _run_suite(args, spec, transform=(field_exprs, field_name, args.target, overrides))
    if isinstance(suite, int):
        return suite
    return _report("legendre", args, spec, suite, field=field_name,
                   transformed_spec=suite.transformed.to_dict())


def cmd_catalog(args) -> int:
    from . import entries
    if args.action == "list":
        if args.name is not None:
            sys.stderr.write(f"input error: catalog list takes no entry name, got {args.name!r}\n")
            return 2
        for name in entries.names():
            sys.stdout.write(name + "\n")
        return 0
    if args.name is None:
        sys.stderr.write("input error: catalog export needs an entry name\n")
        return 2
    try:
        ent = entries.entry(args.name)
    except entries.UnknownEntryError as err:
        sys.stderr.write(f"{err}\n")
        return 2
    sys.stdout.write(ent.spec.to_json() + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(prog="fmcheck",
                                     description="numerical verification of chart-level "
                                                 "product/metric structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--points", type=int, default=DEFAULT_POINTS)
        p.add_argument("--rtol", type=float, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
        p.add_argument("--param", action="append", default=[], metavar="K=V")
        p.add_argument("-o", "--output", default=None)

    pv = sub.add_parser("verify", help="run the check suite for a spec or catalog entry")
    pv.add_argument("spec")
    pv.add_argument("--check", default=None, help="run a single named check")
    common(pv)
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("ode", help="integrate the six-component system and emit CSV")
    po.add_argument("--init", choices=("q0", "pencil63"), default=None)
    po.add_argument("--state", default=None, help="12 comma-separated floats (re,im per component)")
    po.add_argument("--from", dest="z_from", required=True)
    po.add_argument("--to", dest="z_to", required=True)
    po.add_argument("--a", type=float, default=None, help="q0 parameter a (default 1)")
    po.add_argument("--b", type=float, default=None, help="q0 parameter b (default 1)")
    po.add_argument("--steps", type=int, default=DEFAULT_ROWS, help="dense output rows")
    po.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    po.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    po.add_argument("--drift-tol", type=float, default=1e-7)
    po.add_argument("-o", "--output", default=None)
    po.set_defaults(func=cmd_ode)

    pl = sub.add_parser("legendre", help="transform a spec through an invertible flat field")
    pl.add_argument("spec")
    pl.add_argument("--field", required=True,
                    help="catalog field name or comma-separated component expressions")
    pl.add_argument("--target", default=None, help="catalog entry to match up to one constant")
    common(pl)
    pl.set_defaults(func=cmd_legendre)

    pc = sub.add_parser("catalog", help="list or export built-in specs")
    pc.add_argument("action", choices=("list", "export"))
    pc.add_argument("name", nargs="?")
    pc.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
