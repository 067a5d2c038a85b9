"""Per-module tracing of fmcheck from outside the package.

`Tracer.install()` wraps the public functions listed in `TRACED` and binds
each wrapper into every loaded `fmcheck` module that holds the original
function object.  Modules import names directly (`from .manifold import
structure_at`), so patching only the defining module would leave those
call sites uncounted.

Each call becomes a span (name, parent span, operation id, start, end) kept
in flat arrays in memory; `write_spans` writes them out once the run is
over.  Self time is a span's duration minus the time covered by its child
spans, accumulated per function as calls return.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# public functions whose calls and self time are reported one by one
SINGLE = {
    "exprjet": ("parse", "eval_jet", "eval_value"),
    "manifold": ("structure_at", "sample_points", "merge_reports"),
    "connection": ("natural_connection", "levi_civita", "christoffel_jets",
                   "inverse_jets", "riemann_components", "connection_from_exprs"),
    "pencil": ("pencil_at",),
    "rotation": ("rotation_data",),
    "legendre": ("transformed_structure", "transform_metric_exprs", "check_legendre_field"),
    "catalog": ("entry",),
    "ode3d": ("integrate", "dopri54", "rhs", "integrals"),
}

# metric -> (module, the functions whose self times it sums); wrapping them
# also keeps their time out of their callers' self time
GROUPS = {
    "manifold.checks.self_s": ("manifold", (
        "check_product_axioms", "check_hertling_manin", "check_metric_invariance",
        "check_killing_unit", "check_homogeneity")),
    "connection.checks.self_s": ("connection", (
        "check_torsionless", "check_flatness", "check_nabla_e", "check_compat_product",
        "check_nabla_from_g", "check_curvature_product_condition", "check_R_tR_identity",
        "check_nabla_nabla_E", "dual_structure")),
    "pencil.checks.self_s": ("pencil", (
        "check_flat_pencil", "check_exactness", "check_pencil_homogeneity", "delta_tensor",
        "r_operator", "product_from_pencil", "reconstructed_structure")),
    "rotation.checks.self_s": ("rotation", (
        "check_darboux_system", "check_lame_system", "check_flatness_constraint",
        "check_algebraic_constraints", "check_potentiality", "check_reduction_identity",
        "v_matrix")),
    "hamops.checks.self_s": ("hamops", (
        "check_quadratic_expansion", "check_sym_condition", "check_gmc", "field_rank")),
    "catalog.run_suite.self_s": ("catalog", (
        "run_suite", "connection_suite", "verify_flat_coordinates", "verify_vector_potential")),
    "cli.emit.self_s": ("cli", ("_emit",)),
}

TRACED = [(mod, fn) for mod, fns in SINGLE.items() for fn in fns] + \
    [(mod, fn) for mod, fns in GROUPS.values() for fn in fns]


def _point_key(spec, point, params):
    return (spec.name, tuple(complex(x) for x in point), repr(sorted((params or {}).items())))


class Tracer:
    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict = {}
        self.self_s: dict = {}
        self.structure_keys: set = set()
        self.op = -1
        self._stack: list = []     # [span id, start, child time]
        self._bindings: list = []  # (module, attribute, original, wrapper)
        self._parse = None
        self._misses_at_install = None
        self.parse_misses = 0      # parse-cache misses while installed

    # -- recording --

    def _wrap(self, key: str, fn):
        name_id = len(self.names)
        self.names.append(key)
        self.calls[key] = 0
        self.self_s[key] = 0.0
        stack = self._stack
        clock = time.perf_counter
        is_structure = key == "manifold.structure_at"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_structure:
                self.structure_keys.add(_point_key(args[0], args[1],
                                                   args[2] if len(args) > 2 else kwargs.get("params")))
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.span_start[sid] = frame[1]
                self.span_end[sid] = end
                self.calls[key] += 1
                self.self_s[key] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return traced

    def install(self):
        """Bind a wrapper of every function in TRACED into all loaded
        fmcheck modules; the wrappers are made on the first call."""
        if not self._bindings:
            for name in sorted({m for m, _ in TRACED}):
                importlib.import_module(f"fmcheck.{name}")
            self._parse = sys.modules["fmcheck.exprjet"].parse
            modules = [mod for name, mod in sys.modules.items()
                       if name == "fmcheck" or name.startswith("fmcheck.")]
            for mod_name, fn_name in TRACED:
                orig = getattr(sys.modules[f"fmcheck.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                self._bindings += [(holder, attr, orig, wrapper) for holder in modules
                                   for attr, value in vars(holder).items() if value is orig]
        self._misses_at_install = self._parse.cache_info().misses
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        if self._misses_at_install is None:
            return
        for holder, attr, orig, _ in self._bindings:
            setattr(holder, attr, orig)
        self.parse_misses += self._parse.cache_info().misses - self._misses_at_install
        self._misses_at_install = None

    # -- results --

    def summary(self) -> dict:
        """Counts and self times in a form that sums across processes."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "parse_misses": self.parse_misses,
                "structure_distinct": len(self.structure_keys),
                "spans": len(self.span_start)}

    def span_rows(self):
        for i in range(len(self.span_start)):
            yield (i, self.span_parent[i], self.span_op[i],
                   self.names[self.span_name[i]], self.span_start[i], self.span_end[i])


SPAN_HEADER = "span,parent,op,name,start_s,end_s\n"


def write_spans(path: str, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SPAN_HEADER)
        for sid, parent, op, name, start, end in rows:
            fh.write(f"{sid},{parent},{op},{name},{start!r},{end!r}\n")


def merge_summaries(parts) -> dict:
    out = {"calls": {}, "self_s": {}, "parse_misses": 0, "structure_distinct": 0, "spans": 0}
    for part in parts:
        for field in ("calls", "self_s"):
            for key, value in part[field].items():
                out[field][key] = out[field].get(key, 0) + value
        for field in ("parse_misses", "structure_distinct", "spans"):
            out[field] += part[field]
    return out


def per_layer_metrics(summary: dict, import_s: float, overhead_s: float) -> dict:
    """The per-module metrics named in BENCHMARK.json from a merged summary."""
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for key in ("exprjet.parse", "exprjet.eval_jet", "exprjet.eval_value",
                "manifold.structure_at", "connection.natural_connection",
                "connection.levi_civita", "connection.christoffel_jets",
                "connection.inverse_jets", "connection.riemann_components",
                "connection.connection_from_exprs", "pencil.pencil_at",
                "rotation.rotation_data", "legendre.transformed_structure",
                "ode3d.integrate"):
        put(f"{key}.calls", calls[key], "count")
        put(f"{key}.self_s", self_s[key], "s")
    put("exprjet.parse.misses", summary["parse_misses"], "count")
    structure_calls = calls["manifold.structure_at"]
    put("manifold.structure_reuse",
        summary["structure_distinct"] / structure_calls if structure_calls else 0.0, "ratio")
    put("manifold.sample_points.self_s", self_s["manifold.sample_points"], "s")
    put("manifold.merge_reports.calls", calls["manifold.merge_reports"], "count")
    for key in ("legendre.transform_metric_exprs", "legendre.check_legendre_field",
                "catalog.entry", "ode3d.dopri54"):
        put(f"{key}.self_s", self_s[key], "s")
    for key in ("ode3d.rhs", "ode3d.integrals"):
        put(f"{key}.calls", calls[key], "count")
    for name, (mod, fns) in GROUPS.items():
        put(name, sum(self_s[f"{mod}.{fn}"] for fn in fns), "s")
    put("cli.import_s", import_s, "s")
    put("trace.overhead_s", overhead_s, "s")
    return out
