"""An independent oracle for the jet evaluator: every catalog expression is
rebuilt in sympy from its AST, differentiated symbolically and evaluated
in 30-digit mpmath arithmetic.  Nothing here uses the engine's rules."""

import operator

import mpmath
import numpy as np
import sympy as sp

import fmcheck.catalog as cat
from fmcheck.exprjet import Bin, Call, Neg, Num, Param, Var, eval_jet, eval_points, parse
from fmcheck.manifold import SamplePlan, sample_points

U = sp.symbols("u1:10")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}
_CALLS = {"sqrt": sp.sqrt, "ln": sp.log, "exp": sp.exp}


def _number(v):
    v = complex(v)
    return sp.Rational(v.real) + sp.I * sp.Rational(v.imag)


def to_sympy(node, env):
    """The sympy expression of an AST; sympy's sqrt, log and non-integer
    powers use the same principal branch as the DSL."""
    if isinstance(node, Num):
        return _number(node.value)
    if isinstance(node, Var):
        return U[node.index - 1]
    if isinstance(node, Param):
        return _number(env[node.name])
    if isinstance(node, Neg):
        return -to_sympy(node.a, env)
    if isinstance(node, Call):
        return _CALLS[node.fn](to_sympy(node.a, env))
    assert isinstance(node, Bin)
    return _BINARY[node.op](to_sympy(node.a, env), to_sympy(node.b, env))


def _catalog_tables(ent):
    """(table, at chart values?) for every expression table of an entry."""
    spec, comp = ent.spec, ent.companion
    tables = [(t, False) for t in (spec.e, spec.E, spec.g, spec.g2) if t is not None]
    if not isinstance(spec.product, str):
        tables.append((spec.product, False))
    for key, value in comp.items():
        if key == "legendre_fields":
            tables += [(t, False) for t in value.values()]
        elif key == "normal_bundle":
            tables.append((value.exprs, False))
        elif isinstance(value, tuple):
            # flat_e, flat_E and the potentials are functions of the flat coordinates
            tables.append((value, key in ("flat_e", "flat_E", "potentials")))
    return tables


# products and quotients of fully complex values, negative integer powers,
# sqrt, ln and non-integer (real, complex and varying) powers
RULES = ["x*y", "(x+2i*y)*(y-3*z)", "x*y*z", "x/y", "(x*y+1)/(x-2*y)", "x/(y*z)",
         "x^-1", "x^-2", "(x+y)^(-3)", "1/(x*y)^2", "sqrt(x)", "sqrt(x*y)", "sqrt(x-y)/z",
         "ln(x)", "ln(x*y)", "ln(x/y)+z", "x^0.5", "(x*y)^(1/3)", "(x+y)^(-1.5)",
         "x^(0.5+0.25i)", "(y*z)^2.5", "x^y", "(x+z)^(y*z)"]
COMPLEX_POINTS = [(0.7 + 0.4j, -0.3 + 0.9j, 1.2 - 0.5j), (-1.1 - 0.6j, 0.8 - 1.3j, -0.4 + 0.2j)]


def test_jets_match_sympy_oracle():
    # every catalog table at its sample points and at those points moved
    # off the real axis, and each rule at points whose coordinates all have
    # nonzero real and imaginary parts
    mpmath.mp.dps = 30
    rng = np.random.default_rng(5)
    cases = [("rules", src, COMPLEX_POINTS, {}) for src in RULES]
    for name in cat.names():
        ent = cat.entry(name)
        env = ent.spec.env()
        points = sample_points(ent.spec, SamplePlan(seed=3, count=2))
        points = points + [p + 1j * rng.uniform(0.05, 0.25, len(p)) * rng.choice([-1, 1], len(p))
                            for p in points]
        sources = {}
        for table, in_chart in _catalog_tables(ent):
            entries = np.array(table, dtype=object).flat
            sources.setdefault(in_chart, set()).update(s for s in entries if s != "0")
        for in_chart, srcs in sources.items():
            at = points
            if in_chart:
                at = [eval_points(ent.companion["flat_chart"], [p], env).at(0)[0] for p in points]
            cases += [(name, src, at, env) for src in sorted(srcs)]
    checked = 0
    for name, src, at, env in cases:
        n = len(at[0])
        expr = to_sympy(parse(src), env)
        grad = [sp.diff(expr, U[i]) for i in range(n)]
        hess = [[sp.diff(grad[i], U[j]) for j in range(n)] for i in range(n)]
        oracle = sp.lambdify(U[:n], [expr, grad, hess], modules="mpmath")
        for p in at:
            val, g, h = oracle(*[mpmath.mpc(complex(x)) for x in p])
            want = (complex(val), np.array(g, dtype=complex), np.array(h, dtype=complex))
            jet = eval_jet(parse(src), p, env)
            scale = 1 + max(abs(want[0]), np.max(np.abs(want[1])), np.max(np.abs(want[2])))
            err = max(abs(jet.val - want[0]), np.max(np.abs(jet.grad - want[1])),
                      np.max(np.abs(jet.hess - want[2]))) / scale
            assert err <= 1e-13, f"{name}: {src} at {p}: {err:.2e}"
            checked += 1
    assert checked >= 400, checked
