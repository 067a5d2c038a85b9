"""The built-in chart specs: the explicit structure families the engine
verifies, each a `CatalogEntry` of a spec, companion data (closed-form
connections, Lame coefficients, flat charts, vector potentials, transform
fields, normal-bundle fields) and flags.  A check runs wherever its inputs
exist (`catalog.Check`); a flag is only a claim the data cannot show: a
constraint of the rotation coefficients (`ed4`, `ed4bis`, `ed5b`) or
potentiality.  No check reads `homogeneous`: the benchmark's catalog-sweep
(`fmbench/workloads.py`) compares the fitted D with the declared one on
the entries that carry the flag.

An entry is only strings and flags, so this module, like `spec`, loads no
numpy: `fmcheck catalog` reads it without the walk (`catalog`).

Free constants default to 1 (0 for the arbitrary-function slots, which are
degree-two polynomial coefficients).  A value that a family forces is a
constant in its tables, not a parameter: the connection constant a of
case-ii to case-v (-2, -1, 0 and 1) and nonss2d's b (0).
Square roots of sign-indefinite parameter combinations make several entries
complex-valued for real defaults; everything is evaluated on principal
branches, which is the convention recorded in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spec import (ManifoldSpec, NormalBundleData, Region, Var, fields_from_exprs,
                   fields_from_gradients, parse, to_source)

__all__ = ["CatalogEntry", "UnknownEntryError", "entry", "names", "lauricella_normal_fields"]


class UnknownEntryError(Exception):
    pass


@dataclass
class CatalogEntry:
    spec: ManifoldSpec
    flags: frozenset = frozenset()
    companion: dict = field(default_factory=dict)
    expected_failures: frozenset = frozenset()


# ---------------------------------------------------------------------------
# entry construction helpers


def _prod_expr(n, i):
    return "*".join(f"(u{k+1}-u{i+1})" for k in range(n) if k != i)


def _diag_metric(diag_exprs):
    n = len(diag_exprs)
    return tuple(tuple(diag_exprs[i] if i == j else "0" for j in range(n)) for i in range(n))


def _gamma_from_offdiag(n, offdiag):
    """Full Christoffel table from the off-diagonal entries Gamma^i_ij of a
    canonical-chart structure connection: Gamma^i_jj = -Gamma^i_ij,
    Gamma^i_jk = 0 for distinct indices, and the row sums vanish."""
    table = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        diag_terms = []
        for j in range(n):
            if i == j:
                continue
            src = offdiag[(i, j)]
            table[i][i][j] = src
            table[i][j][i] = src
            table[i][j][j] = to_source(-parse(src))
            diag_terms.append(parse(src))
        acc = diag_terms[0]
        for t in diag_terms[1:]:
            acc = acc + t
        table[i][i][i] = to_source(-acc)
    return tuple(tuple(tuple(row) for row in mat) for mat in table)


def lauricella_normal_fields(n: int) -> NormalBundleData:
    """The n gradient fields of 1/(sqrt(c_a) prod_{l != a}(u^l - u^a)),
    all with negative sign; the constants c1 .. cn are parameters."""
    scalars = []
    for a in range(n):
        prod = "*".join(f"(u{l+1}-u{a+1})" for l in range(n) if l != a)
        scalars.append(f"1/(sqrt(c{a+1})*{prod})")
    return fields_from_gradients(scalars, eps=(-1,) * n)


_SEMI3_REGION = Region(box=((-1.7, -1.1), (-0.6, -0.1), (0.8, 1.6)), min_sep=0.1)
_AF3_REGION = Region(box=((-2.2, -1.5), (-0.8, -0.2), (2.3, 3.1)), min_sep=0.1)
_AF4_REGION = Region(box=((-2.2, -1.5), (-0.8, -0.2), (2.3, 3.1), (3.6, 4.4)), min_sep=0.1)

_Q0_DEN = "(a+b)*u1-a*u3-b*u2"
_Q0_LAME = {
    -1: (f"1/({_Q0_DEN})",
         "-1/((a+b)*((u1-u2)*b+a*(u1-u3)))",
         "-a/(sqrt(-(b^2+1))*(a+b)*((u1-u2)*b+a*(u1-u3)))"),
    0: (f"(u2-u3)/({_Q0_DEN})",
        "(u3-u1)/(((u1-u2)*b+a*(u1-u3))*b)",
        f"(u1-u2)/(({_Q0_DEN})*sqrt(-(b^2+1)))"),
    1: (f"-((a+b)*u1^2-2*(a*u3+b*u2)*u1+a*u3^2+b*u2^2)/({_Q0_DEN})",
        f"-((a+b)*u1^2-2*u2*(a+b)*u1+(2*u2*u3-u3^2)*a+b*u2^2)/(({_Q0_DEN})*(a+b))",
        f"-((a+b)*u1^2-2*u3*(a+b)*u1+a*u3^2-b*u2*(u2-2*u3))*a/(sqrt(-(b^2+1))*({_Q0_DEN})*(a+b))"),
}

# Transform fields that are flat for the d=-1 structure connection.  The
# quadratic field's first component has its middle-term sign pinned by the
# parallel-field equation (equivalently, by the ratio of the weight 1 and
# weight -1 Lame coefficients).
_Q0_FIELDS = {
    "e": ("1", "1", "1"),
    "X2": ("u2-u3", "(a+b)*(u1-u3)/b", "(a+b)*(u2-u1)/a"),
    "X3": ("-((a+b)*u1^2-2*(a*u3+b*u2)*u1+a*u3^2+b*u2^2)",
           "(a+b)*u1^2-2*(a+b)*u1*u2+a*u3*(2*u2-u3)+b*u2^2",
           "(a+b)*u1^2-2*u3*(a+b)*u1+a*u3^2-b*u2*(u2-2*u3)"),
}


def _build_lobachevsky() -> CatalogEntry:
    spec = ManifoldSpec(
        name="lobachevsky", n=2, coords=("x", "y"), product="canonical",
        e=("1", "1"), g=_diag_metric(("2/(x-y)^2", "2/(x-y)^2")),
        region=Region(box=((0.6, 2.0), (-1.5, 0.4)), min_sep=0.1),
        expected={"R1212": 1.0})
    companion = {
        "flat_chart": ("4/(x-y)", "(x+y)/2"),
        "flat_e": ("0", "1"),
        "potentials": ("u1*u2", "u2^2/2+(2/3)/u1^2"),
        "normal_bundle": fields_from_exprs([("1", "1")], [-1]),
    }
    return CatalogEntry(spec=spec, companion=companion)


def _build_nonss2d() -> CatalogEntry:
    # metrics exist for this family only when the first connection constant
    # b (in Gamma^1_22 = b/y) vanishes, so that entry is 0 here; the flat
    # charts with general b live in the case-i .. case-v entries
    spec = ManifoldSpec(
        name="nonss2d", n=2, coords=("x", "y"), product="shifted-canonical",
        e=("1", "0"), E=("x", "y"),
        g=(("f0+f1*y+f2*y^2", "c*y^a"), ("c*y^a", "0")),
        params={"a": 1.0, "c": 1.0, "f0": 0.0, "f1": 0.0, "f2": 0.0},
        region=Region(box=((0.4, 1.8), (0.5, 2.0)), min_sep=0.0))
    gamma = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
    gamma[1][1][1] = "a/y"
    companion = {"gamma": tuple(tuple(tuple(r) for r in m) for m in gamma)}
    return CatalogEntry(spec=spec, companion=companion)


def _build_nonss3d() -> CatalogEntry:
    fy = "(f0+f1*y+f2*y^2)"
    dfy = "(f1+2*f2*y)"
    gy = "(g0+g1*y+g2*y^2)"
    e11 = "(4/3)*(a^2-3)/(a+2)"
    e12 = "(1/3)*(4*a^2+3*a-6)/(a+2)"
    e13 = "(2/3)*((2*a+3)*a)/(a+2)"
    g11 = (f"2*{dfy}*y*z+{gy}*y+(2/9)*(a^2*(a^2+3*a+3)/(a+2)^2)*c*y^({e11})*z^2"
           f"-2*(b*c*y^({e12})+((a^2-2)/(a+2))*{fy})*z")
    g12 = f"(2/3)*(a*(a+3)/(a+2))*c*y^({e12})*z+y*{fy}"
    g13 = f"c*y^({e13})"
    spec = ManifoldSpec(
        name="nonss3d", n=3, coords=("x", "y", "z"), product="shifted-canonical",
        e=("1", "0", "0"), E=("x", "y", "z"),
        g=((g11, g12, g13), (g12, g13, "0"), (g13, "0", "0")),
        params={"a": 1.0, "b": 1.0, "c": 1.0,
                "f0": 0.0, "f1": 0.0, "f2": 0.0, "g0": 0.0, "g1": 0.0, "g2": 0.0},
        region=Region(box=((0.4, 1.6), (0.6, 1.8), (0.4, 1.6)), min_sep=0.0))
    gamma = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    gamma[2][1][2] = gamma[2][2][1] = "a/y"
    gamma[2][1][1] = "((a*b+2*b)*y-2*a*z)/((a+2)*y^2)"
    gamma[1][1][1] = "a*(a+1)/((a+2)*y)"
    companion = {"gamma": tuple(tuple(tuple(r) for r in m) for m in gamma)}
    return CatalogEntry(spec=spec, companion=companion)


def _build_lauricella() -> CatalogEntry:
    n = 3
    diag = tuple(f"c{i+1}*({_prod_expr(n, i)})^2" for i in range(n))
    spec = ManifoldSpec(
        name="lauricella-eps-minus1-n3", n=n, coords=("u1", "u2", "u3"),
        product="canonical", e=("1",) * n, E=("u1", "u2", "u3"),
        g=_diag_metric(diag),
        params={"c1": 1.0, "c2": 1.0, "c3": 1.0},
        region=_SEMI3_REGION,
        expected={"d": 2.0, "D": 6.0, "rank": n - 1})
    offdiag = {(i, j): f"-1/(u{i+1}-u{j+1})" for i in range(n) for j in range(n) if i != j}
    lame = tuple(f"sqrt(c{i+1})*{_prod_expr(n, i)}" for i in range(n))
    # dual connection in closed form: same off-diagonal symbols, the
    # remaining ones rescaled by coordinate ratios
    star = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        ui = Var(i + 1)
        diag = -1 / ui
        for j in range(n):
            if i == j:
                continue
            uj = Var(j + 1)
            star[i][i][j] = star[i][j][i] = f"-1/(u{i+1}-u{j+1})"
            star[i][j][j] = to_source(-(ui / uj) * parse(star[i][i][j]))
            diag = diag - (uj / ui) * parse(star[i][i][j])
        star[i][i][i] = to_source(diag)
    companion = {
        "gamma": _gamma_from_offdiag(n, offdiag),
        "gamma_star": tuple(tuple(tuple(r) for r in m) for m in star),
        "lame": lame,
        "normal_bundle": lauricella_normal_fields(n),
    }
    # ED4 does not hold here: the claim runs flatness-constraint as a negative control
    return CatalogEntry(spec=spec, flags=frozenset({"homogeneous", "ed4"}), companion=companion,
                        expected_failures=frozenset({"flatness-constraint"}))


def _build_q0(d: int) -> CatalogEntry:
    n = 3
    lame = _Q0_LAME[d]
    spec = ManifoldSpec(
        name=f"q0-d{'-minus1' if d == -1 else d}", n=n, coords=("u1", "u2", "u3"),
        product="canonical", e=("1",) * n, E=("u1", "u2", "u3"),
        g=_diag_metric(tuple(f"({h})^2" for h in lame)),
        params={"a": 1.0, "b": 1.0},
        region=Region(box=_SEMI3_REGION.box, min_sep=0.1,
                      guards=(_Q0_DEN,), guard_min=0.2),
        expected={"d": float(d), "D": float(2 * d + 2), "I1": -1.0, "I2": 0.0,
                  "V_eigenvalues": [-1.0, 0.0, 1.0]})
    companion = {"lame": lame, "ode_family": "q0"}
    flags = frozenset({"homogeneous", "ed4", "ed4bis", "potentiality"})
    if d == -1:
        q = f"({_Q0_DEN})"
        offdiag = {
            (0, 1): f"b/{q}", (0, 2): f"a/{q}",
            (1, 0): f"-(a+b)/{q}", (1, 2): f"a/{q}",
            (2, 0): f"-(a+b)/{q}", (2, 1): f"b/{q}",
        }
        companion["gamma"] = _gamma_from_offdiag(n, offdiag)
        companion["legendre_fields"] = dict(_Q0_FIELDS)
        companion["legendre_targets"] = {"X2": "q0-d0", "X3": "q0-d1"}
    return CatalogEntry(spec=spec, flags=flags, companion=companion)


def _build_pencil63() -> CatalogEntry:
    n = 3
    diag = tuple(_prod_expr(n, i) for i in range(n))
    spec = ManifoldSpec(
        name="pencil-63", n=n, coords=("u1", "u2", "u3"),
        product="canonical", e=("1",) * n, E=("u1", "u2", "u3"),
        g=_diag_metric(diag),
        region=_AF3_REGION,
        expected={"d": 1.0, "D": 4.0, "I1": -0.75, "I2": 0.25,
                  "V_eigenvalues": [-0.5, -0.5, 1.0]})
    offdiag = {(i, j): f"1/(2*(u{j+1}-u{i+1}))" for i in range(n) for j in range(n) if i != j}
    companion = {
        "lame": ("sqrt(u3-u1)*sqrt(u2-u1)",
                 "-sqrt(u1-u2)*sqrt(u3-u2)",
                 "sqrt(u2-u3)*sqrt(u1-u3)"),
        "gamma": _gamma_from_offdiag(n, offdiag),
        "ode_family": "pencil63",
    }
    flags = frozenset({"homogeneous", "ed4", "ed4bis", "ed5b", "potentiality"})
    # the exact-pencil family is not potential: that check is reported and
    # expected to fail
    return CatalogEntry(spec=spec, flags=flags, companion=companion,
                        expected_failures=frozenset({"potentiality"}))


def _build_af(n: int) -> CatalogEntry:
    g1 = tuple(_prod_expr(n, i) for i in range(n))
    g2 = tuple(f"({_prod_expr(n, i)})/u{i+1}" for i in range(n))
    spec = ManifoldSpec(
        name=f"af-pencil-n{n}", n=n, coords=tuple(f"u{i+1}" for i in range(n)),
        product="canonical", e=("1",) * n, E=tuple(f"u{i+1}" for i in range(n)),
        g=_diag_metric(g1), g2=_diag_metric(g2),
        region=_AF3_REGION if n == 3 else _AF4_REGION,
        expected={"d_pencil": float(1 - n), "D": float(n + 1), "D_reconstructed": float(n + 1)})
    return CatalogEntry(spec=spec)


# each case's parameters and its Gamma^2_22 = a/y, where a is a parameter of
# case-i only and each other case's chart and potentials hold for one value
_CASES = {
    "case-i": {"params": {"a": 3.0, "b": 1.0}, "gamma22": "a/y",
               "chart": ("x-(b/a)*y", "y^(a+1)/(a+1)"),
               "flat_E": ("u1", "(a+1)*u2"),
               "F": ("(a^2*(a-1)*u1^2+b^2*(a+1)^(2/(a+1))*u2^(2/(a+1)))/(2*(a-1)*a^2)",
                     "(a*(a+2)*u1*u2+2*b*(a+1)^((a+2)/(a+1))*u2^((a+2)/(a+1)))/((a+2)*a)")},
    "case-ii": {"params": {"b": 1.0}, "gamma22": "-2/y",
                "chart": ("x+(1/2)*b*y", "-1/y"),
                "flat_E": ("u1", "-u2"),
                "F": ("(1/2)*u1^2-(1/24)*b^2/u2^2", "u1*u2+b*ln(u2)")},
    "case-iii": {"params": {"b": 1.0}, "gamma22": "-1/y",
                 "chart": ("x+b*y", "ln(y)"),
                 "flat_E": ("u1", "1"),
                 "F": ("(1/2)*u1^2-(1/4)*b^2*exp(2*u2)", "u1*u2-2*b*exp(u2)")},
    "case-iv": {"params": {"b": 1.0}, "gamma22": "0",
                "chart": ("x+b*y*ln(y)", "y"),
                "flat_E": ("u1+b*u2", "u2"),
                "F": ("(1/2)*u1^2-(1/2)*b^2*u2^2*ln(u2)^2+(1/2)*b^2*u2^2*ln(u2)-(3/4)*b^2*u2^2",
                      "-b*u2^2*ln(u2)+(1/2)*b*u2^2+u1*u2")},
    "case-v": {"params": {"b": 1.0}, "gamma22": "1/y",
               "chart": ("x-b*y", "y^2/2"),
               "flat_E": ("u1", "2*u2"),
               "F": ("(1/2)*u1^2-(1/2)*b^2*u2*ln(u2)+(1/2)*b^2*u2",
                     "(4/3)*b*sqrt(2)*u2^(3/2)+u1*u2")},
}


def _build_case(name: str) -> CatalogEntry:
    data = _CASES[name]
    spec = ManifoldSpec(
        name=name, n=2, coords=("x", "y"), product="shifted-canonical",
        e=("1", "0"), E=("x", "y"),
        params=dict(data["params"]),
        region=Region(box=((0.4, 1.6), (0.6, 1.9)), min_sep=0.0))
    gamma = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
    gamma[0][1][1] = "b/y"
    gamma[1][1][1] = data["gamma22"]
    companion = {
        "gamma": tuple(tuple(tuple(r) for r in m) for m in gamma),
        "flat_chart": data["chart"],
        "flat_e": ("1", "0"),
        "flat_E": data["flat_E"],
        "potentials": data["F"],
    }
    return CatalogEntry(spec=spec, companion=companion)


_BUILDERS = {
    "lobachevsky": _build_lobachevsky,
    "nonss2d": _build_nonss2d,
    "nonss3d": _build_nonss3d,
    "lauricella-eps-minus1-n3": _build_lauricella,
    "q0-d-minus1": lambda: _build_q0(-1),
    "q0-d0": lambda: _build_q0(0),
    "q0-d1": lambda: _build_q0(1),
    "pencil-63": _build_pencil63,
    "af-pencil-n3": lambda: _build_af(3),
    "af-pencil-n4": lambda: _build_af(4),
    **{name: (lambda name=name: _build_case(name)) for name in _CASES},
}


def names() -> list:
    return sorted(_BUILDERS)


def entry(name: str) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownEntryError(f"unknown catalog entry {name!r}") from None
    return builder()
