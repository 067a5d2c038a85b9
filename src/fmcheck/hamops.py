"""Flat-normal-bundle structure: quadratic curvature expansion, the
symmetry condition on the spanning fields, the Gauss-Codazzi-type equations
for the induced affinors, and structured emission of the associated
nonlocal first-order operator.

The operator is emitted as data (coefficient blocks at a point), never
applied: the verification here is pointwise tensor algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import exprjet as ej
from .connection import (ConnectionAt, inverse_jets, levi_civita, natural_connection,
                         riemann_components)
from .manifold import (ManifoldSpec, Report, StructureAt, normalized, point_report,
                       structure_at, structures, worst, worst_parts)

__all__ = [
    "NormalBundleData", "GmcFailedError", "fields_from_exprs",
    "fields_from_gradients", "lauricella_normal_fields",
    "check_quadratic_expansion", "check_sym_condition", "check_gmc",
    "field_rank", "emit_operator",
]

DEFAULT_TOL = 1e-8


class GmcFailedError(Exception):
    pass


@dataclass
class NormalBundleData:
    """Signs and expression tables of the spanning vector fields: a row of
    components per field, or, with `gradients`, a scalar per field whose
    coordinate gradient is the field (its jet Hessian then supplies the
    field derivatives)."""
    eps: tuple
    exprs: tuple
    gradients: bool = False
    params: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.exprs)

    def along(self, points, n: int) -> Iterator[tuple]:
        """Field values xs[a, i] and derivatives dxs[a, i, k] = d_k X_a^i at
        each of `points`, in order.  The table runs once over all the
        points; a point where it is singular raises when it is reached."""
        if not self.exprs:
            for _ in points:
                yield np.zeros((0, n), dtype=complex), np.zeros((0, n, n), dtype=complex)
            return
        jets = ej.eval_points(self.exprs, points, self.params)
        for k in range(len(jets)):
            val, d1, d2 = jets.at(k)
            yield (d1, d2) if self.gradients else (val, d1)

    def at(self, point, n: int):
        """Field values xs[a, i] and derivatives dxs[a, i, k] = d_k X_a^i."""
        return next(self.along([point], n))


def fields_from_exprs(component_tables: Sequence[Sequence[str]], eps,
                      params=None) -> NormalBundleData:
    return NormalBundleData(eps=tuple(eps), exprs=tuple(tuple(c) for c in component_tables),
                            params=params or {})


def fields_from_gradients(scalar_exprs: Sequence[str], eps, params=None) -> NormalBundleData:
    """Fields given as coordinate gradients of scalar potentials."""
    return NormalBundleData(eps=tuple(eps), exprs=tuple(scalar_exprs), gradients=True,
                            params=params or {})


def lauricella_normal_fields(n: int, c_consts: Sequence[complex]) -> NormalBundleData:
    """The n gradient fields of 1/(sqrt(c_a) prod_{l != a}(u^l - u^a)),
    all with negative sign."""
    scalars = []
    for a in range(n):
        prod = "*".join(f"(u{l+1}-u{a+1})" for l in range(n) if l != a)
        scalars.append(f"1/(sqrt(c{a+1})*{prod})")
    params = {f"c{i+1}": complex(c) for i, c in enumerate(c_consts)}
    return fields_from_gradients(scalars, eps=(-1,) * n, params=params)


def field_rank(nb: NormalBundleData, point, n: int, threshold: float = 1e-8) -> int:
    """Numerical rank of the matrix whose columns are the field values."""
    return rank_of(nb.at(point, n)[0], threshold)


def rank_of(xs: np.ndarray, threshold: float = 1e-8) -> int:
    if np.max(np.abs(xs)) == 0:
        return 0
    svals = np.linalg.svd(xs.T, compute_uv=False)
    return int(np.sum(svals > threshold * svals.max()))


def _raised_riemann(st: StructureAt, lc: ConnectionAt):
    """R2[i,j,k,h] = g^is R^j_skh for the Levi-Civita curvature of g."""
    r = riemann_components(lc.gamma, lc.dgamma)
    ginv, _ = inverse_jets(st.g, st.dg)
    return np.einsum("is,jskh->ijkh", ginv, r)


# ---------------------------------------------------------------------------
# checks: a per-point residual of the point's structure, connection and
# field values, returning the normalized residual and its scale, and the
# check over a point set


def quadratic_expansion_at(st: StructureAt, lc: ConnectionAt, eps, xs):
    """Raised curvature equals the signed quadratic expression in the
    spanning fields through the product."""
    r2 = _raised_riemann(st, lc)
    rhs = np.zeros_like(r2)
    for a, x in enumerate(xs):
        term = (np.einsum("jkl,ihm,l,m->ijkh", st.c, st.c, x, x)
                - np.einsum("ikl,jhm,l,m->ijkh", st.c, st.c, x, x))
        rhs = rhs + eps[a] * term
    sc = max(float(np.max(np.abs(r2))), float(np.max(np.abs(rhs))), 1e-30)
    return normalized(np.max(np.abs(r2 - rhs)), sc), sc


def _with_fields(spec: ManifoldSpec, nb: NormalBundleData, points, params):
    """Structure and spanning-field values and derivatives, point by point;
    the field table runs once over the points after the first structure."""
    fields = None
    for st in structures(spec, points, params):
        if fields is None:
            fields = nb.along(points, st.n)
        yield (st,) + next(fields)


def check_quadratic_expansion(spec: ManifoldSpec, nb: NormalBundleData, points,
                              tol: float = DEFAULT_TOL, params=None) -> Report:
    return point_report("quadratic-expansion",
                        [quadratic_expansion_at(st, levi_civita(st), nb.eps, xs)
                         for st, xs, _ in _with_fields(spec, nb, points, params)], tol)


def sym_condition_at(st: StructureAt, nat: ConnectionAt, xs, dxs):
    """c^i_jl nabla_k X^l = c^i_kl nabla_j X^l with the flat structure
    connection, for every spanning field."""
    per_field = []
    for x, dx in zip(xs, dxs):
        nab = dx + np.einsum("lks,s->lk", nat.gamma, x)  # nab[l,k]
        res = np.einsum("ijl,lk->ijk", st.c, nab) - np.einsum("ikl,lj->ijk", st.c, nab)
        sc = float(np.max(np.abs(st.c))) * (1 + float(np.max(np.abs(nab))))
        per_field.append((normalized(np.max(np.abs(res)), sc), sc))
    return worst(r for r, _ in per_field), worst(s for _, s in per_field)


def check_sym_condition(spec: ManifoldSpec, nb: NormalBundleData, points,
                        tol: float = DEFAULT_TOL, params=None) -> Report:
    return point_report("sym-condition",
                        [sym_condition_at(st, natural_connection(st), xs, dxs)
                         for st, xs, dxs in _with_fields(spec, nb, points, params)], tol)


def _affinors(st: StructureAt, xs, dxs):
    ws = np.einsum("ijs,as->aij", st.c, xs)
    dws = (np.einsum("ijsk,as->aijk", st.dc, xs)
           + np.einsum("ijs,ask->aijk", st.c, dxs))
    return ws, dws


def gmc_at(st: StructureAt, lc: ConnectionAt, eps, xs, dxs):
    """The four structural equations for the affinors W_a = (X_a o) at a
    point: returns (residual, scale, {"gmc0".."gmc3": residual})."""
    r2 = _raised_riemann(st, lc)
    gamma_lc = lc.gamma
    ws, dws = _affinors(st, xs, dxs)
    count = len(xs)
    w_top = float(np.max(np.abs(ws))) if ws.size else 0.0
    sc = max(w_top ** 2, float(np.max(np.abs(r2))), 1e-30)
    rhs = np.zeros_like(r2)
    for a in range(count):
        w = ws[a]
        rhs = rhs + eps[a] * (np.einsum("jk,ih->ijkh", w, w) - np.einsum("ik,jh->ijkh", w, w))
    sub = {"gmc0": [normalized(np.max(np.abs(r2 - rhs)), sc)], "gmc1": [], "gmc2": [], "gmc3": []}
    for a in range(count):
        for b in range(a + 1, count):
            comm = ws[a] @ ws[b] - ws[b] @ ws[a]
            sub["gmc1"].append(normalized(np.max(np.abs(comm)), sc))
        gw = st.g @ ws[a]
        sub["gmc2"].append(normalized(np.max(np.abs(gw - gw.T)), float(np.max(np.abs(gw)))))
        # nabla~_k W^i_j, Codazzi-symmetric in (k, j)
        nab = (np.einsum("ijk->kij", dws[a])
               + np.einsum("iks,sj->kij", gamma_lc, ws[a])
               - np.einsum("skj,is->kij", gamma_lc, ws[a]))
        res3 = nab - np.einsum("kij->jik", nab)
        sub["gmc3"].append(normalized(np.max(np.abs(res3)),
                                      float(np.max(np.abs(ws[a]))) * (1 + float(np.max(np.abs(gamma_lc))))))
    sub = {k: worst(v) for k, v in sub.items()}
    return worst(sub.values()), sc, sub


def gmc_report(name: str, per_point, tol: float) -> Report:
    return point_report(name, per_point, tol, details=worst_parts(per_point))


def check_gmc(spec: ManifoldSpec, nb: NormalBundleData, points,
              tol: float = DEFAULT_TOL, params=None) -> Report:
    """The four structural equations for the affinors W_a = (X_a o):
    curvature expansion, pairwise commutation, g-symmetry, and the
    Codazzi symmetry of the Levi-Civita derivative."""
    return gmc_report("gmc", [gmc_at(st, levi_civita(st), nb.eps, xs, dxs)
                              for st, xs, dxs in _with_fields(spec, nb, points, params)], tol)


def emit_operator(spec: ManifoldSpec, nb: NormalBundleData, point,
                  params=None, tol: float = DEFAULT_TOL) -> dict:
    """Coefficient blocks of the nonlocal first-order operator at a point:
    leading contravariant-metric block, the Christoffel convection block
    C[i,j,k] (coefficient of the k-th coordinate derivative in entry (i,j)),
    and one tail per spanning field.  Requires the affinor equations to
    hold at the point."""
    st = structure_at(spec, point, params)
    lc = levi_civita(st)
    xs, dxs = nb.at(st.point, st.n)
    gmc = gmc_report("gmc", [gmc_at(st, lc, nb.eps, xs, dxs)], tol)
    if not gmc.passed:
        raise GmcFailedError(f"affinor equations fail at {point}: residual {gmc.residual:.3e}")
    ginv, _ = inverse_jets(st.g, st.dg)
    conv = -np.einsum("is,jsk->ijk", ginv, lc.gamma)
    ws, _ = _affinors(st, xs, dxs)
    tails = [{"epsilon": int(nb.eps[a].real) if isinstance(nb.eps[a], complex) else int(nb.eps[a]),
              "W_matrix": _cseq(ws[a])} for a in range(nb.count)]
    return {"metric_term": _cseq(ginv), "christoffel_term": _cseq(conv), "tails": tails}


def _cseq(arr: np.ndarray):
    """Nested lists of [re, im] pairs, JSON-ready."""
    if arr.ndim == 0:
        v = complex(arr)
        return [v.real, v.imag]
    return [_cseq(a) for a in arr]
