"""Flat-normal-bundle structure: quadratic curvature expansion, the
symmetry condition on the spanning fields, the Gauss-Codazzi-type equations
for the induced affinors, and structured emission of the associated
nonlocal first-order operator.

The operator is emitted as data (coefficient blocks at a point), never
applied: the verification here is pointwise tensor algebra.
"""

from __future__ import annotations

import numpy as np

from .connection import ConnectionAt
from .manifold import (DEFAULT_TOL, Jets, ManifoldSpec, Report, Residuals, StructureAt, amax,
                       normalized, pmax, point_walk, table_jets, walk_row)
from .spec import NormalBundleData, fields_from_exprs, fields_from_gradients
from .tensor import antisym, contract, contract_jets, finite_matrices

__all__ = [
    "NormalBundleData", "GmcFailedError", "fields_from_exprs",
    "fields_from_gradients", "spanning_fields",
    "check_quadratic_expansion", "check_sym_condition", "check_gmc",
    "field_rank", "emit_operator",
]


class GmcFailedError(Exception):
    pass


def spanning_fields(nb: NormalBundleData, points, n: int, env) -> Jets:
    """The field values xs[a, i] (`val`) and derivatives dxs[a, i, k] =
    d_k X_a^i (`grad`) at all of `points` in `env`, as one batch from one
    run of the table; the first point where it is singular raises the
    domain error."""
    points = np.asarray(points).reshape(-1, n)
    if not nb.exprs:
        return Jets(np.zeros((len(points), 0, n)), np.zeros((len(points), 0, n, n)))
    jets = table_jets(nb.exprs, points, env, order=2 if nb.gradients else 1)
    if nb.gradients:
        return Jets(jets.grad, jets.hess)
    return Jets(jets.val, jets.grad)


def field_rank(nb: NormalBundleData, point, env) -> int:
    """Numerical rank of the matrix whose columns are the field values at
    `point` in `env`."""
    return int(rank_of(spanning_fields(nb, [point], len(point), env).at(0).val))


def rank_of(xs: np.ndarray):
    """The numerical rank of the matrix of field values xs[a, i], at a
    point or at each point of a batch: the number of singular values above
    1e-8 times the largest; NaN where they are not finite."""
    xs, finite = finite_matrices(xs)
    svals = np.linalg.svd(np.swapaxes(xs, -2, -1), compute_uv=False)
    rank = np.sum(svals > 1e-8 * svals.max(axis=-1, keepdims=True), axis=-1)
    return np.where(finite, rank, np.nan)


def _raised_riemann(lc: ConnectionAt, ginv):
    """R2[i,j,k,h] = g^is R^j_skh for the curvature of `lc`, the
    Levi-Civita connection of g, and `ginv`, the inverse of g."""
    return contract("...is,...jskh->...ijkh", ginv, lc.curvature)


def _over_fields(values, like):
    """A part's `values` at each point for each spanning field (or pair of
    fields), on a trailing axis; `like` has the shape of the batch."""
    return np.stack(values, axis=-1) if values else np.zeros(np.shape(like) + (0,))


# ---------------------------------------------------------------------------
# checks: the residual parts and scale at each point of the structure, its
# connection and the field values (one point, or a batch with its fields
# from `spanning_fields`), and the check over a point set: the walk's row
# of that name (`walk_row`)


def _expansion(ws, eps, like):
    """sum_a eps_a (W_a^j_k W_a^i_h - W_a^i_k W_a^j_h), indexed [i,j,k,h],
    for the affinors ws[a] (`like`: an array of the result's shape)."""
    rhs = np.zeros_like(like)
    for a, w in enumerate(np.moveaxis(ws, -3, 0)):
        rhs = rhs + eps[a] * (w[..., None, :, :, None] * w[..., :, None, None, :]
                              - w[..., :, None, :, None] * w[..., None, :, None, :])
    return rhs


def quadratic_expansion_at(st: StructureAt, lc: ConnectionAt, eps, xs, ginv):
    """Raised curvature equals the signed quadratic expression in the
    spanning fields through the product; `ginv`: the inverse of g."""
    r2 = _raised_riemann(lc, ginv)
    rhs = _expansion(contract("...ijs,...as->...aij", st.c, xs), eps, r2)
    sc = pmax(amax(r2, 4), amax(rhs, 4), 1e-30)
    return Residuals({"expansion": normalized(amax(r2 - rhs, 4), sc)}, sc)


def check_quadratic_expansion(spec: ManifoldSpec, nb: NormalBundleData, points,
                              tol: float = DEFAULT_TOL) -> Report:
    return walk_row("quadratic-expansion", spec, {"normal_bundle": nb}, points, tol)


def sym_condition_at(st: StructureAt, nat: ConnectionAt, xs, dxs):
    """c^i_jl nabla_k X^l = c^i_kl nabla_j X^l with the flat structure
    connection, for every spanning field."""
    c_top = amax(st.c, 3)
    residuals, scales = [], []
    for a in range(xs.shape[-2]):
        nab = dxs[..., a, :, :] + contract("...lks,...s->...lk", nat.gamma, xs[..., a, :])
        res = antisym(contract("...ijl,...lk->...ijk", st.c, nab))
        sc = c_top * (1 + amax(nab, 2))
        residuals.append(normalized(amax(res, 3), sc))
        scales.append(sc)
    return Residuals({"symmetry": _over_fields(residuals, c_top)},
                     pmax(np.zeros(np.shape(c_top)), *scales))


def check_sym_condition(spec: ManifoldSpec, nb: NormalBundleData, points,
                        tol: float = DEFAULT_TOL) -> Report:
    return walk_row("sym-condition", spec, {"normal_bundle": nb}, points, tol)


def _affinors(st: StructureAt, xs, dxs):
    return contract_jets("...ijs,...as->...aij", (st.c, st.dc), (xs, dxs))


def gmc_at(st: StructureAt, lc: ConnectionAt, eps, xs, dxs, ginv):
    """The four structural equations for the affinors W_a = (X_a o), the
    parts "gmc0".."gmc3", which the report shows; `ginv`: the inverse of
    g."""
    r2 = _raised_riemann(lc, ginv)
    gamma_lc = lc.gamma
    ws, dws = _affinors(st, xs, dxs)
    count = xs.shape[-2]
    r2_top = amax(r2, 4)
    w_top = amax(ws, 3) if count else np.zeros(np.shape(r2_top))
    sc = pmax(w_top ** 2, r2_top, 1e-30)
    rhs = _expansion(ws, eps, r2)
    sub = {"gmc1": [], "gmc2": [], "gmc3": []}
    for a in range(count):
        w = ws[..., a, :, :]
        for b in range(a + 1, count):
            comm = w @ ws[..., b, :, :] - ws[..., b, :, :] @ w
            sub["gmc1"].append(normalized(amax(comm, 2), sc))
        gw = st.g @ w
        sub["gmc2"].append(normalized(amax(antisym(gw), 2), amax(gw, 2)))
        # nabla~_k W^i_j, Codazzi-symmetric in (k, j)
        nab = (contract("...ijk->...kij", dws[..., a, :, :, :])
               + contract("...iks,...sj->...kij", gamma_lc, w)
               - contract("...skj,...is->...kij", gamma_lc, w))
        res3 = antisym(nab, -3, -1)
        sub["gmc3"].append(normalized(amax(res3, 3), amax(w, 2) * (1 + amax(gamma_lc, 3))))
    return Residuals({"gmc0": normalized(amax(r2 - rhs, 4), sc),
                      **{k: _over_fields(v, r2_top) for k, v in sub.items()}}, sc, show_parts=True)


def check_gmc(spec: ManifoldSpec, nb: NormalBundleData, points,
              tol: float = DEFAULT_TOL) -> Report:
    """The four structural equations for the affinors W_a = (X_a o):
    curvature expansion, pairwise commutation, g-symmetry, and the
    Codazzi symmetry of the Levi-Civita derivative."""
    return walk_row("gmc", spec, {"normal_bundle": nb}, points, tol)


def emit_operator(spec: ManifoldSpec, nb: NormalBundleData, point) -> dict:
    """Coefficient blocks of the nonlocal first-order operator at a point:
    leading contravariant-metric block, the Christoffel convection block
    C[i,j,k] (coefficient of the k-th coordinate derivative in entry (i,j)),
    and one tail per spanning field.  Requires the affinor equations (the
    walk's row "gmc") to hold at the point, at the default tolerance."""
    walk = point_walk(spec, {"normal_bundle": nb}, point)
    gmc = walk.report("gmc")
    if not gmc.passed:
        raise GmcFailedError(f"affinor equations fail at {point}: residual {gmc.residual:.3e}")
    ginv = walk.ginv.val[0]
    conv = -np.einsum("is,jsk->ijk", ginv, walk.lc.gamma[0])
    ws = _affinors(walk.st, walk.fields.val, walk.fields.grad)[0][0]
    tails = [{"epsilon": int(nb.eps[a].real) if isinstance(nb.eps[a], complex) else int(nb.eps[a]),
              "W_matrix": _cseq(ws[a])} for a in range(nb.count)]
    return {"metric_term": _cseq(ginv), "christoffel_term": _cseq(conv), "tails": tails}


def _cseq(arr: np.ndarray):
    """Nested lists of [re, im] pairs, JSON-ready."""
    if arr.ndim == 0:
        v = complex(arr)
        return [v.real, v.imag]
    return [_cseq(a) for a in arr]
