"""Array helpers shared by the checks: the package's one contraction path
(`contract`), characteristic polynomials and eigenvalues, merging of
near-equal roots, and Lie derivatives of component arrays.

Index-order conventions used package-wide (derivative axes always last).
Over a batch of P sample points every array carries one more, leading
point axis, shape (P, ...), or (1, ...) where it is the same at every point,
ahead of these indices.  The functions that
take such arrays contract and reduce only the indices below (`contract`
with `...` subscripts), so a single point is a batch whose leading axis
is empty.  They take float64 or complex128 arrays alike: real data stays
real, and numpy promotes where a real array meets a complex one.

    product        c[i,j,k]        = c^i_jk,    dc[i,j,k,m]   = d_m c^i_jk
    metric         g[i,j],         dg[i,j,k]   = d_k g_ij,    ddg[i,j,k,l]
    vector field   e[i],           de[i,j]     = d_j e^i,     dde[i,j,k]
    christoffels   gamma[i,j,k]    = Gamma^i_jk, dgamma[i,j,k,m]
    curvature      r[h,i,k,j]      = R^h_ikj
                   = d_k Gamma^h_ij - d_j Gamma^h_ik
                     + Gamma^s_ij Gamma^h_ks - Gamma^s_ik Gamma^h_js
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from math import prod
from operator import add
from typing import Sequence

import numpy as np

__all__ = [
    "SingularMatrixError", "contract", "contract_jets", "antisym", "eigenvalues",
    "charpoly_coefficients", "merge_close", "lie_from_components",
]

UP = "u"


class SingularMatrixError(Exception):
    def __init__(self, det: complex):
        super().__init__(f"matrix is numerically singular (|det| = {abs(det):.3e})")
        self.det = det


_PLANS: dict = {}  # subscripts -> (its terms' ranks, {operands' (batch rank, index shape): plan})
_MATMUL_MIN = 8  # below this many free*summed*free entries per point, einsum is faster


def _plan(subscripts: str, key: tuple):
    """The pairwise steps of `contract`, and its final axis order, for operands
    of the batch ranks and index shapes `key`.  Each step takes the two live
    operands that sum an index into the fewest indices: as a matmul of their
    axes [batch, free, summed] and [batch, summed, free] as matrices where they
    only sum and carry free indices and hold `_MATMUL_MIN` entries per point
    (a transpose or reshape that changes nothing left out), else as an einsum."""
    inputs, output = subscripts.replace("...", "").split("->")
    size, live = {}, []
    for term, (nb, shape) in zip(inputs.split(","), key):
        size.update(zip(term, shape))
        live.append((term, nb))
    steps = []
    while len(live) > 1:
        choices = []
        for i, j in combinations(range(len(live)), 2):
            a, b = live[i][0], live[j][0]
            keep = output + "".join([t for k, (t, _) in enumerate(live) if k != i and k != j])
            summed = "".join([x for x in a if x in b and x not in keep])
            result = "".join(dict.fromkeys([x for x in a + b if x in keep]))
            choices.append((not summed, len(result), i, j, summed, result))
        _, _, i, j, summed, result = min(choices)
        (a, nba), (b, nbb) = live[i], live[j]
        free_a = "".join([x for x in a if x not in b])
        free_b = "".join([x for x in b if x not in a])
        rows, inner, cols = (prod([size[x] for x in free_a]), prod([size[x] for x in summed]),
                             prod([size[x] for x in free_b]))
        order_a, order_b = free_a + summed, summed + free_b
        matmul = summed and result == free_a + free_b and rows * inner * cols >= _MATMUL_MIN and (
            order_a != a and (*range(nba), *[nba + a.index(x) for x in order_a]),
            order_b != b and (*range(nbb), *[nbb + b.index(x) for x in order_b]),
            nba, nbb, (len(free_a), len(summed)) != (1, 1) and (rows, inner),
            (len(summed), len(free_b)) != (1, 1) and (inner, cols),
            (len(free_a), len(free_b)) != (1, 1) and (*[size[x] for x in result],))
        steps.append((i, j, f"...{a},...{b}->...{result}", matmul))
        live = [t for k, t in enumerate(live) if k != i and k != j] + [(result, max(nba, nbb))]
    term, nb = live[0]
    return steps, None if term == output else (*range(nb), *[nb + term.index(x) for x in output])


def contract(subscripts: str, *operands) -> np.ndarray:
    """`np.einsum(subscripts, *operands)` for explicit `...` subscripts, one
    pair at a time, each a batched `np.matmul` or an einsum, planned once per
    subscripts and operands' batch ranks and index shapes (`_plan`: their axes
    after the leading, broadcast ones, of any sizes), whatever the point count."""
    ranks, plans = _PLANS.get(subscripts) or _PLANS.setdefault(subscripts, (
        [len(t) for t in subscripts.replace("...", "").split("->")[0].split(",")], {}))
    key = (*[(op.ndim - r, op.shape[op.ndim - r:]) for op, r in zip(operands, ranks)],)
    steps, final = plans.get(key) or plans.setdefault(key, _plan(subscripts, key))
    live = list(operands)
    for i, j, spec, matmul in steps:
        b, a = live.pop(j), live.pop(i)
        if not matmul:
            live.append(np.einsum(spec, a, b))
            continue
        perm_a, perm_b, nba, nbb, shape_a, shape_b, shape = matmul
        a, b = a.transpose(perm_a) if perm_a else a, b.transpose(perm_b) if perm_b else b
        out = np.matmul(a.reshape(a.shape[:nba] + shape_a) if shape_a else a,
                        b.reshape(b.shape[:nbb] + shape_b) if shape_b else b)
        live.append(out.reshape(out.shape[:-2] + shape) if shape else out)
    return live[0] if final is None else live[0].transpose(final)


@cache
def _leibniz(subscripts: str, count: int, order: int) -> list:
    """The Leibniz terms of `contract_jets` for `count` factors up to `order`:
    per order, each term's subscripts and the order it takes of each factor."""
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    p, q = [x for x in "abcdefghijklmnopqrstuvwxyz" if x not in subscripts][:2]

    def term(marks):  # marks[k]: the derivative indices on factor k
        return (",".join(t + m for t, m in zip(terms, marks)) + "->" + output
                + "".join(sorted("".join(marks))), tuple(map(len, marks)))

    at = range(count)
    marks = ([[""] * count], [[p * (k == i) for k in at] for i in at],
             [[p * (k == i) + q * (k == j) for k in at] for i in at for j in at])
    return [[term(m) for m in ms] for ms in marks[:order + 1]]


def contract_jets(subscripts: str, *factors) -> list:
    """The contraction `subscripts` of factors given as jets (value, first
    derivatives[, second derivatives], derivative axes last) with its
    derivatives by the Leibniz rule, up to the order of the shortest jet:
    each order its terms (`_leibniz`) added left to right."""
    terms = _leibniz(subscripts, len(factors), min(map(len, factors)) - 1)
    return [reduce(add, (contract(sub, *(f[k] for f, k in zip(factors, ks))) for sub, ks in ts))
            for ts in terms]


def antisym(t: np.ndarray, a: int = -2, b: int = -1) -> np.ndarray:
    """`t` minus `t` with the axes `a` and `b` swapped."""
    return t - np.swapaxes(t, a, b)


def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda*I - M) by the Faddeev-LeVerrier recursion,
    highest degree first, of a matrix or of each matrix of a batch."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    coeffs = np.zeros(m.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    aux = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = m @ aux
        coeffs[..., k] = -np.trace(aux, axis1=-2, axis2=-1) / k
        aux = aux + coeffs[..., k, None, None] * np.eye(n, dtype=complex)
    return coeffs


def finite_matrices(a: np.ndarray):
    """`a` with each matrix that is not finite replaced by the identity,
    and the mask of the finite ones: LAPACK's eigenvalue and SVD solvers
    reject a batch that holds a NaN, so the caller marks those results."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    return np.where(finite[..., None, None], a, np.eye(a.shape[-1])), finite


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Roots of the characteristic polynomial (eigenvalues of its companion
    matrix, as `np.roots` finds them) sorted by real, then imaginary part,
    of a matrix or of each of a batch; NaN for a matrix that is not finite."""
    data, finite = finite_matrices(np.asarray(m, dtype=complex))
    n = data.shape[-1]
    companion = np.zeros(data.shape, dtype=complex)
    companion[..., 0, :] = -charpoly_coefficients(data)[..., 1:]
    companion[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    vals = np.where(finite[..., None], np.linalg.eigvals(companion), np.nan)
    return np.take_along_axis(vals, np.lexsort((vals.imag, vals.real), axis=-1), -1)


def merge_close(values: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Sorted roots (as `eigenvalues` gives them) with each run of
    neighbours within `tol` of each other replaced by the run's mean, along
    the last axis: a split multiple root is only sqrt(eps)-accurate per
    root but eps-accurate in the mean."""
    v = np.asarray(values)
    run = np.cumsum(np.abs(np.diff(v, axis=-1, prepend=v[..., :1])) > tol, axis=-1)
    same = run[..., :, None] == run[..., None, :]
    return np.sum(np.where(same, v[..., None, :], 0), axis=-1) / np.sum(same, axis=-1)


def lie_from_components(values: np.ndarray, derivs: np.ndarray,
                        signature: Sequence[str],
                        x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Lie derivative along X of a tensor of rank <= 3 with any signature,
    at one point or at each point of a leading point axis.

    `derivs[..., k] = d_k T[...]`, `dx[..., i, k] = d_k X^i`.
    """
    idx = "abc"[:len(signature)]
    out = contract(f"...{idx}k,...k->...{idx}", derivs, x)
    for axis, var in enumerate(signature):
        summed = idx[:axis] + "s" + idx[axis + 1:]
        pair = idx[axis] + "s" if var == UP else "s" + idx[axis]
        term = contract(f"...{summed},...{pair}->...{idx}", values, dx)
        out = out - term if var == UP else out + term
    return out
