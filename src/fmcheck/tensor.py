"""Array helpers shared by the checks: the package's one contraction path
(`contract`), characteristic polynomials and eigenvalues, merging of
near-equal roots, and Lie derivatives of component arrays.

Index-order conventions used package-wide (derivative axes always last).
Over a batch of P sample points every array carries one more, leading
point axis, shape (P, ...), ahead of these indices.  The functions that
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

from functools import reduce
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


_PLANS: dict = {}
_MATMUL_MIN = 8  # below this many free*summed*free entries per point, einsum is faster


def _plan(subscripts: str, ndims: tuple):
    """The pairwise steps of `contract` and its final axis order.  Each
    step takes the two live operands that sum an index into the fewest
    indices, as an einsum and, where they only sum and carry free indices,
    as a matmul: its index count and the operands' axis orders [batch,
    free, summed] and [batch, summed, free]."""
    inputs, output = subscripts.replace("...", "").split("->")
    live = [(term, nd - len(term)) for term, nd in zip(inputs.split(","), ndims)]
    steps = []
    while len(live) > 1:
        choices = []
        for i, j in ((i, j) for i in range(len(live)) for j in range(i + 1, len(live))):
            a, b = live[i][0], live[j][0]
            keep = output + "".join(t for k, (t, _) in enumerate(live) if k not in (i, j))
            summed = "".join(x for x in a if x in b and x not in keep)
            result = "".join(dict.fromkeys(x for x in a + b if x in keep))
            choices.append((not summed, len(result), i, j, summed, result))
        _, _, i, j, summed, result = min(choices)
        (a, nba), (b, nbb) = live[i], live[j]
        free_a, free_b = "".join(x for x in a if x not in b), "".join(x for x in b if x not in a)
        matmul = summed and result == free_a + free_b and (
            len(free_a + summed + free_b), nba, nbb, len(free_a), len(summed),
            (*range(nba), *(nba + a.index(x) for x in free_a + summed)),
            (*range(nbb), *(nbb + b.index(x) for x in summed + free_b)))
        steps.append((i, j, f"...{a},...{b}->...{result}", matmul))
        live = [t for k, t in enumerate(live) if k not in (i, j)] + [(result, max(nba, nbb))]
    term, nb = live[0]
    return steps, None if term == output else (*range(nb), *(nb + term.index(x) for x in output))


def contract(subscripts: str, *operands) -> np.ndarray:
    """`np.einsum(subscripts, *operands)` for explicit `...` subscripts,
    one pair at a time: each pair that sums an index and shares no free one
    is one batched `np.matmul` (transpose, reshape, matmul, reshape) unless
    it is small per point, the rest are einsums.  The plan is cached per
    subscripts and operand dimensions; the operands may differ in their
    leading (broadcast) axes, or have none."""
    key = (subscripts, *[op.ndim for op in operands])
    plan = _PLANS.get(key) or _PLANS.setdefault(key, _plan(subscripts, key[1:]))
    live = list(operands)
    for i, j, spec, matmul in plan[0]:
        b, a = live.pop(j), live.pop(i)
        # every index of the package runs over n, the size of a last axis
        if not matmul or a.shape[-1] ** matmul[0] < _MATMUL_MIN:
            live.append(np.einsum(spec, a, b))
            continue
        _, nba, nbb, na, ns, perm_a, perm_b = matmul
        a, b = a.transpose(perm_a), b.transpose(perm_b)
        free_a, summed, free_b = a.shape[nba:nba + na], a.shape[nba + na:], b.shape[nbb + ns:]
        out = np.matmul(a.reshape(a.shape[:nba] + (prod(free_a), prod(summed))),
                        b.reshape(b.shape[:nbb] + (prod(summed), prod(free_b))))
        live.append(out.reshape(out.shape[:-2] + free_a + free_b))
    return live[0] if plan[1] is None else live[0].transpose(plan[1])


def contract_jets(subscripts: str, *factors) -> list:
    """The contraction `subscripts` of factors given as jets (value, first
    derivatives[, second derivatives], derivative axes last) with its
    derivatives by the Leibniz rule, up to the order of the shortest jet."""
    inputs, output = subscripts.split("->")
    terms, count = inputs.split(","), len(factors)
    p, q = [x for x in "abcdefghijklmnopqrstuvwxyz" if x not in subscripts][:2]

    def part(marks):  # marks[k]: the derivative indices on factor k
        return contract(",".join(t + m for t, m in zip(terms, marks)) + "->" + output
                        + "".join(sorted("".join(marks))),
                        *(f[len(m)] for f, m in zip(factors, marks)))

    at = range(count)
    marks = ([[""] * count], [[p * (k == i) for k in at] for i in at],
             [[p * (k == i) + q * (k == j) for k in at] for i in at for j in at])
    return [reduce(add, map(part, m)) for m in marks[:min(map(len, factors))]]


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
