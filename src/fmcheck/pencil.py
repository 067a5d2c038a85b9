"""Flat pencils of metrics: flatness, exactness, homogeneity, the difference
tensor of the two Levi-Civita connections, the recursion operator built
from it, and the reconstruction of a product structure from the pencil
data, whose structure `catalog`'s theorem rows check as `reconstructed/<row>`.

Spec slot convention: `spec.g` holds the covariant first metric (the one the
unit field preserves) and `spec.g2` the covariant second metric.  The pencil
itself lives on the contravariant side; contravariant jets are produced from
the covariant expression tables by matrix-inverse jets, never by inverting
expressions symbolically.  The pencil data (`pencil_data`) take the first
metric's inverse jets and Levi-Civita connection from the walk's batches.
The single-point helpers (`pencil_at`, `delta_tensor`, ...) are batches of
one of the walk (`point_walk`), and their reports are its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .connection import (ConnectionAt, InverseJets, christoffel_jets, inverse_hessian,
                         inverse_jets)
from .manifold import (DEFAULT_TOL, ManifoldSpec, MissingFieldError, PointBatch, Report,
                       Residuals, StructureAt, amax, fail_at, fit_scalar, normalized, pmax,
                       point_walk, product_jets, walk_row)
from .tensor import (SingularMatrixError, antisym, contract, contract_jets, finite_matrices,
                     lie_from_components)

__all__ = [
    "PencilAt", "MissingSecondMetricError", "pencil_at", "pencil_data", "pencil_weight",
    "delta_jets",
    "check_flat_pencil", "check_exactness", "check_pencil_homogeneity", "PencilProduct",
    "delta_tensor", "delta_identities_at", "r_operator", "r_operator_at", "product_from_pencil",
    "product_from_pencil_at", "reconstructed_structure",
]


class MissingSecondMetricError(MissingFieldError):
    """The spec has no second metric, which every pencil datum needs."""


@dataclass
class PencilAt(PointBatch):
    """Everything the pencil constructions need at one point, or at each
    point of a batch (`pencil_data`)."""
    n: int
    point: np.ndarray
    st: StructureAt                 # carries jets of both covariant metrics and e
    eta_inv: np.ndarray
    deta_inv: np.ndarray
    g_inv: np.ndarray
    dg_inv: np.ndarray
    ddg_inv: np.ndarray
    L: np.ndarray                   # L^s_h = g^sm eta_mh
    dL: np.ndarray
    E: np.ndarray                   # E^i = g^il eta_lj e^j
    dE: np.ndarray
    ddE: np.ndarray
    gamma1: np.ndarray              # Levi-Civita of the first metric
    dgamma1: np.ndarray
    gamma2: np.ndarray              # Levi-Civita of the second metric
    dgamma2: np.ndarray
    diagonal: np.ndarray            # whether both metrics are diagonal


def pencil_at(spec: ManifoldSpec, point) -> PencilAt:
    return point_walk(spec, {}, point).pa.at(0)


def pencil_data(st: StructureAt, inverse: InverseJets, lc: ConnectionAt) -> PencilAt:
    """The pencil data: both inverse metrics, L and E to second order, and
    the Christoffel jets of both metrics, the first metric's from its
    `metric_inverse` `inverse` and Levi-Civita connection `lc`.  A point
    where the second metric is singular raises."""
    if st.g2 is None:
        raise MissingSecondMetricError("spec has no second metric")
    g_inv, dg_inv = inverse_jets(st.g2, st.dg2)
    ddg_inv = inverse_hessian(g_inv, st.dg2, st.ddg2)
    gamma2, dgamma2 = christoffel_jets(st.g2, st.dg2, st.ddg2, (g_inv, dg_inv))
    L, dL, ddL = contract_jets("...il,...lj->...ij", (g_inv, dg_inv, ddg_inv),
                               (st.g, st.dg, st.ddg))
    E, dE, ddE = contract_jets("...ij,...j->...i", (L, dL, ddL), (st.e, st.de, st.dde))
    return PencilAt(st.n, st.point, st, inverse.inv, inverse.dinv, g_inv, dg_inv, ddg_inv,
                    L, dL, E, dE, ddE, lc.gamma, lc.dgamma, gamma2, dgamma2, _is_diagonal(st))


def _contravariant_christoffels(inverse, gamma):
    """C^ij_k = -g^is Gamma^j_sk, [i, j, k], with first derivatives, from
    the jets `inverse` = (g^-1, d g^-1) and `gamma` = (Gamma, d Gamma)."""
    return contract_jets("...is,...jsk->...ijk", [-t for t in inverse], gamma)


def _contravariant_curvature(g, c, cb, dcb):
    """R^ijk_l = g^is (d_s C^jk_l - d_l C^jk_s) - C^ij_s C^sk_l + C^ik_s C^sj_l,
    [i, j, k, l], of g^-1 `g` and symbols `c` against the symbols `cb`, `dcb`."""
    return (contract("...is,...jkls->...ijkl", g, antisym(dcb))
            - antisym(contract("...ijs,...skl->...ijkl", c, cb), -3, -2))


def flat_pencil_at(pa: PencilAt):
    """The pencil g2 - lambda g1 is flat for every lambda if and only if
    four tensors of the metrics' contravariant symbols C1, C2 vanish
    (Dubrovin, arXiv:math/9803106, section 1): the "mixed-torsion" g1^is
    C2^jk_s + g2^is C1^jk_s - (i <-> j), and the coefficients of a member's
    curvature R2 - lambda M + lambda^2 R1, "curvature-2", "curvature-1" and
    "mixed-curvature" M.  No member is inverted.  Each part is taken in
    units of the |g_a| = max|g_a^ij| it is homogeneous in and normalized as
    in `flatness_at`, with |C_a|/|g_a| as |Gamma| and |dC_a|/|g_a| as |dGamma|."""
    g = np.stack((pa.eta_inv, pa.g_inv), -3)  # g1 at 0 and g2 at 1 after the point axis
    c, dc = _contravariant_christoffels(
        (g, np.stack((pa.deta_inv, pa.dg_inv), -4)),
        (np.stack((pa.gamma1, pa.gamma2), -4), np.stack((pa.dgamma1, pa.dgamma2), -5)))
    # the mixed parts: each metric against the other's symbols, the two summed
    other, dother = c[..., ::-1, :, :, :], dc[..., ::-1, :, :, :, :]
    torsion = antisym(contract("...is,...jks->...ijk", g, other).sum(-4), -3, -2)
    mixed = _contravariant_curvature(g, c, other, dother).sum(-5)
    own = _contravariant_curvature(g, c, c, dc)
    m = amax(g, 2)
    (m1, m2), (k1, k2), (dk1, dk2) = (np.moveaxis(t, -1, 0)
                                      for t in (m, amax(c, 3) / m, amax(dc, 4) / m))
    parts = {"mixed-torsion": (amax(torsion, 3) / (m1 * m2), pmax(k1, k2)),
             "curvature-2": (amax(own[..., 1, :, :, :, :], 4) / (m2 * m2), pmax(dk2, k2 * k2)),
             "curvature-1": (amax(own[..., 0, :, :, :, :], 4) / (m1 * m1), pmax(dk1, k1 * k1)),
             "mixed-curvature": (amax(mixed, 4) / (m1 * m2), pmax(dk1, dk2, k1 * k2))}
    return Residuals({key: normalized(*part) for key, part in parts.items()},
                     pmax(*(scale for _, scale in parts.values())), show_parts=True)


def check_flat_pencil(spec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("flat-pencil", spec, {}, points, tol)


def exactness_at(pa: PencilAt):
    """Unit-field Lie derivatives on the contravariant side: the second
    metric flows to the first, the first is preserved."""
    st = pa.st
    lie_g2 = lie_from_components(pa.g_inv, pa.dg_inv, ("u", "u"), st.e, st.de)
    lie_g1 = lie_from_components(pa.eta_inv, pa.deta_inv, ("u", "u"), st.e, st.de)
    sc = pmax(amax(pa.eta_inv, 2), amax(pa.g_inv, 2))
    return Residuals({"second-flows": normalized(amax(lie_g2 - pa.eta_inv, 2), sc),
                      "first-kept": normalized(amax(lie_g1, 2), sc)}, sc)


def check_exactness(spec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("pencil-exactness", spec, {}, points, tol)


def pencil_weight(pa: PencilAt):
    """The pencil weight d fitted from L_E g2 = (d-1) g2 at each point,
    with L_E g2."""
    lie_g2 = lie_from_components(pa.g_inv, pa.dg_inv, ("u", "u"), pa.E, pa.dE)
    return fit_scalar(lie_g2, pa.g_inv, 2) + 1.0, lie_g2


def pencil_homogeneity_at(pa: PencilAt):
    """Fit the pencil weight d from L_E g2 = (d-1) g2 (contravariant) and
    cross-check L_E g1 = (d-2) g1; the fit is d."""
    d, lie_g2 = pencil_weight(pa)
    lie_g1 = lie_from_components(pa.eta_inv, pa.deta_inv, ("u", "u"), pa.E, pa.dE)
    sc = pmax(amax(pa.g_inv, 2), amax(pa.eta_inv, 2))
    dd = d[..., None, None]
    return Residuals({"second": normalized(amax(lie_g2 - (dd - 1) * pa.g_inv, 2), sc),
                      "first": normalized(amax(lie_g1 - (dd - 2) * pa.eta_inv, 2), sc)}, sc,
                     fits={"d": d})


def check_pencil_homogeneity(spec, points, tol: float = DEFAULT_TOL) -> Report:
    return walk_row("pencil-homogeneity", spec, {}, points, tol)


def delta_jets(pa: PencilAt):
    """Delta[j,k,m] = L^s_m eta^jt (Gamma1^k_st - Gamma2^k_st), with first
    derivatives."""
    dg = pa.gamma1 - pa.gamma2
    ddg = pa.dgamma1 - pa.dgamma2
    return tuple(contract_jets("...sm,...jt,...kst->...jkm", (pa.L, pa.dL),
                               (pa.eta_inv, pa.deta_inv), (dg, ddg)))


def _is_diagonal(st: StructureAt):
    """Whether both metrics are diagonal, at each point."""
    off = pmax(*(amax(np.where(np.eye(st.n, dtype=bool), 0, g), 2) for g in (st.g, st.g2)))
    return off <= 1e-12 * (1 + pmax(amax(st.g, 2), amax(st.g2, 2)))


def _diagonal_closed_forms(pa: PencilAt):
    """The closed forms of Delta and R on a diagonal pencil (f^j = eta^jj):
    off the diagonal Delta^jk_j = (u^j-u^k)/2 f^k d_k f^j / f^j and R^k_j
    that over f^j, on it f^j/2 and 1/2; Delta's other components are 0."""
    n, u, eye = pa.n, pa.point, np.eye(pa.n, dtype=bool)
    f = np.diagonal(pa.eta_inv, axis1=-2, axis2=-1)
    df = pa.deta_inv[..., np.arange(n), np.arange(n), :]  # [j, k] = d_k f^j
    t = (u[..., :, None] - u[..., None, :]) / 2 * f[..., None, :] * df
    with np.errstate(all="ignore"):  # where the pencil is not diagonal, f^j may vanish
        delta = np.where(eye, f[..., :, None] / 2, t / f[..., :, None])
        r = np.where(eye, 0.5, np.swapaxes(t / f[..., :, None] ** 2, -2, -1))
        return delta[..., :, :, None] * np.eye(n)[:, None, :], r


def delta_tensor(spec, point, tol: float = DEFAULT_TOL):
    """The connection-difference tensor at `point`, and the report of its
    structural identities there (the row "delta-identities")."""
    walk = point_walk(spec, {}, point)
    return walk.delta[0][0], walk.report("delta-identities", tol)


def delta_identities_at(pa: PencilAt, d, jets):
    """The identities of the difference tensor `jets` (`delta_jets`) at
    each point, with the pencil weight `d` there, and on a diagonal pencil
    its closed form (0 elsewhere)."""
    delta, ddelta = jets
    sym_eta = antisym(contract("...is,...jks->...ijk", pa.eta_inv, delta), -3, -2)
    sym_g = antisym(contract("...is,...jks->...ijk", pa.g_inv, delta), -3, -2)
    comm = antisym(contract("...ijs,...skl->...ijkl", delta, delta), -3, -2)
    lie_delta = lie_from_components(delta, ddelta, ("u", "u", "d"), pa.E, pa.dE)
    hom = lie_delta - (np.asarray(d)[..., None, None, None] - 1) * delta
    sc = pmax(amax(delta, 3), 1.0)
    closed = normalized(amax(delta - _diagonal_closed_forms(pa)[0], 3), sc)
    return Residuals({"eta-symmetry": normalized(amax(sym_eta, 3), sc * amax(pa.eta_inv, 2)),
                      "g-symmetry": normalized(amax(sym_g, 3), sc * amax(pa.g_inv, 2)),
                      "commutation": normalized(amax(comm, 4), sc * sc),
                      "homogeneity": normalized(amax(hom, 3), sc * (1 + np.abs(d))),
                      "closed-form": np.where(pa.diagonal, closed, 0.0)}, sc)


def r_operator(spec, point, tol: float = DEFAULT_TOL):
    """The operator measuring the difference of the two Levi-Civita
    derivatives of the Euler field at `point`, and the report of the row
    "r-operator" there."""
    walk = point_walk(spec, {}, point)
    pa = walk.pa.at(0)
    return (contract("...msl,...l->...ms", pa.gamma1 - pa.gamma2, pa.E),
            walk.report("r-operator", tol))


def r_operator_at(pa: PencilAt, d, counit):
    """R^m_s = (Gamma1 - Gamma2)^m_sl E^l against its second route, (d-1)/2
    Id + nabla1 E + 1/2 g^is dtheta_sj, dtheta of the `counit_jets(pa.st)`
    `counit`, and on a diagonal pencil its closed form (0 elsewhere)."""
    r1 = contract("...msl,...l->...ms", pa.gamma1 - pa.gamma2, pa.E)
    nab1E = pa.dE + contract("...ijl,...l->...ij", pa.gamma1, pa.E)
    _, _, dtheta, _ = counit
    r2 = ((np.asarray(d)[..., None, None] - 1) / 2 * np.eye(pa.n) + nab1E
          + 0.5 * contract("...is,...sj->...ij", pa.g_inv, dtheta))
    sc = pmax(amax(r1, 2), 1.0)
    closed = normalized(amax(r1 - _diagonal_closed_forms(pa)[1], 2), sc)
    return Residuals({"two-routes": normalized(amax(r1 - r2, 2), sc),
                      "closed-form": np.where(pa.diagonal, closed, 0.0)}, sc)


@dataclass
class PencilProduct(PointBatch):
    """The product rebuilt from the pencil, with first derivatives, and the
    `Residuals` of its identities, at a point or over a batch
    (`product_from_pencil_at`)."""
    c: np.ndarray
    dc: np.ndarray
    residuals: Residuals


def product_from_pencil(spec, point, tol: float = DEFAULT_TOL):
    """The structure constants rebuilt from the pencil at `point`, with
    their first derivatives, and the report of the row
    "product-from-pencil" there: (c, dc, report)."""
    walk = point_walk(spec, {}, point)
    prod = walk.pencil_product.at(0)
    return prod.c, prod.dc, walk.report("product-from-pencil", tol)


def product_from_pencil_at(pa: PencilAt, delta) -> PencilProduct:
    """The product rebuilt from the pencil data `pa` and the difference
    tensor `delta` at each point, by one of two routes.  Where cond(R) <=
    1e8, c = L (Gamma1 - Gamma2) R^-1, checked against its construction
    through Delta.  Where R is degenerate on a diagonal pencil, the product
    is defined directly on the canonical chart (the invertibility
    assumption is only needed off the semisimple locus), and the relation
    R^l_j c^j_hk = L^s_h dG^l_sk that it must still solve is checked.
    Elsewhere R is singular: the first such point raises."""
    st, n = pa.st, pa.n
    canonical = product_jets("canonical", n)[0]
    dgm = pa.gamma1 - pa.gamma2
    ddgm = pa.dgamma1 - pa.dgamma2
    r, dr = contract_jets("...msl,...l->...ms", (dgm, ddgm), (pa.E, pa.dE))
    # a non-finite R takes the first route, which carries its NaN through
    invert = np.linalg.cond(finite_matrices(r)[0]) <= 1e8
    fail_at(~invert & ~pa.diagonal, lambda k: SingularMatrixError(complex(np.linalg.det(r[k]))))
    r_inv = np.linalg.inv(np.where(invert[..., None, None], r, np.eye(n)))
    dr_inv = -contract("...ma,...abp,...bs->...msp", r_inv, dr, r_inv)
    c, dc = contract_jets("...sh,...lsk,...jl->...jhk", (pa.L, pa.dL), (dgm, ddgm), (r_inv, dr_inv))
    c_alt = contract("...mlh,...mk,...jl->...jhk", delta, st.g, r_inv)
    sc = np.where(invert, pmax(amax(c, 3), 1.0), 1.0)
    res_inverse = normalized(amax(c - c_alt, 3), sc)
    c = np.where(invert[..., None, None, None], c, canonical)
    dc = np.where(invert[..., None, None, None, None], dc, 0)
    rhs_lin = contract("...sh,...lsk->...lhk", pa.L, dgm)
    res_direct = normalized(amax(contract("...lj,...jhk->...lhk", r, c) - rhs_lin, 3),
                            amax(rhs_lin, 3))
    comm = antisym(c)
    assoc = antisym(contract("...sjk,...isl->...ijkl", c, c))
    unit = contract("...ijk,...j->...ik", c, st.e) - np.eye(n)
    inv = antisym(contract("...iq,...qlp->...ilp", st.g, c), -3, -2)
    lie_c = lie_from_components(c, dc, ("u", "d", "d"), pa.E, pa.dE)
    mult_e = contract("...jhk,...h->...jk", c, pa.E) - pa.L
    parts = {"construction": np.where(invert, res_inverse, res_direct),
             "commutativity": normalized(amax(comm, 3), sc),
             "associativity": normalized(amax(assoc, 4), sc * sc),
             "unit": normalized(amax(unit, 2), sc),
             "invariance": normalized(amax(inv, 3), sc * amax(st.g, 2)),
             "homogeneity": normalized(amax(lie_c - c, 3), sc),
             "multiplication-by-E": normalized(amax(mult_e, 2), amax(pa.L, 2)),
             # on a diagonal pencil, the canonical product (0 elsewhere)
             "canonical": np.where(pa.diagonal, normalized(amax(c - canonical, 3), sc), 0.0)}
    return PencilProduct(c, dc, Residuals(parts, sc))


def reconstructed_structure(spec, point) -> StructureAt:
    """The structure rebuilt from the pencil at `point` (the walk's
    "recon"), whose rows are `reconstructed/<row>`."""
    return point_walk(spec, {}, point).recon.st.at(0)


def reconstructed_at(pa: PencilAt, prod: PencilProduct) -> StructureAt:
    """The structure of `prod`, the pencil's product, and the pencil's g, e and E."""
    return replace(pa.st, c=prod.c, dc=prod.dc, ddc=None, E=pa.E, dE=pa.dE, ddE=pa.ddE,
                   g2=None, dg2=None, ddg2=None)
