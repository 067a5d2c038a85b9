"""Legendre-type transformations: rebuilding the connection and the metric
through multiplication by an invertible connection-flat field.

The transform hypothesis (the field is flat for the structure connection)
is enforced before any metric is transformed; silently transforming with a
non-flat field would produce meaningless reports.  The transform's
theorems take their parts from the transformed structure's walk (`catalog`).
"""

from __future__ import annotations

import numpy as np

from . import exprjet as ej
from .connection import ConnectionAt, checked_inverse
from .hamops import sym_condition_at
from .manifold import (ManifoldSpec, Report, Residuals, StructureAt, amax, fail_at, fit_scalar,
                       normalized, pmax, point_walk, product_jets, required, walk_row)
from .tensor import contract, contract_jets

__all__ = [
    "NotInvertibleError", "HypothesisViolatedError", "ProductTableError",
    "check_legendre_field", "transform_connection", "transformed_at", "transformed_structure",
    "transform_metric_exprs",
]


class NotInvertibleError(Exception):
    def __init__(self, det: complex):
        super().__init__(f"field is not product-invertible (|det| = {abs(det):.3e})")
        self.det = det


class HypothesisViolatedError(Exception):
    pass


class ProductTableError(ValueError):
    """The expression-level transform needs a product given by name."""


def _mult_operator(st: StructureAt, x, dx, ddx=None):
    """W^l_k = c^l_ks x^s with derivatives; the operator of multiplication
    by the field."""
    if ddx is None:
        return (*contract_jets("...lks,...s->...lk", (st.c, st.dc), (x, dx)), None)
    if st.ddc is None:
        raise ValueError("second-order product jets unavailable for this structure")
    return tuple(contract_jets("...lks,...s->...lk", (st.c, st.dc, st.ddc), (x, dx, ddx)))


def legendre_field_at(st: StructureAt, nat: ConnectionAt, x, dx):
    """Symmetry of the product-twisted covariant derivative of the field,
    plus product invertibility, with the structure connection; the report
    shows the least |det| of the multiplication operator."""
    sym = sym_condition_at(st, nat, x[..., None, :], dx[..., None, :, :])
    w, _, _ = _mult_operator(st, x, dx)
    checked_inverse(w, NotInvertibleError)
    return Residuals(sym.parts, sym.scale, least={"abs_det": np.abs(np.linalg.det(w))})


def check_legendre_field(spec: ManifoldSpec, field_exprs, points) -> Report:
    """Symmetry of the product-twisted covariant derivative of the field,
    plus product invertibility, with the structure connection."""
    return walk_row("legendre-field", spec, {"legendre_field": field_exprs}, points)


def transform_connection(conn: ConnectionAt, st: StructureAt, x, dx, ddx) -> ConnectionAt:
    """Conjugated connection: the derivative is taken after multiplying by
    the field and the inverse field is multiplied back afterwards."""
    w, dw, ddw = _mult_operator(st, x, dx, ddx)
    k = checked_inverse(w, NotInvertibleError)
    dk = -contract("...ia,...abm,...bl->...ilm", k, dw, k)
    gw, dgw = contract_jets("...ljm,...mk->...ljk", (conn.gamma, conn.dgamma), (w, dw))
    inner = (np.swapaxes(dw, -2, -1) + gw, np.swapaxes(ddw, -3, -2) + dgw)
    gamma, dgamma = contract_jets("...il,...ljk->...ijk", (k, dk), inner)
    return ConnectionAt(st.n, st.point, gamma, dgamma)


def transformed_structure(spec: ManifoldSpec, field_exprs, point) -> StructureAt:
    """StructureAt with the metric replaced by its Legendre transform: the
    walk's "transformed" at `point` alone."""
    return point_walk(spec, {"legendre_field": field_exprs}, point).transformed.st.at(0)


def transformed_at(st: StructureAt, nat: ConnectionAt, x, dx, ddx) -> StructureAt:
    """The structure with its metric replaced by the transformed one,
    gbar(Y,Z) = g(X o Y, X o Z), with its first and second derivatives, at a
    point or over a batch, once the field is checked flat for `nat`: at the
    first point where its normalized covariant derivative exceeds 1e-8 it
    raises HypothesisViolatedError."""
    nab = dx + contract("...lks,...s->...lk", nat.gamma, x)
    hyp = normalized(amax(nab, 2), amax(x, 1))
    fail_at(hyp > 1e-8, lambda k: HypothesisViolatedError(
        f"field is not connection-flat (residual {hyp[k]:.3e})"))
    w = _mult_operator(st, x, dx, ddx)
    gbar, dgbar, ddgbar = contract_jets("...ki,...lj,...kl->...ij", w, w, (st.g, st.dg, st.ddg))
    return StructureAt(n=st.n, point=st.point, c=st.c, dc=st.dc, ddc=st.ddc,
                       e=st.e, de=st.de, dde=st.dde,
                       E=st.E, dE=st.dE, ddE=st.ddE,
                       g=gbar, dg=dgbar, ddg=ddgbar)


def transform_metric_at(inv: Residuals, killing: Residuals, nat_bar: ConnectionAt,
                        conj: ConnectionAt):
    """Theorem-level consequences of the metric transform at each point: the
    transformed structure has an invariant metric for which the unit is
    Killing (its rows `inv`, `killing`), and its structure connection
    `nat_bar` is the conjugated one `conj` (`transform_connection`)."""
    gap = normalized(amax(nat_bar.gamma - conj.gamma, 3), amax(conj.gamma, 3))
    return Residuals({**inv.parts, **killing.parts, "conjugated": gap},
                     pmax(inv.scale, killing.scale))


def homogeneous_legendre_at(st: StructureAt, hom: Residuals, hom_bar: Residuals, x, dx):
    """The field's Euler weight w, fitted in L_E X = w X, and the
    homogeneity of the metric and of the transformed one (their rows `hom`
    and `hom_bar`, whose parts are "metric/<part>" and
    "transformed/<part>"), whose exponents must obey Dbar = D + 2w + 2.
    The fits are D, Dbar and w, as "dbar"."""
    lie_x = contract("...k,...ik->...i", st.E, dx) - contract("...k,...ki->...i", x, st.dE)
    w = fit_scalar(lie_x, x, 1)
    D, Dbar = hom.fits["D"], hom_bar.fits["D"]
    sc_x = amax(x, 1)
    parts = {"field": normalized(amax(lie_x - w[..., None] * x, 1), sc_x),
             **{f"metric/{key}": part for key, part in hom.parts.items()},
             **{f"transformed/{key}": part for key, part in hom_bar.parts.items()},
             "exponents": normalized(np.abs(Dbar - (D + 2 * w + 2)), np.abs(Dbar))}
    return Residuals(parts, pmax(sc_x, hom.scale, hom_bar.scale),
                     fits={"D": D, "Dbar": Dbar, "dbar": w})


def transform_metric_exprs(spec: ManifoldSpec, field_exprs, name: str | None = None) -> ManifoldSpec:
    """Expression-level metric transform: composes the transformed metric
    as an AST so the result is an ordinary spec (constant structure
    constants only, which covers the canonical and shifted products)."""
    if not isinstance(spec.product, str):
        raise ProductTableError("expression-level transform needs a constant product table")
    n = spec.n
    c, _, _ = product_jets(spec.product, n)
    xs = [ej.parse(src) for src in field_exprs]
    gs = [[ej.parse(src) for src in row] for row in required(spec.g, "metric")]
    gbar = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                for s in range(n):
                    if c[k, i, s] == 0:
                        continue
                    for l in range(n):
                        for t in range(n):
                            if c[l, j, t] == 0:
                                continue
                            term = xs[s] * xs[t] * gs[k][l]
                            acc = term if acc is None else acc + term
            gbar[i][j] = ej.to_source(acc) if acc is not None else "0"
    return ManifoldSpec(
        name=name or f"{spec.name}-legendre", n=n, coords=spec.coords,
        product=spec.product, e=spec.e, E=spec.E,
        g=tuple(tuple(r) for r in gbar), g2=None,
        params=dict(spec.params), region=spec.region, expected={})
