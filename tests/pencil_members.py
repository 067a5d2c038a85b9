"""The member route to a flat pencil, kept as an oracle for
`pencil.flat_pencil_at`: the curvature of each sampled member g2 - lambda g1
of the contravariant pencil, from its inverse jets to second order, and the
linearity of the contravariant Christoffel symbols across the pencil.  It
inverts every member, so a member singular at a point raises there, naming
the member's lambda; the package's route checks every lambda at once from
the pencil's lambda-coefficients and inverts none."""

from __future__ import annotations

import numpy as np

from fmcheck.connection import (christoffel_jets, inverse_hessian, inverse_jets,
                                levi_civita, metric_inverse, riemann_components)
from fmcheck.manifold import (DEFAULT_TOL, Report, Residuals, amax, batch_report,
                              lowest_failure, normalized, pmax, structures)
from fmcheck.pencil import PencilAt, pencil_data
from fmcheck.tensor import SingularMatrixError, contract

# the members g2 - lambda g1 of the contravariant pencil that the route checks
LAMBDAS = (0.0, 1.0, -1.0, 2.0, 1j)


def _contravariant_christoffels(g_inv, gamma):
    """Gc[i,j,k] = -g^is Gamma^j_sk."""
    return -contract("...is,...jsk->...ijk", g_inv, gamma)


def flat_pencil_members_at(pa: PencilAt, lambdas=LAMBDAS):
    """Curvature of every pencil member, and linearity of the contravariant
    Christoffel symbols across the pencil, with the members stacked on an
    axis after the point axis: the worst of each member's two, by lambda,
    as the part "per_lambda/<lambda>", which the report shows.  The first
    point where a member is singular raises, naming the first such
    member's lambda."""
    ddeta_inv = inverse_hessian(pa.eta_inv, pa.st.dg, pa.st.ddg)
    gc1 = _contravariant_christoffels(pa.eta_inv, pa.gamma1)[..., None, :, :, :]
    gc2 = _contravariant_christoffels(pa.g_inv, pa.gamma2)[..., None, :, :, :]
    lams = [complex(lam) for lam in lambdas]
    lam = np.array(lams)[:, None, None]
    pen = pa.g_inv[..., None, :, :] - lam * pa.eta_inv[..., None, :, :]
    dpen = pa.dg_inv[..., None, :, :, :] - lam[..., None] * pa.deta_inv[..., None, :, :, :]
    ddpen = (pa.ddg_inv[..., None, :, :, :, :]
             - lam[..., None, None] * ddeta_inv[..., None, :, :, :, :])
    try:
        cov, dcov = inverse_jets(pen, dpen)
    except SingularMatrixError as err:
        err.args = (f"pencil member at lambda = {lams[err.index[-1]]} is singular: {err}",)
        raise
    gamma, dgamma = christoffel_jets(cov, dcov, inverse_hessian(cov, dpen, ddpen), (pen, dpen))
    sc = pmax(amax(gamma, 3) ** 2, amax(dgamma, 4))
    res_curv = normalized(amax(riemann_components(gamma, dgamma), 4), sc)
    res_lin = normalized(amax(_contravariant_christoffels(pen, gamma) - (gc2 - lam[..., None] * gc1), 3),
                         amax(gc2, 3) + np.abs(lam[:, 0, 0]) * amax(gc1, 3))
    per_lambda = {f"per_lambda/{value}": pmax(res_curv[..., i], res_lin[..., i])
                  for i, value in enumerate(lams)}
    return Residuals(per_lambda, pmax(*np.moveaxis(sc, -1, 0)), show_parts=True)


def check_flat_pencil_members(spec, points, lambdas=LAMBDAS, tol: float = DEFAULT_TOL) -> Report:
    """The member route's report over `points`; the lowest point where a
    metric or a member is singular raises."""
    def run(pts):
        st = structures(spec, pts)
        inverse = metric_inverse(st)
        pa = pencil_data(st, inverse, levi_civita(st, inverse))
        return flat_pencil_members_at(pa, lambdas)
    return batch_report("flat-pencil", lowest_failure(run, points), tol)
