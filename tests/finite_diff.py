"""Central differences of an expression, the independent cross-check of
the tape's jets (`exprjet.eval_points`) in the tests."""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from fmcheck.exprjet import DomainError, Expr, eval_points


def finite_diff_oracle(e: Expr, point: Sequence[complex],
                       params: Mapping[str, complex] | None = None,
                       step: float = 1e-5) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient and Hessian, used as the independent
    cross-check for jet arithmetic.  Every stencil point must stay inside
    the expression's domain; the whole stencil is evaluated in one run."""
    n = len(point)
    p0 = np.asarray(point, dtype=complex)
    h = np.eye(n) * step
    stencil = [p0]
    for i in range(n):
        stencil += [p0 + h[i], p0 - h[i]]
    for i in range(n):
        for j in range(i + 1, n):
            stencil += [p0 + h[i] + h[j], p0 + h[i] - h[j], p0 - h[i] + h[j], p0 - h[i] - h[j]]
    jets = eval_points(e, np.reshape(stencil, (len(stencil), n)), params, order=0)
    for err in jets.errors:
        if err is not None:
            raise DomainError(err)
    f = iter(jets.val.tolist())

    grad = np.zeros(n, dtype=complex)
    hess = np.zeros((n, n), dtype=complex)
    f0 = next(f)
    for i in range(n):
        fp, fm = next(f), next(f)
        grad[i] = (fp - fm) / (2 * step)
        hess[i, i] = (fp - 2 * f0 + fm) / step ** 2
    for i in range(n):
        for j in range(i + 1, n):
            v = (next(f) - next(f) - next(f) + next(f)) / (4 * step ** 2)
            hess[i, j] = hess[j, i] = v
    return grad, hess
