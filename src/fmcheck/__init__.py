"""Numerical verification engine for product/metric structures on charts.

`ode3d`, the spec layer (`spec`, `entries`) and the CLI's `ode` and
`catalog` need only the standard library; the walk's modules load numpy.
The defaults of the walk and of `ode3d` live here, so that the CLI's
parser reads them without loading either.
"""

__version__ = "0.1.0"

DEFAULT_TOL = 1e-8
DEFAULT_SEED, DEFAULT_POINTS = 0, 20  # the sampling seed and point count
# the ODE stepper's tolerances, and the dense rows of a trajectory (`ode3d`)
DEFAULT_RTOL, DEFAULT_ATOL, DEFAULT_ROWS = 1e-10, 1e-12, 16
