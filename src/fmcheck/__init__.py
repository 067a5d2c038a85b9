"""Numerical verification engine for product/metric structures on charts.

`ode3d`, the spec layer (`spec`, `entries`) and the CLI's `ode` and
`catalog` need only the standard library; the walk's modules load numpy,
and their defaults live here for the CLI's parser.
"""

__version__ = "0.1.0"

DEFAULT_TOL = 1e-8
DEFAULT_SEED, DEFAULT_POINTS = 0, 20  # the sampling seed and point count
