"""Uniform angular grid on [0, pi] and sin-weighted trapezoid quadrature."""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .stencil import Stencil

MIN_SUBDIVISIONS = 16
# a grid with its stencil and node text holds about 0.22 kB a node, so the
# finest one takes about 0.23 GB
MAX_SUBDIVISIONS = 2**20
# grids kept alive for reuse; one at n = 4096 with its stencil and node
# text holds about 0.9 MB
_CACHED_GRIDS = 4


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of [0, pi] into ``n`` subintervals.

    Built by ``make_grid``, which hands out one shared instance per n; the
    grid is frozen and every array on it is read-only.

    nodes[i] = i * pi/n.  The quadrature weights implement the trapezoid
    rule for integrals against the measure sin(theta) dtheta; the endpoint
    weights are exactly zero, so integrands only need finite values at the
    poles (they are never evaluated into 0/0 territory by the quadrature
    itself).
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def dtheta(self):
        return np.pi / self.n

    @property
    def midpoint_index(self):
        """Index of the node at pi/2 (n is required to be even)."""
        return self.n // 2

    @property
    def interior(self):
        """View of the interior nodes (endpoints excluded)."""
        return self.nodes[1:-1]

    @cached_property
    def stencil(self):
        """Theta factors and bands of the discrete operator, built on first use."""
        return Stencil(self)

    @cached_property
    def _theta_text(self):
        """``repr`` of every node: the theta column of the CSV outputs."""
        return tuple(map(repr, self.nodes.tolist()))


def make_grid(n):
    """Build a Grid with ``n`` subintervals.

    ``n`` must be even (so theta = pi/2 is a node), at least 16 and at most
    ``MAX_SUBDIVISIONS``; a larger n is refused before any array is made.  Calls
    with equal n return the same Grid (the four most recently used n are
    kept), so its stencil and node text are built once.  That pays only in a
    process that makes a grid at the same n more than once, such as a script
    that runs several pipelines or flows; a single CLI command makes each of
    its grids once.
    """
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    n = int(n)
    if n % 2 != 0:
        raise ValueError(f"n = {n} is an odd subdivision; an even n is required "
                         "so that pi/2 is a node")
    if n < MIN_SUBDIVISIONS:
        raise ValueError(f"n = {n} too coarse; need n >= {MIN_SUBDIVISIONS}")
    if n > MAX_SUBDIVISIONS:
        raise ValueError(f"n = {n} too fine; need n <= {MAX_SUBDIVISIONS}")
    return _build_grid(n)


@lru_cache(maxsize=_CACHED_GRIDS)
def _build_grid(n):
    nodes = np.linspace(0.0, np.pi, n + 1)
    weights = np.sin(nodes) * (np.pi / n)
    weights[0] = 0.0
    weights[-1] = 0.0
    for a in (nodes, weights):
        a.setflags(write=False)
    return Grid(n=n, nodes=nodes, weights=weights)


def quad_sin(grid, values):
    """Quadrature of  integral values(theta) sin(theta) dtheta  over [0, pi].

    Endpoint entries are multiplied by a zero weight; they must still be
    finite (a non-finite entry anywhere is reported by node index).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(f"values has length {values.size}, expected {grid.n + 1}")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"non-finite value at node index {bad} "
                         f"(theta = {grid.nodes[bad]:.6g})")
    return float(grid.weights @ values)
