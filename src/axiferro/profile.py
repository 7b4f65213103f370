"""Discrete profile functions h: [0, pi] -> R and their topological data.

A profile encodes an axisymmetric sphere-valued field through spherical
angles: at colatitude theta and azimuth phi the field is

    (cos(phi) sin(h(theta)), sin(phi) sin(h(theta)), cos(h(theta))),

so the scalar h carries all the information (reconstruction of the 2D field
itself is out of scope here).  A profile stores its boundary integers
(m, n_end) with h(0) = m*pi and h(pi) = n_end*pi explicitly; the endpoint
values are kept bitwise equal to m*pi and n_end*pi so that no amount of
floating drift can change the topological class.
"""

import re
from dataclasses import dataclass

import numpy as np

from .grid import Grid, make_grid

W1 = "W1"
W2 = "W2"


@dataclass(frozen=True)
class Profile:
    grid: Grid
    values: np.ndarray
    m: int
    n_end: int


@dataclass(frozen=True)
class WedgeSpec:
    """Two-sided pointwise bound on [0, pi/2].

    W1: pi <= h <= pi + theta.  W2: theta <= h <= 2*theta.
    ``tolerance`` is the allowed pointwise slack in radians.
    """

    kind: str
    tolerance: float = 0.0

    def __post_init__(self):
        if self.kind not in (W1, W2):
            raise ValueError(f"unknown wedge kind {self.kind!r}")
        if self.tolerance < 0:
            raise ValueError("wedge tolerance must be >= 0")

    def bounds(self, theta):
        if self.kind == W1:
            return np.full_like(theta, np.pi), np.pi + theta
        return theta.copy(), 2.0 * theta


@dataclass(frozen=True)
class WedgeVerdict:
    inside: bool
    node: int | None = None
    excess: float = 0.0


def make_profile(grid, values, m, n_end):
    """Validate and freeze a profile; endpoints snap to exact m*pi, n_end*pi."""
    values = np.array(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(f"values has length {values.size}, expected {grid.n + 1}")
    if not np.all(np.isfinite(values)):
        raise ValueError("profile values must be finite")
    if abs(values[0] - m * np.pi) > 1e-9 or abs(values[-1] - n_end * np.pi) > 1e-9:
        raise ValueError(
            f"boundary values ({values[0]:.12g}, {values[-1]:.12g}) do not match "
            f"declared class ({m}*pi, {n_end}*pi)")
    values[0] = m * np.pi
    values[-1] = n_end * np.pi
    values.setflags(write=False)
    return Profile(grid=grid, values=values, m=int(m), n_end=int(n_end))


def node_derivative(p):
    """h' at every node: centered differences inside, one-sided second-order at the ends."""
    return np.gradient(p.values, p.grid.dtheta, edge_order=2)


def degree(p):
    """Mapping degree of the axisymmetric field, from the boundary integers.

    Equals (cos h(0) - cos h(pi)) / 2 = ((-1)^m - (-1)^n_end) / 2, an exact integer.
    """
    return ((-1) ** p.m - (-1) ** p.n_end) // 2


def hemispheric_deviation(p):
    """Max pointwise distance between h and its antipodal reflection
    2*pi*k - h(pi - theta), k = (m + n_end)/2.

    Returns inf when m + n_end is odd (no compatible reflection exists).
    """
    if (p.m + p.n_end) % 2 != 0:
        return np.inf
    k = (p.m + p.n_end) // 2
    return float(np.max(np.abs(p.values - (2.0 * np.pi * k - p.values[::-1]))))


def is_hemispheric(p, tol=1e-12):
    return hemispheric_deviation(p) <= tol


def _symmetry_class(p, half):
    """(m, k): a flow or Newton solve of p evolves nodes 1..m; k reflects, or is None."""
    if half:
        return p.grid.midpoint_index - 1, (p.m + p.n_end) // 2
    return p.grid.n - 1, None


def _add_step(h, delta, k):
    """Add delta to the nodes 1..delta.size of the node array h, in place.

    With k set, it then pins the midpoint at k*pi and makes each right node
    2*pi*k minus its mirror node, the reflection ``hemispheric_deviation``
    measures against.  Endpoints are not written.
    """
    h[1:delta.size + 1] += delta
    if k is not None:
        mid = (h.size - 1) // 2
        h[mid] = k * np.pi
        np.subtract(2.0 * np.pi * k, h[mid - 1:0:-1], out=h[mid + 1:-1])


def wedge_check(p, spec):
    """Check the wedge bound at all nodes with theta <= pi/2.

    Returns WedgeVerdict(inside=True) or the first violating node together
    with how far the value lies beyond the (tolerance-widened) bound.
    """
    mid = p.grid.midpoint_index
    theta = p.grid.nodes[:mid + 1]
    h = p.values[:mid + 1]
    lower, upper = spec.bounds(theta)
    excess = np.maximum(lower - h, h - upper)
    bad = np.flatnonzero(excess > spec.tolerance)
    if bad.size == 0:
        return WedgeVerdict(inside=True)
    i = int(bad[0])
    return WedgeVerdict(inside=False, node=i, excess=float(excess[i]))


def make_initial_first_type(grid, kappa):
    """Piecewise-linear initial profile for the first-type pipeline.

    Equals pi + theta up to theta0(kappa) = pi/2 - pi/(2 sqrt(kappa)), descends
    linearly through (pi/2, pi), and mirrors hemispherically onto [pi/2, pi]
    (which reproduces the theta branch near the far pole).  Lies in the (1, 1)
    boundary class, inside W1, and is hemispheric by construction.
    """
    if kappa < 4:
        raise ValueError(f"first-type initial profile requires kappa >= 4, got {kappa}")
    delta = 0.5 * np.pi / np.sqrt(kappa)
    theta0 = 0.5 * np.pi - delta
    slope = theta0 / delta
    mid = grid.midpoint_index
    left = grid.nodes[:mid + 1]
    h_left = np.where(left <= theta0, np.pi + left, np.pi - slope * (left - 0.5 * np.pi))
    values = np.empty(grid.n + 1)
    values[:mid + 1] = h_left
    # mirror 2*pi - h(pi - theta) keeps the sampled profile exactly hemispheric
    values[mid:] = 2.0 * np.pi - h_left[::-1]
    return make_profile(grid, values, 1, 1)


def make_initial_second_type(grid):
    """The profile h = 2*theta, boundary class (0, 2), hemispheric with k = 1."""
    return make_profile(grid, 2.0 * grid.nodes, 0, 2)


def perturbation_direction(p):
    """The test direction g = (h' - 1) sin(theta), vanishing at both poles."""
    g = (node_derivative(p) - 1.0) * np.sin(p.grid.nodes)
    g[0] = 0.0
    g[-1] = 0.0
    return g


def builtin_profile(name, grid, kappa=None):
    """Named initial profiles used by the command-line tools."""
    if name == "pi":
        return make_profile(grid, np.full(grid.n + 1, np.pi), 1, 1)
    if name == "theta":
        return make_profile(grid, grid.nodes.copy(), 0, 1)
    if name == "two-theta":
        return make_initial_second_type(grid)
    if name == "first-type":
        if kappa is None:
            raise ValueError("builtin profile 'first-type' needs kappa")
        return make_initial_first_type(grid, kappa)
    raise ValueError(f"unknown builtin profile {name!r}")


def _csv_rows(grid, values):
    """``theta,value`` rows at every node, both with full ``repr`` precision."""
    return map(",".join, zip(grid._theta_text, map(repr, values.tolist())))


def write_profile_csv(p, path, kappa=None, extra_header=None):
    """Two-column CSV with a class header; full round-trip decimal precision."""
    lines = []
    header = f"# m={p.m} n={p.n_end}"
    if kappa is not None:
        header += f" kappa={float(kappa)!r}"
    lines.append(header)
    if extra_header:
        lines.append(extra_header)
    lines.append("theta,h")
    lines.extend(_csv_rows(p.grid, p.values))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile_csv(path, grid=None):
    """Read a profile CSV written by write_profile_csv.

    Returns (profile, kappa); kappa is None when absent from the header.
    If ``grid`` is omitted, ``make_grid`` gives the grid of the file's node
    count.  The theta column is checked against the grid either way.  Blank
    lines, ``#`` lines and repeated ``theta,h`` lines are skipped, and
    leading and trailing whitespace is ignored.
    """
    with open(path) as fh:
        lines = map(str.strip, fh.read().split("\n"))
    header = next(filter(None, lines), None)
    if header is None:
        raise ValueError(f"{path}: empty profile file")
    match = re.match(r"#\s*m=(-?\d+)\s+n=(-?\d+)(?:\s+kappa=([^\s]+))?", header)
    if match is None:
        raise ValueError(f"{path}: missing '# m=<m> n=<n>' header")
    m, n_end, kappa_text = int(match.group(1)), int(match.group(2)), match.group(3)
    try:
        kappa = float(kappa_text) if kappa_text else None
    except ValueError:
        raise ValueError(f"{path}: header kappa={kappa_text} is not a number") from None
    # the rest of the lines, in the same pass: blank, comment and column lines dropped
    rows = [ln for ln in lines if ln and ln[0] != "#" and ln != "theta,h"]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:  # a ragged row or a field that is not a number
        raise ValueError(f"{path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ValueError(f"{path}: {data.shape[1]} columns, expected 2 (theta,h)")
    try:
        grid = grid or make_grid(data.shape[0] - 1)
    except ValueError as exc:  # a node count make_grid refuses
        raise ValueError(f"{path}: {exc}") from exc
    if data.shape[0] != grid.n + 1:
        raise ValueError(f"{path}: {data.shape[0]} rows, expected {grid.n + 1}")
    if np.max(np.abs(data[:, 0] - grid.nodes)) > 1e-12:
        raise ValueError(f"{path}: theta column does not match a uniform grid")
    return make_profile(grid, data[:, 1], m, n_end), kappa
