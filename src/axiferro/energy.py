"""Reduced energy, its Euler-Lagrange residual, and the second variation.

The reduced energy of a profile h with anisotropy kappa is

    E(h) = 1/2 * integral_0^pi [ h'^2 sin(t) + sin^2(h)/sin(t)
                                 + kappa sin^2(h - t) sin(t) ] dt,

the full field energy being 2*pi*E(h).  On the grid it is E_w, whose
gradient is exactly the stencil R of ``axiferro.stencil`` (dE_w/dh_i = -w_i R_i):

    E_w(h) = sum_edges c/2 (h_{i+1} - h_i)^2
             + sum_i w_i [sin^2(h_i) / (2 sin^2 t_i) + kappa/2 sin^2(h_i - t_i)],

with the stencil's node and edge weights w and c, so the flow, Newton and the
stationarity test all seek critical points of E_w.  Its exact Hessian in a
direction g vanishing at the poles, V the reaction potential, is

    d2E_w[h](g) = sum_edges c (g_{i+1} - g_i)^2 + sum_i w_i V_i g_i^2.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnergyParams:
    kappa: float

    def __post_init__(self):
        if not np.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Discrete second-variation operator on the interior nodes.

    Stored as the similarity-symmetrized matrix B = S A S^{-1} with
    S = diag(sqrt(w)), so symmetry is exact by construction: ``diag`` is its
    diagonal (also A's) and ``offdiag`` its off-diagonal.  ``weight`` are the
    grid's quadrature weights w_i = sin(theta_i) * dtheta at the interior
    nodes, the inner product A is self-adjoint against.
    """

    dimension: int
    diag: np.ndarray
    offdiag: np.ndarray
    weight: np.ndarray

    def _matvec(self, y):
        """B y, the one matrix-vector product of the operator."""
        out = self.diag * y
        out[:-1] += self.offdiag * y[1:]
        out[1:] += self.offdiag * y[:-1]
        return out

    def quadratic_form(self, v):
        """<A v, v> in the sin-weighted inner product, as y.B y with y = S v."""
        y = np.sqrt(self.weight) * v
        return float(np.dot(y, self._matvec(y)))

    def norm_estimate(self):
        """Gershgorin bound on the spectral radius of the symmetrized matrix."""
        r = np.zeros(self.dimension)
        r[:-1] += np.abs(self.offdiag)
        r[1:] += np.abs(self.offdiag)
        return float(np.max(np.abs(self.diag) + r))


def reduced_energy(p, params):
    """The discrete energy E_w(h), whose gradient is -w R."""
    st = p.grid.stencil
    h = p.values
    reaction = (np.sin(h[1:-1]) ** 2 / st.twice_sin2
                + 0.5 * params.kappa * np.sin(h[1:-1] - p.grid.interior) ** 2)
    return float(0.5 * (st.edge_weight @ np.diff(h) ** 2) + st.weight @ reaction)


def el_residual(p, params, with_potential=False, nodes=None):
    """Stationarity residual at the interior nodes (second-order stencils).

    Endpoints carry Dirichlet data and are excluded.  A profile is discretely
    stationary exactly when this vector vanishes.  With ``with_potential``
    the reaction potential V there comes too, as (R, V), from the same sin
    and cos of 2h: Newton's next Jacobian needs it.  ``nodes`` limits the
    evaluation to the interior nodes 1..nodes (all of them by default), as
    Newton on the half interval evaluates only the nodes it solves for.
    """
    m = p.grid.n - 1 if nodes is None else nodes
    r, v = np.empty((2, m))
    p.grid.stencil.evaluate(p.values, params.kappa, r, v if with_potential else None)
    return (r, v) if with_potential else r


def residual_supnorm(p, params):
    return float(np.max(np.abs(el_residual(p, params))))


def residual_noise_floor(n):
    """Rounding scale of the residual evaluation on the grid of n subintervals.

    The second difference of O(2*pi) values carries absolute noise of order
    eps/dtheta^2; residual targets below this are unattainable regardless of
    solver quality (about 1.3e-10 at n = 1024, growing with n^2).  It needs
    only n, so a grid too fine for a tolerance is refused before it is built.
    """
    return 4e-16 * np.pi / (np.pi / n) ** 2


def _zeroed_direction(grid, g):
    g = np.array(g, dtype=float)  # a copy, whose endpoints are set to zero
    if g.shape != grid.nodes.shape:
        raise ValueError(f"direction has length {g.size}, expected {grid.n + 1}")
    slack = 1e-10 * (1.0 + np.max(np.abs(g)))
    if abs(g[0]) > slack or abs(g[-1]) > slack:
        raise ValueError("direction must vanish at both endpoints "
                         f"(got g(0) = {g[0]:.3g}, g(pi) = {g[-1]:.3g})")
    g[0] = g[-1] = 0.0
    return g


def _potential(p, params):
    v = np.empty(p.grid.n - 1)
    p.grid.stencil.evaluate(p.values, params.kappa, None, v)
    return v


def second_variation_form(p, params, g):
    """d2E_w[h](g), the exact Hessian of E_w, for a direction g vanishing at the poles."""
    g = _zeroed_direction(p.grid, g)
    st = p.grid.stencil
    return float(st.edge_weight @ np.diff(g) ** 2
                 + st.weight @ (_potential(p, params) * g[1:-1] ** 2))


def assemble_second_variation(p, params):
    """Divergence-form discretization of the second-variation operator.

    (A g)_i = -[sin(t_{i+1/2})(g_{i+1}-g_i) - sin(t_{i-1/2})(g_i-g_{i-1})]
              / (sin(t_i) dt^2) + V_i g_i,
    V_i = cos(2 h_i)/sin^2(t_i) + kappa cos(2 h_i - 2 t_i),

    with Dirichlet rows eliminated.  Half-node sines make discrete
    self-adjointness in the sin-weighted inner product exact.
    """
    grid = p.grid
    st = grid.stencil
    diag = st.divergence_diag + _potential(p, params)
    diag.setflags(write=False)
    return TridiagonalOperator(dimension=grid.n - 1, diag=diag,
                               offdiag=st.symmetric_offdiag,
                               weight=grid.weights[1:-1])


def wedge_certificates(kappa):
    """The paper's four continuum sign lemmas on the wedges, from exact bounds on kappa.

    With f(x, y) = sin 2x - sin 2y - kappa sin(2y - 2x) sin^2 x and
    lambda(x, y) = cos 2x - cos 2y - kappa sin(2y - 2x) sin x cos x, the lemmas
    are f >= 0 on W1, f <= 0 on W2, lambda >= 0 on W1 with x <= pi/4 and
    lambda <= 0 on W2.  At y = pi + s on W1 and y = x + s on W2, with
    0 <= s <= x <= pi/2, each factors exactly:
        f on W1      = 2 sin(x - s) [cos x cos s (1 + kappa sin^2 x)
                                     + sin x sin s (kappa sin^2 x - 1)],
        f on W2      = -2 sin s [cos s (1 + (kappa - 2) sin^2 x) - sin 2x sin s],
        lambda on W1 = 2 sin(x - s) [sin x cos s (kappa cos^2 x - 1)
                                     + cos x sin s (kappa sin^2 x - 1)],
        lambda on W2 = 2 sin s [sin(2x + s) - kappa cos s sin x cos x].
    2 sin(x - s) and 2 sin s are >= 0 and -2 sin s is <= 0, so every bracket
    must be >= 0 but lambda's on W2, which must be <= 0.  Each bracket is
    a cos s + b sin s, which on the arc 0 <= s <= x, shorter than pi, keeps a
    sign exactly when it does at both ends.  One end, less a factor sin x or
    cos x >= 0, is an inequality in x alone, and the other end holds whenever
    that one holds for every x:
        f on W1: 1 + (kappa - 2) sin^2 x >= 0 at s = x, so kappa >= 1;
        f on W2: 1 + (kappa - 4) sin^2 x >= 0 at s = x, so kappa >= 3;
        lambda on W1, x <= pi/4: kappa cos^2 x >= 1 at s = 0, so kappa >= 2;
        lambda on W2: (4 - kappa) cos^2 x <= 1 at s = x, so kappa >= 3.
    Each bound is sharp.  W2's discrete invariance under the flow still needs
    kappa >= 4, since R(2 theta) = (4 - kappa) sin theta cos theta there.
    Returns the four verdicts as bools keyed f_on_W1, f_on_W2,
    lambda_on_W1_quarter and lambda_on_W2; kappa must be finite and >= 0.
    """
    kappa = EnergyParams(kappa).kappa
    return {"f_on_W1": bool(kappa >= 1), "f_on_W2": bool(kappa >= 3),
            "lambda_on_W1_quarter": bool(kappa >= 2), "lambda_on_W2": bool(kappa >= 3)}
