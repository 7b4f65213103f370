"""The discrete operator of the profile equation, written once.

On the interior nodes t_1..t_{n-1} the stationarity residual is the
non-divergence stencil

    R_i = (h_{i+1} - 2 h_i + h_{i-1}) / dt^2 + cot(t_i) (h_{i+1} - h_{i-1}) / (2 dt)
          - sin(2 h_i) / (2 sin^2 t_i) - kappa/2 sin(2 h_i - 2 t_i),

which the exact solution h = t satisfies to rounding.  The divergence-form
Laplacian L g = (1/sin)(sin g')', with sines at the half nodes, is used only
where discrete self-adjointness matters (the second variation and the
implicit part of the flow): its residual of h = t is 1.3e-4 at n = 1024.
The reaction potential V_i = cos(2 h_i) / sin^2 t_i + kappa cos(2 h_i - 2 t_i)
is minus the derivative of the reaction terms of R_i with respect to h_i.

Band arrays use the layout of ``scipy.linalg.solve_banded`` with one band on
each side: row 0 is the superdiagonal (ab[0, j] couples row j - 1 to j),
row 1 the diagonal, row 2 the subdiagonal (ab[2, j] couples row j + 1 to j).
"""

import numpy as np


class Stencil:
    """Theta factors of one grid at its interior nodes, computed once.

    Reached through ``Grid.stencil``, which builds it on first use and keeps
    it on the grid; every array is read-only.
    """

    def __init__(self, grid):
        dth = self.dtheta = grid.dtheta
        dth2 = dth ** 2
        theta = grid.interior
        s = self.sin = np.sin(theta)
        self.cot = np.cos(theta) / s
        self.sin2 = s ** 2
        self.cos_2theta = np.cos(2.0 * theta)
        self.sin_2theta = np.sin(2.0 * theta)
        s_half = self.sin_half = np.sin(grid.half_nodes)  # edge (i, i+1) at index i
        # dR/dh without the potential: the second difference and cot d1
        self.jacobian_offdiag = np.zeros((3, grid.n - 1))
        self.jacobian_offdiag[0, 1:] = 1.0 / dth2 + self.cot[:-1] / (2.0 * dth)
        self.jacobian_offdiag[2, :-1] = 1.0 / dth2 - self.cot[1:] / (2.0 * dth)
        # -L with Dirichlet rows eliminated, and the off-diagonal of the
        # symmetric S (-L) S^{-1}, S = diag(sqrt(sin))
        self.divergence_bands = np.zeros((3, grid.n - 1))
        self.divergence_bands[0, 1:] = -s_half[1:-1] / (s[:-1] * dth2)
        self.divergence_bands[1] = (s_half[1:] + s_half[:-1]) / (s * dth2)
        self.divergence_bands[2, :-1] = -s_half[1:-1] / (s[1:] * dth2)
        self.symmetric_offdiag = -s_half[1:-1] / (dth2 * np.sqrt(s[:-1] * s[1:]))
        for a in (s, self.cot, self.sin2, self.cos_2theta, self.sin_2theta, s_half,
                  self.jacobian_offdiag, self.divergence_bands, self.symmetric_offdiag):
            a.setflags(write=False)

    def _trig(self, hi):
        """sin 2h and cos 2h at nodes 1..len(hi), with cos 2t and sin 2t there.

        One sin and one cos of 2h serve R and V together: sin(2h - 2t) and
        cos(2h - 2t) follow from them by the angle-difference identities.
        """
        m = len(hi)
        two_h = 2.0 * hi
        return np.sin(two_h), np.cos(two_h), self.cos_2theta[:m], self.sin_2theta[:m]

    def _residual(self, h, kappa, s, c, c2t, s2t):
        m = len(s)
        d2 = (h[2:m + 2] - 2.0 * h[1:m + 1] + h[:m]) / self.dtheta ** 2
        d1 = (h[2:m + 2] - h[:m]) / (2.0 * self.dtheta)
        return (d2 + self.cot[:m] * d1 - s / (2.0 * self.sin2[:m])
                - 0.5 * kappa * (s * c2t - c * s2t))

    def _potential(self, kappa, s, c, c2t, s2t):
        return c / self.sin2[:len(c)] + kappa * (c * c2t + s * s2t)

    def residual(self, h, kappa):
        """R at every interior node, from the full node array h."""
        return self._residual(h, kappa, *self._trig(h[1:-1]))

    def potential(self, h, kappa):
        """V at interior nodes 1..len(h), given the values h there."""
        return self._potential(kappa, *self._trig(h))

    def residual_and_potential(self, h, kappa, m):
        """R and V at interior nodes 1..m from the full node array h."""
        trig = self._trig(h[1:m + 1])
        return self._residual(h, kappa, *trig), self._potential(kappa, *trig)

    def jacobian_bands(self, h, kappa):
        """Banded dR/dh on the interior from the full node array h; diagonal d2 - V."""
        ab = self.jacobian_offdiag.copy()
        ab[1] = -2.0 / self.dtheta ** 2 - self.potential(h[1:-1], kappa)
        return ab
