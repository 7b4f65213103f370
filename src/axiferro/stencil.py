"""The discrete operator of the profile equation, written once.

On the interior nodes t_1..t_{n-1} the stationarity residual is the
non-divergence stencil

    R_i = (h_{i+1} - 2 h_i + h_{i-1}) / dt^2 + cot(t_i) (h_{i+1} - h_{i-1}) / (2 dt)
          - sin(2 h_i) / (2 sin^2 t_i) - kappa/2 sin(2 h_i - 2 t_i),

which the exact solution h = t satisfies to rounding.  The divergence-form
Laplacian L g = (1/sin)(sin g')', with sines at the half nodes, is used only
where discrete self-adjointness matters (the second variation): its residual
of h = t is 1.3e-4 at n = 1024.  The reaction potential
V_i = cos(2 h_i) / sin^2 t_i + kappa cos(2 h_i - 2 t_i) is minus the
derivative of the reaction terms of R_i with respect to h_i.  As a function
of h_i it is alpha_i cos 2h_i + beta_i sin 2h_i, with alpha_i = 1/sin^2 t_i
+ kappa cos 2t_i and beta_i = kappa sin 2t_i, so its maximum over h_i is
S_i = hypot(alpha_i, beta_i), which the flow's step uses in place of V.

R_i couples to h_{i+1} by a_i = 1/dt^2 + cot(t_i)/(2 dt) and to h_{i-1} by
b_i = 1/dt^2 - cot(t_i)/(2 dt), both positive.  The node weights w_1 = sin(t_1) dt,
w_{i+1} = w_i a_i / b_{i+1} and edge weights c_0 = w_1 b_1, c_i = w_i a_i make -w R
the gradient of E_w (``axiferro.energy``); w = sin(t) dt to O(dt^2).
Newton's Jacobian dR/dh is tridiagonal, handed out as the three diagonals
(dl, d, du) that LAPACK's dgtsv and dgttrf take: dl_i = b_{i+1}, d_i =
-2/dt^2 - V_i, du_i = a_i.
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
        self.twice_sin2 = 2.0 * self.sin2
        self.cos_2theta = np.cos(2.0 * theta)
        self.sin_2theta = np.sin(2.0 * theta)
        # sin at the half node (i + 1/2) dth, edge (i, i+1), at index i
        s_half = self.sin_half = np.sin(grid.nodes[:-1] + 0.5 * dth)
        # a, b: R_i's couplings to h_{i+1}, h_{i-1}; dR/dh's du and dl
        a = 1.0 / dth2 + self.cot / (2.0 * dth)
        b = 1.0 / dth2 - self.cot / (2.0 * dth)
        self.jacobian_du, self.jacobian_dl = a[:-1], b[1:]
        w = self.weight = s[0] * dth * np.cumprod(np.r_[1.0, a[:-1] / b[1:]])
        self.edge_weight = np.r_[w[0] * b[0], w * a]
        # the diagonal of -L with Dirichlet rows eliminated, and the
        # off-diagonal of the symmetric S (-L) S^{-1}, S = diag(sqrt(sin))
        self.divergence_diag = (s_half[1:] + s_half[:-1]) / (s * dth2)
        self.symmetric_offdiag = -s_half[1:-1] / (dth2 * np.sqrt(s[:-1] * s[1:]))
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    def evaluate(self, h, kappa, r, v):
        """R into r and V into v at nodes 1..m from the full node array h.

        r or v may be None to skip it; m is the length of the one given.  Both
        are the formulas above as array expressions, sin(2h - 2t) and
        cos(2h - 2t) expanded from one sin and one cos of 2h and the cached
        2t ones.
        """
        m = (v if r is None else r).size
        two_h = 2.0 * h[1:m + 1]
        s, c = np.sin(two_h), np.cos(two_h)
        c2t, s2t = self.cos_2theta[:m], self.sin_2theta[:m]
        if r is not None:
            dth = self.dtheta
            r[:] = ((h[2:m + 2] - two_h + h[:m]) / dth ** 2
                    + self.cot[:m] * ((h[2:m + 2] - h[:m]) / (2.0 * dth))
                    - s / self.twice_sin2[:m] - 0.5 * kappa * (s * c2t - c * s2t))
        if v is not None:
            v[:] = c / self.sin2[:m] + kappa * (c * c2t + s * s2t)

    def potential_bound(self, kappa):
        """S = max over h of V at every interior node: hypot(alpha, beta) as above."""
        return np.hypot(1.0 / self.sin2 + kappa * self.cos_2theta,
                        kappa * self.sin_2theta)

    def jacobian_bands(self, v):
        """dR/dh at nodes 1..m as LAPACK's (dl, d, du), given V there (m = len(v)).

        dl and du are read-only views of the stored couplings, d = -2/dt^2 - V
        a new array.  For m below n - 1 this is the leading m x m block of the
        full Jacobian.
        """
        k = v.size - 1
        return self.jacobian_dl[:k], -2.0 / self.dtheta ** 2 - v, self.jacobian_du[:k]
