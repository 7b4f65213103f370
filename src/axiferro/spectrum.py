"""Lowest eigenpairs of the second-variation operator and saddle classification.

The lowest eigenpairs of the symmetrized tridiagonal matrix come from
LAPACK's bisection (stebz) and inverse iteration (stein) through
``scipy.linalg.eigh_tridiagonal``.  The Morse index read off those
eigenvalues is certified independently by an LDL^T pivot count (Sylvester's
law of inertia), and a disagreement is an error.  The same count answers the
kappa1 probe's saddle test on its own: lambda1 < -1e-8 < 1e-8 < lambda2
holds exactly when the counts at shifts -1e-8 and +1e-8 are both 1, so the
probe makes no eigensolve.  The dense eigensolve in the test suite
(``numpy.linalg.eigvalsh``, LAPACK syevd) is a separate LAPACK path and stays
an independent oracle.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .energy import (EnergyParams, assemble_second_variation,
                     residual_supnorm, second_variation_form)
from .grid import make_grid
from .profile import make_initial_second_type, perturbation_direction


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray        # ascending
    eigenvectors: np.ndarray       # shape (k, n+1), sin-weighted orthonormal
    morse_index: int
    tol: float
    residuals: np.ndarray          # ||A v - lambda v||_w per pair
    operator_scale: float
    explicit_direction_value: float | None = None


def negative_count(diag, off, shift):
    """Number of eigenvalues below shift, from the pivots of T - shift = L D L^T.

    By Sylvester's law of inertia the count of negative pivots is the count
    of negative eigenvalues.  One scalar pass over plain floats; tiny pivots
    are replaced by -pivmin as in LAPACK's dlaebz.
    """
    off2 = (np.asarray(off, dtype=float) ** 2).tolist()
    pivmin = np.finfo(float).tiny * max(1.0, max(off2, default=0.0))
    count = 0
    q = 1.0
    for d, e2 in zip(np.asarray(diag, dtype=float).tolist(), [0.0] + off2):
        q = d - shift - e2 / q
        if abs(q) < pivmin:
            q = -pivmin
        if q <= 0.0:
            count += 1
    return count


def _certified_morse(op, eigenvalues, tol):
    """Morse index below -tol, certified by the pivot count at shift -tol.

    ``eigenvalues`` are the k lowest.  With fewer than k of them below -tol
    the pivot count must equal that number; with all k below, it must be at
    least k.  Any disagreement raises rather than being corrected.
    """
    morse = int(np.sum(eigenvalues < -tol))
    count = negative_count(op.diag, op.offdiag, -tol)
    certified = count == morse if morse < eigenvalues.size else count >= morse
    if not certified:
        raise np.linalg.LinAlgError(
            f"Morse index {morse} from the {eigenvalues.size} lowest eigenvalues "
            f"disagrees with the inertia count {count} at shift {-tol:.3g}")
    return morse


def _tridiag_apply(diag, off, y):
    out = diag * y
    out[:-1] += off * y[1:]
    out[1:] += off * y[:-1]
    return out


def _require_pair_count(op, k):
    if not 1 <= k <= op.dimension:
        raise ValueError(f"k = {k} out of range 1..{op.dimension}")


def eigs_lowest(op, k):
    """Lowest k eigenpairs of a TridiagonalOperator.

    Eigenpairs of the symmetrized matrix from LAPACK stebz/stein; in each
    eigenvector the first component whose magnitude exceeds 1e-8 times the
    largest is made positive, then the vector is
    returned on the full node range (zero at the Dirichlet endpoints) and
    orthonormal in the sin-weighted inner product.  The Morse index counts
    eigenvalues below -tol, tol = 1e-12 times the operator scale, and is
    certified by an inertia count.
    """
    _require_pair_count(op, k)
    diag = np.asarray(op.diag, dtype=float)
    off = np.asarray(op.offdiag, dtype=float)
    scale = op.norm_estimate()
    eigenvalues, ys = eigh_tridiagonal(diag, off, select="i",
                                       select_range=(0, k - 1))
    # deterministic sign: the first component above 1e-8 of the largest is
    # positive.  Not the largest itself: modes antisymmetric under the
    # hemispheric reflection have two extremes equal up to rounding.
    ys = ys.T
    mags = np.abs(ys)
    first = np.argmax(mags > 1e-8 * mags.max(axis=1, keepdims=True), axis=1)
    ys[ys[np.arange(k), first] < 0] *= -1.0
    residuals = np.array([np.linalg.norm(_tridiag_apply(diag, off, y) - lam * y)
                          for lam, y in zip(eigenvalues, ys)])
    vectors = np.zeros((k, op.dimension + 2))
    vectors[:, 1:-1] = ys / np.sqrt(op.weight)
    tol = 1e-12 * scale
    return SpectrumResult(eigenvalues=eigenvalues, eigenvectors=vectors,
                          morse_index=_certified_morse(op, eigenvalues, tol),
                          tol=float(tol), residuals=residuals,
                          operator_scale=scale)


@dataclass(frozen=True)
class LegendreReport:
    n_coarse: int
    n_fine: int
    exact: np.ndarray
    computed_coarse: np.ndarray
    computed_fine: np.ndarray
    max_deviation_coarse: float
    max_deviation_fine: float
    refinement_ratio: float
    endpoints_zero: bool


def legendre_validation(grid, l_max):
    """Check the singular Sturm-Liouville operator against its exact spectrum.

    At the profile h = 2*theta with kappa = 4 the assembled operator equals
    the (negated, shifted) Legendre operator, so its eigenvalues must approach
    l(l+1) - 4 for l = 1..l_max; equivalently the underlying operator's
    eigenvalues approach -l(l+1).  Runs the comparison on the given grid and
    on its refinement to expose the second-order convergence of the stencil.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")

    def deviations(g):
        saddle_profile = make_initial_second_type(g)
        op = assemble_second_variation(saddle_profile, EnergyParams(4.0))
        res = eigs_lowest(op, l_max)
        ls = np.arange(1, l_max + 1)
        exact = ls * (ls + 1.0) - 4.0
        return res, exact, np.abs(res.eigenvalues - exact)

    res_c, exact, dev_c = deviations(grid)
    fine = make_grid(2 * grid.n)
    res_f, _, dev_f = deviations(fine)
    max_c = float(dev_c.max())
    max_f = float(dev_f.max())
    endpoints_zero = bool(np.all(res_c.eigenvectors[:, 0] == 0.0)
                          and np.all(res_c.eigenvectors[:, -1] == 0.0))
    return LegendreReport(n_coarse=grid.n, n_fine=fine.n, exact=exact,
                          computed_coarse=res_c.eigenvalues,
                          computed_fine=res_f.eigenvalues,
                          max_deviation_coarse=max_c,
                          max_deviation_fine=max_f,
                          refinement_ratio=max_c / max_f if max_f > 0 else np.inf,
                          endpoints_zero=endpoints_zero)


def classify(p, params, k=4):
    """Spectrum of the second variation at an (approximately) stationary profile.

    Rejects input whose sup residual is not below 1e-6: off critical points
    the Morse data is meaningless.  The returned result also carries the
    value of the second variation in the explicit direction
    (h' - 1) sin(theta), the certificate the saddle pipelines report.
    """
    res_sup = residual_supnorm(p, params)
    if res_sup >= 1e-6:
        raise ValueError(f"profile is not stationary: sup residual {res_sup:.3g} >= 1e-06")
    op = assemble_second_variation(p, params)
    result = eigs_lowest(op, k)
    # zero-classification slack on the scale of the low spectrum itself, not
    # of the operator norm (which grows like 1/dtheta^2)
    tol = 1e-6 * max(1.0, float(np.max(np.abs(result.eigenvalues))))
    direction = perturbation_direction(p)
    value = second_variation_form(p, params, direction)
    return replace(result, explicit_direction_value=value,
                   morse_index=_certified_morse(op, result.eigenvalues, tol),
                   tol=tol)
