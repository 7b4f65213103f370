"""Lowest eigenpairs of the second-variation operator and saddle classification.

The lowest eigenpairs of the symmetrized tridiagonal matrix B are Ritz
pairs: LAPACK's bisection (stebz) only separates the k lowest eigenvalues, to
a loose absolute tolerance, inverse iteration (stein) gives k vectors, and
one Rayleigh-Ritz step on B gives the values, the vectors and their
residuals (Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 11).  When B
is mirror-symmetric the first two steps run on its two reflection sectors,
each vector on a half-length block.  One Sturm count at the largest Ritz
value plus the residual norm certifies that no lower eigenvalue was missed;
if it fails, the solve is repeated once at full bisection precision on the
whole matrix.  The Morse index read off the pairs is
certified by a separate call that asks a different question, LAPACK's Sturm
count at the shift (stebz in value mode; Sylvester's law of inertia), and a
disagreement is an error.  The same count answers the kappa1 probe's saddle
test on its own: lambda1 < -1e-8 < 1e-8 < lambda2 holds exactly when the
counts at -1e-8 and +1e-8 are both 1, so the probe makes no eigensolve.
``classify``'s certificate is a quadratic form of the same operator, so a
negative one implies lambda1 < 0 exactly.  The dense eigensolve in the test
suite (``numpy.linalg.eigvalsh``, LAPACK syevd) stays an independent oracle.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._lapack import dstebz, dstein, dsyevd
from .energy import EnergyParams, assemble_second_variation, residual_supnorm
from .grid import make_grid
from .profile import make_initial_second_type, perturbation_direction

# stebz's absolute tolerance in eigs_lowest: bisection only has to separate
# the k lowest eigenvalues for stein; the Ritz step gives the values
_ABSTOL = 1e-2


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray        # ascending
    eigenvectors: np.ndarray       # shape (k, n+1), sin-weighted orthonormal
    morse_index: int
    tol: float
    residuals: np.ndarray          # ||A v - lambda v||_w per pair
    operator_scale: float
    explicit_direction_value: float | None = None
    residual_sup: float | None = None


def _check_info(name, info):
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} returned info = {info}")


def negative_count(diag, off, shift):
    """Number of eigenvalues at or below shift: LAPACK's Sturm count (stebz).

    In value mode on (-1e300, shift], with a tolerance wider than that, stebz
    counts the negative pivots of T - shift = L D L^T (Sylvester's law of
    inertia; tiny pivots become -pivmin as in dlaebz) and refines nothing.
    """
    m, _, _, _, info = dstebz(diag, off, 1, -1e300, shift, 0, 0, 1e300, b"E")
    _check_info("dstebz", info)
    return int(m)


def _certified_morse(op, eigenvalues, tol):
    """Morse index below -tol, certified by the Sturm count at shift -tol.

    ``eigenvalues`` are the k lowest.  With fewer than k of them below -tol
    the count must equal that number; with all k below, it must be at
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


def _require_pair_count(op, k):
    if not 1 <= k <= op.dimension:
        raise ValueError(f"k = {k} out of range 1..{op.dimension}")


def _mirror_symmetric(op, scale):
    """Whether B equals its reflection about the middle row to rounding.

    Then B splits exactly into the reflection sectors, v(pi - t) = -v(t) and
    v(pi - t) = v(t).  The test reads the operator's bands, not a profile.
    """
    if op.dimension % 2 == 0 or op.dimension < 3:
        return False
    d, e = op.diag, op.offdiag
    slack = 1e-12 * scale
    return bool(np.max(np.abs(d - d[::-1])) <= slack
                and np.max(np.abs(e - e[::-1])) <= slack)


def _ritz_pairs(op, k, abstol, split):
    """k Ritz pairs of B from loose bisection, inverse iteration and one Ritz step.

    stebz (index mode, ``abstol``) and stein give k vectors Y, on the two
    sector blocks when ``split``: one block-diagonal matrix, which LAPACK
    splits at its zero coupling.  Leading c x c is the node-odd block, with
    the midpoint as a Dirichlet node; the next (c+1) x (c+1) is the node-even
    block, its last coupling times sqrt(2).  H = Y^T B Y is then solved
    densely; returns the Ritz values, the Ritz vectors as rows and their
    residuals B x - theta x, all from one product B Y with the true B.
    """
    d, e = op.diag, op.offdiag
    c = op.dimension // 2
    if split:
        d = np.concatenate((d[:c], d[:c + 1]))
        e = np.concatenate((e[:c - 1], [0.0], e[:c - 1], [np.sqrt(2.0) * e[c - 1]]))
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, 1, k, abstol, b"B")
    _check_info("dstebz", info)
    z, info = dstein(d, e, w[:m], iblock, isplit)
    _check_info("dstein", info)
    ys = z.T
    if split:
        # back to the whole interval: a node-odd u is [u, 0, -reverse(u)] / sqrt(2),
        # a node-even [a, b] is [a / sqrt(2), b, reverse(a) / sqrt(2)]; stein
        # leaves each vector zero outside its own block
        odd, even = ys[:, :c], ys[:, c:]
        ys = np.hstack(((odd + even[:, :c]) / np.sqrt(2.0), even[:, c:],
                        (even[:, c - 1::-1] - odd[:, ::-1]) / np.sqrt(2.0)))
    bys = np.array([op._matvec(y) for y in ys])
    theta, g, info = dsyevd(ys @ bys.T)
    _check_info("dsyevd", info)
    ritz = g.T @ ys
    return theta, ritz, g.T @ bys - theta[:, None] * ritz


def eigs_lowest(op, k):
    """Lowest k eigenpairs of a TridiagonalOperator.

    Ritz pairs of the symmetrized matrix B (see ``_ritz_pairs``), certified
    by one Sturm count: with R the pair residuals, exactly k eigenvalues lie
    at or below theta_k + ||R||_F, so no lower one was missed (Kahan's bound
    puts an eigenvalue within ||R|| of each Ritz value).  When the count
    disagrees the same solve runs once more at full bisection precision on
    the whole matrix, and that result stands.  In each eigenvector the first
    component whose magnitude exceeds 1e-8 times the largest is made
    positive, then the vector is returned on the full node range (zero at
    the Dirichlet endpoints) and orthonormal in the sin-weighted inner
    product.  The Morse index counts eigenvalues below -tol and is certified
    by one inertia count at -tol.  tol = 1e-6 max(1, max |lambda_i|) is a
    slack on the scale of the low spectrum itself, not of the operator norm
    (which grows like 1/dtheta^2).
    """
    _require_pair_count(op, k)
    scale = op.norm_estimate()
    eigenvalues, ys, r = _ritz_pairs(op, k, _ABSTOL, _mirror_symmetric(op, scale))
    if negative_count(op.diag, op.offdiag, eigenvalues[-1] + np.linalg.norm(r)) != k:
        eigenvalues, ys, r = _ritz_pairs(op, k, 0.0, False)
    # deterministic sign: the first component above 1e-8 of the largest is
    # positive.  Not the largest itself: modes antisymmetric under the
    # hemispheric reflection have two extremes equal up to rounding.
    mags = np.abs(ys)
    first = np.argmax(mags > 1e-8 * mags.max(axis=1, keepdims=True), axis=1)
    ys[ys[np.arange(k), first] < 0] *= -1.0
    residuals = np.linalg.norm(r, axis=1)
    vectors = np.zeros((k, op.dimension + 2))
    vectors[:, 1:-1] = ys / np.sqrt(op.weight)
    tol = 1e-6 * max(1.0, float(np.max(np.abs(eigenvalues))))
    return SpectrumResult(eigenvalues=eigenvalues, eigenvectors=vectors,
                          morse_index=_certified_morse(op, eigenvalues, tol),
                          tol=float(tol), residuals=residuals,
                          operator_scale=scale)


@dataclass(frozen=True)
class LegendreReport:
    computed_fine: np.ndarray
    max_deviation_coarse: float
    max_deviation_fine: float
    refinement_ratio: float


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
        return res.eigenvalues, np.abs(res.eigenvalues - exact)

    _, dev_c = deviations(grid)
    computed_fine, dev_f = deviations(make_grid(2 * grid.n))
    max_c = float(dev_c.max())
    max_f = float(dev_f.max())
    return LegendreReport(computed_fine=computed_fine,
                          max_deviation_coarse=max_c,
                          max_deviation_fine=max_f,
                          refinement_ratio=max_c / max_f if max_f > 0 else np.inf)


def classify(p, params, k=4):
    """Spectrum of the second variation at an (approximately) stationary profile.

    Rejects input whose sup residual is not below 1e-6: off critical points
    the Morse data is meaningless.  The result also carries that sup
    residual and the certificate the saddle pipelines report, <A g, g> for
    g = (h' - 1) sin(theta) on the operator A it solves, so
    lambda1 <= <A g, g> / <g, g> holds exactly.
    """
    res_sup = residual_supnorm(p, params)
    if res_sup >= 1e-6:
        raise ValueError(f"profile is not stationary: sup residual {res_sup:.3g} >= 1e-06")
    op = assemble_second_variation(p, params)
    value = op.quadratic_form(perturbation_direction(p)[1:-1])
    return replace(eigs_lowest(op, k), explicit_direction_value=value,
                   residual_sup=res_sup)
