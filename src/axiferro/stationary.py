"""Damped Newton solution of the stationarity equation and kappa-continuation.

The Jacobian is the exact derivative of the discrete interior residual (the
residual is linear in the neighbor values and pointwise-nonlinear in the
center value), so Newton converges quadratically for the discrete problem,
not merely for its continuum limit.
"""

from dataclasses import dataclass

import numpy as np

# LAPACK's tridiagonal solve, called once per Newton iteration; perfbench's
# tracer counts the iterations as calls of this module name
from ._lapack import dgtsv as solve_banded
from .energy import EnergyParams, el_residual, residual_noise_floor
from .profile import _add_step, _symmetry_class, is_hemispheric

MAX_ITER = 50
MIN_DAMPING = 2.0 ** -20


class NewtonError(RuntimeError):
    """Newton iteration failed; carries the last residual sup-norm."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


def _residual_tol(grid):
    """Newton target: tight, but never below the residual evaluation noise floor."""
    return max(5e-10, 4.0 * residual_noise_floor(grid.n))


def newton_solve(p0, params, *, damped=True):
    """Newton iteration on the interior residual, damped by default.

    Stops once the residual sup-norm is below max(5e-10, 4 x the grid's
    residual noise floor).  Each iteration tries the full step; with
    ``damped`` (the default) backtracking halves it until the residual
    sup-norm decreases, and failure below MIN_DAMPING raises NewtonError.
    With ``damped=False`` only the full step is tried, and one that does not
    lower the sup residual raises NewtonError naming both residuals: the
    plain Newton corrector of predictor-corrector continuation, whose failed
    full step is the signal to stop (Allgower & Georg, 1990, ch. 2;
    Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 5).  A
    singular Jacobian (a fold point suspect) or exhausting MAX_ITER
    iterations raises NewtonError either way.

    A hemispheric start (deviation at most 1e-12, the test ``flow.run``
    makes) is solved in its symmetry class, by the half-interval flow's
    update (``profile._add_step``): Newton iterates on the nodes left of the
    midpoint, pins the midpoint at k*pi, writes the right half as their
    reflection, and takes the stopping sup over those nodes.  Its Jacobian
    is the leading square block of the full one on those nodes: the
    node-odd block, the directions that keep the symmetry.  It stays
    invertible where a symmetry-breaking direction makes the full Jacobian
    singular (first type at kappa_s = 6.0454, where lambda1 crosses zero).
    Every other start iterates on all n - 1 interior nodes.
    """
    tol = _residual_tol(p0.grid)
    m, k = _symmetry_class(p0, is_hemispheric(p0, 1e-12))
    min_alpha = MIN_DAMPING if damped else 1.0
    p = p0
    # each residual comes with V, so the Jacobian at an accepted trial takes
    # no second sin and cos of 2h
    r, v = el_residual(p, params, with_potential=True, nodes=m)
    norm = float(np.max(np.abs(r)))
    if not np.isfinite(norm):
        raise NewtonError("residual is not finite", residual_norm=norm)
    for _ in range(MAX_ITER):
        if norm < tol:
            return p
        *_, delta, info = solve_banded(*p.grid.stencil.jacobian_bands(v), -r)
        if info > 0:
            raise NewtonError(f"singular Jacobian (fold point suspected): "
                              f"dgtsv pivot {info} is exactly zero", residual_norm=norm)
        if not np.all(np.isfinite(delta)):
            raise NewtonError("Jacobian solve produced non-finite update "
                              "(fold point suspected)", residual_norm=norm)
        alpha = 1.0
        while alpha >= min_alpha:
            values = p.values.copy()
            _add_step(values, alpha * delta, k)
            values.setflags(write=False)
            trial = type(p)(grid=p.grid, values=values, m=p.m, n_end=p.n_end)
            r_trial, v_trial = el_residual(trial, params, with_potential=True, nodes=m)
            norm_trial = float(np.max(np.abs(r_trial)))
            if norm_trial < norm:
                p, r, v, norm = trial, r_trial, v_trial, norm_trial
                break
            alpha *= 0.5
        else:
            if not damped:
                raise NewtonError(f"full Newton step did not lower the residual: "
                                  f"{norm:.3g} -> {norm_trial:.3g}",
                                  residual_norm=norm)
            raise NewtonError(f"line search stalled at residual {norm:.3g}",
                              residual_norm=norm)
    if norm < tol:
        return p
    raise NewtonError(f"no convergence in {MAX_ITER} iterations; "
                      f"last residual {norm:.3g}", residual_norm=norm)


@dataclass(frozen=True)
class BranchPoint:
    kappa: float
    profile: object


@dataclass(frozen=True)
class Branch:
    points: tuple
    suspected_fold: tuple | None = None  # (last good kappa, failed kappa)

    @property
    def reached(self):
        return self.points[-1].kappa


def continue_branch(start_kappa, start, target_kappa, dk):
    """Natural-parameter continuation of a solution family in kappa.

    The start must be stationary to Newton's tolerance (or 1e-9, if that is
    larger).  The first step seeds Newton with the start; from the third
    point on Newton starts from the secant predictor through the last two
    points, p_k + (kappa_next - kappa_k) / (kappa_k - kappa_{k-1}) (p_k -
    p_{k-1}) (Allgower & Georg, Numerical Continuation Methods, 1990, ch. 2).
    The first step has no predictor and keeps Newton's line search; every
    predicted step is an undamped Newton solve (``damped=False``), so a full
    step from the predictor that does not lower the sup residual ends the
    branch at once instead of being halved down to MIN_DAMPING.  A dk too
    long for the predictor can therefore end a branch that a smaller dk
    follows further.
    A hemispheric start keeps every Newton solve on the half interval (see
    ``newton_solve``).  Newton failure past the first step ends the branch
    with a bracketing interval (suspected fold or bifurcation); failure on
    the very first step raises.
    """
    r0 = float(np.max(np.abs(el_residual(start, EnergyParams(start_kappa)))))
    if r0 >= max(_residual_tol(start.grid), 1e-9):
        raise ValueError(f"start profile is not stationary at kappa={start_kappa} "
                         f"(sup residual {r0:.3g})")
    if target_kappa != start_kappa and dk == 0:
        raise ValueError("dk must be nonzero")
    if (target_kappa - start_kappa) * dk < 0:
        raise ValueError(f"dk={dk} points away from target {target_kappa}")

    points = [BranchPoint(kappa=start_kappa, profile=start)]
    direction = int(np.sign(target_kappa - start_kappa))
    if direction == 0:
        return Branch(points=tuple(points))

    fold = None
    kappa = start_kappa
    profile = start
    while (target_kappa - kappa) * direction > 1e-12:
        nxt = kappa + dk
        if (nxt - target_kappa) * direction > 0:
            nxt = target_kappa
        guess = profile
        if len(points) > 1:
            prev = points[-2]
            values = profile.values + ((nxt - kappa) / (kappa - prev.kappa)
                                       * (profile.values - prev.profile.values))
            values.setflags(write=False)
            guess = type(profile)(grid=profile.grid, values=values, m=profile.m,
                                  n_end=profile.n_end)
        try:
            profile = newton_solve(guess, EnergyParams(nxt), damped=len(points) == 1)
        except NewtonError:
            if len(points) == 1:
                raise
            fold = (kappa, nxt)
            break
        points.append(BranchPoint(kappa=nxt, profile=profile))
        kappa = nxt
    return Branch(points=tuple(points), suspected_fold=fold)
