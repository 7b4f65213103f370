"""Damped Newton solution of the stationarity equation and kappa-continuation.

The Jacobian is the exact derivative of the discrete interior residual (the
residual is linear in the neighbor values and pointwise-nonlinear in the
center value), so Newton converges quadratically for the discrete problem,
not merely for its continuum limit.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .energy import EnergyParams, el_residual, residual_noise_floor

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


def newton_solve(p0, params):
    """Damped Newton iteration on the interior residual.

    Stops once the residual sup-norm is below max(5e-10, 4 x the grid's
    residual noise floor).  Each iteration tries the full step; backtracking
    halves it until the residual sup-norm decreases.  Failure below the
    minimum damping factor, a singular Jacobian (a fold point suspect), or
    exhausting MAX_ITER iterations raises NewtonError.
    """
    tol = _residual_tol(p0.grid)
    p = p0
    # each residual comes with V, so the Jacobian at an accepted trial takes
    # no second sin and cos of 2h
    r, v = el_residual(p, params, with_potential=True)
    norm = float(np.max(np.abs(r)))
    for _ in range(MAX_ITER):
        if norm < tol:
            return p
        ab = p.grid.stencil.jacobian_bands(v)
        try:
            delta = solve_banded((1, 1), ab, -r)
        except LinAlgError as exc:
            raise NewtonError(f"singular Jacobian (fold point suspected): {exc}",
                              residual_norm=norm) from exc
        if not np.all(np.isfinite(delta)):
            raise NewtonError("Jacobian solve produced non-finite update "
                              "(fold point suspected)", residual_norm=norm)
        alpha = 1.0
        while alpha >= MIN_DAMPING:
            values = p.values.copy()
            values[1:-1] += alpha * delta
            values.setflags(write=False)
            trial = type(p)(grid=p.grid, values=values, m=p.m, n_end=p.n_end)
            r_trial, v_trial = el_residual(trial, params, with_potential=True)
            norm_trial = float(np.max(np.abs(r_trial)))
            if norm_trial < norm:
                p, r, v, norm = trial, r_trial, v_trial, norm_trial
                break
            alpha *= 0.5
        else:
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
    larger).  Each accepted point seeds Newton at the next kappa.  Newton
    failure past the first step ends the branch with a bracketing interval
    (suspected fold or bifurcation); failure on the very first step raises.
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
    first_step = True
    while (target_kappa - kappa) * direction > 1e-12:
        nxt = kappa + dk
        if (nxt - target_kappa) * direction > 0:
            nxt = target_kappa
        try:
            profile = newton_solve(profile, EnergyParams(nxt))
        except NewtonError as exc:
            if first_step:
                raise
            fold = (kappa, nxt)
            break
        points.append(BranchPoint(kappa=nxt, profile=profile))
        kappa = nxt
        first_step = False
    return Branch(points=tuple(points), suspected_fold=fold)
