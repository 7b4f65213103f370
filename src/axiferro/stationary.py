"""Damped Newton solution of the stationarity equation and kappa-continuation.

The Jacobian is the exact derivative of the discrete interior residual (the
residual is linear in the neighbor values and pointwise-nonlinear in the
center value), so Newton converges quadratically for the discrete problem,
not merely for its continuum limit.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .energy import EnergyParams, assemble_second_variation, el_residual

MIN_DAMPING = 2.0 ** -20


class NewtonError(RuntimeError):
    """Newton iteration failed; carries the last residual sup-norm."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class NewtonConfig:
    # the residual evaluation itself carries second-difference rounding noise
    # of order eps/dtheta^2 (~1e-10 at n = 1024); tolerances below that floor
    # are unattainable on fine grids
    max_iter: int = 50
    residual_tol: float = 5e-10

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


def newton_solve(p0, params, cfg=None):
    """Damped Newton iteration on the interior residual.

    Each iteration tries the full step; backtracking halves it until the
    residual sup-norm decreases.  Failure below the minimum damping factor,
    a singular Jacobian (a fold point suspect), or exhausting max_iter
    raises NewtonError.
    """
    cfg = cfg or NewtonConfig()
    p = p0
    # each residual comes with V, so the Jacobian at an accepted trial takes
    # no second sin and cos of 2h
    r, v = el_residual(p, params, with_potential=True)
    norm = float(np.max(np.abs(r)))
    for _ in range(cfg.max_iter):
        if norm < cfg.residual_tol:
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
    if norm < cfg.residual_tol:
        return p
    raise NewtonError(f"no convergence in {cfg.max_iter} iterations; "
                      f"last residual {norm:.3g}", residual_norm=norm)


@dataclass(frozen=True)
class BranchPoint:
    """A solved point of a branch; its two lowest eigenvalues are computed
    (and their Morse index certified) on first read, then kept."""
    kappa: float
    profile: object

    @functools.cached_property
    def _two_lowest(self):
        from .spectrum import eigs_lowest
        op = assemble_second_variation(self.profile, EnergyParams(self.kappa))
        res = eigs_lowest(op, 2)
        return float(res.eigenvalues[0]), float(res.eigenvalues[1])

    @property
    def lambda1(self):
        return self._two_lowest[0]

    @property
    def lambda2(self):
        return self._two_lowest[1]


@dataclass(frozen=True)
class Branch:
    points: tuple
    suspected_fold: tuple | None = None  # (last good kappa, failed kappa)

    @property
    def reached(self):
        return self.points[-1].kappa


def continue_branch(start_kappa, start, target_kappa, dk, cfg=None):
    """Natural-parameter continuation of a solution family in kappa.

    Each accepted point seeds Newton at the next kappa; the two lowest
    eigenvalues of the second-variation operator there are computed when the
    point's lambda1 or lambda2 is first read.  Newton failure past the first
    step ends the branch with a bracketing interval (suspected fold or
    bifurcation); failure on the very first step raises.
    """
    cfg = cfg or NewtonConfig()
    r0 = float(np.max(np.abs(el_residual(start, EnergyParams(start_kappa)))))
    if r0 >= max(cfg.residual_tol, 1e-9):
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
            profile = newton_solve(profile, EnergyParams(nxt), cfg)
        except NewtonError as exc:
            if first_step:
                raise
            fold = (kappa, nxt)
            break
        points.append(BranchPoint(kappa=nxt, profile=profile))
        kappa = nxt
        first_step = False
    return Branch(points=tuple(points), suspected_fold=fold)
