"""Time integration of the profile heat flow to stationarity.

The PDE  h_t = h'' + cot(t) h' - sin(2h)/(2 sin^2 t) - kappa/2 sin(2h - 2t)
is integrated by a convex-splitting step (Eyre 1998) on the discrete energy
E_w, whose gradient is -w R (``axiferro.energy``):

    (I - dt J0 + dt S) (h_new - h) = dt R(h),

R as in ``axiferro.stencil``, evaluated on the evolved nodes only.  J0 is the
linear part of Newton's Jacobian dR/dh (its off-diagonals and the diagonal
-2/dtheta^2), and S_i = max over h of the reaction potential V_i,

    S_i = sqrt(1/sin^4 t_i + kappa^2 + 2 kappa cos(2 t_i) / sin^2 t_i).

R is the residual the stationarity test has just computed, so the fixed
points satisfy R(h) = 0 for exactly that stencil.  W(-J0), w the node
weights, is the Dirichlet part of E_w's Hessian (symmetric, positive
semidefinite), and S - V >= 0, so for every dt, up to rounding:

- energy decay: E_w(h_new) <= E_w(h) - ||h_new - h||_w^2 / dt;
- order: the matrix is an M-matrix and h + dt (S h - f(h)), f the reaction
  terms, is nondecreasing in h, so ordered profiles stay ordered (the
  discrete comparison principle), and a lower bound with R >= 0 or an upper
  bound with R <= 0 is never crossed.

At every node left of the midpoint R has closed forms on the paper's wedge
bounds: R(theta) = 0, R(pi + theta) = 0, R(pi) = (kappa/2) sin 2theta and
R(2 theta) = (4 - kappa) sin theta cos theta.  So, on [0, pi/2] with the
midpoint pinned and for every dt and n, W1 (pi <= h <= pi + theta) is
invariant at every kappa >= 0, and W2 (theta <= h <= 2 theta) exactly when
kappa >= 4.  Inside either wedge the pole slopes are at most 4, so a flow
from the saddle pipelines' starts never suspects blowup.

The matrix does not depend on the state, so each run factors it once
(``_Kernel``), and the flow never evaluates V.  At large dt the step is a
fixed-point iteration toward R = 0, which the saddle pipelines use at
dt = 1e3; ``FlowConfig``'s default dt = 1 reaches the same limits in a few
tens of steps, and dt = 1e-2 follows the trajectory in time.
Dirichlet endpoints are never touched, so the boundary class is preserved
bitwise.  Each run updates the evolved values in place; the monitors read
that state where it is, and a profile is built only for the result.

Saddle-point limits carry one flow-unstable direction that is antisymmetric
under the hemispheric reflection; rounding noise seeds it in full-interval
runs.  Hemispheric initial data can therefore be evolved on [0, pi/2] with
the midpoint pinned (``half_interval=True``), which removes that subspace
exactly and lets the flow settle onto the saddle to solver accuracy.
"""

import enum
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dgttrf, dgttrs
from .energy import reduced_energy, residual_noise_floor
from .profile import (WedgeSpec, _add_step, _symmetry_class, hemispheric_deviation,
                      is_hemispheric, wedge_check)

ENERGY_SLACK = 1e-10  # per-step allowance, scaled by 1 + |E0|
BLOWUP_GRAD_THRESHOLD = 1e3  # |h'| near a pole beyond which blowup is suspected


class FlowStatus(enum.Enum):
    STATIONARY = "stationary"
    HORIZON_REACHED = "horizon_reached"
    BLOWUP_SUSPECTED = "blowup_suspected"


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1.0                  # stable at any dt; 1e-2 resolves the trajectory
    max_steps: int = 1000
    stationary_tol: float = 1e-9
    record_every: int = 10
    wedge: WedgeSpec | None = None

    def __post_init__(self):
        for name in ("dt", "stationary_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("max_steps", "record_every"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class FlowRecord:
    t: float
    energy: float
    sup_residual: float
    wedge_ok: bool | None
    hemispheric_dev: float | None
    energy_ok: bool


@dataclass(frozen=True)
class FlowResult:
    final: object
    status: FlowStatus
    records: tuple
    steps: int

    @property
    def energy_monotone(self):
        return all(r.energy_ok for r in self.records)

    @property
    def wedge_always_ok(self):
        """Whether every record was inside the wedge; None without a monitor."""
        verdicts = [r.wedge_ok for r in self.records]
        return None if None in verdicts else all(verdicts)


class _Kernel:
    """One run's step for p0's symmetry class at step size dt, built once.

    ``evaluate`` writes R of a node array into a given array, ``advance``
    takes one convex-splitting step of a node array in place, and ``relax``
    is the step loop that ``run``, ``comparison_trial`` and the saddle
    pipelines share.  The step matrix I - dt J0 + dt S does not depend on
    the state, so it is factored here, once, by LAPACK gttrf; each step is
    one gttrs solve.  ``half`` picks p0's symmetry class: the nodes left of
    the midpoint, which each step pins and reflects (``_add_step``), or all
    n - 1 interior nodes.
    """

    def __init__(self, p0, kappa, half, dt):
        st = self.stencil = p0.grid.stencil
        self.kappa = kappa
        m, self.k = _symmetry_class(p0, half)
        self.m = m
        self.dt = dt
        # I - dt (J0 - S): Newton's Jacobian with V replaced by its bound S
        bands = st.jacobian_bands(st.potential_bound(kappa)[:m])
        with np.errstate(over="ignore"):
            dl, d, du = (-dt * band for band in bands)
        if not all(np.isfinite(band).all() for band in (dl, d, du)):
            raise ValueError(f"flow step dt = {dt:g} is too large for n = {p0.grid.n}: "
                             "the step matrix is not finite")
        d += 1.0
        *self.factors, info = dgttrf(dl, d, du)
        if info != 0:
            raise LinAlgError(f"flow step matrix: gttrf returned info = {info}")

    def evaluate(self, h, r):
        """R of the node array h at nodes 1..m into r; returns sup |R|."""
        self.stencil.evaluate(h, self.kappa, r, None)
        return float(np.abs(r).max())

    def advance(self, h, r):
        """One step of nodes 1..m of the node array h, in place.

        ``r`` is R of ``h`` at nodes 1..m.  (I - dt J0 + dt S) delta = dt R
        is solved by one LAPACK gttrs call on the factors.  Raises ValueError,
        leaving h as it was, when the update is not finite.  Endpoints are
        never written.
        """
        delta, info = dgttrs(*self.factors, self.dt * r, overwrite_b=1)
        if info != 0:
            raise LinAlgError(f"flow update: gttrs returned info = {info}")
        if not np.isfinite(delta).all():
            raise ValueError("flow update is not finite")
        _add_step(h, delta, self.k)

    def relax(self, hs, tol, max_steps):
        """Step the node arrays hs together, in place, towards stationarity.

        Yields (steps, sups), sups the sup |R| of each array, at the start and
        after every step; R is evaluated once per array and state, and the
        next step reuses it.  Returns once every sup is below tol or after
        ``max_steps`` steps, whose last state is yielded and tested too.
        """
        rs = np.empty((len(hs), self.m))
        for steps in range(max_steps + 1):
            sups = [self.evaluate(h, r) for h, r in zip(hs, rs)]
            yield steps, sups
            if steps == max_steps or all(sup < tol for sup in sups):
                return
            for h, r in zip(hs, rs):
                self.advance(h, r)


def detect_blowup(p):
    """Heuristic pole-gradient blowup detector.

    Fires on any non-finite value or when |h'| within five mesh widths of
    either pole exceeds ``BLOWUP_GRAD_THRESHOLD``.  Gradient concentration
    anywhere else cannot represent a genuine singularity of this flow.
    """
    v = p.values
    if not np.isfinite(v).all():
        return True
    # the second-order slopes of np.gradient at the 6 nodes with theta < 5*dtheta
    # at each pole, pole node included: central inside, one-sided at the pole,
    # on the two 7-node windows read as Python floats
    a, b = v[:7].tolist(), v[-7:].tolist()
    steepest = max(map(abs, (4.0 * a[1] - 3.0 * a[0] - a[2],
                             3.0 * b[6] - 4.0 * b[5] + b[4],
                             *map(operator.sub, a[2:], a[:5]),
                             *map(operator.sub, b[2:], b[:5]))))
    return bool(steepest / (2.0 * p.grid.dtheta) > BLOWUP_GRAD_THRESHOLD)


def _require_resolvable(n, tol):
    """Refuse a stationarity tolerance the residual on n subintervals cannot reach."""
    floor = residual_noise_floor(n) if n else 0.0  # n = 0 is make_grid's to refuse
    if floor >= tol:
        raise ValueError(f"grid n={n} is too fine for the stationarity tolerance "
                         f"{tol:g}: its residual noise floor {floor:.3g} is not below "
                         "it, so the flow cannot become stationary")


def run(p0, params, cfg=None, half_interval=False):
    """Integrate until discretely stationary, ``cfg.max_steps`` steps, or suspected blowup.

    When ``half_interval`` is set, p0 must be hemispheric; the evolution then
    happens on [0, pi/2] with the midpoint pinned at k*pi and the other half
    reconstructed by reflection.  Full- and half-interval runs agree to
    discretization accuracy, which the test suite checks.  Raises ValueError
    if ``cfg.stationary_tol`` is not above the grid's residual noise floor,
    or if ``cfg.dt`` overflows the step matrix.
    """
    cfg = cfg or FlowConfig()
    _require_resolvable(p0.grid.n, cfg.stationary_tol)
    track_hemi = is_hemispheric(p0, 1e-12)
    if half_interval and not track_hemi:
        raise ValueError("half-interval runs need hemispheric initial data "
                         f"(deviation {hemispheric_deviation(p0):.3g})")
    # a half-interval run never uses the right half's residual, -R up to rounding
    kernel = _Kernel(p0, params.kappa, half_interval, cfg.dt)
    # p is the state, over a writable copy of p0's values that the kernel
    # updates in place; records read it, and it is returned read-only.  Its
    # endpoints are never written, so it needs no re-validation
    p = type(p0)(grid=p0.grid, values=p0.values.copy(), m=p0.m, n_end=p0.n_end)
    e_prev = reduced_energy(p0, params)
    slack = ENERGY_SLACK * (1.0 + abs(e_prev))
    records = []
    recorded = 0    # steps at the last record

    def record(steps, sup_res):
        nonlocal e_prev, recorded
        e = reduced_energy(p, params) if records else e_prev
        ok = e <= e_prev + slack * max(steps - recorded, 1)
        wedge_ok = None if cfg.wedge is None else wedge_check(p, cfg.wedge).inside
        dev = hemispheric_deviation(p) if track_hemi else None
        records.append(FlowRecord(t=steps * cfg.dt, energy=e, sup_residual=sup_res,
                                  wedge_ok=wedge_ok, hemispheric_dev=dev,
                                  energy_ok=ok))
        e_prev, recorded = e, steps

    status = FlowStatus.HORIZON_REACHED
    for steps, (sup_res,) in kernel.relax([p.values], cfg.stationary_tol, cfg.max_steps):
        stationary = sup_res < cfg.stationary_tol
        if not records or steps - recorded >= cfg.record_every or stationary:
            record(steps, sup_res)
        if detect_blowup(p):
            status = FlowStatus.BLOWUP_SUSPECTED
            break
        if stationary:
            status = FlowStatus.STATIONARY
    if steps > recorded:
        record(steps, sup_res)
    p.values.setflags(write=False)
    return FlowResult(final=p, status=status, records=tuple(records),
                      steps=steps)


@dataclass(frozen=True)
class ComparisonVerdict:
    max_violation: float
    steps: int


def comparison_trial(p_lower, p_upper, params, cfg=None):
    """Co-evolve an ordered pair with identical steps and track the ordering.

    The continuous flow preserves pointwise ordering of profiles, and so
    does the step, for every dt, up to rounding (see the module docstring).
    Returns the maximum of (lower - upper) at the start and after every step.
    Refuses a tolerance at or below the noise floor as ``run`` does.
    """
    cfg = cfg or FlowConfig()
    if p_lower.grid is not p_upper.grid and p_lower.grid.n != p_upper.grid.n:
        raise ValueError("profiles must share a grid")
    initial_gap = float(np.max(p_lower.values - p_upper.values))
    if initial_gap > 1e-12:
        raise ValueError(f"initial ordering violated by {initial_gap:.3g}")
    _require_resolvable(p_lower.grid.n, cfg.stationary_tol)
    kernel = _Kernel(p_lower, params.kappa, False, cfg.dt)
    lo, up = p_lower.values.copy(), p_upper.values.copy()
    worst = 0.0
    for steps, _ in kernel.relax([lo, up], cfg.stationary_tol, cfg.max_steps):
        worst = max(worst, float(np.max(lo - up)))
    return ComparisonVerdict(max_violation=worst, steps=steps)


def write_energy_trace_csv(result, path, header_lines=()):
    """Trace CSV with columns t, E, sup_residual, wedge_ok (1 or 0; empty without
    a wedge monitor)."""
    lines = list(header_lines)
    lines.append("t,E,sup_residual,wedge_ok")
    for r in result.records:
        wedge = "" if r.wedge_ok is None else int(r.wedge_ok)
        lines.append(f"{float(r.t)!r},{r.energy!r},{r.sup_residual!r},{wedge}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
