"""Time integration of the profile heat flow to stationarity.

The PDE  h_t = h'' + cot(t) h' - sin(2h)/(2 sin^2 t) - kappa/2 sin(2h - 2t)
is integrated with a stabilized IMEX Euler step: the divergence-form
Laplacian L h = (1/sin)(sin h')' plus the damping (positive) part of the
diagonal reaction Jacobian are treated implicitly (tridiagonal M-matrix
solve), the rest explicitly.  The update is

    (I - dt L + dt D) (h_new - h) = dt R(h),    D = diag(max(V, 0)),

with R, L and V as in ``axiferro.stencil``, evaluated together on the evolved
nodes only.  R is the residual the stationarity test has just computed, so
the fixed points satisfy R(h) = 0 for exactly that stencil.  Without D the
explicit pole potential -cos(2h)/sin^2(t), of size 1/dtheta^2 at the first
interior node, imposes a dt = O(dtheta^2) stability ceiling; with it the
step limit is set by the physical growth rates alone (dt of order 1/kappa).
Dirichlet endpoints are never touched, so the boundary class is preserved
bitwise.  Each run builds one step workspace (``_Kernel``) and updates the
evolved values in place; the monitors read that state where it is, and a
profile is built only for the result.

Saddle-point limits carry one flow-unstable direction that is antisymmetric
under the hemispheric reflection; rounding noise seeds it in full-interval
runs.  Hemispheric initial data can therefore be evolved on [0, pi/2] with
the midpoint pinned (``half_interval=True``), which removes that subspace
exactly and lets the flow settle onto the saddle to solver accuracy.

The saddle pipelines need only the flow's end point, a zero of R whatever the
step, so they relax with growing steps (``_relax``) instead of ``run``'s
fixed one; ``run`` keeps the time axis and the energy trace.
"""

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .energy import reduced_energy, residual_noise_floor
from .profile import (WedgeSpec, hemispheric_deviation, is_hemispheric,
                      wedge_check)

ENERGY_SLACK = 1e-10  # per-step allowance, scaled by 1 + |E0|
BLOWUP_GRAD_THRESHOLD = 1e3  # |h'| near a pole beyond which blowup is suspected


class FlowStatus(enum.Enum):
    STATIONARY = "stationary"
    HORIZON_REACHED = "horizon_reached"
    BLOWUP_SUSPECTED = "blowup_suspected"


@dataclass(frozen=True)
class FlowConfig:
    dt: float | None = None          # None: min(1e-2, 0.5/max(kappa, 1))
    t_max: float = 1e3
    stationary_tol: float = 1e-9
    record_every: int = 10
    wedge: WedgeSpec | None = None

    def __post_init__(self):
        for name in ("dt", "t_max", "stationary_tol"):
            value = getattr(self, name)
            if name == "dt" and value is None:
                continue
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    def effective_dt(self, kappa):
        if self.dt is not None:
            return self.dt
        return min(1e-2, 0.5 / max(kappa, 1.0))


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
        return all(r.wedge_ok for r in self.records if r.wedge_ok is not None)


class _Kernel:
    """One run's step workspace for the evolved nodes 1..m, built once.

    ``evaluate`` writes R and V of a node array into given buffers and
    ``advance`` takes one stabilized IMEX step from a node array into another
    (or the same) one, both in place: the scratch for 2h, its sin and cos,
    |R|, and the gtsv diagonal, right-hand side and off-diagonal copies are
    allocated here and reused by every step.  When m = n/2 - 1 the update is
    a half-interval one: the midpoint is pinned at k*pi, k = (p0.m + p0.n_end)/2,
    and the right half is the reflection of the left.
    """

    def __init__(self, p0, kappa, m):
        self.stencil = p0.grid.stencil
        self.kappa = kappa
        self.m = m
        self.work = np.empty((4, m))
        self.abs_r = np.empty(m)
        self.dl, self.du = np.empty((2, m - 1))
        self.d, self.rhs = np.empty((2, m))
        self.bands = np.empty((3, m))
        self.dt = None
        mid = p0.grid.midpoint_index
        self.mid = mid if m == mid - 1 else None
        self.k = (p0.m + p0.n_end) // 2

    def evaluate(self, h, r, v):
        """R and V of the node array h at nodes 1..m into r and v; returns sup |R|."""
        self.stencil.evaluate(h, self.kappa, r, v, self.work)
        return float(np.abs(r, out=self.abs_r).max())

    def advance(self, src, dst, dt, r, v):
        """One step of nodes 1..m from node array src into dst (which may be src).

        ``r`` and ``v`` are R and V of ``src`` at nodes 1..m.  The system
        (I - dt L + dt D) delta = dt R, D = diag(max(V, 0)), is solved by
        LAPACK gtsv, called directly: the routine solve_banded((1, 1), ...)
        dispatches to, without its wrapper's validation and copies.  Raises
        ValueError, leaving dst as it was, when the update is not finite.
        Endpoints are never written.
        """
        m = self.m
        if dt != self.dt:
            # I - dt L on nodes 1..m, Dirichlet outside
            np.multiply(dt, self.stencil.divergence_bands[:, :m], out=self.bands)
            self.bands[1] += 1.0
            self.dt = dt
        np.copyto(self.dl, self.bands[2, :-1])
        np.copyto(self.du, self.bands[0, 1:])
        # the positive part of the potential V is the implicit damping D
        d = np.maximum(v, 0.0, out=self.d)
        np.multiply(dt, d, out=d)
        np.add(self.bands[1], d, out=d)
        np.multiply(dt, r, out=self.rhs)
        *_, delta, info = dgtsv(self.dl, d, self.du, self.rhs, overwrite_dl=1,
                                overwrite_d=1, overwrite_du=1, overwrite_b=1)
        if info != 0:
            raise LinAlgError(f"flow update: gtsv returned info = {info}")
        if not np.isfinite(delta).all():
            raise ValueError("flow update is not finite")
        np.add(src[1:m + 1], delta, out=dst[1:m + 1])
        mid = self.mid
        if mid is not None:
            dst[mid] = self.k * np.pi
            np.subtract(2.0 * np.pi * self.k, dst[mid - 1:0:-1], out=dst[mid + 1:-1])


def _live(p):
    """p over a writable copy of its values: a state a _Kernel updates in place."""
    return type(p)(grid=p.grid, values=p.values.copy(), m=p.m, n_end=p.n_end)


def _frozen(p):
    """The state p, read-only from here on: the profile to hand out.

    Its endpoints were never written, so it needs no re-validation.
    """
    p.values.setflags(write=False)
    return p


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
    floor = residual_noise_floor(n)
    if floor >= tol:
        raise ValueError(f"grid n={n} is too fine for the stationarity tolerance "
                         f"{tol:g}: its residual noise floor {floor:.3g} is not below "
                         "it, so the flow cannot become stationary")


def run(p0, params, cfg=None, half_interval=False):
    """Integrate until discretely stationary, the horizon, or suspected blowup.

    When ``half_interval`` is set, p0 must be hemispheric; the evolution then
    happens on [0, pi/2] with the midpoint pinned at k*pi and the other half
    reconstructed by reflection.  Full- and half-interval runs agree to
    discretization accuracy, which the test suite checks.  Raises ValueError
    if ``cfg.stationary_tol`` is not above the grid's residual noise floor.
    """
    cfg = cfg or FlowConfig()
    _require_resolvable(p0.grid.n, cfg.stationary_tol)
    dt = cfg.effective_dt(params.kappa)
    track_hemi = is_hemispheric(p0, 1e-12)
    if half_interval and not track_hemi:
        raise ValueError("half-interval runs need hemispheric initial data "
                         f"(deviation {hemispheric_deviation(p0):.3g})")
    # the evolved nodes 1..m; in half-interval runs the right half is the
    # reflection, whose residual is -R up to rounding and is never used
    m = p0.grid.midpoint_index - 1 if half_interval else p0.grid.n - 1
    kernel = _Kernel(p0, params.kappa, m)
    # p is the state, updated in place; records read it, and it is returned
    p = _live(p0)
    h = p.values
    r, v = np.empty((2, m))
    t = 0.0
    steps = 0
    e_prev = reduced_energy(p0, params)
    slack = ENERGY_SLACK * (1.0 + abs(e_prev))
    records = []
    steps_since_record = 0

    def record(sup_res):
        nonlocal e_prev, steps_since_record
        e = reduced_energy(p, params) if records else e_prev
        ok = e <= e_prev + slack * max(steps_since_record, 1)
        wedge_ok = None if cfg.wedge is None else wedge_check(p, cfg.wedge).inside
        dev = hemispheric_deviation(p) if track_hemi else None
        records.append(FlowRecord(t=t, energy=e, sup_residual=sup_res,
                                  wedge_ok=wedge_ok, hemispheric_dev=dev,
                                  energy_ok=ok))
        e_prev = e
        steps_since_record = 0

    status = FlowStatus.HORIZON_REACHED
    # one evaluation of R and V per step: the stationarity test's R, reused
    # by the next update
    sup_res = kernel.evaluate(h, r, v)
    record(sup_res)
    while t < cfg.t_max:
        if detect_blowup(p):
            status = FlowStatus.BLOWUP_SUSPECTED
            break
        if sup_res < cfg.stationary_tol:
            status = FlowStatus.STATIONARY
            break
        kernel.advance(h, h, dt, r, v)
        t += dt
        steps += 1
        steps_since_record += 1
        sup_res = kernel.evaluate(h, r, v)
        if steps_since_record >= cfg.record_every or sup_res < cfg.stationary_tol:
            record(sup_res)
    if records[-1].t < t:
        record(sup_res)
    return FlowResult(final=_frozen(p), status=status, records=tuple(records),
                      steps=steps)


def _relax(p0, params, cfg):
    """Relax hemispheric p0 on the half interval with switched-evolution steps.

    The step is ``run``'s, at a step size dt that grows as the residual falls
    (Mulder & van Leer 1985): after an accepted step dt becomes
    dt * min(2, r_old / r_new), r the sup residual on the evolved nodes.  A
    trial whose update is not finite, whose r exceeds the current one, or
    that leaves ``cfg.wedge`` is rejected: the state is kept and dt halves.
    dt never falls below dt0 = ``cfg.effective_dt(kappa)``, and a trial at
    dt0 is ``run``'s own step, taken whenever it is finite, so at worst this
    is ``run``.  Stops on suspected blowup, at r < ``cfg.stationary_tol``, or
    after ceil(t_max / dt0) trials; t itself is not tracked.  Records
    nothing; returns the final profile and its FlowStatus.  Refuses a
    tolerance at or below the noise floor as ``run`` does.
    """
    _require_resolvable(p0.grid.n, cfg.stationary_tol)
    dt0 = dt = cfg.effective_dt(params.kappa)
    m = p0.grid.midpoint_index - 1
    kernel = _Kernel(p0, params.kappa, m)
    # the current state and the trial, each with its R and V; an accepted
    # trial swaps with the state, a rejected one leaves the state untouched
    cur = (_live(p0), *np.empty((2, m)))
    nxt = (_live(p0), *np.empty((2, m)))
    sup = kernel.evaluate(cur[0].values, cur[1], cur[2])

    def attempt(dt):
        """The trial from the state at dt into nxt: its r, or None if rejected."""
        above = dt > dt0
        (p, r, v), (q, r_q, v_q) = cur, nxt
        try:
            kernel.advance(p.values, q.values, dt, r, v)
        except ValueError:  # a non-finite update, or gtsv failed (LinAlgError)
            if not above:
                raise
            return None
        if above and cfg.wedge is not None and not wedge_check(q, cfg.wedge).inside:
            return None
        sup_q = kernel.evaluate(q.values, r_q, v_q)
        if above and sup_q > sup:
            return None
        return sup_q

    for _ in range(math.ceil(cfg.t_max / dt0)):
        if detect_blowup(cur[0]):
            return _frozen(cur[0]), FlowStatus.BLOWUP_SUSPECTED
        if sup < cfg.stationary_tol:
            return _frozen(cur[0]), FlowStatus.STATIONARY
        sup_new = attempt(dt)
        if sup_new is None:
            dt = max(dt0, 0.5 * dt)
            continue
        cur, nxt = nxt, cur
        dt = max(dt0, 2.0 * dt if 2.0 * sup_new <= sup else dt * sup / sup_new)
        sup = sup_new
    return _frozen(cur[0]), FlowStatus.HORIZON_REACHED


@dataclass(frozen=True)
class ComparisonVerdict:
    max_violation: float
    t_end: float
    steps: int


def comparison_trial(p_lower, p_upper, params, cfg=None):
    """Co-evolve an ordered pair with identical steps and track the ordering.

    The continuous flow preserves pointwise ordering of profiles; the
    discrete scheme should too, up to discretization slack.  Returns the
    maximum of (lower - upper) seen at any recorded time.  Refuses a
    tolerance at or below the noise floor as ``run`` does.
    """
    cfg = cfg or FlowConfig()
    initial_gap = float(np.max(p_lower.values - p_upper.values))
    if initial_gap > 1e-12:
        raise ValueError(f"initial ordering violated by {initial_gap:.3g}")
    if p_lower.grid is not p_upper.grid and p_lower.grid.n != p_upper.grid.n:
        raise ValueError("profiles must share a grid")
    _require_resolvable(p_lower.grid.n, cfg.stationary_tol)
    dt = cfg.effective_dt(params.kappa)
    m = p_lower.grid.n - 1
    kernel = _Kernel(p_lower, params.kappa, m)
    lo, up = p_lower.values.copy(), p_upper.values.copy()
    r_lo, v_lo, r_up, v_up = np.empty((4, m))
    t = 0.0
    steps = 0
    worst = max(initial_gap, 0.0)
    while t < cfg.t_max:
        sup_lo = kernel.evaluate(lo, r_lo, v_lo)
        sup_up = kernel.evaluate(up, r_up, v_up)
        if sup_lo < cfg.stationary_tol and sup_up < cfg.stationary_tol:
            break
        kernel.advance(lo, lo, dt, r_lo, v_lo)
        kernel.advance(up, up, dt, r_up, v_up)
        t += dt
        steps += 1
        if steps % cfg.record_every == 0:
            worst = max(worst, float(np.max(lo - up)))
    worst = max(worst, float(np.max(lo - up)))
    return ComparisonVerdict(max_violation=worst, t_end=t, steps=steps)


def write_energy_trace_csv(result, path, header_lines=()):
    """Trace CSV with columns t, E, sup_residual, wedge_ok(0/1)."""
    lines = list(header_lines)
    lines.append("t,E,sup_residual,wedge_ok")
    for r in result.records:
        wedge = 1 if (r.wedge_ok is None or r.wedge_ok) else 0
        lines.append(f"{float(r.t)!r},{r.energy!r},{r.sup_residual!r},{wedge}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
