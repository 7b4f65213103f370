"""End-to-end saddle-point pipelines and the kappa sweep.

First type: flow from the sawtooth initial profile (boundary class (1, 1),
wedge W1), Newton polish, spectral classification.  Second type: for
kappa > 4 flow from h = 2*theta (class (0, 2), wedge W2); at kappa = 4 the
profile 2*theta is itself the exact critical point; below 4 the branch is
continued down from it.  Every report is re-validated at emission against
its structural invariants rather than trusted from construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import (EnergyParams, reduced_energy, residual_noise_floor,
                     residual_supnorm)
from .flow import FlowConfig, FlowStatus, run
from .grid import make_grid
from .profile import (W1, W2, WedgeSpec, degree, hemispheric_deviation,
                      make_initial_first_type, make_initial_second_type,
                      wedge_check)
from .spectrum import classify
from .stationary import NewtonConfig, continue_branch, newton_solve

FIRST = "first"
SECOND = "second"

RESIDUAL_BAR = 1e-9     # stationarity bar every emitted report must clear
SYMMETRY_TOL = 1e-8     # wedge and hemisphericity slack on emitted reports


class BlowupError(RuntimeError):
    """The flow reported suspected blowup where theory forbids it."""


class ContinuationError(RuntimeError):
    """Continuation below kappa = 4 died; carries the last good kappa."""

    def __init__(self, message, last_kappa):
        super().__init__(message)
        self.last_kappa = last_kappa


class SaddleValidationError(RuntimeError):
    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class SaddleReport:
    kappa: float
    saddle_type: str
    profile: object
    energy: float
    spectrum: object
    explicit_direction_value: float
    wedge_verdict: object
    hemispheric: bool
    hemispheric_dev: float
    provenance: str
    residual_sup: float
    marginal: bool

    @property
    def lambda1(self):
        return float(self.spectrum.eigenvalues[0])

    @property
    def lambda2(self):
        return float(self.spectrum.eigenvalues[1])

    def validate(self):
        """Structural invariants; returns a list of violations (empty = good)."""
        problems = []
        # the 1e-9 bar holds wherever double precision can evaluate it; on
        # very fine grids (kappa beyond ~2000 at the enforced resolution) the
        # bar follows the residual evaluation noise floor instead
        bar = max(RESIDUAL_BAR, 10.0 * residual_noise_floor(self.profile.grid))
        if self.residual_sup >= bar:
            problems.append(f"sup residual {self.residual_sup:.3g} >= {bar:.3g}")
        expected = (1, 1) if self.saddle_type == FIRST else (0, 2)
        if (self.profile.m, self.profile.n_end) != expected:
            problems.append(f"boundary class {(self.profile.m, self.profile.n_end)} "
                            f"!= {expected}")
        if degree(self.profile) != 0:
            problems.append(f"degree {degree(self.profile)} != 0")
        # wedge invariance is only guaranteed for kappa >= 4; below that the
        # continuation branch may leave W2 and the verdict is informational
        if self.kappa >= 4 and not self.wedge_verdict.inside:
            problems.append(f"wedge violated at node {self.wedge_verdict.node} "
                            f"by {self.wedge_verdict.excess:.3g}")
        if not self.hemispheric:
            problems.append(f"hemispheric deviation {self.hemispheric_dev:.3g}")
        return problems


def grid_for_kappa(kappa, n_min=1024):
    """Default sweep grid: at least 32 nodes per sqrt(kappa) domain-wall width."""
    n = max(n_min, 32 * math.ceil(math.sqrt(max(kappa, 1.0))))
    return make_grid(n + n % 2)


def _pipeline_newton_cfg(grid):
    """Newton target: tight, but never below the evaluation noise floor."""
    return NewtonConfig(residual_tol=max(5e-10, 4.0 * residual_noise_floor(grid)))


def _polish_and_report(profile, kappa, saddle_type, provenance, wedge_kind,
                       newton_cfg, k_eigs):
    params = EnergyParams(kappa)
    newton_cfg = newton_cfg or _pipeline_newton_cfg(profile.grid)
    profile = newton_solve(profile, params, newton_cfg)
    spectrum = classify(profile, params, k=k_eigs)
    dev = hemispheric_deviation(profile)
    verdict = wedge_check(profile, WedgeSpec(wedge_kind, SYMMETRY_TOL))
    res_sup = residual_supnorm(profile, params)
    dir_value = spectrum.explicit_direction_value
    # marginal: neither the explicit direction nor the lowest eigenvalue
    # certifies a saddle (dir_value < 0 implies lambda1 < 0, never the converse)
    marginal = (dir_value >= -1e-10) and (spectrum.eigenvalues[0] >= -spectrum.tol)
    report = SaddleReport(kappa=kappa, saddle_type=saddle_type, profile=profile,
                          energy=reduced_energy(profile, params),
                          spectrum=spectrum,
                          explicit_direction_value=dir_value,
                          wedge_verdict=verdict,
                          hemispheric=dev <= SYMMETRY_TOL,
                          hemispheric_dev=dev,
                          provenance=provenance,
                          residual_sup=res_sup,
                          marginal=marginal)
    problems = report.validate()
    if problems:
        raise SaddleValidationError(problems)
    return report


def find_first_type(kappa, grid=None, newton_cfg=None, flow_cfg=None,
                    k_eigs=4):
    """First-type saddle pipeline: sawtooth initial data, flow, polish, classify."""
    if kappa < 4:
        raise ValueError(f"first-type pipeline requires kappa >= 4, got {kappa}")
    grid = grid or grid_for_kappa(kappa)
    cfg = flow_cfg or FlowConfig(stationary_tol=1e-7,
                                 wedge=WedgeSpec(W1, SYMMETRY_TOL))
    p0 = make_initial_first_type(grid, kappa)
    result = run(p0, EnergyParams(kappa), cfg, half_interval=True)
    if result.status is FlowStatus.BLOWUP_SUSPECTED:
        raise BlowupError(f"flow from the first-type initial profile at kappa="
                          f"{kappa} reported blowup; theory rules this out, so "
                          "this is a discretization failure to investigate")
    return _polish_and_report(result.final, kappa, FIRST, "flow_then_newton",
                              W1, newton_cfg, k_eigs)


def find_second_type(kappa, grid=None, newton_cfg=None, flow_cfg=None,
                     k_eigs=4, continuation_dk=0.05):
    """Second-type saddle pipeline.

    kappa > 4: flow from 2*theta.  kappa = 4: the exact solution, treated as
    the (single-point) continuation seed.  kappa < 4: natural-parameter
    continuation downward from (4, 2*theta).
    """
    if kappa <= 0:
        raise ValueError(f"second-type pipeline requires kappa > 0, got {kappa}")
    grid = grid or grid_for_kappa(kappa)
    start = make_initial_second_type(grid)
    if kappa > 4:
        cfg = flow_cfg or FlowConfig(stationary_tol=1e-7,
                                     wedge=WedgeSpec(W2, SYMMETRY_TOL))
        result = run(start, EnergyParams(kappa), cfg, half_interval=True)
        if result.status is FlowStatus.BLOWUP_SUSPECTED:
            raise BlowupError(f"flow from 2*theta at kappa={kappa} reported "
                              "blowup; theory rules this out for kappa >= 4")
        return _polish_and_report(result.final, kappa, SECOND,
                                  "flow_then_newton", W2, newton_cfg, k_eigs)
    if kappa == 4.0:
        return _polish_and_report(start, kappa, SECOND, "continuation",
                                  W2, newton_cfg, k_eigs)
    branch = continue_branch(4.0, start, kappa, -abs(continuation_dk),
                             newton_cfg)
    if abs(branch.reached - kappa) > 1e-12:
        raise ContinuationError(
            f"continuation from (4, 2*theta) failed at kappa="
            f"{branch.suspected_fold[1]:.6g}; last solved kappa="
            f"{branch.reached:.6g}", last_kappa=branch.reached)
    return _polish_and_report(branch.points[-1].profile, kappa, SECOND,
                              "continuation", W2, newton_cfg, k_eigs)


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    saddle_type: str
    energy: float
    lambda1: float
    lambda2: float
    dir_value: float
    status: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    kappa0_estimate: tuple | None   # (lo, hi): dir_value >= 0 at lo, < 0 at hi
    kappa1_estimate: tuple | None   # (lo, hi): branch alive at hi, dead/crossed at lo
    reports: tuple = ()             # successful SaddleReports, sorted like rows

    def rows_of(self, saddle_type):
        return [r for r in self.rows if r.saddle_type == saddle_type]


def _row_from_report(report):
    return SweepRow(kappa=report.kappa, saddle_type=report.saddle_type,
                    energy=report.energy, lambda1=report.lambda1,
                    lambda2=report.lambda2,
                    dir_value=report.explicit_direction_value,
                    status="marginal" if report.marginal else "saddle")


def _failed_row(kappa, saddle_type, exc):
    return SweepRow(kappa=kappa, saddle_type=saddle_type, energy=np.nan,
                    lambda1=np.nan, lambda2=np.nan, dir_value=np.nan,
                    status=f"failed: {exc}")


def _bisect_kappa0(lo, hi, val_lo, runner, width):
    """Shrink a sign-change bracket of the explicit-direction certificate."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        try:
            report = runner(mid)
        except Exception:
            break  # keep the widest certified bracket
        if (report.explicit_direction_value < 0) == (val_lo < 0):
            lo, val_lo = mid, report.explicit_direction_value
        else:
            hi = mid
    return (lo, hi)


def probe_second_branch_floor(grid=None, newton_cfg=None, floor=1.0, dk=0.05):
    """Walk the second-type branch down from kappa = 4 until it ends.

    Returns (lo, hi) bracketing either a Newton failure or the loss of the
    saddle eigenvalue structure (lambda1 < 0 < lambda2); None if the branch
    persists all the way to the floor.
    """
    grid = grid or make_grid(1024)
    start = make_initial_second_type(grid)
    branch = continue_branch(4.0, start, floor, -abs(dk),
                             newton_cfg or NewtonConfig())
    prev = 4.0
    for pt in branch.points:
        tol = 1e-8
        if not (pt.lambda1 < -tol and pt.lambda2 > tol):
            return (pt.kappa, prev)
        prev = pt.kappa
    if branch.suspected_fold is not None:
        good, failed = branch.suspected_fold
        return (failed, good)
    return None


def sweep(kappa_values, types=(FIRST, SECOND), grid=None, newton_cfg=None,
          kappa0_width=0.05, estimate_kappa1=True):
    """Run the requested pipelines per kappa and locate the threshold brackets.

    kappa0: bracket (width <= kappa0_width) where the first-type
    explicit-direction certificate changes sign, refined by bisection.
    kappa1: bracket where the downward second-type continuation ends.
    Per-kappa pipeline failures are recorded in the rows, not raised.
    """
    kappa_values = sorted(float(k) for k in kappa_values)
    if any(k <= 0 for k in kappa_values):
        raise ValueError("kappa values must be positive")
    unknown = set(types) - {FIRST, SECOND}
    if unknown:
        raise ValueError(f"unknown saddle types: {sorted(unknown)}")
    grid = grid or (grid_for_kappa(max(kappa_values)) if kappa_values else None)
    rows = []
    reports = []
    first_reports = {}

    def run_first(kappa):
        report = find_first_type(kappa, grid=grid, newton_cfg=newton_cfg)
        first_reports[kappa] = report
        return report

    for kappa in kappa_values:
        if FIRST in types:
            if kappa < 4:
                rows.append(_failed_row(kappa, FIRST, "skipped: kappa < 4"))
            else:
                try:
                    rows.append(_row_from_report(run_first(kappa)))
                except Exception as exc:  # recorded, not raised
                    rows.append(_failed_row(kappa, FIRST, exc))
        if SECOND in types:
            try:
                report = find_second_type(kappa, grid=grid, newton_cfg=newton_cfg)
                reports.append(report)
                rows.append(_row_from_report(report))
            except Exception as exc:
                rows.append(_failed_row(kappa, SECOND, exc))

    kappa0 = None
    if FIRST in types:
        good = [k for k in sorted(first_reports) if
                np.isfinite(first_reports[k].explicit_direction_value)]
        for a, b in zip(good, good[1:]):
            va = first_reports[a].explicit_direction_value
            vb = first_reports[b].explicit_direction_value
            if (va < 0) != (vb < 0):
                lo, hi = _bisect_kappa0(a, b, va, run_first, kappa0_width)
                kappa0 = (lo, hi)
                break

    kappa1 = None
    if SECOND in types and estimate_kappa1:
        kappa1 = probe_second_branch_floor(grid=grid, newton_cfg=newton_cfg)

    extra = [_row_from_report(r) for k, r in sorted(first_reports.items())
             if k not in kappa_values]
    rows = sorted(rows + extra, key=lambda r: (r.saddle_type, r.kappa))
    reports.extend(first_reports.values())
    reports = sorted(reports, key=lambda r: (r.saddle_type, r.kappa))
    return SweepResult(rows=tuple(rows), kappa0_estimate=kappa0,
                       kappa1_estimate=kappa1, reports=tuple(reports))
