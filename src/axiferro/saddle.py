"""End-to-end saddle-point pipelines and the kappa sweep.

First type: flow from the sawtooth initial profile (boundary class (1, 1),
wedge W1), Newton polish, spectral classification.  Second type: for
kappa > 4 flow from h = 2*theta (class (0, 2), wedge W2); at kappa = 4 the
profile 2*theta is itself the exact critical point; below 4 the branch is
continued down from it.  Every report is re-validated at emission against
its structural invariants rather than trusted from construction.

The flows start inside W1 or W2, which the step never leaves for kappa >= 4
(``axiferro.flow``), so they cannot blow up; below 4 the upper bound of W2
is no supersolution, since R(2 theta) = (4 - kappa) sin theta cos theta > 0.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .energy import (EnergyParams, assemble_second_variation, reduced_energy,
                     residual_noise_floor)
from .flow import _Kernel, _require_resolvable
from .grid import make_grid
from .profile import (W1, W2, WedgeSpec, degree, hemispheric_deviation,
                      make_initial_first_type, make_initial_second_type,
                      wedge_check)
from .spectrum import classify, negative_count
from .stationary import continue_branch, newton_solve

FIRST = "first"
SECOND = "second"

RESIDUAL_BAR = 1e-9     # stationarity bar every emitted report must clear
SYMMETRY_TOL = 1e-8     # wedge and hemisphericity slack on emitted reports
_HANDOFF_TOL = 1e-2     # sup residual at which the pipeline flow hands over to Newton
_REFUSAL_TOL = 1e-7     # a pipeline grid's noise floor must lie below this
_FLOW_DT = 1e3          # the pipeline flow's step; only its end point is used
_FLOW_STEPS = 1000      # the pipeline flow's step cap
_BRANCH_DK = 0.05       # kappa step of the second-type walk below kappa = 4
_KAPPA0_WIDTH = 0.05    # width the kappa0 bracket is bisected down to
_WEDGE = {FIRST: W1, SECOND: W2}


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
        bar = max(RESIDUAL_BAR, 10.0 * residual_noise_floor(self.profile.grid.n))
        if self.residual_sup >= bar:
            problems.append(f"sup residual {self.residual_sup:.3g} >= {bar:.3g}")
        expected = (1, 1) if self.saddle_type == FIRST else (0, 2)
        if (self.profile.m, self.profile.n_end) != expected:
            problems.append(f"boundary class {(self.profile.m, self.profile.n_end)} "
                            f"!= {expected}")
        if degree(self.profile) != 0:
            problems.append(f"degree {degree(self.profile)} != 0")
        # wedge invariance holds for kappa >= 4 only: below it
        # R(2 theta) = (4 - kappa) sin theta cos theta > 0, so the continuation
        # branch may leave W2 and the verdict is informational
        if self.kappa >= 4 and not self.wedge_verdict.inside:
            problems.append(f"wedge violated at node {self.wedge_verdict.node} "
                            f"by {self.wedge_verdict.excess:.3g}")
        if not self.hemispheric:
            problems.append(f"hemispheric deviation {self.hemispheric_dev:.3g}")
        return problems


def _require_finite(kappa):
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")


def grid_for_kappa(kappa):
    """Default grid: n >= 1024, at least 32 nodes per sqrt(kappa) domain-wall width.

    An n whose residual noise floor is not below the pipeline's refusal
    tolerance, 1e-7, is refused before its grid is built.
    """
    _require_finite(kappa)
    n = max(1024, 32 * math.ceil(math.sqrt(max(kappa, 1.0))))
    _require_resolvable(n, _REFUSAL_TOL)
    return make_grid(n)


def _pipeline_grid(n, kappa_values, types):
    """The grid of n subintervals, or ``grid_for_kappa`` at the largest kappa.

    When the request runs a flow (first type, or second type above kappa = 4)
    n is refused as ``grid_for_kappa`` refuses, before its grid is built.
    """
    if n is None:
        return grid_for_kappa(max(kappa_values))
    if FIRST in types or max(kappa_values) > 4:
        _require_resolvable(n, _REFUSAL_TOL)
    return make_grid(n)


def _polish_and_report(profile, kappa, saddle_type, provenance):
    params = EnergyParams(kappa)
    profile = newton_solve(profile, params)
    spectrum = classify(profile, params)
    dev = hemispheric_deviation(profile)
    verdict = wedge_check(profile, WedgeSpec(_WEDGE[saddle_type], SYMMETRY_TOL))
    dir_value = spectrum.explicit_direction_value
    # marginal: neither dir_value nor lambda1 certifies a saddle; both come from
    # one operator, so dir_value < 0 implies lambda1 < 0 (a Rayleigh bound)
    marginal = bool(dir_value >= -1e-10 and spectrum.eigenvalues[0] >= -spectrum.tol)
    report = SaddleReport(kappa=kappa, saddle_type=saddle_type, profile=profile,
                          energy=reduced_energy(profile, params),
                          spectrum=spectrum,
                          explicit_direction_value=dir_value,
                          wedge_verdict=verdict,
                          hemispheric=dev <= SYMMETRY_TOL,
                          hemispheric_dev=dev,
                          provenance=provenance,
                          residual_sup=spectrum.residual_sup,
                          marginal=marginal)
    problems = report.validate()
    if problems:
        raise SaddleValidationError(problems)
    return report


def _flow_then_polish(kappa, saddle_type, grid):
    """Flow from the type's symmetric start inside its wedge, then polish.

    The start is the sawtooth for the first type and 2*theta for the second;
    both are hemispheric, so the flow runs on the half interval.  A grid
    whose residual noise floor is not below the refusal tolerance, 1e-7, is
    refused before the start is built.  At dt = 1e3 the step is a fixed-point
    iteration toward R = 0 that still lowers the energy and keeps order, at a
    linear rate, so it hands over to Newton at sup residual 1e-2: the flow
    selects the critical point, and one to three damped Newton iterations
    take the residual from there to Newton's tolerance.  Only its end point
    is used, so the flow is the bare step loop, at most 1000 steps, with no
    record and no energy, wedge, symmetry or blowup monitor.
    """
    _require_resolvable(grid.n, _REFUSAL_TOL)
    if saddle_type == FIRST:
        start = make_initial_first_type(grid, kappa)
    else:
        start = make_initial_second_type(grid)
    end = replace(start, values=start.values.copy())
    kernel = _Kernel(start, kappa, True, _FLOW_DT)
    for _ in kernel.relax([end.values], _HANDOFF_TOL, _FLOW_STEPS):
        pass
    # Newton hands a state already below its tolerance back unchanged, as the
    # report's profile
    end.values.setflags(write=False)
    return _polish_and_report(end, kappa, saddle_type, "flow_then_newton")


def find_first_type(kappa, grid=None):
    """First-type saddle pipeline: sawtooth initial data, flow, polish, classify."""
    _require_finite(kappa)
    if kappa < 4:
        raise ValueError(f"first-type pipeline requires kappa >= 4, got {kappa}")
    return _flow_then_polish(kappa, FIRST, grid or grid_for_kappa(kappa))


def find_second_type(kappa, grid=None):
    """Second-type saddle pipeline.

    kappa > 4: flow from 2*theta.  kappa = 4: the exact solution, treated as
    the (single-point) continuation seed.  kappa < 4: natural-parameter
    continuation downward from (4, 2*theta) in kappa steps of 0.05; the
    start is hemispheric, so every Newton solve of the walk runs on the half
    interval, and each step past the first starts from the secant predictor
    (see ``continue_branch``).
    """
    _require_finite(kappa)
    if kappa <= 0:
        raise ValueError(f"second-type pipeline requires kappa > 0, got {kappa}")
    grid = grid or grid_for_kappa(kappa)
    if kappa > 4:
        return _flow_then_polish(kappa, SECOND, grid)
    start = make_initial_second_type(grid)
    branch = continue_branch(4.0, start, kappa, -_BRANCH_DK)
    if abs(branch.reached - kappa) > 1e-12:
        raise ContinuationError(
            f"continuation from (4, 2*theta) failed at kappa="
            f"{branch.suspected_fold[1]:.6g}; last solved kappa="
            f"{branch.reached:.6g}", last_kappa=branch.reached)
    return _polish_and_report(branch.points[-1].profile, kappa, SECOND,
                              "continuation")


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


def _is_index_one_saddle(pt):
    """lambda1 < -1e-8 and lambda2 > 1e-8 at a branch point, without an eigensolve.

    LAPACK's Sturm count (``negative_count``, stebz in value mode) at a shift
    is the number of eigenvalues at or below it, so the test holds exactly
    when the counts at -1e-8 and +1e-8 are both 1.
    """
    op = assemble_second_variation(pt.profile, EnergyParams(pt.kappa))
    return all(negative_count(op.diag, op.offdiag, shift) == 1
               for shift in (-1e-8, 1e-8))


def probe_second_branch_floor(grid=None):
    """Walk the second-type branch down from kappa = 4 towards kappa = 1.

    Returns (lo, hi) bracketing either a Newton failure or the loss of the
    saddle eigenvalue structure (lambda1 < -1e-8 and lambda2 > 1e-8); None if
    the branch persists all the way down to kappa = 1.  The structure is read
    off two Sturm counts per point, each one LAPACK stebz call in value mode
    (see ``_is_index_one_saddle``), so the walk makes no eigensolve.
    """
    grid = grid or make_grid(1024)
    branch = continue_branch(4.0, make_initial_second_type(grid), 1.0, -_BRANCH_DK)
    prev = 4.0
    for pt in branch.points:
        if not _is_index_one_saddle(pt):
            return (pt.kappa, prev)
        prev = pt.kappa
    if branch.suspected_fold is not None:
        good, failed = branch.suspected_fold
        return (failed, good)
    return None


def sweep(kappa_values, types=(FIRST, SECOND), grid=None, estimate_kappa1=True):
    """Run the requested pipelines per kappa and locate the threshold brackets.

    kappa0: bracket (width <= 0.05) where the first-type explicit-direction
    certificate changes sign, refined by bisection; every midpoint adds a
    first-type row and report, and a midpoint whose pipeline fails adds a
    failed row and ends the bisection at the bracket certified before it.
    kappa1: bracket where the downward second-type continuation ends.
    Per-kappa pipeline failures are recorded in the rows, not raised; a kappa
    requested twice gives two rows and one report, and its pipeline runs once.
    """
    kappa_values = sorted(float(k) for k in kappa_values)
    if not all(math.isfinite(k) and k > 0 for k in kappa_values):
        raise ValueError("kappa values must be finite and positive")
    unknown = set(types) - {FIRST, SECOND}
    if unknown:
        raise ValueError(f"unknown saddle types: {sorted(unknown)}")
    grid = grid or (grid_for_kappa(max(kappa_values)) if kappa_values else None)
    rows = []
    reports = {}    # (saddle_type, kappa) -> report

    def run_pipeline(kappa, saddle_type):
        """Report of one kappa, or None once its failure is recorded as a row."""
        # the pipelines are looked up at call time, so a replaced module
        # global sees every new kappa, bisection midpoints included
        report = reports.get((saddle_type, kappa))
        if report is None:
            pipeline = find_first_type if saddle_type == FIRST else find_second_type
            try:
                report = reports[saddle_type, kappa] = pipeline(kappa, grid=grid)
            except Exception as exc:  # recorded, not raised
                rows.append(_failed_row(kappa, saddle_type, exc))
                return None
        rows.append(_row_from_report(report))
        return report

    for kappa in kappa_values:
        for saddle_type in [t for t in (FIRST, SECOND) if t in types]:
            if saddle_type == FIRST and kappa < 4:
                rows.append(_failed_row(kappa, FIRST, "skipped: kappa < 4"))
            else:
                run_pipeline(kappa, saddle_type)

    kappa0 = None
    firsts = [r for r in reports.values() if r.saddle_type == FIRST]  # kappa ascending
    for a, b in zip(firsts, firsts[1:]):
        negative_at_lo = a.explicit_direction_value < 0
        if negative_at_lo != (b.explicit_direction_value < 0):
            kappa0 = (a.kappa, b.kappa)
            break
    while kappa0 is not None and kappa0[1] - kappa0[0] > _KAPPA0_WIDTH:
        lo, hi = kappa0
        mid = 0.5 * (lo + hi)
        report = run_pipeline(mid, FIRST)
        if report is None:
            break
        negative = report.explicit_direction_value < 0
        kappa0 = (mid, hi) if negative == negative_at_lo else (lo, mid)

    kappa1 = None
    if SECOND in types and estimate_kappa1:
        kappa1 = probe_second_branch_floor(grid=grid)

    def order(r):
        return (r.saddle_type, r.kappa)

    return SweepResult(rows=tuple(sorted(rows, key=order)), kappa0_estimate=kappa0,
                       kappa1_estimate=kappa1,
                       reports=tuple(sorted(reports.values(), key=order)))
