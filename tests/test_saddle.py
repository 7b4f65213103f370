import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from axiferro import energy, flow, saddle, spectrum, stationary
from axiferro.energy import EnergyParams, assemble_second_variation, reduced_energy
from axiferro.flow import FlowConfig, FlowStatus, run
from axiferro.grid import make_grid
from axiferro.profile import (W2, WedgeSpec, builtin_profile, degree,
                              make_initial_first_type, make_initial_second_type,
                              node_derivative, perturbation_direction, wedge_check)
from axiferro.saddle import (ContinuationError, find_first_type, find_second_type,
                             grid_for_kappa, probe_second_branch_floor, sweep)
from axiferro.spectrum import eigs_lowest
from axiferro.stationary import BranchPoint, continue_branch


@pytest.fixture(scope="module")
def first_type_10():
    return find_first_type(10.0, grid=make_grid(512))


@pytest.fixture(scope="module")
def second_type_10():
    return find_second_type(10.0, grid=make_grid(512))


class TestFirstType:
    def test_report_is_valid(self, first_type_10):
        assert first_type_10.validate() == []
        assert first_type_10.residual_sup < 1e-9
        assert (first_type_10.profile.m, first_type_10.profile.n_end) == (1, 1)
        assert degree(first_type_10.profile) == 0
        assert first_type_10.hemispheric
        assert first_type_10.provenance == "flow_then_newton"

    def test_certified_saddle_at_ten(self, first_type_10):
        assert first_type_10.explicit_direction_value < 0
        assert first_type_10.lambda1 < 0
        assert first_type_10.spectrum.morse_index == 1
        assert not first_type_10.marginal

    def test_shape_matches_published_cross_section(self, first_type_10):
        # rises along pi + theta, peaks, falls through pi at the equator
        p = first_type_10.profile
        g = p.grid
        mid = g.midpoint_index
        assert abs(p.values[mid] - np.pi) < 1e-9
        left = p.values[:mid + 1]
        assert np.all(left >= np.pi - 1e-9)
        assert np.all(left <= np.pi + g.nodes[:mid + 1] + 1e-9)
        peak = int(np.argmax(left))
        assert 0 < peak < mid
        hp = node_derivative(p)
        assert np.all(hp[:peak] > 0)
        assert np.all(hp[peak + 1:mid] < 0)

    def test_marginal_near_four(self):
        report = find_first_type(4.0, grid=make_grid(512))
        assert report.marginal
        assert report.explicit_direction_value > 0
        assert report.validate() == []

    def test_kappa_below_four_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            find_first_type(3.5)


class TestSecondType:
    def test_exact_point_at_four(self):
        report = find_second_type(4.0, grid=make_grid(1024))
        assert report.lambda1 == pytest.approx(-2.0, abs=1e-3)
        assert report.lambda2 == pytest.approx(2.0, abs=1e-3)
        assert report.provenance == "continuation"
        assert report.spectrum.morse_index == 1
        assert not report.marginal

    def test_flow_branch_above_four(self, second_type_10):
        assert second_type_10.validate() == []
        assert second_type_10.provenance == "flow_then_newton"
        assert (second_type_10.profile.m, second_type_10.profile.n_end) == (0, 2)
        assert second_type_10.explicit_direction_value < 0
        assert np.min(node_derivative(second_type_10.profile)) >= 1 - 1e-6
        assert wedge_check(second_type_10.profile, WedgeSpec(W2, 1e-8)).inside

    def test_continuation_below_four(self):
        report = find_second_type(3.9, grid=make_grid(512))
        assert report.provenance == "continuation"
        assert report.kappa == 3.9
        assert report.lambda1 < 0 < report.lambda2
        assert report.spectrum.morse_index == 1

    def test_unreachable_kappa_raises_with_last_good(self):
        with pytest.raises(ContinuationError) as info:
            find_second_type(0.5, grid=make_grid(256))
        assert 0.5 < info.value.last_kappa <= 4.0

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ValueError):
            find_second_type(0.0)

    def test_continuation_solves_one_spectrum(self, monkeypatch):
        # branch points compute their eigenvalues only when read: the walk
        # from 4 to 3.5 reads none, the report's classify makes the one call
        calls = []
        real = spectrum.eigs_lowest

        def counting(op, k, **kwargs):
            calls.append(k)
            return real(op, k, **kwargs)

        monkeypatch.setattr(spectrum, "eigs_lowest", counting)
        find_second_type(3.5)
        assert len(calls) == 1
        # the probe reads its saddle test off pivot counts, not eigenpairs,
        # and still brackets the fold
        assert probe_second_branch_floor() == pytest.approx((3.20, 3.25))
        assert len(calls) == 1


class TestTypesDiffer:
    def test_distinct_profiles_at_same_kappa(self, first_type_10, second_type_10):
        gap = np.max(np.abs(first_type_10.profile.values
                            - second_type_10.profile.values))
        assert gap >= 0.1


# the certificate is the Rayleigh numerator of the operator the spectrum
# comes from, so dir_value < 0 implies lambda1 < 0 with no discretization gap
@pytest.mark.parametrize("find, kappa", [
    *((find_first_type, k) for k in (5.0, 6.5, 6.66, 6.67, 8.0)),
    *((find_second_type, k) for k in (3.5, 4.0, 10.0))])
def test_certificate_is_a_form_of_the_reported_operator(find, kappa):
    report = find(kappa, grid=make_grid(512))
    g = perturbation_direction(report.profile)[1:-1]
    op = assemble_second_variation(report.profile, EnergyParams(kappa))
    assert report.explicit_direction_value == op.quadratic_form(g)
    norm2 = float(op.weight @ g ** 2)
    rounding = 1e-12 * report.spectrum.operator_scale * norm2
    assert report.explicit_direction_value >= report.lambda1 * norm2 - rounding


@pytest.mark.parametrize("find, kappa", [(find_first_type, 5.0), (find_second_type, 3.9),
                                         (find_second_type, 10.0)])
def test_report_evaluates_the_residual_once(monkeypatch, find, kappa):
    # classify's stationarity gate measures the residual the report carries
    real = energy.residual_supnorm
    calls = []

    def counting(p, params):
        calls.append(p)
        return real(p, params)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "axiferro" and hasattr(module, "residual_supnorm"):
            monkeypatch.setattr(module, "residual_supnorm", counting)
    report = find(kappa, grid=make_grid(512))
    assert len(calls) == 1 and calls[0] is report.profile
    assert report.residual_sup == real(report.profile, EnergyParams(kappa))


def test_newton_results_are_read_only(first_type_10, second_type_10):
    below_four = find_second_type(3.9, grid=make_grid(512))
    branch = continue_branch(4.0, make_initial_second_type(make_grid(256)), 3.8, -0.05)
    # sup |R(2 theta)| = |4 - kappa| / 2: the flow takes no step and the start
    # is below Newton's tolerance, so the report's profile is the flow's state
    zero_step = [find_second_type(kappa, grid=make_grid(512)).profile
                 for kappa in (4 + 1e-12, 4 + 1e-9)]
    profiles = [first_type_10.profile, second_type_10.profile, below_four.profile,
                *(pt.profile for pt in branch.points[1:]), *zero_step]
    assert not any(p.values.flags.writeable for p in profiles)


@pytest.fixture(scope="module")
def ladder():
    grid = make_grid(1024)
    out = []
    for kappa in (16.0, 64.0, 256.0, 1024.0):
        p0 = make_initial_first_type(grid, kappa)
        e0 = reduced_energy(p0, EnergyParams(kappa))
        report = find_first_type(kappa, grid=grid)
        out.append((kappa, e0, report))
    return out


class TestScalingLaws:
    def test_initial_energy_scales_like_sqrt_kappa(self, ladder):
        ratios = [e0 / np.sqrt(k) for k, e0, _ in ladder]
        assert all(r <= 2 * ratios[0] for r in ratios)

    def test_equator_slope_scales_like_sqrt_kappa(self, ladder):
        ratios = []
        for k, _, report in ladder:
            mid = report.profile.grid.midpoint_index
            slope = node_derivative(report.profile)[mid]
            assert slope < 0
            ratios.append(-slope / np.sqrt(k))
        assert all(r <= 2 * ratios[0] for r in ratios)

    def test_limit_approaches_tilted_line(self, ladder):
        sups = []
        for _, _, report in ladder:
            g = report.profile.grid
            quarter = g.nodes <= np.pi / 4 + 1e-12
            sups.append(np.max(np.abs(report.profile.values[quarter]
                                      - (np.pi + g.nodes[quarter]))))
        assert all(b < a for a, b in zip(sups, sups[1:]))


class TestSweep:
    def test_empty_input(self):
        result = sweep([], types=("first",))
        assert result.rows == ()
        assert result.kappa0_estimate is None

    def test_positive_kappas_required(self):
        with pytest.raises(ValueError):
            sweep([-1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("grid", [None, 64])
    def test_nonfinite_kappas_refused_up_front(self, bad, grid):
        # refused as a nonpositive kappa is, not run into a failed row or
        # into grid_for_kappa
        with pytest.raises(ValueError, match="kappa values must be finite and positive"):
            sweep([5.0, bad], grid=grid and make_grid(grid))

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            sweep([5.0], types=("third",))

    def test_rows_and_kappa0_bracket(self):
        grid = make_grid(512)
        result = sweep([5.0, 6.0, 6.5, 7.0], types=("first",), grid=grid)
        # first-type rows, bisection midpoints among them, come in kappa order
        assert [r.kappa for r in result.rows] == sorted(r.kappa for r in result.rows)
        bracket = result.kappa0_estimate
        assert bracket is not None
        lo, hi = bracket
        assert hi - lo <= 0.05
        assert 6.0 < lo < hi < 7.0
        # every bisection midpoint is both a first-type row and a report:
        # (6.5, 7.0) is halved four times down to width 1/32
        requested = {5.0, 6.0, 6.5, 7.0}
        midpoints = [r.kappa for r in result.rows
                     if r.saddle_type == "first" and r.kappa not in requested]
        assert len(midpoints) == 4 and {lo, hi} <= requested | set(midpoints)
        assert sorted(midpoints) == sorted(r.kappa for r in result.reports
                                           if r.kappa not in requested)
        # reports are ordered like the rows that succeeded
        assert [(r.saddle_type, r.kappa) for r in result.reports] \
            == [(r.saddle_type, r.kappa) for r in result.rows
                if not r.status.startswith("failed")]

    def test_repeated_kappa_runs_once(self, monkeypatch):
        kappas = []

        def counting(kappa, grid=None):
            kappas.append(kappa)
            return find_first_type(kappa, grid=grid)

        monkeypatch.setattr(saddle, "find_first_type", counting)
        result = sweep([5.0, 5.0, 7.0], types=("first",), grid=make_grid(512))
        # (5, 7) is halved six times down to width 1/32: 2 + 6 pipeline runs
        assert len(kappas) == 8 and len(set(kappas)) == 8
        assert len(result.rows) == 9
        assert len(result.reports) == 8
        assert [r.kappa for r in result.rows[:2]] == [5.0, 5.0]
        assert result.rows[0] == result.rows[1]

    def test_failed_bisection_midpoint_is_a_row(self, monkeypatch):
        real = saddle.find_first_type

        def failing_at_six(kappa, grid=None):
            if kappa == 6.0:
                raise RuntimeError("midpoint pipeline failed")
            return real(kappa, grid=grid)

        monkeypatch.setattr(saddle, "find_first_type", failing_at_six)
        result = sweep([5.0, 7.0], types=("first",), grid=make_grid(512))
        # 6.0 is the first midpoint of (5, 7); the bracket stays as certified
        assert result.kappa0_estimate == (5.0, 7.0)
        assert [(r.kappa, r.status) for r in result.rows] == [
            (5.0, "marginal"), (6.0, "failed: midpoint pipeline failed"),
            (7.0, "saddle")]
        assert [r.kappa for r in result.reports] == [5.0, 7.0]

    def test_failed_second_midpoint_keeps_the_narrowed_bracket(self, monkeypatch):
        real = saddle.find_first_type

        def failing_at_six_and_a_half(kappa, grid=None):
            if kappa == 6.5:
                raise RuntimeError("midpoint pipeline failed")
            return real(kappa, grid=grid)

        monkeypatch.setattr(saddle, "find_first_type", failing_at_six_and_a_half)
        result = sweep([5.0, 7.0], types=("first",), grid=make_grid(512))
        # the first midpoint narrows (5, 7) to (6, 7); the second, 6.5, fails
        assert result.kappa0_estimate == (6.0, 7.0)
        assert [(r.kappa, r.status) for r in result.rows] == [
            (5.0, "marginal"), (6.0, "marginal"),
            (6.5, "failed: midpoint pipeline failed"), (7.0, "saddle")]
        assert [r.kappa for r in result.reports] == [5.0, 6.0, 7.0]

    def test_first_type_skipped_below_four(self):
        grid = make_grid(512)
        result = sweep([3.9], types=("first",), estimate_kappa1=False, grid=grid)
        assert len(result.rows) == 1
        assert result.rows[0].status.startswith("failed: skipped")

    def test_second_type_rows_and_kappa1(self):
        grid = make_grid(256)
        result = sweep([4.0, 6.0], types=("second",), grid=grid)
        rows = result.rows
        assert [r.saddle_type for r in rows] == ["second", "second"]
        assert all(r.dir_value < 0 for r in rows)
        assert result.kappa1_estimate is not None
        lo, hi = result.kappa1_estimate
        assert 0 < lo < hi < 4.0


def test_probe_second_branch_floor():
    bracket = probe_second_branch_floor(grid=make_grid(256))
    assert bracket is not None
    lo, hi = bracket
    assert 0 < lo < hi < 4.0


def two_lowest(pt):
    op = assemble_second_variation(pt.profile, EnergyParams(pt.kappa))
    return eigs_lowest(op, 2).eigenvalues.tolist()


@pytest.mark.parametrize("n", [256, 1024])
def test_probe_inertia_test_matches_eigenvalues(n):
    grid = make_grid(n)
    branch = continue_branch(4.0, make_initial_second_type(grid), 1.0,
                             -saddle._BRANCH_DK)
    assert len(branch.points) == 16
    for pt in branch.points:
        lambda1, lambda2 = two_lowest(pt)
        assert saddle._is_index_one_saddle(pt) == (lambda1 < -1e-8 and lambda2 > 1e-8)


@pytest.mark.parametrize("n", [256, 1024])
def test_inertia_test_off_the_branch(n):
    # points a real branch does not reach: h = theta is a saddle by a hair
    # at kappa = 0 and stable at kappa = 10; at the roots lambda1 (h = theta)
    # or lambda2 (h = 2 theta, lambda1 < 0) is 0 or 5e-8 from 0, on either
    # side of the 1e-8 gap
    grid = make_grid(n)

    def point(name, kappa):
        return BranchPoint(kappa=kappa, profile=builtin_profile(name, grid))

    def root(name, index, target, lo, hi):
        def f(k):
            return two_lowest(point(name, k))[index] - target
        kappa = brentq(f, lo, hi, xtol=1e-14)
        assert abs(f(kappa)) < 1e-10
        return point(name, kappa)

    cases = [(point("theta", 0.0), True), (point("theta", 10.0), False),
             (root("theta", 0, 0.0, 0.0, 1.0), False),
             (root("theta", 0, -5e-8, 0.0, 1.0), True),
             (root("two-theta", 1, 0.0, 8.0, 12.0), False),
             (root("two-theta", 1, 5e-8, 8.0, 12.0), True)]
    for pt, expected in cases:
        lambda1, lambda2 = two_lowest(pt)
        assert saddle._is_index_one_saddle(pt) is expected
        assert (lambda1 < -1e-8 and lambda2 > 1e-8) is expected


def test_probe_brackets_loss_of_saddle_structure(monkeypatch):
    # real branches end at the fold with the structure intact; a stable
    # point (h = theta, Morse index 0 at kappa = 10) put into the walk is
    # the first to fail the test, and the bracket ends at the point before it
    grid = make_grid(256)
    stable = BranchPoint(kappa=10.0, profile=builtin_profile("theta", grid))
    assert two_lowest(stable)[0] > 1e-8
    real = saddle.continue_branch
    before = []

    def with_stable_point(*args, **kwargs):
        branch = real(*args, **kwargs)
        before.append(branch.points[2].kappa)
        return replace(branch, points=(*branch.points[:3], stable, *branch.points[3:]))

    monkeypatch.setattr(saddle, "continue_branch", with_stable_point)
    assert probe_second_branch_floor(grid=grid) == (10.0, before[0])


def test_probe_on_grid_above_default():
    # the walk's Newton tolerance follows the residual noise floor; a fixed
    # 5e-10 is below what the residual can resolve at n = 2048
    assert probe_second_branch_floor(grid=make_grid(2048)) == pytest.approx((3.20, 3.25))


@pytest.mark.parametrize("n", [1024, 4096])
def test_probe_brackets_the_fold_on_fine_grids(n):
    # the walk runs Newton on the half interval from secant predictions;
    # the fold stays where the full-interval walk from the last point put it
    assert probe_second_branch_floor(grid=make_grid(n)) == pytest.approx((3.20, 3.25))


def test_probe_step_past_the_fold_is_one_full_newton_step(monkeypatch):
    # the solve at kappa = 3.20 from the secant predictor evaluates the
    # residual 4 times: the start, two accepted steps and the full step that
    # does not lower the residual; a line search there made 89 evaluations
    solves = []
    real_solve, real_residual = stationary.newton_solve, stationary.el_residual

    def counted_residual(*args, **kwargs):
        if solves:  # continue_branch checks its start before any solve
            solves[-1][1] += 1
        return real_residual(*args, **kwargs)

    def recorded_solve(p0, params, **kwargs):
        solves.append([params.kappa, 0, False])
        try:
            return real_solve(p0, params, **kwargs)
        except stationary.NewtonError:
            solves[-1][2] = True
            raise

    monkeypatch.setattr(stationary, "el_residual", counted_residual)
    monkeypatch.setattr(stationary, "newton_solve", recorded_solve)
    assert probe_second_branch_floor(grid=make_grid(1024)) == pytest.approx((3.20, 3.25))
    kappa, evaluations, failed = solves[-1]
    assert kappa == pytest.approx(3.20) and failed
    assert evaluations == 4
    assert not any(failed for _, _, failed in solves[:-1])


def test_first_type_at_very_large_kappa():
    # the enforced resolution pushes the residual evaluation floor above
    # the standard 1e-9 bar; the pipeline must still certify the saddle
    report = find_first_type(4096.0)
    assert report.profile.grid.n == 2048
    assert report.validate() == []
    assert report.explicit_direction_value < 0
    assert not report.marginal
    assert np.max(node_derivative(report.profile)) <= 1 + 1e-6


@pytest.mark.parametrize("call", [grid_for_kappa, find_first_type, find_second_type])
@pytest.mark.parametrize("kappa", [np.inf, -np.inf, np.nan])
def test_nonfinite_kappa_rejected(call, kappa):
    with pytest.raises(ValueError, match="kappa must be finite"):
        call(kappa)


# kappa = 1e16 asks for n = 3.2e9, three arrays of 25.6 GB each, whose
# noise floor is far above the flow tolerance
@pytest.mark.parametrize("call", [grid_for_kappa, find_first_type, find_second_type,
                                  lambda kappa: sweep([5.0, kappa])])
def test_unresolvable_grid_refused_before_it_is_built(no_huge_grids, call):
    with pytest.raises(ValueError, match="noise floor"):
        call(1e16)


# the noise floor at n = 32768, 1.37e-7, is above the 1e-7 refusal tolerance
# though far below the flow's 1e-2 handoff, so an explicit grid is refused
# by the pipeline itself, not by the flow
@pytest.mark.parametrize("pipeline,kappa", [(find_first_type, 5.0),
                                            (find_second_type, 10.0)])
def test_explicit_unresolvable_grid_refused(pipeline, kappa):
    with pytest.raises(ValueError, match="noise floor"):
        pipeline(kappa, grid=make_grid(32768))


def test_grid_for_kappa_scaling():
    assert grid_for_kappa(4.0).n == 1024
    assert grid_for_kappa(1600.0).n == 1280
    assert grid_for_kappa(1e4).n == 3200


def _time_resolved_report(pipeline, kappa):
    """The pipeline's report with its flow replaced by a time-resolved public ``run``.

    The run starts from the type's start on the pipeline's grid, on the half
    interval, at a time-resolving step capped at pseudo-time 1e3, and goes on
    to sup residual 1e-7, five decades closer to the limit than the
    pipeline's 1e-2 handoff; the pipeline's own polish then reports its end.
    """
    grid = grid_for_kappa(kappa)
    if pipeline is find_first_type:
        saddle_type, start = saddle.FIRST, make_initial_first_type(grid, kappa)
    else:
        saddle_type, start = saddle.SECOND, make_initial_second_type(grid)
    dt = min(1e-2, 0.5 / max(kappa, 1.0))
    steps = math.ceil(1e3 / dt) + 1
    cfg = FlowConfig(dt=dt, max_steps=steps, stationary_tol=1e-7, record_every=steps)
    result = run(start, EnergyParams(kappa), cfg, half_interval=True)
    assert result.status is FlowStatus.STATIONARY
    return saddle._polish_and_report(result.final, kappa, saddle_type,
                                     "flow_then_newton")


class TestRelaxation:
    @pytest.mark.parametrize("pipeline,kappa,most", [
        (find_first_type, 5.0, 10), (find_second_type, 10.0, 20)])
    def test_few_residual_evaluations(self, monkeypatch, pipeline, kappa, most):
        calls = []
        real = flow._Kernel.evaluate

        def counting(self, h, r):
            calls.append(len(r))
            return real(self, h, r)

        monkeypatch.setattr(flow._Kernel, "evaluate", counting)
        pipeline(kappa)
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("pipeline,kappa", [
        (find_first_type, 5.0), (find_first_type, 8.0), (find_second_type, 4.5),
        (find_second_type, 10.0)])
    def test_flow_computes_no_monitor(self, monkeypatch, pipeline, kappa):
        # the pipeline keeps only the flow's end point, so its flow is the
        # bare step loop: no energy, wedge, symmetry or blowup monitor; the
        # report checks its own wedge and symmetry
        names = ("reduced_energy", "wedge_check", "hemispheric_deviation",
                 "detect_blowup")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _name=name, _real=getattr(flow, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(flow, name, counting)
        pipeline(kappa)
        assert calls == dict.fromkeys(names, 0)

    @pytest.mark.parametrize("pipeline,kappa", [
        (find_first_type, 4.0), (find_first_type, 5.0), (find_first_type, 6.67),
        (find_second_type, 4.01), (find_second_type, 10.0),
        (find_second_type, 1000.0)])
    def test_matches_fixed_step_flow(self, pipeline, kappa):
        relaxed = pipeline(kappa)
        reference = _time_resolved_report(pipeline, kappa)
        assert np.max(np.abs(relaxed.profile.values - reference.profile.values)) <= 1e-12
        ref_eigs = reference.spectrum.eigenvalues
        assert np.all(np.abs(relaxed.spectrum.eigenvalues - ref_eigs)
                      <= 1e-10 * np.abs(ref_eigs))
        assert relaxed.spectrum.morse_index == reference.spectrum.morse_index
        assert relaxed.marginal == reference.marginal
