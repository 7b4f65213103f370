from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from axiferro import flow, saddle, spectrum
from axiferro.energy import EnergyParams, assemble_second_variation, reduced_energy
from axiferro.flow import FlowConfig, run
from axiferro.grid import make_grid
from axiferro.profile import (W1, W2, WedgeSpec, WedgeVerdict, builtin_profile,
                              degree, make_initial_first_type,
                              make_initial_second_type, node_derivative,
                              wedge_check)
from axiferro.saddle import (BlowupError, ContinuationError, find_first_type,
                             find_second_type, grid_for_kappa,
                             probe_second_branch_floor, sweep)
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

        def counting(op, k):
            calls.append(k)
            return real(op, k)

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

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            sweep([5.0], types=("third",))

    def test_rows_and_kappa0_bracket(self):
        grid = make_grid(512)
        result = sweep([5.0, 6.0, 6.5, 7.0], types=("first",), grid=grid)
        assert [r.kappa for r in result.rows if r.status != "skipped"] \
            == sorted(r.kappa for r in result.rows)
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


def test_grid_for_kappa_scaling():
    assert grid_for_kappa(4.0).n == 1024
    assert grid_for_kappa(1600.0).n == 1280
    assert grid_for_kappa(1e4).n == 3200


def _fixed_step_flow(start, params, cfg):
    """Reference for _relax: run's fixed step on the half interval."""
    result = run(start, params, cfg, half_interval=True)
    return result.final, result.status


@pytest.fixture
def trials(monkeypatch):
    """Every relaxer trial, as (a copy of the state it starts from, dt), in order."""
    log = []
    real = flow._Kernel.advance

    def recording(self, src, dst, dt, r, v):
        log.append((src.copy(), dt))
        return real(self, src, dst, dt, r, v)

    monkeypatch.setattr(flow._Kernel, "advance", recording)
    return log


class TestRelaxation:
    @pytest.mark.parametrize("pipeline,kappa,most", [
        (find_first_type, 5.0, 40), (find_second_type, 10.0, 60)])
    def test_few_residual_evaluations(self, monkeypatch, pipeline, kappa, most):
        calls = []
        real = flow._Kernel.evaluate

        def counting(self, h, r, v):
            calls.append(len(r))
            return real(self, h, r, v)

        monkeypatch.setattr(flow._Kernel, "evaluate", counting)
        pipeline(kappa)
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("pipeline,kappa", [
        (find_first_type, 4.0), (find_first_type, 5.0), (find_first_type, 6.67),
        (find_second_type, 4.01), (find_second_type, 10.0),
        (find_second_type, 1000.0)])
    def test_matches_fixed_step_flow(self, monkeypatch, pipeline, kappa):
        relaxed = pipeline(kappa)
        monkeypatch.setattr(saddle, "_relax", _fixed_step_flow)
        reference = pipeline(kappa)
        assert np.max(np.abs(relaxed.profile.values - reference.profile.values)) <= 1e-12
        ref_eigs = reference.spectrum.eigenvalues
        assert np.all(np.abs(relaxed.spectrum.eigenvalues - ref_eigs)
                      <= 1e-10 * np.abs(ref_eigs))
        assert relaxed.spectrum.morse_index == reference.spectrum.morse_index
        assert relaxed.marginal == reference.marginal

    @pytest.mark.parametrize("reason", ["wedge", "not finite", "residual rise"])
    def test_rejected_trial_halves_dt_and_keeps_state(self, monkeypatch, trials,
                                                       first_type_10, reason):
        dt0 = FlowConfig().effective_dt(10.0)
        failed = []

        def fail_now():
            # fail the first check made on a trial above dt0
            if not failed and trials and trials[-1][1] > dt0:
                failed.append(len(trials) - 1)
                return True
            return False

        if reason == "wedge":
            real_wedge = flow.wedge_check
            monkeypatch.setattr(flow, "wedge_check", lambda p, spec: (
                WedgeVerdict(inside=False, node=1, excess=1.0) if fail_now()
                else real_wedge(p, spec)))
        elif reason == "not finite":
            real_advance = flow._Kernel.advance

            def advance(*args):
                real_advance(*args)
                if fail_now():
                    raise ValueError("flow update is not finite")

            monkeypatch.setattr(flow._Kernel, "advance", advance)
        else:
            real_eval = flow._Kernel.evaluate

            def evaluate(self, h, r, v):
                sup = real_eval(self, h, r, v)
                if fail_now():
                    r.fill(1e300)
                    return 1e300
                return sup

            monkeypatch.setattr(flow._Kernel, "evaluate", evaluate)
        report = find_first_type(10.0, grid=make_grid(512))
        i = failed[0]
        (p_rejected, dt_rejected), (p_next, dt_next) = trials[i], trials[i + 1]
        assert dt_rejected > dt0
        assert np.array_equal(p_next, p_rejected)
        assert dt_next == max(dt0, 0.5 * dt_rejected)
        assert min(dt for _, dt in trials) == dt0
        assert np.max(np.abs(report.profile.values
                             - first_type_10.profile.values)) <= 1e-12
        assert np.allclose(report.spectrum.eigenvalues,
                           first_type_10.spectrum.eigenvalues, rtol=1e-10, atol=0)

    def test_trial_at_dt0_taken_when_residual_rises(self, monkeypatch, trials,
                                                    first_type_10):
        # the first trial (at dt0) reports its residual scaled by 2**40, a
        # rise; the next update still sees the true residual
        dt0 = FlowConfig().effective_dt(10.0)
        scale = 2.0 ** 40
        real_eval = flow._Kernel.evaluate
        record = flow._Kernel.advance
        inflated = []

        def evaluate(self, h, r, v):
            sup = real_eval(self, h, r, v)
            if len(trials) == 1 and not inflated:
                r *= scale
                inflated.append(r)
                return scale * sup
            return sup

        def advance(self, src, dst, dt, r, v):
            if inflated and r is inflated[0]:
                r /= scale
                inflated[0] = None
            return record(self, src, dst, dt, r, v)

        monkeypatch.setattr(flow._Kernel, "evaluate", evaluate)
        monkeypatch.setattr(flow._Kernel, "advance", advance)
        report = find_first_type(10.0, grid=make_grid(512))
        (p0, dt_first), (p1, dt_second) = trials[:2]
        assert dt_first == dt_second == dt0
        assert not np.array_equal(p1, p0)
        assert np.max(np.abs(report.profile.values
                             - first_type_10.profile.values)) <= 1e-12

    def test_worst_case_is_the_fixed_step_flow(self, monkeypatch, trials):
        # with every trial above dt0 rejected, the accepted steps are run's
        grid, kappa = make_grid(512), 5.0
        start = make_initial_first_type(grid, kappa)
        cfg = FlowConfig(stationary_tol=1e-7, wedge=WedgeSpec(W1, 1e-8))
        expected = run(start, EnergyParams(kappa), cfg, half_interval=True)
        trials.clear()
        monkeypatch.setattr(flow, "wedge_check",
                            lambda p, spec: WedgeVerdict(inside=False, node=1, excess=1.0))
        final, status = flow._relax(start, EnergyParams(kappa), cfg)
        dt0 = cfg.effective_dt(kappa)
        assert status is expected.status
        assert np.array_equal(final.values, expected.final.values)
        assert min(dt for _, dt in trials) == dt0
        assert sum(dt == dt0 for _, dt in trials) == expected.steps

    def test_blowup_raises(self, monkeypatch):
        monkeypatch.setattr(flow, "detect_blowup", lambda p: True)
        with pytest.raises(BlowupError):
            find_first_type(5.0, grid=make_grid(256))
