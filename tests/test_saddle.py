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


def fine_walk_report(kappa, grid):
    """The second-type report at kappa < 4 from a walk in 0.05 steps throughout."""
    branch = continue_branch(4.0, make_initial_second_type(grid), kappa,
                             -saddle._BRANCH_DK)
    assert branch.suspected_fold is None
    return saddle._polish_and_report(branch.points[-1].profile, kappa, saddle.SECOND,
                                     "continuation")


# the 0.5 walk reaches kappa from other Newton starts than the 0.05 walk, so
# the reports agree to Newton's tolerance, not bit for bit; the bars are the
# largest drifts over kappa in [3.2036, 3.999999] at n = 256 to 4096, the
# eigenvalues' relative to max(1, |lambda|)
@pytest.mark.parametrize("n, kappa, profile_bar, eigenvalue_bar", [
    *((n, kappa, 7.7e-10, 4.1e-9) for n in (256, 1024)
      for kappa in (3.21, 3.25, 3.47, 3.72, 3.9, 3.99)),
    (1024, 3.2036, 7.7e-10, 4.1e-9),
    (4096, 3.47, 4.1e-9, 2.2e-8)])
def test_long_step_walk_matches_the_fine_walk(n, kappa, profile_bar, eigenvalue_bar):
    grid = make_grid(n)
    report = find_second_type(kappa, grid)
    ref = fine_walk_report(kappa, grid)
    assert report.spectrum.morse_index == ref.spectrum.morse_index == 1
    assert report.marginal == ref.marginal
    assert np.max(np.abs(report.profile.values - ref.profile.values)) <= profile_bar
    lam, lam_ref = report.spectrum.eigenvalues, ref.spectrum.eigenvalues
    assert np.max(np.abs(lam - lam_ref) / np.maximum(1.0, np.abs(lam_ref))) <= eigenvalue_bar


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("kappa", [0.5, 3.0, 3.2])
def test_walk_past_the_fold_ends_in_fine_steps(n, kappa):
    # the 0.5 walk fails past 3.5; resumed there in 0.05 steps, it ends at
    # 3.25 on every grid.  At n = 4096 the resumed start is a half-interval
    # Newton point whose full sup residual exceeds Newton's tolerance
    with pytest.raises(ContinuationError) as info:
        find_second_type(kappa, grid=make_grid(n))
    assert str(info.value) == ("continuation from (4, 2*theta) failed at "
                               "kappa=3.2; last solved kappa=3.25")
    assert info.value.last_kappa == pytest.approx(3.25, abs=1e-12)


@pytest.mark.parametrize("kappa", [3.0, 3.2])
def test_resumed_walk_failing_at_once_brackets_the_fold(monkeypatch, kappa):
    # with long steps of 0.05 the long walk itself ends at 3.25, so the
    # resumed walk fails on its very first step; that failure is the fold
    # bracket (3.25, 3.2), not a NewtonError
    monkeypatch.setattr(saddle, "_COARSE_DK", saddle._BRANCH_DK)
    with pytest.raises(ContinuationError) as info:
        find_second_type(kappa, grid=make_grid(256))
    assert str(info.value) == ("continuation from (4, 2*theta) failed at "
                               "kappa=3.2; last solved kappa=3.25")
    assert info.value.last_kappa == pytest.approx(3.25, abs=1e-12)


def test_long_step_is_a_whole_number_of_fine_steps():
    # so every point of the long-step walk lies on the 0.05 grid from 4
    ratio = saddle._COARSE_DK / saddle._BRANCH_DK
    assert ratio > 1 and ratio == round(ratio)


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
        # first-type rows, the kappa0 search's among them, come in kappa order
        assert [r.kappa for r in result.rows] == sorted(r.kappa for r in result.rows)
        bracket = result.kappa0_estimate
        assert bracket is not None
        lo, hi = bracket
        assert hi - lo <= 0.05
        assert 6.0 < lo < hi < 7.0
        # every new kappa of the search is both a first-type row and a report:
        # the two aimed past the secant roots of (6.5, 7.0) land on either
        # side of kappa0, where bisection halved four times
        requested = {5.0, 6.0, 6.5, 7.0}
        new = [r.kappa for r in result.rows
               if r.saddle_type == "first" and r.kappa not in requested]
        assert len(new) == 2 and {lo, hi} <= requested | set(new)
        assert sorted(new) == sorted(r.kappa for r in result.reports
                                     if r.kappa not in requested)
        # the ends are certifying reports of opposite sign
        by_kappa = {r.kappa: r for r in result.reports}
        assert by_kappa[lo].explicit_direction_value >= 0
        assert by_kappa[hi].explicit_direction_value < 0
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
        # (5, 7) takes two new kappa, where bisection took six: 2 + 2 runs
        assert len(kappas) == 4 and len(set(kappas)) == 4
        assert len(result.rows) == 5
        assert len(result.reports) == 4
        assert [r.kappa for r in result.rows[:2]] == [5.0, 5.0]
        assert result.rows[0] == result.rows[1]

    def test_failed_bisection_midpoint_is_a_row(self, monkeypatch):
        real = saddle.find_first_type
        failed = []

        def failing_when_new(kappa, grid=None):
            if kappa not in (5.0, 7.0):
                failed.append(kappa)
                raise RuntimeError("search pipeline failed")
            return real(kappa, grid=grid)

        monkeypatch.setattr(saddle, "find_first_type", failing_when_new)
        result = sweep([5.0, 7.0], types=("first",), grid=make_grid(512))
        # the first new kappa fails; the bracket stays as certified
        assert len(failed) == 1 and 5.0 < failed[0] < 7.0
        assert result.kappa0_estimate == (5.0, 7.0)
        assert [(r.kappa, r.status) for r in result.rows] == [
            (5.0, "marginal"), (failed[0], "failed: search pipeline failed"),
            (7.0, "saddle")]
        assert [r.kappa for r in result.reports] == [5.0, 7.0]

    def test_failed_second_midpoint_keeps_the_narrowed_bracket(self, monkeypatch):
        real = saddle.find_first_type
        new = []

        def failing_at_the_second_new(kappa, grid=None):
            if kappa not in (5.0, 7.0):
                new.append(kappa)
                if len(new) == 2:
                    raise RuntimeError("search pipeline failed")
            return real(kappa, grid=grid)

        monkeypatch.setattr(saddle, "find_first_type", failing_at_the_second_new)
        result = sweep([5.0, 7.0], types=("first",), grid=make_grid(512))
        # the first new kappa narrows (5, 7); the second, inside it, fails
        first, second = new
        report = next(r for r in result.reports if r.kappa == first)
        narrowed = (5.0, first) if report.explicit_direction_value < 0 else (first, 7.0)
        assert result.kappa0_estimate == narrowed
        assert narrowed[0] < second < narrowed[1]
        assert [(r.kappa, r.status) for r in result.rows] == sorted([
            (5.0, "marginal"), (first, "marginal" if report.marginal else "saddle"),
            (second, "failed: search pipeline failed"), (7.0, "saddle")])
        assert [r.kappa for r in result.reports] == sorted([5.0, first, 7.0])

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


CERTIFICATES = {   # dir_value against kappa, changing sign at root: >= 0 up to it
    "linear": lambda k, root: root - k,
    "cubic": lambda k, root: (root - k) ** 3,
    "tanh": lambda k, root: math.tanh(50 * (root - k)),
    "step": lambda k, root: 1.0 if k <= root else -1.0,
    "flat_below": lambda k, root: min(root - k, 0.0),
    "flat_above": lambda k, root: root - k if k <= root else -1.0,
}


def sweep_with_certificate(monkeypatch, report, kappas, certificate):
    """sweep on first-type reports whose dir_value is certificate(kappa); runs too."""
    runs = []

    def fake(kappa, grid=None):
        runs.append(kappa)
        return replace(report, kappa=kappa, explicit_direction_value=certificate(kappa))

    monkeypatch.setattr(saddle, "find_first_type", fake)
    return sweep(kappas, types=("first",), grid=report.profile.grid), runs


def halvings(width):
    count = 0
    while width > saddle._KAPPA0_WIDTH:
        width, count = 0.5 * width, count + 1
    return count


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
@pytest.mark.parametrize("kappas", [(4.0, 8.0), (4.0, 5.0, 6.0, 7.0, 8.0), (6.5, 6.75)])
def test_kappa0_search_on_model_certificates(monkeypatch, first_type_10, name, kappas):
    # the search ends at a bracket at most 0.05 wide around the sign change,
    # with certifying ends, in at most two runs more than bisection takes
    certificate = CERTIFICATES[name]
    for root in np.linspace(kappas[0], kappas[-1], 9)[:-1] + 0.0123:
        result, runs = sweep_with_certificate(
            monkeypatch, first_type_10, kappas, lambda k: certificate(k, root))
        lo, hi = result.kappa0_estimate
        assert hi - lo <= saddle._KAPPA0_WIDTH and lo <= root < hi
        assert certificate(lo, root) >= 0 > certificate(hi, root)
        start = max(k for k in kappas if k <= root)
        end = min(k for k in kappas if k > root)
        assert len(runs) - len(kappas) <= halvings(end - start) + 2
        assert not any(r.status.startswith("failed") for r in result.rows)


def test_kappa0_search_nan_at_the_lower_end_takes_the_midpoint(monkeypatch,
                                                              first_type_10):
    # NaN < 0 is false, so a NaN dir_value at 6.5 opens a bracket with 7.0;
    # its secant root is NaN, and the midpoint is run in its place
    result, runs = sweep_with_certificate(
        monkeypatch, first_type_10, [6.5, 7.0],
        lambda k: math.nan if k == 6.5 else 6.6656 - k)
    assert runs[:3] == [6.5, 7.0, 6.75]
    assert not any(r.status.startswith("failed") for r in result.rows)
    lo, hi = result.kappa0_estimate
    assert hi - lo <= saddle._KAPPA0_WIDTH and lo <= 6.6656 < hi


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
    # point (h = theta, Morse index 0 at kappa = 10) put into a walk is the
    # first to fail the test.  In the 0.5 walk, ahead of 3.5, it sends the
    # 0.05 walk back to the point before it, (4, 2*theta), and that walk
    # still brackets the fold; in the 0.05 walk the bracket ends at it
    grid = make_grid(256)
    stable = BranchPoint(kappa=10.0, profile=builtin_profile("theta", grid))
    assert two_lowest(stable)[0] > 1e-8
    real = saddle.continue_branch

    def probe_with_stable_point(walk, index):
        calls = []

        def with_stable_point(start_kappa, start, target, dk):
            branch = real(start_kappa, start, target, dk)
            calls.append((start_kappa, start, dk, branch))
            if len(calls) != walk:
                return branch
            points = branch.points
            return replace(branch, points=(*points[:index], stable, *points[index:]))

        monkeypatch.setattr(saddle, "continue_branch", with_stable_point)
        return probe_second_branch_floor(grid=grid), calls

    bracket, calls = probe_with_stable_point(1, 1)
    assert [call[2] for call in calls] == [-saddle._COARSE_DK, -saddle._BRANCH_DK]
    coarse = calls[0][3]
    assert [pt.kappa for pt in coarse.points] == [4.0, 3.5]
    assert calls[1][0] == 4.0 and calls[1][1] is coarse.points[0].profile
    assert bracket[1] - bracket[0] <= saddle._BRANCH_DK + 1e-12
    assert bracket == pytest.approx((3.20, 3.25))

    bracket, calls = probe_with_stable_point(2, 3)
    assert bracket == (10.0, calls[1][3].points[2].kappa)


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
    # each walk ends at a solve from the secant predictor, at kappa = 3.0 for
    # the 0.5 walk and 3.20 for the 0.05 walk; each evaluates the residual 4
    # times: the start, two accepted steps and the full step that does not
    # lower the residual; a line search at 3.20 made 89 evaluations
    solves = []
    real_solve, real_residual = stationary.newton_solve, stationary.el_residual

    def counted_residual(*args, **kwargs):
        if solves:  # continue_branch checks its start before any solve
            solves[-1][1] += 1
        return real_residual(*args, **kwargs)

    def recorded_solve(p0, params, **kwargs):
        solves.append([params.kappa, 0, False, kwargs])
        try:
            return real_solve(p0, params, **kwargs)
        except stationary.NewtonError:
            solves[-1][2] = True
            raise

    monkeypatch.setattr(stationary, "el_residual", counted_residual)
    monkeypatch.setattr(stationary, "newton_solve", recorded_solve)
    assert probe_second_branch_floor(grid=make_grid(1024)) == pytest.approx((3.20, 3.25))
    failures = [solve for solve in solves if solve[2]]
    assert [kappa for kappa, *_ in failures] == pytest.approx([3.0, 3.20])
    assert [evaluations for _, evaluations, *_ in failures] == [4, 4]
    assert [kwargs for *_, kwargs in failures] == [{"damped": False}] * 2
    assert solves[-1] is failures[-1]


def test_probe_resumed_walk_failing_at_once_brackets_the_fold(monkeypatch):
    # with long steps of 0.05 the long walk itself ends at 3.25, so the
    # resumed walk fails on its very first step; that failure is the fold
    # bracket, not a NewtonError
    monkeypatch.setattr(saddle, "_COARSE_DK", saddle._BRANCH_DK)
    raised = []
    real = saddle.continue_branch

    def recorded(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except stationary.NewtonError:
            raised.append(args[0])
            raise

    monkeypatch.setattr(saddle, "continue_branch", recorded)
    assert probe_second_branch_floor(grid=make_grid(256)) == pytest.approx((3.20, 3.25))
    assert raised == pytest.approx([3.25])


def test_probe_solve_and_sturm_count_budget(monkeypatch):
    # the 0.5 walk solves 3.5 and fails at 3.0; the 0.05 walk from 3.5
    # solves 3.45 to 3.25 and fails at 3.20, reading two Sturm counts at each
    # solved point: 8 solves and 12 counts, where the 0.05 walk from 4 made
    # 16 and 32
    calls = {"solves": 0, "counts": 0}
    real_solve, real_count = stationary.newton_solve, saddle.negative_count

    def counted_solve(*args, **kwargs):
        calls["solves"] += 1
        return real_solve(*args, **kwargs)

    def counted_count(*args, **kwargs):
        calls["counts"] += 1
        return real_count(*args, **kwargs)

    monkeypatch.setattr(stationary, "newton_solve", counted_solve)
    monkeypatch.setattr(saddle, "negative_count", counted_count)
    assert probe_second_branch_floor(grid=make_grid(1024)) == pytest.approx((3.20, 3.25))
    assert calls["solves"] <= 8
    assert calls["counts"] <= 14


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
