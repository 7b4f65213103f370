import numpy as np
import pytest

from axiferro import saddle
from axiferro.energy import EnergyParams, reduced_energy
from axiferro.grid import make_grid
from axiferro.profile import (W1, W2, WedgeSpec, degree,
                              make_initial_first_type, node_derivative,
                              wedge_check)
from axiferro.saddle import (ContinuationError, find_first_type,
                             find_second_type, grid_for_kappa,
                             probe_second_branch_floor, sweep)


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
        midpoints = [r.kappa for r in result.rows_of("first") if r.kappa not in requested]
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

    def test_first_type_skipped_below_four(self):
        grid = make_grid(512)
        result = sweep([3.9], types=("first",), estimate_kappa1=False, grid=grid)
        assert len(result.rows) == 1
        assert result.rows[0].status.startswith("failed: skipped")

    def test_second_type_rows_and_kappa1(self):
        grid = make_grid(256)
        result = sweep([4.0, 6.0], types=("second",), grid=grid)
        rows = result.rows_of("second")
        assert len(rows) == 2
        assert all(r.dir_value < 0 for r in rows)
        assert result.kappa1_estimate is not None
        lo, hi = result.kappa1_estimate
        assert 0 < lo < hi < 4.0


def test_probe_second_branch_floor():
    bracket = probe_second_branch_floor(grid=make_grid(256))
    assert bracket is not None
    lo, hi = bracket
    assert 0 < lo < hi < 4.0


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


def test_grid_for_kappa_scaling():
    assert grid_for_kappa(4.0).n == 1024
    assert grid_for_kappa(1600.0).n == 1280
    assert grid_for_kappa(1e4).n == 3200
