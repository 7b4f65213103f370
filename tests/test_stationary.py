import numpy as np
import pytest
from scipy.linalg import solve_banded

from axiferro import stationary
from axiferro.energy import (EnergyParams, assemble_second_variation,
                             el_residual, residual_supnorm)
from axiferro.flow import FlowConfig, run
from axiferro.grid import make_grid
from axiferro.profile import (builtin_profile, degree, hemispheric_deviation,
                              make_initial_first_type,
                              make_initial_second_type, make_profile)
from axiferro.spectrum import eigs_lowest
from axiferro.stationary import NewtonError, continue_branch, newton_solve
from axiferro.stencil import Stencil


def two_lowest(pt):
    op = assemble_second_variation(pt.profile, EnergyParams(pt.kappa))
    return eigs_lowest(op, 2).eigenvalues.tolist()


def counting_solves(monkeypatch):
    """Count the Jacobian solves of newton_solve; returns the live count."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(stationary, "solve_banded", counted)
    return calls


class TestNewton:
    def test_recovers_exact_solution(self, grid1024):
        exact = make_initial_second_type(grid1024)
        start = make_profile(grid1024,
                             exact.values + 0.05 * np.sin(2 * grid1024.nodes),
                             0, 2)
        sol = newton_solve(start, EnergyParams(4.0))
        assert np.max(np.abs(sol.values - exact.values)) < 1e-8

    def test_one_sin_cos_per_residual(self, grid1024, monkeypatch):
        # each Jacobian is built from the V of the residual evaluation that
        # accepted its iterate, so it takes no sin and cos of 2h (no stencil
        # evaluation) of its own
        calls = {"evaluate": 0, "residual": 0, "jacobian": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Stencil, "evaluate", counted("evaluate", Stencil.evaluate))
        monkeypatch.setattr(Stencil, "jacobian_bands",
                            counted("jacobian", Stencil.jacobian_bands))
        monkeypatch.setattr(stationary, "el_residual",
                            counted("residual", stationary.el_residual))
        exact = make_initial_second_type(grid1024)
        start = make_profile(grid1024,
                             exact.values + 0.05 * np.sin(2 * grid1024.nodes), 0, 2)
        newton_solve(start, EnergyParams(4.0))
        assert calls["jacobian"] >= 3
        assert calls["evaluate"] == calls["residual"] > calls["jacobian"]

    def test_identity_profile_unchanged(self, grid1024):
        p = builtin_profile("theta", grid1024)
        for kappa in (0.5, 9.0):
            sol = newton_solve(p, EnergyParams(kappa))
            assert np.array_equal(sol.values, p.values)

    def test_polish_after_flow_converges_fast(self, grid512, monkeypatch):
        # near-root start: a couple of Newton steps reach the rounding floor
        p0 = make_initial_first_type(grid512, 9.0)
        flow = run(p0, EnergyParams(9.0), FlowConfig(stationary_tol=1e-6),
                   half_interval=True)
        solves = counting_solves(monkeypatch)
        sol = newton_solve(flow.final, EnergyParams(9.0))
        assert solves[0] <= 5
        assert residual_supnorm(sol, EnergyParams(9.0)) < 5e-11

    def test_polish_to_1e12_where_floor_permits(self, grid64, monkeypatch):
        # the residual evaluation floor ~eps/dtheta^2 sits below 1e-12 only
        # on coarse grids; there the polish reaches it in very few steps
        p0 = make_initial_first_type(grid64, 9.0)
        flow = run(p0, EnergyParams(9.0), FlowConfig(stationary_tol=1e-6),
                   half_interval=True)
        solves = counting_solves(monkeypatch)
        sol = newton_solve(flow.final, EnergyParams(9.0))
        assert solves[0] <= 5
        assert residual_supnorm(sol, EnergyParams(9.0)) < 1e-12

    def test_stops_at_the_noise_floor_of_a_fine_grid(self):
        # at n = 4096 the residual of the exact solution alone is 1.75e-9,
        # above a fixed 5e-10; the tolerance is 4 x the noise floor, 8.5e-9
        grid = make_grid(4096)
        exact = make_initial_second_type(grid)
        start = make_profile(grid, exact.values + 0.05 * np.sin(2 * grid.nodes), 0, 2)
        sol = newton_solve(start, EnergyParams(4.0))
        assert residual_supnorm(sol, EnergyParams(4.0)) < 8.5e-9

    def test_quadratic_convergence(self, grid256):
        exact = make_initial_second_type(grid256)
        params = EnergyParams(4.0)
        cur = make_profile(grid256,
                           exact.values + 0.01 * np.sin(2 * grid256.nodes)
                           + 0.003 * np.sin(4 * grid256.nodes), 0, 2)
        norms = []
        for _ in range(6):
            r, v = el_residual(cur, params, with_potential=True)
            norms.append(float(np.max(np.abs(r))))
            if norms[-1] < 1e-11:
                break
            ab = grid256.stencil.jacobian_bands(v)
            delta = solve_banded((1, 1), ab, -r)
            vals = cur.values.copy()
            vals[1:-1] += delta
            cur = make_profile(grid256, vals, 0, 2)
        # at least two genuinely quadratic contractions before the floor
        assert norms[1] < 10.0 * norms[0] ** 2
        assert norms[2] < 10.0 * norms[1] ** 2

    def test_boundary_class_preserved(self, grid256):
        start = make_profile(grid256,
                             2 * grid256.nodes + 0.1 * np.sin(grid256.nodes),
                             0, 2)
        sol = newton_solve(start, EnergyParams(4.0))
        assert (sol.m, sol.n_end) == (0, 2)
        assert sol.values[0] == 0.0 and sol.values[-1] == 2 * np.pi

    def test_failure_carries_residual(self, grid256, monkeypatch):
        # one iteration cannot solve from far away
        monkeypatch.setattr(stationary, "MAX_ITER", 1)
        start = make_profile(grid256, np.pi + 0.9 * np.sin(grid256.nodes), 1, 1)
        with pytest.raises(NewtonError, match="no convergence in 1 iterations") as info:
            newton_solve(start, EnergyParams(25.0))
        assert info.value.residual_norm is not None


class TestContinuation:
    def test_branch_down_to_3_8(self, grid1024):
        start = make_initial_second_type(grid1024)
        branch = continue_branch(4.0, start, 3.8, -0.05)
        assert branch.suspected_fold is None
        assert branch.reached == pytest.approx(3.8, abs=1e-12)
        assert len(branch.points) == 5
        assert np.all(np.diff([pt.kappa for pt in branch.points]) < 0)
        for pt in branch.points:
            assert residual_supnorm(pt.profile, EnergyParams(pt.kappa)) < 1e-9
            assert hemispheric_deviation(pt.profile) < 1e-8
            lambda1, lambda2 = two_lowest(pt)
            assert lambda1 < 0 < lambda2
            assert (pt.profile.m, pt.profile.n_end) == (0, 2)
            assert degree(pt.profile) == 0

    def test_branch_up(self, grid512):
        start = make_initial_second_type(grid512)
        branch = continue_branch(4.0, start, 4.5, 0.05)
        assert branch.reached == pytest.approx(4.5, abs=1e-12)
        assert len(branch.points) == 11

    def test_single_point_branch(self, grid512):
        start = make_initial_second_type(grid512)
        branch = continue_branch(4.0, start, 4.0, 0.05)
        assert len(branch.points) == 1
        assert branch.points[0].profile is start and branch.suspected_fold is None

    def test_eigenvalues_vary_continuously(self, grid512):
        start = make_initial_second_type(grid512)
        branch = continue_branch(4.0, start, 3.8, -0.05)
        l1, l2 = np.transpose([two_lowest(pt) for pt in branch.points])
        assert np.max(np.abs(np.diff(l1))) <= 10 * 0.05
        assert np.max(np.abs(np.diff(l2))) <= 10 * 0.05

    def test_exact_start_accepted_on_a_fine_grid(self):
        # 2*theta at kappa = 4 has sup residual 1.75e-9 at n = 4096, pure
        # rounding noise; the start check follows the grid's noise floor
        grid = make_grid(4096)
        branch = continue_branch(4.0, make_initial_second_type(grid), 3.9, -0.05)
        assert branch.suspected_fold is None
        assert branch.reached == pytest.approx(3.9, abs=1e-12)

    def test_wrong_direction_rejected(self, grid512):
        start = make_initial_second_type(grid512)
        with pytest.raises(ValueError, match="away from target"):
            continue_branch(4.0, start, 3.5, +0.05)

    def test_nonstationary_start_rejected(self, grid512):
        bad = make_profile(grid512,
                           2 * grid512.nodes + 0.2 * np.sin(grid512.nodes),
                           0, 2)
        with pytest.raises(ValueError, match="not stationary"):
            continue_branch(4.0, bad, 3.8, -0.05)

    def test_failure_reported_as_fold(self, grid512):
        # the branch dies somewhere above kappa = 1; expect a bracket, not a raise
        start = make_initial_second_type(grid512)
        branch = continue_branch(4.0, start, 1.0, -0.1)
        assert branch.suspected_fold is not None
        good, failed = branch.suspected_fold
        assert failed < good <= 4.0
        assert branch.reached == pytest.approx(good)


@pytest.mark.parametrize("kappa", [0.0, 5.0])
def test_jacobian_matches_finite_differences(grid64, rng, kappa):
    g = grid64
    vals = (2 * g.nodes + 0.2 * np.sin(2 * g.nodes)
            + 0.05 * rng.standard_normal(g.n + 1) * np.sin(g.nodes))
    p = make_profile(g, vals, 0, 2)
    _, v = el_residual(p, EnergyParams(kappa), with_potential=True)
    ab = g.stencil.jacobian_bands(v)
    m = g.n - 1
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    eps = 1e-6
    fd = np.empty((m, m))
    for j in range(m):
        cols = []
        for sign in (1.0, -1.0):
            v = p.values.copy()
            v[j + 1] += sign * eps
            cols.append(el_residual(make_profile(g, v, 0, 2), EnergyParams(kappa)))
        fd[:, j] = (cols[0] - cols[1]) / (2.0 * eps)
    assert np.max(np.abs(fd - dense)) < 1e-7 * np.max(np.abs(dense))
