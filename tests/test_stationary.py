import numpy as np
import pytest

from axiferro import saddle, stationary
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
from oracles import banded_solve, dense_tridiagonal


def two_lowest(pt):
    op = assemble_second_variation(pt.profile, EnergyParams(pt.kappa))
    return eigs_lowest(op, 2).eigenvalues.tolist()


def counting_solves(monkeypatch):
    """Count the Jacobian solves of newton_solve; returns the live count.

    Each Newton iteration builds its Jacobian's bands exactly once, so the
    count is of ``Stencil.jacobian_bands`` calls.  A flow run builds them
    once too, so no flow may run while the count is live.
    """
    calls = [0]
    real = Stencil.jacobian_bands

    def counted(self, v):
        calls[0] += 1
        return real(self, v)

    monkeypatch.setattr(Stencil, "jacobian_bands", counted)
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
            delta = banded_solve(*grid256.stencil.jacobian_bands(v), -r)
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

    def test_singular_jacobian_raises(self, grid256, monkeypatch):
        # LAPACK's dgtsv reports an exactly zero pivot as info > 0
        monkeypatch.setattr(stationary, "solve_banded",
                            lambda dl, d, du, b: (dl, d, du, b, 1))
        start = make_profile(grid256, np.pi + 0.9 * np.sin(grid256.nodes), 1, 1)
        with pytest.raises(NewtonError, match="singular Jacobian") as info:
            newton_solve(start, EnergyParams(25.0))
        assert info.value.residual_norm > 0

    def test_non_finite_residual_raises(self, grid256):
        values = builtin_profile("pi", grid256).values.copy()
        values[5], values[6] = 1.7e308, -1.7e308
        start = make_profile(grid256, values, 1, 1)
        # the residual overflows, which numpy would also warn about
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(NewtonError, match="residual is not finite") as info):
            newton_solve(start, EnergyParams(5.0))
        assert not np.isfinite(info.value.residual_norm)

    def test_damped_by_default_and_plain_on_request(self, grid256):
        # a rough start the line search carries home; its full first step
        # raises the sup residual from 0.398 to 12.3, so the plain Newton
        # corrector gives up at once and says by how much
        g = grid256
        start = make_profile(g, 2 * g.nodes + 0.3 * np.sin(2 * g.nodes), 0, 2)
        sol = newton_solve(start, EnergyParams(4.0))
        assert residual_supnorm(sol, EnergyParams(4.0)) < 5e-10
        with pytest.raises(NewtonError, match=r"full Newton step did not lower "
                                              r"the residual: 0\.398 -> 12\.3") as info:
            newton_solve(start, EnergyParams(4.0), damped=False)
        assert info.value.residual_norm == pytest.approx(0.398, abs=1e-3)


def residual_widths(monkeypatch):
    """Record the number of nodes of every el_residual call newton_solve makes."""
    widths = []
    real = stationary.el_residual

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        widths.append((out[0] if isinstance(out, tuple) else out).size)
        return out

    monkeypatch.setattr(stationary, "el_residual", recorded)
    return widths


def first_type_start(grid, kappa):
    """A hemispheric first-type profile near the saddle: a loose half-interval flow."""
    p0 = make_initial_first_type(grid, kappa)
    return run(p0, EnergyParams(kappa), FlowConfig(stationary_tol=1e-5),
               half_interval=True).final


class TestHalfInterval:
    def test_hemispheric_start_solves_the_left_half(self, grid1024, monkeypatch):
        widths = residual_widths(monkeypatch)
        exact = make_initial_second_type(grid1024)
        start = make_profile(grid1024,
                             exact.values + 0.05 * np.sin(2 * grid1024.nodes), 0, 2)
        sol = newton_solve(start, EnergyParams(4.0))
        assert len(widths) >= 3 and set(widths) == {grid1024.midpoint_index - 1}
        assert np.max(np.abs(sol.values - exact.values)) < 1e-8
        # the stopping sup is over the solved nodes; the mirrored half agrees
        # to the residual's rounding
        assert residual_supnorm(sol, EnergyParams(4.0)) < 1e-9

    def test_nearly_hemispheric_start_takes_the_full_interval(self, grid1024,
                                                              monkeypatch):
        widths = residual_widths(monkeypatch)
        exact = make_initial_second_type(grid1024)
        start = make_profile(grid1024, exact.values + 0.05 * np.sin(2 * grid1024.nodes)
                             + 4e-11 * np.sin(grid1024.nodes), 0, 2)
        assert 1e-12 < hemispheric_deviation(start) <= 1e-10
        newton_solve(start, EnergyParams(4.0))
        assert len(widths) >= 3 and set(widths) == {grid1024.n - 1}

    @pytest.mark.parametrize("saddle_type, kappa", [("first", 5.0), ("first", 9.0),
                                                    ("second", 3.5)])
    def test_half_and_full_interval_agree(self, grid1024, monkeypatch,
                                          saddle_type, kappa):
        if saddle_type == "first":
            start = first_type_start(grid1024, kappa)
        else:
            branch = continue_branch(4.0, make_initial_second_type(grid1024), 3.55, -0.05)
            start = branch.points[-1].profile
        half = newton_solve(start, EnergyParams(kappa))
        monkeypatch.setattr(stationary, "is_hemispheric", lambda p, tol: False)
        widths = residual_widths(monkeypatch)
        full = newton_solve(start, EnergyParams(kappa))
        assert set(widths) == {grid1024.n - 1}
        assert np.max(np.abs(half.values - full.values)) <= 1e-12

    @pytest.mark.parametrize("saddle_type", ["first", "second"])
    def test_polished_profile_is_exactly_hemispheric(self, grid1024, saddle_type):
        if saddle_type == "first":
            start, kappa = first_type_start(grid1024, 7.0), 7.0
        else:
            start, kappa = make_initial_second_type(grid1024), 3.95
        sol = newton_solve(start, EnergyParams(kappa))
        assert sol is not start
        v, mid = sol.values, grid1024.midpoint_index
        k = (sol.m + sol.n_end) // 2
        assert v[mid] == k * np.pi
        assert np.array_equal(v[mid + 1:-1], 2.0 * np.pi * k - v[mid - 1:0:-1])
        if saddle_type == "first":
            # the left half lies in [pi, 3 pi/2], where 2 pi - h is exact
            assert hemispheric_deviation(sol) == 0.0

    def test_first_type_at_kappa_s(self, grid1024, monkeypatch):
        # at kappa_s = 6.0454 lambda1 crosses zero on a node-even direction, so
        # the full Jacobian is nearly singular; the node-odd block is not
        start = first_type_start(grid1024, 6.0454)
        widths = residual_widths(monkeypatch)
        solves = counting_solves(monkeypatch)
        sol = newton_solve(start, EnergyParams(6.0454))
        assert set(widths) == {grid1024.midpoint_index - 1}
        assert 1 <= solves[0] <= 5
        assert residual_supnorm(sol, EnergyParams(6.0454)) < 1e-9
        assert hemispheric_deviation(sol) == 0.0


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

    @pytest.mark.parametrize("target", [3.8, 3.77])
    def test_secant_predictor_seeds_newton(self, grid512, monkeypatch, target):
        starts = []
        real = stationary.newton_solve

        def recorded(p0, params, **kwargs):
            starts.append(p0.values)
            return real(p0, params, **kwargs)

        monkeypatch.setattr(stationary, "newton_solve", recorded)
        start = make_initial_second_type(grid512)
        branch = continue_branch(4.0, start, target, -0.05)
        pts = branch.points
        assert branch.reached == pytest.approx(target, abs=1e-12)
        assert len(starts) == len(pts) - 1
        assert starts[0] is start.values
        for j in range(1, len(starts)):
            ratio = (pts[j + 1].kappa - pts[j].kappa) / (pts[j].kappa - pts[j - 1].kappa)
            predicted = pts[j].profile.values + ratio * (pts[j].profile.values
                                                         - pts[j - 1].profile.values)
            assert np.array_equal(starts[j], predicted)
        # the clipped last step scales the secant by its own length
        assert ratio == pytest.approx(1.0 if target == 3.8 else 0.6)

    def test_predictor_saves_newton_solves(self, grid1024, monkeypatch):
        # seeded with the last point instead of the secant prediction, the
        # 0.05 walk from (4, 2*theta) to 3.47 takes 33 Jacobian solves
        solves = counting_solves(monkeypatch)
        branch = continue_branch(4.0, make_initial_second_type(grid1024), 3.47, -0.05)
        assert solves[0] < 33
        kappas = [pt.kappa for pt in branch.points]
        assert kappas == pytest.approx([4.0 - 0.05 * i for i in range(11)] + [3.47],
                                       rel=0, abs=1e-12)

    def test_second_type_walks_in_long_steps(self, monkeypatch):
        # find_second_type(3.47) reaches 3.47 through 3.5 alone: 8 Jacobian
        # solves, where the 0.05 walk above takes 23
        branches = []
        real = saddle.continue_branch

        def recorded(*args, **kwargs):
            branches.append(real(*args, **kwargs))
            return branches[-1]

        monkeypatch.setattr(saddle, "continue_branch", recorded)
        solves = counting_solves(monkeypatch)
        saddle.find_second_type(3.47)
        assert solves[0] <= 8
        assert len(branches) == 1
        assert [pt.kappa for pt in branches[0].points] == [4.0, 3.5, 3.47]

    def test_first_step_keeps_the_line_search(self, grid256, monkeypatch):
        # the first step has no predictor: from (4, 2*theta) a step of 2 needs
        # damping, and with it the walk reaches 30; every later step is plain
        calls = []
        real = stationary.newton_solve

        def recorded(p0, params, **kwargs):
            calls.append(kwargs)
            return real(p0, params, **kwargs)

        monkeypatch.setattr(stationary, "newton_solve", recorded)
        branch = continue_branch(4.0, make_initial_second_type(grid256), 30.0, 2.0)
        assert branch.suspected_fold is None
        assert branch.reached == pytest.approx(30.0, abs=1e-12)
        assert calls == [{"damped": True}] + [{"damped": False}] * (len(calls) - 1)

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

    def test_start_checked_on_the_nodes_newton_stops_on(self):
        # Newton on the half interval stops at a half sup of 7.18e-9, below
        # its tolerance 8.54e-9 at n = 4096; rounding on the reflected half
        # lifts the full sup to 9.16e-9 (node 3555), yet the point is a start
        grid = make_grid(4096)
        params = EnergyParams(3.5)
        p = newton_solve(make_initial_second_type(grid), params)
        tol = stationary._residual_tol(grid)
        m = grid.midpoint_index - 1
        assert np.max(np.abs(el_residual(p, params, nodes=m))) < tol
        assert residual_supnorm(p, params) > tol
        branch = continue_branch(3.5, p, 3.4, -0.05)
        assert branch.suspected_fold is None
        assert branch.reached == pytest.approx(3.4, abs=1e-12)

    def test_non_hemispheric_start_checked_on_every_node(self, grid512):
        # stationary left of the midpoint, not right of it: no symmetry
        # class, so the residual on the right half refuses the start
        exact = make_initial_second_type(grid512)
        values = exact.values.copy()
        values[400] += 1e-3
        bad = make_profile(grid512, values, 0, 2)
        params = EnergyParams(4.0)
        half = grid512.midpoint_index - 1
        assert np.max(np.abs(el_residual(bad, params, nodes=half))) < 1e-9
        with pytest.raises(ValueError, match="not stationary"):
            continue_branch(4.0, bad, 3.8, -0.05)

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
    dense = dense_tridiagonal(*g.stencil.jacobian_bands(v))
    m = g.n - 1
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
