import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_banded

from axiferro import flow
from axiferro.energy import (EnergyParams, reduced_energy, residual_noise_floor,
                             residual_supnorm)
from axiferro.flow import (ENERGY_SLACK, FlowConfig, FlowRecord, FlowStatus,
                           comparison_trial, detect_blowup, run,
                           write_energy_trace_csv)
from axiferro.grid import make_grid
from axiferro.profile import (W1, W2, WedgeSpec, builtin_profile, degree,
                              hemispheric_deviation, is_hemispheric,
                              make_profile, wedge_check)


def random_ordered_pair(grid, rng):
    """Ordered pair of class-(1,1) profiles with smooth positive gap."""
    a1, a2 = rng.uniform(-0.3, 0.3, 2)
    b1, b2 = rng.uniform(0.02, 0.25, 2)
    s = np.sin(grid.nodes)
    lower = np.pi + a1 * s ** 2 * np.cos(grid.nodes) + a2 * s ** 3
    upper = lower + b1 * s ** 2 + b2 * s ** 4
    return (make_profile(grid, lower, 1, 1), make_profile(grid, upper, 1, 1))


def step(p, params, dt):
    """One stabilized IMEX step of every interior node, on a fresh run workspace."""
    m = p.grid.n - 1
    kernel = flow._Kernel(p, params.kappa, m)
    values = p.values.copy()
    r, v = np.empty((2, m))
    kernel.evaluate(values, r, v)
    kernel.advance(values, values, dt, r, v)
    return dataclasses.replace(p, values=values)


class TestStep:
    @pytest.mark.parametrize("name,kappa", [("theta", 7.0), ("two-theta", 4.0)])
    def test_exact_solutions_fixed(self, grid512, name, kappa):
        p = builtin_profile(name, grid512, kappa=kappa)
        q = step(p, EnergyParams(kappa), 1e-2)
        assert np.max(np.abs(q.values - p.values)) < 1e-12

    def test_two_theta_drifts_down_above_four(self, grid512):
        # drift per step is ~ dt (2 - kappa/2) sin(2 theta) < 0 for kappa = 6
        p = builtin_profile("two-theta", grid512)
        q = step(p, EnergyParams(6.0), 1e-3)
        mid = grid512.midpoint_index
        drift = (q.values - p.values)[1:mid]
        assert np.all(drift < 0)

    def test_endpoints_untouched_bitwise(self, grid256):
        p = builtin_profile("pi", grid256)
        q = step(p, EnergyParams(5.0), 1e-2)
        assert q.values[0] == np.pi and q.values[-1] == np.pi

    def test_rejects_nonpositive_dt(self, grid256):
        p = builtin_profile("pi", grid256)
        with pytest.raises(ValueError, match="dt"):
            run(p, EnergyParams(1.0), FlowConfig(dt=0.0))

    def test_nonfinite_update_raises(self, grid256):
        # the second difference at a finite 1e307 overflows, so the solved
        # update is not finite; it must not be carried into a profile
        vals = np.full(grid256.n + 1, np.pi)
        vals[grid256.n // 4] = 1e307
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            step(make_profile(grid256, vals, 1, 1), EnergyParams(5.0), 1e-2)


class TestRun:
    def test_relaxation_from_pi(self, grid512):
        params = EnergyParams(5.0)
        p0 = builtin_profile("pi", grid512)
        cfg = FlowConfig(stationary_tol=1e-9, wedge=WedgeSpec(W1, 1e-8))
        result = run(p0, params, cfg)
        assert result.status is FlowStatus.STATIONARY
        assert result.records[-1].energy < 2.0 * 5.0 / 3.0
        assert result.energy_monotone
        assert result.wedge_always_ok
        assert all(r.hemispheric_dev <= 10 * cfg.stationary_tol
                   for r in result.records)
        assert (result.final.m, result.final.n_end) == (1, 1)
        assert degree(result.final) == 0
        assert result.final.values[0] == np.pi

    def test_exact_solution_immediately_stationary(self, grid256):
        p0 = builtin_profile("two-theta", grid256)
        result = run(p0, EnergyParams(4.0), FlowConfig())
        assert result.status is FlowStatus.STATIONARY
        assert result.steps == 0

    def test_horizon_status(self, grid256):
        p0 = builtin_profile("pi", grid256)
        result = run(p0, EnergyParams(5.0), FlowConfig(t_max=0.05))
        assert result.status is FlowStatus.HORIZON_REACHED

    def test_half_interval_agrees_with_full(self, grid512):
        params = EnergyParams(5.0)
        p0 = builtin_profile("pi", grid512)
        cfg = FlowConfig(stationary_tol=1e-9)
        full = run(p0, params, cfg)
        half = run(p0, params, cfg, half_interval=True)
        assert half.status is FlowStatus.STATIONARY
        assert np.max(np.abs(half.final.values - full.final.values)) < 1e-8

    def test_half_interval_needs_hemispheric_data(self, grid256):
        p0 = builtin_profile("theta", grid256)
        with pytest.raises(ValueError, match="hemispheric"):
            run(p0, EnergyParams(4.0), FlowConfig(), half_interval=True)

    def test_first_type_limit_slopes(self, grid512):
        # the relaxed sawtooth keeps h' <= 1 everywhere and slopes down
        # through the equator
        from axiferro.profile import make_initial_first_type, node_derivative
        p0 = make_initial_first_type(grid512, 9.0)
        result = run(p0, EnergyParams(9.0), FlowConfig(stationary_tol=1e-8),
                     half_interval=True)
        assert result.status is FlowStatus.STATIONARY
        hp = node_derivative(result.final)
        assert hp[grid512.midpoint_index] <= 0
        assert np.max(hp) <= 1 + 1e-6

    def test_w2_wedge_preserved(self, grid512):
        # class (0,2) initial data strictly inside W2
        vals = 2 * grid512.nodes - 0.3 * np.sin(2 * grid512.nodes)
        p0 = make_profile(grid512, vals, 0, 2)
        cfg = FlowConfig(stationary_tol=1e-9, wedge=WedgeSpec(W2, 1e-8))
        result = run(p0, EnergyParams(5.0), cfg)
        assert result.status is FlowStatus.STATIONARY
        assert result.wedge_always_ok
        assert result.energy_monotone

    def test_default_dt_scales_with_kappa(self):
        assert FlowConfig().effective_dt(2.0) == pytest.approx(1e-2)
        assert FlowConfig().effective_dt(100.0) == pytest.approx(5e-3)
        assert FlowConfig(dt=1e-3).effective_dt(100.0) == 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(dt=-1.0)
        with pytest.raises(ValueError):
            FlowConfig(t_max=0.0)
        with pytest.raises(ValueError):
            FlowConfig(stationary_tol=0.0)

    @pytest.mark.parametrize("field", ["dt", "t_max", "stationary_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=field):
            FlowConfig(**{field: value})

    @pytest.mark.parametrize("relax", [False, True])
    def test_tolerance_at_noise_floor_refused(self, relax):
        # at n = 4096 the noise floor, 2.1e-9, lies above the default 1e-9
        grid = make_grid(4096)
        floor = residual_noise_floor(grid.n)
        p0 = builtin_profile("first-type", grid, kappa=5.0)
        relaxer = flow._relax if relax else run
        for tol in (1e-9, floor):
            with pytest.raises(ValueError, match="noise floor") as info:
                relaxer(p0, EnergyParams(5.0), FlowConfig(stationary_tol=tol))
            assert "n=4096" in str(info.value)
            assert f"{tol:g}" in str(info.value) and f"{floor:.3g}" in str(info.value)
        tol = 1.01 * floor
        relaxer(p0, EnergyParams(5.0), FlowConfig(stationary_tol=tol, t_max=0.05))

    @pytest.mark.parametrize("half_interval", [False, True])
    def test_one_residual_per_step(self, grid256, monkeypatch, half_interval):
        calls = []
        evaluate = flow._Kernel.evaluate

        def counting(self, h, r, v):
            calls.append((self.work.shape[1], len(r), len(v)))
            return evaluate(self, h, r, v)

        monkeypatch.setattr(flow._Kernel, "evaluate", counting)
        result = run(builtin_profile("pi", grid256), EnergyParams(5.0),
                     FlowConfig(stationary_tol=1e-8), half_interval=half_interval)
        assert result.status is FlowStatus.STATIONARY
        assert result.steps > 10
        assert len(calls) == result.steps + 1
        # only the evolved nodes are evaluated
        evolved = grid256.midpoint_index - 1 if half_interval else grid256.n - 1
        assert set(calls) == {(evolved, evolved, evolved)}


def evaluated(st, values, kappa, m):
    """R and V at nodes 1..m by the stencil's evaluation, into fresh arrays."""
    r, v = np.empty((2, m))
    st.evaluate(values, kappa, r, v, np.empty((4, m)))
    return r, v


def reference_run(p0, params, cfg, half_interval):
    """``run`` as one allocating loop over the stencil's evaluation and solve_banded.

    Returns (steps, status, records, final values).
    """
    grid = p0.grid
    st = grid.stencil
    dt = cfg.effective_dt(params.kappa)
    mid = grid.midpoint_index
    m = mid - 1 if half_interval else grid.n - 1
    implicit = dt * st.divergence_bands[:, :m]
    implicit[1] += 1.0
    k = (p0.m + p0.n_end) // 2
    track_hemi = is_hemispheric(p0, 1e-12)
    values = p0.values.copy()
    t, steps, since, records = 0.0, 0, 0, []
    e_prev = reduced_energy(p0, params)
    slack = ENERGY_SLACK * (1.0 + abs(e_prev))

    def record(sup):
        nonlocal e_prev, since
        p = make_profile(grid, values, p0.m, p0.n_end)
        e = reduced_energy(p, params)
        wedge_ok = None if cfg.wedge is None else wedge_check(p, cfg.wedge).inside
        dev = hemispheric_deviation(p) if track_hemi else None
        records.append(FlowRecord(t=t, energy=e, sup_residual=sup, wedge_ok=wedge_ok,
                                  hemispheric_dev=dev,
                                  energy_ok=e <= e_prev + slack * max(since, 1)))
        e_prev, since = e, 0

    r, v = evaluated(st, values, params.kappa, m)
    sup = float(np.max(np.abs(r)))
    record(sup)
    status = FlowStatus.HORIZON_REACHED
    while t < cfg.t_max:
        if full_gradient_blowup(make_profile(grid, values, p0.m, p0.n_end)):
            status = FlowStatus.BLOWUP_SUSPECTED
            break
        if sup < cfg.stationary_tol:
            status = FlowStatus.STATIONARY
            break
        ab = implicit.copy()
        ab[1] += dt * np.maximum(v, 0.0)
        values[1:m + 1] += solve_banded((1, 1), ab, dt * r)
        if half_interval:
            values[mid] = k * np.pi
            values[mid + 1:-1] = 2.0 * np.pi * k - values[mid - 1:0:-1]
        t += dt
        steps += 1
        since += 1
        r, v = evaluated(st, values, params.kappa, m)
        sup = float(np.max(np.abs(r)))
        if since >= cfg.record_every or sup < cfg.stationary_tol:
            record(sup)
    if records[-1].t < t:
        record(sup)
    return steps, status, records, values


@pytest.mark.parametrize("record_every", [1, 10])
@pytest.mark.parametrize("init,kappa,wedge,half_interval", [
    ("pi", 5.0, W1, False), ("first-type", 5.0, W1, True),
    ("two-theta", 6.0, W2, True)])
def test_run_matches_reference_loop_bitwise(grid256, init, kappa, wedge,
                                            half_interval, record_every):
    p0 = builtin_profile(init, grid256, kappa=kappa)
    if half_interval:
        # a midpoint off k*pi within the hemispheric tolerance, which the
        # first step pins
        vals = p0.values.copy()
        vals[grid256.midpoint_index] += 4e-13
        p0 = make_profile(grid256, vals, p0.m, p0.n_end)
    params = EnergyParams(kappa)
    cfg = FlowConfig(stationary_tol=1e-8, record_every=record_every,
                     wedge=WedgeSpec(wedge, 1e-8))
    result = run(p0, params, cfg, half_interval=half_interval)
    steps, status, records, values = reference_run(p0, params, cfg, half_interval)
    assert result.status is status is FlowStatus.STATIONARY
    assert result.steps == steps > 10
    assert result.records == tuple(records)
    assert np.array_equal(result.final.values, values)
    assert not result.final.values.flags.writeable


def test_kernel_serves_every_step_size(grid256):
    # _relax changes dt between trials on one workspace: each step must
    # equal a fresh workspace's step at that dt
    p = builtin_profile("first-type", grid256, kappa=5.0)
    m = grid256.n - 1
    kernel = flow._Kernel(p, 5.0, m)
    r, v = np.empty((2, m))
    kernel.evaluate(p.values, r, v)
    for dt in (1e-2, 4e-2, 4e-2, 1e-2):
        values = p.values.copy()
        kernel.advance(p.values, values, dt, r, v)
        assert np.array_equal(values, step(p, EnergyParams(5.0), dt).values)


def full_gradient_blowup(p):
    """detect_blowup as defined on np.gradient over every node."""
    v = p.values
    if not np.all(np.isfinite(v)):
        return True
    hp = np.gradient(v, p.grid.dtheta, edge_order=2)
    pole_slopes = np.concatenate((hp[:6], hp[-6:]))
    return bool(np.max(np.abs(pole_slopes)) > flow.BLOWUP_GRAD_THRESHOLD)


def bubble_profile(n=2048, lam=1e-4):
    g = make_grid(n)
    vals = 2.0 * np.arctan(np.tan(g.nodes / 2) / lam)
    vals[0] = 0.0
    vals[-1] = np.pi
    return make_profile(g, vals, 0, 1)


class TestBlowupDetector:
    def test_windowed_slopes_match_full_gradient(self, grid512, rng, monkeypatch):
        vals = np.pi + rng.standard_normal(grid512.n + 1)
        vals[0] = vals[-1] = np.pi
        theta = builtin_profile("theta", grid512)
        nan_vals = theta.values.copy()
        nan_vals[7] = np.nan
        profiles = [builtin_profile("two-theta", grid512), bubble_profile(),
                    make_profile(grid512, vals, 1, 1),
                    dataclasses.replace(theta, values=nan_vals)]
        for p in profiles:
            hp = np.gradient(p.values, p.grid.dtheta, edge_order=2)
            steepest = np.max(np.abs(np.concatenate((hp[:6], hp[-6:]))))
            # the default threshold, and thresholds just either side of the steepest slope
            for threshold in (1e3, steepest * (1 - 1e-12), steepest * (1 + 1e-12)):
                monkeypatch.setattr(flow, "BLOWUP_GRAD_THRESHOLD", threshold)
                assert detect_blowup(p) == full_gradient_blowup(p)

    def test_bounded_profile(self, grid512):
        p = builtin_profile("two-theta", grid512)
        assert not detect_blowup(p)

    def test_nonfinite_values(self, grid256):
        p = builtin_profile("theta", grid256)
        vals = p.values.copy()
        vals[7] = np.nan
        assert detect_blowup(dataclasses.replace(p, values=vals))

    def test_near_bubble_fires(self):
        # concentrated pole bubble with scale 1e-4; needs a grid fine enough
        # to see a finite-difference slope beyond the threshold of 1e3
        assert flow.BLOWUP_GRAD_THRESHOLD == 1e3
        assert detect_blowup(bubble_profile())

    def test_flow_reports_blowup_status(self):
        result = run(bubble_profile(), EnergyParams(1.0), FlowConfig(t_max=1.0))
        assert result.status is FlowStatus.BLOWUP_SUSPECTED


class TestComparison:
    def test_identical_inputs(self, grid256):
        p = builtin_profile("pi", grid256)
        verdict = comparison_trial(p, p, EnergyParams(5.0), FlowConfig(t_max=1.0))
        assert verdict.max_violation == 0.0

    def test_pi_below_exact_tilted_solution(self, grid512):
        # h = pi + theta solves the stationarity equation for every kappa
        lower = builtin_profile("pi", grid512)
        upper = make_profile(grid512, np.pi + grid512.nodes, 1, 2)
        assert residual_supnorm(upper, EnergyParams(5.0)) < 1e-9
        verdict = comparison_trial(lower, upper, EnergyParams(5.0),
                                   FlowConfig(t_max=10.0))
        assert verdict.max_violation <= 1e-9

    def test_two_exact_solutions_at_four(self, grid256):
        lower = builtin_profile("theta", grid256)
        upper = builtin_profile("two-theta", grid256)
        verdict = comparison_trial(lower, upper, EnergyParams(4.0),
                                   FlowConfig(t_max=2.0))
        assert verdict.max_violation <= 1e-12

    def test_random_ordered_pairs_stay_ordered(self, grid256, rng):
        worst = 0.0
        for _ in range(5):
            lower, upper = random_ordered_pair(grid256, rng)
            verdict = comparison_trial(lower, upper, EnergyParams(5.0),
                                       FlowConfig(t_max=5.0, record_every=10))
            worst = max(worst, verdict.max_violation)
        assert worst <= 1e-6

    def test_tolerance_at_noise_floor_refused(self):
        # at n = 4096 the default 1e-9 lies below the noise floor, 2.1e-9
        grid = make_grid(4096)
        lower = builtin_profile("pi", grid)
        upper = make_profile(grid, np.pi + grid.nodes, 1, 2)
        with pytest.raises(ValueError, match="noise floor"):
            comparison_trial(lower, upper, EnergyParams(5.0), FlowConfig(t_max=0.05))

    def test_initial_violation_rejected(self, grid256):
        lower = builtin_profile("two-theta", grid256)
        upper = builtin_profile("theta", grid256)
        with pytest.raises(ValueError, match="ordering"):
            comparison_trial(lower, upper, EnergyParams(4.0), FlowConfig())


def test_energy_trace_csv(tmp_path, grid256):
    p0 = builtin_profile("pi", grid256)
    result = run(p0, EnergyParams(5.0),
                 FlowConfig(stationary_tol=1e-8, wedge=WedgeSpec(W1, 1e-8)))
    path = tmp_path / "trace.csv"
    write_energy_trace_csv(result, path, header_lines=["# config_hash=abc"])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# config_hash=abc"
    assert lines[1] == "t,E,sup_residual,wedge_ok"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == reduced_energy(p0, EnergyParams(5.0))
    # E_w(pi) = 2 kappa / 3 to second order, at validate's bar 1e-5 (1024/n)^2
    assert float(first[1]) == pytest.approx(10.0 / 3.0, rel=1.6e-4)
    assert first[3] == "1"


def test_energy_trace_csv_numpy_dt(tmp_path, grid256):
    # a numpy scalar dt makes t a numpy scalar; the t column must still be a number
    result = run(builtin_profile("pi", grid256), EnergyParams(5.0),
                 FlowConfig(dt=np.float64(1e-2), t_max=0.05, record_every=1))
    path = tmp_path / "trace.csv"
    write_energy_trace_csv(result, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert data[:, 0].tolist() == [r.t for r in result.records]
    assert data[:, 1].tolist() == [r.energy for r in result.records]
