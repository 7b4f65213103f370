import dataclasses

import numpy as np
import pytest

from axiferro import flow, saddle
from axiferro.energy import (EnergyParams, el_residual, reduced_energy,
                             residual_noise_floor, residual_supnorm)
from axiferro.flow import (ENERGY_SLACK, FlowConfig, FlowRecord, FlowStatus,
                           comparison_trial, detect_blowup, run,
                           write_energy_trace_csv)
from axiferro.grid import make_grid
from axiferro.profile import (W1, W2, WedgeSpec, builtin_profile, degree,
                              hemispheric_deviation, is_hemispheric,
                              make_initial_first_type, make_initial_second_type,
                              make_profile, wedge_check)
from oracles import banded_solve, dense_tridiagonal


def random_ordered_pair(grid, rng):
    """Ordered pair of class-(1,1) profiles with smooth positive gap."""
    a1, a2 = rng.uniform(-0.3, 0.3, 2)
    b1, b2 = rng.uniform(0.02, 0.25, 2)
    s = np.sin(grid.nodes)
    lower = np.pi + a1 * s ** 2 * np.cos(grid.nodes) + a2 * s ** 3
    upper = lower + b1 * s ** 2 + b2 * s ** 4
    return (make_profile(grid, lower, 1, 1), make_profile(grid, upper, 1, 1))


def step(p, params, dt, half=False):
    """One convex-splitting step of p's evolved nodes, by a fresh run's kernel.

    Every interior node, or with ``half`` the nodes left of the pinned midpoint.
    """
    kernel = flow._Kernel(p, params.kappa, half, dt)
    values = p.values.copy()
    r = np.empty(kernel.m)
    kernel.evaluate(values, r)
    kernel.advance(values, r)
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
        result = run(p0, EnergyParams(5.0), FlowConfig(max_steps=1))
        assert result.status is FlowStatus.HORIZON_REACHED

    def test_step_cap_is_exact_at_small_dt(self, grid256):
        # a pseudo-time horizon summed in floating point ran 501 steps to
        # t = 5 at dt = 1e-2; the cap runs exactly the steps it names.  The
        # tolerance lies above the noise floor, 8.3e-12 at n = 256, but the
        # flow from 2*theta at kappa = 6 is still near 1e-9 at t = 5
        p0 = builtin_profile("two-theta", grid256)
        cfg = FlowConfig(dt=1e-2, max_steps=500, stationary_tol=1e-10)
        result = run(p0, EnergyParams(6.0), cfg, half_interval=True)
        assert result.status is FlowStatus.HORIZON_REACHED
        assert result.steps == 500
        assert result.records[-1].t == 500 * 1e-2

    @pytest.mark.parametrize("init,kappa,n,dt,half_interval,status", [
        ("two-theta", 4.5, 1024, 1e3, True, FlowStatus.STATIONARY),
        ("pi", 5.0, 256, 1.0, False, FlowStatus.STATIONARY),
        ("bubble", 1.0, 2048, 1e-2, False, FlowStatus.BLOWUP_SUSPECTED)])
    def test_last_allowed_step_is_tested(self, init, kappa, n, dt, half_interval,
                                         status):
        # a run capped at the steps its uncapped run takes ends the same way:
        # the state after its last allowed step is tested for stationarity and
        # blowup like every other, where the cap used to say horizon_reached
        if init == "bubble":
            p0 = bubble_profile(n, lam=1.2e-3)
        else:
            p0 = builtin_profile(init, make_grid(n), kappa=kappa)
        params = EnergyParams(kappa)
        cfg = FlowConfig(dt=dt, stationary_tol=1e-7)
        free = run(p0, params, cfg, half_interval=half_interval)
        assert free.status is status and free.steps > 0
        capped = run(p0, params, dataclasses.replace(cfg, max_steps=free.steps),
                     half_interval=half_interval)
        assert capped.status is status
        assert capped.steps == free.steps
        assert capped.records == free.records
        assert capped.final.values.tobytes() == free.final.values.tobytes()

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

    @pytest.mark.parametrize("init,kappa,wedge,half_interval", [
        ("first-type", 5.0, W1, True), ("two-theta", 10.0, W2, True),
        ("pi", 5.0, W1, False)])
    def test_default_dt_settles_in_few_steps(self, init, kappa, wedge, half_interval):
        # the default step reaches the limit a time-resolved run reaches
        p0 = builtin_profile(init, make_grid(4096), kappa=kappa)
        params = EnergyParams(kappa)
        cfg = FlowConfig(stationary_tol=1e-7, wedge=WedgeSpec(wedge, 1e-8))
        assert cfg.dt == 1.0
        result = run(p0, params, cfg, half_interval=half_interval)
        assert result.status is FlowStatus.STATIONARY
        assert 0 < result.steps <= 40
        assert result.energy_monotone and result.wedge_always_ok
        resolved = run(p0, params, dataclasses.replace(cfg, dt=1e-2),
                       half_interval=half_interval)
        assert resolved.status is FlowStatus.STATIONARY
        assert np.max(np.abs(result.final.values - resolved.final.values)) <= 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(dt=-1.0)
        with pytest.raises(ValueError):
            FlowConfig(max_steps=0)
        with pytest.raises(ValueError):
            FlowConfig(stationary_tol=0.0)

    @pytest.mark.parametrize("field", ["dt", "max_steps", "stationary_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=field):
            FlowConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -1, 2.5, 1000.0, pytest.param("10", id="str")])
    def test_max_steps_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="max_steps"):
            FlowConfig(max_steps=value)

    def test_max_steps_accepts_numpy_integers(self):
        assert FlowConfig(max_steps=np.int64(3)).max_steps == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0, -1, 2.5, 10.0,
                                       pytest.param("10", id="str")])
    def test_record_every_must_be_a_positive_integer(self, value):
        # a nan record_every used to be accepted, and run and
        # comparison_trial then stopped recording without an error
        with pytest.raises(ValueError, match="record_every"):
            FlowConfig(record_every=value)

    def test_record_every_accepts_numpy_integers(self):
        assert FlowConfig(record_every=np.int64(3)).record_every == 3

    def test_tolerance_at_noise_floor_refused(self):
        # at n = 4096 the noise floor, 2.1e-9, lies above the default 1e-9
        grid = make_grid(4096)
        floor = residual_noise_floor(grid.n)
        p0 = builtin_profile("first-type", grid, kappa=5.0)
        for tol in (1e-9, floor):
            with pytest.raises(ValueError, match="noise floor") as info:
                run(p0, EnergyParams(5.0), FlowConfig(stationary_tol=tol))
            assert "n=4096" in str(info.value)
            assert f"{tol:g}" in str(info.value) and f"{floor:.3g}" in str(info.value)
        tol = 1.01 * floor
        run(p0, EnergyParams(5.0), FlowConfig(stationary_tol=tol, max_steps=1))

    @pytest.mark.parametrize("half_interval", [False, True])
    def test_one_residual_per_step(self, grid256, monkeypatch, half_interval):
        calls = []
        evaluate = flow._Kernel.evaluate

        def counting(self, h, r):
            calls.append((self.m, len(r)))
            return evaluate(self, h, r)

        monkeypatch.setattr(flow._Kernel, "evaluate", counting)
        result = run(builtin_profile("pi", grid256), EnergyParams(5.0),
                     FlowConfig(stationary_tol=1e-8), half_interval=half_interval)
        assert result.status is FlowStatus.STATIONARY
        assert result.steps > 10
        assert len(calls) == result.steps + 1
        # only the evolved nodes are evaluated
        evolved = grid256.midpoint_index - 1 if half_interval else grid256.n - 1
        assert set(calls) == {(evolved, evolved)}


def step_matrix(st, kappa, dt, m):
    """I - dt J0 + dt S on nodes 1..m as (dl, d, du), as the kernel builds it."""
    dl, d, du = st.jacobian_bands(st.potential_bound(kappa)[:m])
    return -dt * dl, -dt * d + 1.0, -dt * du


def reference_run(p0, params, cfg, half_interval):
    """``run`` as one allocating loop over the stencil's residual and solve_banded.

    Returns (steps, status, records, final values).
    """
    grid = p0.grid
    st = grid.stencil
    dt = cfg.dt
    mid = grid.midpoint_index
    m = mid - 1 if half_interval else grid.n - 1
    bands = step_matrix(st, params.kappa, dt, m)
    k = (p0.m + p0.n_end) // 2
    track_hemi = is_hemispheric(p0, 1e-12)
    values = p0.values.copy()
    steps, since, records = 0, 0, []
    e_prev = reduced_energy(p0, params)
    slack = ENERGY_SLACK * (1.0 + abs(e_prev))

    def record(sup):
        nonlocal e_prev, since
        p = make_profile(grid, values, p0.m, p0.n_end)
        e = reduced_energy(p, params)
        wedge_ok = None if cfg.wedge is None else wedge_check(p, cfg.wedge).inside
        dev = hemispheric_deviation(p) if track_hemi else None
        records.append(FlowRecord(t=steps * dt, energy=e, sup_residual=sup, wedge_ok=wedge_ok,
                                  hemispheric_dev=dev,
                                  energy_ok=e <= e_prev + slack * max(since, 1)))
        e_prev, since = e, 0

    def residual():
        r = np.empty(m)
        st.evaluate(values, params.kappa, r, None)
        return r, float(np.max(np.abs(r)))

    r, sup = residual()
    record(sup)
    status = FlowStatus.HORIZON_REACHED
    # the state after the last allowed step is tested like every other
    while True:
        if full_gradient_blowup(make_profile(grid, values, p0.m, p0.n_end)):
            status = FlowStatus.BLOWUP_SUSPECTED
            break
        if sup < cfg.stationary_tol:
            status = FlowStatus.STATIONARY
            break
        if steps == cfg.max_steps:
            break
        values[1:m + 1] += banded_solve(*bands, dt * r)
        if half_interval:
            values[mid] = k * np.pi
            values[mid + 1:-1] = 2.0 * np.pi * k - values[mid - 1:0:-1]
        steps += 1
        since += 1
        r, sup = residual()
        if since >= cfg.record_every or sup < cfg.stationary_tol:
            record(sup)
    if since:
        record(sup)
    return steps, status, records, values


REFERENCE_CASES = pytest.mark.parametrize("init,kappa,wedge,half_interval", [
    ("pi", 5.0, W1, False), ("first-type", 5.0, W1, True),
    ("two-theta", 6.0, W2, True)])


def assert_matches_reference_loop(grid, init, kappa, wedge, half_interval, **config):
    p0 = builtin_profile(init, grid, kappa=kappa)
    if half_interval:
        # a midpoint off k*pi within the hemispheric tolerance, which the
        # first step pins
        vals = p0.values.copy()
        vals[grid.midpoint_index] += 4e-13
        p0 = make_profile(grid, vals, p0.m, p0.n_end)
    params = EnergyParams(kappa)
    cfg = FlowConfig(stationary_tol=1e-8, wedge=WedgeSpec(wedge, 1e-8), **config)
    result = run(p0, params, cfg, half_interval=half_interval)
    steps, status, records, values = reference_run(p0, params, cfg, half_interval)
    assert result.status is status is FlowStatus.STATIONARY
    assert result.steps == steps > 10
    assert result.records == tuple(records)
    assert np.array_equal(result.final.values, values)
    assert not result.final.values.flags.writeable


@pytest.mark.parametrize("record_every", [1, 10])
@REFERENCE_CASES
def test_run_matches_reference_loop_bitwise(grid256, init, kappa, wedge,
                                            half_interval, record_every):
    assert_matches_reference_loop(grid256, init, kappa, wedge, half_interval,
                                  record_every=record_every)


@REFERENCE_CASES
def test_large_step_matches_reference_loop_bitwise(grid256, init, kappa, wedge,
                                                   half_interval):
    assert_matches_reference_loop(grid256, init, kappa, wedge, half_interval,
                                  dt=1e3, max_steps=1000, record_every=1)


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("dt", [1e-2, 1.0, 1e3])
@pytest.mark.parametrize("init,kappa,half_interval", [
    ("pi", 5.0, False), ("first-type", 6.0, True), ("two-theta", 10.0, True),
    ("two-theta", 1000.0, True)])
def test_every_step_decreases_energy(init, kappa, half_interval, dt, n):
    # E_w(h + delta) <= E_w(h) - ||delta||_w^2 / dt, up to rounding, at any dt
    grid = make_grid(n)
    params = EnergyParams(kappa)
    p = builtin_profile(init, grid, kappa=kappa)
    kernel = flow._Kernel(p, kappa, half_interval, dt)
    values, r = p.values.copy(), np.empty(kernel.m)
    e = reduced_energy(p, params)
    drops = 0
    for _ in range(40):
        if kernel.evaluate(values, r) < 1e-7:
            break
        before = values.copy()
        kernel.advance(values, r)
        e_next = reduced_energy(make_profile(grid, values, p.m, p.n_end), params)
        delta = (values - before)[1:-1]
        decrease = grid.stencil.weight @ delta ** 2 / dt
        assert e_next <= e - decrease + 16 * np.finfo(float).eps * (1 + abs(e))
        drops += decrease > 0
        e = e_next
    assert drops > 0


@pytest.mark.parametrize("dt", [1e-2, 1.0, 1e3])
def test_every_step_keeps_order(grid256, rng, dt):
    # the discrete comparison principle holds at any dt: no node ever crosses
    for _ in range(5):
        lower, upper = random_ordered_pair(grid256, rng)
        verdict = comparison_trial(lower, upper, EnergyParams(5.0),
                                   FlowConfig(dt=dt, max_steps=40, record_every=1))
        assert verdict.max_violation <= 0.0
        assert verdict.steps > 0


@pytest.mark.parametrize("n,init,kappa,wedge", [
    (256, "first-type", 5.0, W1), (256, "first-type", 100.0, W1),
    (256, "two-theta", 4.01, W2), (256, "two-theta", 1000.0, W2),
    # W2 is invariant for every kappa >= 4 and every dt (TestWedgeTheorem):
    # here at the largest kappa and step the pipelines use, on their grid
    (1024, "two-theta", 1000.0, W2)])
def test_large_step_stays_in_wedge(n, init, kappa, wedge):
    p0 = builtin_profile(init, make_grid(n), kappa=kappa)
    cfg = FlowConfig(dt=1e3, max_steps=1000, stationary_tol=1e-7, record_every=1,
                     wedge=WedgeSpec(wedge, 1e-8))
    result = run(p0, EnergyParams(kappa), cfg, half_interval=True)
    assert result.status is FlowStatus.STATIONARY
    assert len(result.records) == result.steps + 1
    assert result.wedge_always_ok
    assert result.energy_monotone


class TestWedgeTheorem:
    """The paper's invariant wedges as a property of the discrete step.

    Left of the midpoint R has closed forms on the four wedge bounds:
    R(theta) = R(pi + theta) = 0, R(pi) = (kappa/2) sin 2theta and
    R(2 theta) = (4 - kappa) sin theta cos theta.  The step matrix is an
    M-matrix and the step's right side is monotone, so a lower bound with
    R >= 0 and an upper bound with R <= 0 are never crossed, at any dt:
    W1 is invariant at every kappa >= 0, and W2 exactly when kappa >= 4.
    """

    BOUNDS = {  # name: (slope, offset, boundary class)
        "theta": (1.0, 0.0, (0, 1)), "pi+theta": (1.0, np.pi, (1, 2)),
        "pi": (0.0, np.pi, (1, 1)), "two-theta": (2.0, 0.0, (0, 2))}

    @staticmethod
    def closed_form(name, theta, kappa):
        if name == "pi":
            return 0.5 * kappa * np.sin(2.0 * theta)
        if name == "two-theta":
            return (4.0 - kappa) * np.sin(theta) * np.cos(theta)
        return np.zeros_like(theta)

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("kappa", [4.0, 6.5, 100.0])
    @pytest.mark.parametrize("name", ["theta", "pi+theta", "pi", "two-theta"])
    def test_residual_closed_forms(self, name, kappa, n):
        grid = make_grid(n)
        slope, offset, (m, n_end) = self.BOUNDS[name]
        p = make_profile(grid, slope * grid.nodes + offset, m, n_end)
        left = grid.midpoint_index - 1   # interior nodes 1..left lie left of pi/2
        r = el_residual(p, EnergyParams(kappa))[:left]
        expected = self.closed_form(name, grid.interior[:left], kappa)
        assert np.max(np.abs(r - expected)) <= residual_noise_floor(n)

    @staticmethod
    def step_excess_over_two_theta(kappa, dt, n=1024):
        """How far one half-interval step from h = 2 theta rises above 2 theta."""
        p = builtin_profile("two-theta", make_grid(n))
        q = step(p, EnergyParams(kappa), dt, half=True)
        left = slice(0, p.grid.midpoint_index + 1)
        return float(np.max(q.values[left] - p.values[left]))

    @pytest.mark.parametrize("dt", [1e-2, 1.0, 1e3])
    @pytest.mark.parametrize("kappa", [3.9, 3.99])
    def test_one_step_leaves_w2_below_four(self, kappa, dt):
        # R(2 theta) > 0 pushes the upper bound up: 4.6e-5 to 6.0e-3 here
        assert self.step_excess_over_two_theta(kappa, dt) > 1e-5

    @pytest.mark.parametrize("dt", [1e-2, 1.0, 1e3])
    @pytest.mark.parametrize("kappa", [4.01, 10.0])
    def test_one_step_keeps_w2_above_four(self, kappa, dt):
        # R(2 theta) < 0 at every node and the inverse of the M-matrix is
        # nonnegative, so every node's step is negative, far above rounding:
        # no node moves up at all
        assert self.step_excess_over_two_theta(kappa, dt) == 0.0

    @pytest.mark.parametrize("dt", [1e-2, 1.0, 1e3])
    def test_one_step_keeps_w2_at_four(self, dt):
        # R(2 theta) is rounding of either sign here, below the noise floor, and
        # the step matrix's row sums are at least 1 + 3 dt, so the step moves
        # 2 theta by less than that (exactly 0 where measured)
        assert self.step_excess_over_two_theta(4.0, dt) <= residual_noise_floor(1024)

    @pytest.mark.parametrize("dt", [1e-2, 1.0, 1e3])
    @pytest.mark.parametrize("kappa", [0.0, 3.0])
    def test_w1_invariant_below_four(self, grid1024, kappa, dt):
        # R(pi) >= 0 and R(pi + theta) = 0 at every kappa >= 0; the first-type
        # start made for kappa = 4 touches pi + theta on [0, pi/4]
        p0 = make_initial_first_type(grid1024, 4.0)
        cfg = FlowConfig(dt=dt, record_every=1, wedge=WedgeSpec(W1, 0.0))
        result = run(p0, EnergyParams(kappa), cfg, half_interval=True)
        assert result.status is FlowStatus.STATIONARY
        assert len(result.records) == result.steps + 1
        assert result.wedge_always_ok

    @pytest.mark.parametrize("pipeline,kappa", [
        (saddle.find_first_type, 4.0), (saddle.find_first_type, 5.0),
        (saddle.find_first_type, 6.67), (saddle.find_first_type, 100.0),
        (saddle.find_second_type, 4.01), (saddle.find_second_type, 10.0),
        (saddle.find_second_type, 1000.0)])
    def test_pipeline_flows_end_stationary(self, monkeypatch, pipeline, kappa):
        # inside W1 or W2 every pole slope is at most 4, far below the blowup
        # detector's 1e3, so the pipelines' flows have no blowup status to meet
        # and run without the detector; this spy applies it, and the wedge
        # check, to every state the pipeline's step loop yields.  The flow, not
        # Newton, selects the saddle: the report lies within 1e-2 of the state
        # handed over (2e-6 to 2.5e-3 here), against 0.41 to 1.41 from the raw
        # start where the flow steps, and 0.15 to 3.0 from a flow at kappa/2
        first = pipeline is saddle.find_first_type
        wedge = WedgeSpec(W1 if first else W2, 4 * np.spacing(np.pi))
        grid = saddle.grid_for_kappa(kappa)
        relax = flow._Kernel.relax
        flows = []

        def spy(self, hs, tol, max_steps):
            states = []
            flows.append((tol, max_steps, states))
            for steps, sups in relax(self, hs, tol, max_steps):
                p = make_profile(grid, hs[0].copy(), *((1, 1) if first else (0, 2)))
                states.append((steps, sups[0], wedge_check(p, wedge).inside,
                               detect_blowup(p), p))
                yield steps, sups

        monkeypatch.setattr(flow._Kernel, "relax", spy)
        report = pipeline(kappa)
        [(tol, max_steps, states)] = flows
        assert (tol, max_steps) == (saddle._HANDOFF_TOL, saddle._FLOW_STEPS)
        steps, sup, _, _, handoff = states[-1]
        assert sup < saddle._HANDOFF_TOL and steps < saddle._FLOW_STEPS
        assert [s[0] for s in states] == list(range(steps + 1))
        assert all(inside and not blowup for _, _, inside, blowup, _ in states)
        assert np.max(np.abs(report.profile.values - handoff.values)) < 1e-2


class TestContractionRate:
    """The flow's late per-step residual ratio against the step's linearization.

    Near a limit h* one step maps the error e on the node-odd block, the
    half-interval flow's unknowns, to (I - (I/dt + P)^{-1} A) e, with
    A = -J(h*) from Newton's bands and P = -J0 + S from the step matrix's.
    Once one mode dominates, the sup residual falls by that map's spectral
    radius rho per step.  The dense eigenvalues share no code path with the
    flow beyond the stencil's bands.
    """

    PIPELINES = {"first": (saddle.find_first_type, make_initial_first_type),
                 "second": (saddle.find_second_type,
                            lambda grid, kappa: make_initial_second_type(grid))}

    @staticmethod
    def spectral_radius(profile, kappa, dt):
        st = profile.grid.stencil
        m = profile.grid.midpoint_index - 1
        _, v = el_residual(profile, EnergyParams(kappa), with_potential=True, nodes=m)
        a = -dense_tridiagonal(*st.jacobian_bands(v))
        p = (-dense_tridiagonal(*st.jacobian_bands(np.zeros(m)))
             + np.diag(st.potential_bound(kappa)[:m]))
        step_map = np.eye(m) - np.linalg.solve(np.eye(m) / dt + p, a)
        return float(np.max(np.abs(np.linalg.eigvals(step_map))))

    @pytest.mark.parametrize("dt", [1e3, 1.0])
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("saddle_type,kappa", [
        ("first", 5.0), ("first", 8.0), ("second", 10.0), ("second", 4.5)])
    def test_late_ratio_is_spectral_radius(self, saddle_type, kappa, n, dt):
        pipeline, initial = self.PIPELINES[saddle_type]
        grid = make_grid(n)
        rho = self.spectral_radius(pipeline(kappa, grid=grid).profile, kappa, dt)
        cfg = FlowConfig(dt=dt, stationary_tol=2e-9, record_every=1)
        result = run(initial(grid, kappa), EnergyParams(kappa), cfg, half_interval=True)
        assert result.status is FlowStatus.STATIONARY
        sups = np.array([r.sup_residual for r in result.records])
        ratios = [b / a for a, b in zip(sups, sups[1:])
                  if 1e-8 < min(a, b) and max(a, b) < 1e-5]
        assert len(ratios) >= 3
        assert np.max(np.abs(np.array(ratios) - rho)) <= 1e-3


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
        result = run(bubble_profile(), EnergyParams(1.0), FlowConfig(max_steps=1))
        assert result.status is FlowStatus.BLOWUP_SUSPECTED


class TestComparison:
    def test_identical_inputs(self, grid256):
        p = builtin_profile("pi", grid256)
        verdict = comparison_trial(p, p, EnergyParams(5.0), FlowConfig(dt=1e-2, max_steps=100))
        assert verdict.max_violation == 0.0

    def test_pi_below_exact_tilted_solution(self, grid512):
        # h = pi + theta solves the stationarity equation for every kappa
        lower = builtin_profile("pi", grid512)
        upper = make_profile(grid512, np.pi + grid512.nodes, 1, 2)
        assert residual_supnorm(upper, EnergyParams(5.0)) < 1e-9
        verdict = comparison_trial(lower, upper, EnergyParams(5.0),
                                   FlowConfig(dt=1e-2, max_steps=1001))
        assert verdict.max_violation <= 1e-9

    def test_two_exact_solutions_at_four(self, grid256):
        lower = builtin_profile("theta", grid256)
        upper = builtin_profile("two-theta", grid256)
        verdict = comparison_trial(lower, upper, EnergyParams(4.0),
                                   FlowConfig(dt=1e-2, max_steps=200))
        assert verdict.max_violation <= 1e-12

    def test_random_ordered_pairs_stay_ordered(self, grid256, rng):
        worst = 0.0
        for _ in range(5):
            lower, upper = random_ordered_pair(grid256, rng)
            verdict = comparison_trial(lower, upper, EnergyParams(5.0),
                                       FlowConfig(dt=1e-2, max_steps=501, record_every=10))
            worst = max(worst, verdict.max_violation)
        assert worst <= 1e-6

    def test_tolerance_at_noise_floor_refused(self):
        # at n = 4096 the default 1e-9 lies below the noise floor, 2.1e-9
        grid = make_grid(4096)
        lower = builtin_profile("pi", grid)
        upper = make_profile(grid, np.pi + grid.nodes, 1, 2)
        with pytest.raises(ValueError, match="noise floor"):
            comparison_trial(lower, upper, EnergyParams(5.0), FlowConfig(max_steps=1))

    def test_grids_checked_before_ordering(self):
        lower = builtin_profile("pi", make_grid(64))
        upper = builtin_profile("pi", make_grid(128))
        with pytest.raises(ValueError, match="profiles must share a grid"):
            comparison_trial(lower, upper, EnergyParams(5.0), FlowConfig())

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
                 FlowConfig(dt=np.float64(1e-2), max_steps=5, record_every=1))
    path = tmp_path / "trace.csv"
    write_energy_trace_csv(result, path)
    # the run has no wedge monitor, so its wedge_ok field is empty
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1))
    assert data[:, 0].tolist() == [r.t for r in result.records]
    assert data[:, 1].tolist() == [r.energy for r in result.records]
