"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they are produced.  Expected values are either trivial identities, analytic
integrals, or values computed by the independent oracles in oracles.py;
tolerances are fixed here, not tuned at run time.
"""

import numpy as np
import pytest

from axiferro.energy import (EnergyParams, assemble_second_variation,
                             el_residual, reduced_energy, residual_supnorm,
                             second_variation_form)
from axiferro.flow import FlowConfig, FlowStatus, comparison_trial, run
from axiferro.grid import make_grid, quad_sin
from axiferro.profile import (W1, WedgeSpec, builtin_profile, degree,
                              make_initial_first_type,
                              make_initial_second_type, make_profile,
                              node_derivative, wedge_check)
from axiferro.saddle import find_first_type, find_second_type, sweep
from axiferro.spectrum import classify, eigs_lowest, legendre_validation
from axiferro.stationary import continue_branch
from oracles import dense_spectrum, fd_energy_derivative


def verdict(number, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {name} ({detail})")
    assert ok, f"criterion {number}: {name}: {detail}"


def test_criterion_01_exact_solutions():
    grid = make_grid(1024)
    theta_p = builtin_profile("theta", grid)
    two_theta = builtin_profile("two-theta", grid)
    worst = max(residual_supnorm(theta_p, EnergyParams(k))
                for k in (0.0, 1.0, 4.0, 10.0))
    worst = max(worst, residual_supnorm(two_theta, EnergyParams(4.0)))
    verdict(1, "exact solutions have vanishing residual", worst < 1e-6,
            f"sup residual {worst:.3e} < 1e-6 at n=1024")


def test_criterion_02_analytic_energies():
    grid = make_grid(1024)
    checks = [
        (reduced_energy(builtin_profile("theta", grid), EnergyParams(2.0)), 2.0),
        (reduced_energy(builtin_profile("two-theta", grid), EnergyParams(4.0)), 8.0),
        (reduced_energy(builtin_profile("pi", grid), EnergyParams(5.0)),
         2.0 * 5.0 / 3.0),
    ]
    rel = max(abs(got - want) / abs(want) for got, want in checks)
    verdict(2, "analytic energy values", rel < 1e-5,
            f"max relative error {rel:.3e} < 1e-5 at n=1024")


def test_criterion_03_legendre_spectrum():
    report = legendre_validation(make_grid(1024), 5)
    exact = np.array([-2.0, 2.0, 8.0, 16.0, 26.0])
    dev_fine = np.max(np.abs(report.computed_fine - exact))
    ok = dev_fine < 1e-2 and 3.0 < report.refinement_ratio < 5.0
    verdict(3, "Legendre spectrum at the exact saddle", ok,
            f"n=2048 max deviation {dev_fine:.3e} < 1e-2, "
            f"1024->2048 error ratio {report.refinement_ratio:.2f} ~ 4")


def test_criterion_04_saddle_certificate_at_four():
    grid = make_grid(1024)
    p = make_initial_second_type(grid)
    params = EnergyParams(4.0)
    v1 = second_variation_form(p, params, np.sin(grid.nodes))
    v2 = second_variation_form(p, params, np.sin(2 * grid.nodes))
    morse = classify(p, params, k=3).morse_index
    ok = abs(v1 + 8.0 / 3.0) < 1e-3 and abs(v2 - 32.0 / 15.0) < 1e-3 and morse == 1
    verdict(4, "explicit second-variation values and Morse index", ok,
            f"form(sin)={v1:.6f} (-8/3), form(sin2)={v2:.6f} (+32/15), "
            f"morse={morse}")


def test_criterion_05_gradient_hessian_consistency():
    grid = make_grid(512)
    rng = np.random.default_rng(12)
    base = np.pi + 0.2 * np.sin(grid.nodes) + 0.1 * np.sin(2 * grid.nodes)
    params = EnergyParams(1.5)
    p = make_profile(grid, base, 1, 1)
    eps = 1e-4

    def energy_of(vals):
        return reduced_energy(make_profile(grid, vals, 1, 1), params)

    grad_worst = hess_worst = 0.0
    for _ in range(20):
        coefs = rng.uniform(-1.0, 1.0, 3)
        g = sum(c * np.sin((i + 1) * grid.nodes) for i, c in enumerate(coefs))
        g[0] = g[-1] = 0.0
        fd1, fd2 = fd_energy_derivative(energy_of, base, g, eps)
        r_full = np.zeros(grid.n + 1)
        r_full[1:-1] = el_residual(p, params)
        grad_worst = max(grad_worst, abs(fd1 + quad_sin(grid, r_full * g)))
        hess_worst = max(hess_worst,
                         abs(fd2 - second_variation_form(p, params, g)))
    ok = grad_worst < 1e-4 and hess_worst < 1e-4
    verdict(5, "gradient/Hessian consistency (20 random directions)", ok,
            f"worst gradient gap {grad_worst:.3e}, worst Hessian gap "
            f"{hess_worst:.3e}, both < 1e-4 at eps=1e-4, n=512")


def test_criterion_06_flow_dissipation_and_symmetry():
    grid = make_grid(512)
    p0 = builtin_profile("pi", grid)
    cfg = FlowConfig(stationary_tol=1e-9, t_max=1e3,
                     wedge=WedgeSpec(W1, 1e-8))
    result = run(p0, EnergyParams(5.0), cfg)
    hemi_ok = all(r.hemispheric_dev is not None and r.hemispheric_dev <= 1e-8
                  for r in result.records)
    ok = (result.status is FlowStatus.STATIONARY
          and result.energy_monotone
          and result.wedge_always_ok
          and hemi_ok
          and (result.final.m, result.final.n_end) == (1, 1)
          and result.final.values[0] == np.pi
          and result.final.values[-1] == np.pi
          and degree(result.final) == 0)
    verdict(6, "flow from constant pi at kappa=5", ok,
            f"status={result.status.value}, monotone={result.energy_monotone}, "
            f"wedge={result.wedge_always_ok}, hemispheric<=1e-8={hemi_ok}, "
            f"E {result.records[0].energy:.4f}->{result.records[-1].energy:.4f}")


def test_criterion_07_derivative_bounds_on_limits():
    worst_first = -np.inf
    worst_second = np.inf
    for kappa in (4.0, 9.0, 25.0):
        r1 = find_first_type(kappa)
        worst_first = max(worst_first, float(np.max(node_derivative(r1.profile))))
        r2 = find_second_type(kappa)
        worst_second = min(worst_second,
                           float(np.min(node_derivative(r2.profile))))
    ok = worst_first <= 1 + 1e-6 and worst_second >= 1 - 1e-6
    verdict(7, "derivative bounds on flow limits", ok,
            f"first-type max h' = {worst_first:.8f} <= 1+1e-6, "
            f"second-type min h' = {worst_second:.8f} >= 1-1e-6")


def test_criterion_08_comparison_principle():
    grid = make_grid(256)
    rng = np.random.default_rng(2024)
    s = np.sin(grid.nodes)
    worst = 0.0
    for _ in range(20):
        a1, a2 = rng.uniform(-0.3, 0.3, 2)
        b1, b2 = rng.uniform(0.02, 0.25, 2)
        lower = np.pi + a1 * s ** 2 * np.cos(grid.nodes) + a2 * s ** 3
        upper = lower + b1 * s ** 2 + b2 * s ** 4
        v = comparison_trial(make_profile(grid, lower, 1, 1),
                             make_profile(grid, upper, 1, 1),
                             EnergyParams(5.0),
                             FlowConfig(t_max=10.0, record_every=10))
        worst = max(worst, v.max_violation)
    verdict(8, "comparison principle (20 ordered pairs to t=10)",
            worst <= 1e-6, f"max ordering violation {worst:.3e} <= 1e-6")


def test_criterion_09_kappa0_bracket():
    result = sweep(np.arange(4.0, 8.0 + 1e-9, 0.25), types=("first",),
                   grid=make_grid(1024))
    bracket = result.kappa0_estimate
    ok = bracket is not None
    if ok:
        lo, hi = bracket
        ok = (hi - lo <= 0.05) and (4.0 < lo) and (hi < 6.7)
        detail = (f"sign change of the explicit-direction certificate in "
                  f"({lo:.5f}, {hi:.5f}), width {hi - lo:.5f} <= 0.05, "
                  "contained in (4, 6.7)")
    else:
        detail = "no sign change found in [4, 8]"
    verdict(9, "kappa0 bracket reproduces the numerical threshold", ok, detail)


def test_criterion_10_second_type_certificate():
    values = {}
    for kappa in (4.0, 6.0, 8.0, 10.0, 20.0):
        values[kappa] = find_second_type(kappa).explicit_direction_value
    ok = all(v < 0 for v in values.values())
    verdict(10, "second-type certificate negative for kappa >= 4", ok,
            "dir values " + ", ".join(f"{k:g}:{v:.3f}"
                                      for k, v in values.items()))


def test_criterion_11_continuation_below_four():
    grid = make_grid(1024)
    start = make_initial_second_type(grid)
    branch = continue_branch(4.0, start, 3.8, -0.05)
    ok = branch.reached == pytest.approx(3.8, abs=1e-12)
    worst_res = 0.0
    worst_hemi = 0.0
    morse_ok = True
    from axiferro.profile import hemispheric_deviation
    for pt in branch.points:
        worst_res = max(worst_res,
                        residual_supnorm(pt.profile, EnergyParams(pt.kappa)))
        worst_hemi = max(worst_hemi, hemispheric_deviation(pt.profile))
        lambda1, lambda2 = eigs_lowest(
            assemble_second_variation(pt.profile, EnergyParams(pt.kappa)), 2).eigenvalues
        morse_ok = morse_ok and (lambda1 < 0 < lambda2)
    ok = ok and worst_res < 1e-9 and worst_hemi < 1e-8 and morse_ok
    verdict(11, "continuation from (4, 2*theta) down to 3.8", ok,
            f"reached {branch.reached}, residual {worst_res:.2e} < 1e-9, "
            f"hemispheric {worst_hemi:.2e} < 1e-8, lambda1<0<lambda2={morse_ok}")


def test_criterion_12_scaling_laws():
    grid = make_grid(1024)
    energies = []
    slopes = []
    sups = []
    for kappa in (16.0, 64.0, 256.0, 1024.0):
        p0 = make_initial_first_type(grid, kappa)
        energies.append(reduced_energy(p0, EnergyParams(kappa)) / np.sqrt(kappa))
        report = find_first_type(kappa, grid=grid)
        slopes.append(-node_derivative(report.profile)[grid.midpoint_index]
                      / np.sqrt(kappa))
        quarter = grid.nodes <= np.pi / 4 + 1e-12
        sups.append(float(np.max(np.abs(
            report.profile.values[quarter] - (np.pi + grid.nodes[quarter])))))
    ok = (all(e <= 2 * energies[0] for e in energies)
          and all(sl <= 2 * slopes[0] for sl in slopes)
          and all(b < a for a, b in zip(sups, sups[1:])))
    verdict(12, "sqrt-kappa scaling laws", ok,
            f"E0/sqrt(kappa) {[f'{e:.3f}' for e in energies]}, "
            f"-h'(pi/2)/sqrt(kappa) {[f'{s:.3f}' for s in slopes]}, "
            f"sup|h-(pi+theta)| on [0,pi/4] {[f'{s:.2e}' for s in sups]}")


def test_criterion_13_eigensolver_oracle():
    grid = make_grid(64)
    fixtures = [
        ("two-theta @ kappa=4", make_initial_second_type(grid), 4.0),
        ("theta @ kappa=0", builtin_profile("theta", grid), 0.0),
        ("theta @ kappa=10", builtin_profile("theta", grid), 10.0),
        ("pi @ kappa=5", builtin_profile("pi", grid), 5.0),
        ("first-type initial @ kappa=9", make_initial_first_type(grid, 9.0), 9.0),
    ]
    worst = 0.0
    for _, profile, kappa in fixtures:
        op = assemble_second_variation(profile, EnergyParams(kappa))
        mine = eigs_lowest(op, 6).eigenvalues
        ref = dense_spectrum(op, 6)
        scale = np.maximum(np.abs(ref), 1e-8)
        worst = max(worst, float(np.max(np.abs(mine - ref) / scale)))
    verdict(13, "bisection eigenvalues match the dense oracle",
            worst < 1e-8,
            f"worst relative gap {worst:.3e} < 1e-8 over "
            f"{len(fixtures)} operator fixtures at n=64")


def test_figure_profile_data_emitted(tmp_path):
    # the published cross-section has no numeric table; the kappa=10 profile
    # is emitted and checked for its qualitative signature instead
    from axiferro.profile import write_profile_csv
    report = find_first_type(10.0, grid=make_grid(512))
    path = tmp_path / "first_type_kappa10.csv"
    write_profile_csv(report.profile, path, kappa=10.0)
    p = report.profile
    grid = p.grid
    mid = grid.midpoint_index
    ok = (path.exists()
          and wedge_check(p, WedgeSpec(W1, 1e-8)).inside
          and abs(p.values[mid] - np.pi) < 1e-9
          and np.all(p.values[:mid] >= np.pi - 1e-9)
          and np.all(p.values[mid + 1:] <= np.pi + 1e-9))
    verdict("F", "figure cross-section data at kappa=10", ok,
            "emitted CSV, W1 membership and sign pattern about the equator")
