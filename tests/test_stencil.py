import numpy as np
import pytest

from axiferro import flow
from axiferro.energy import EnergyParams, assemble_second_variation, el_residual
from axiferro.grid import make_grid
from axiferro.profile import make_profile

KAPPA = 6.5


def reference_residual(grid, h, kappa):
    """The interior residual as energy.el_residual wrote it inline."""
    th = grid.nodes
    dth = grid.dtheta
    hi, ti = h[1:-1], th[1:-1]
    d2 = (h[2:] - 2.0 * hi + h[:-2]) / dth ** 2
    d1 = (h[2:] - h[:-2]) / (2.0 * dth)
    s = np.sin(ti)
    return (d2 + (np.cos(ti) / s) * d1 - np.sin(2.0 * hi) / (2.0 * s ** 2)
            - 0.5 * kappa * np.sin(2.0 * (hi - ti)))


def reference_potential(grid, h, kappa):
    th = grid.nodes[1:-1]
    hi = h[1:-1]
    return np.cos(2.0 * hi) / np.sin(th) ** 2 + kappa * np.cos(2.0 * (hi - th))


def reference_jacobian(grid, h, kappa):
    """The Jacobian's (dl, d, du) as stationary._jacobian_banded wrote them inline."""
    th = grid.nodes[1:-1]
    hi = h[1:-1]
    dth = grid.dtheta
    s = np.sin(th)
    cot = np.cos(th) / s
    return (1.0 / dth ** 2 - cot[1:] / (2.0 * dth),
            -2.0 / dth ** 2 - np.cos(2.0 * hi) / s ** 2 - kappa * np.cos(2.0 * (hi - th)),
            1.0 / dth ** 2 + cot[:-1] / (2.0 * dth))


def reference_divergence(grid):
    """Diagonal of -L and the symmetrized off-diagonal, as
    assemble_second_variation wrote them inline."""
    s = np.sin(grid.nodes[1:-1])
    s_half = np.sin(grid.nodes[:-1] + 0.5 * grid.dtheta)
    dth2 = grid.dtheta ** 2
    return ((s_half[1:] + s_half[:-1]) / (s * dth2),
            -s_half[1:-1] / (dth2 * np.sqrt(s[:-1] * s[1:])))


def assert_close(actual, expected, rtol=1e-12):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


@pytest.fixture(params=[1024, 4096])
def case(request):
    grid = make_grid(request.param)
    rng = np.random.default_rng(request.param)
    th = grid.nodes
    noise = 0.01 * rng.standard_normal(th.size) * np.sin(th)
    h = np.pi + th + 0.3 * np.sin(2 * th) + noise
    h[0], h[-1] = np.pi, 2 * np.pi
    return grid, h


def evaluated(st, h, m):
    """R and V at nodes 1..m by the stencil's evaluation, into fresh arrays."""
    r, v = np.empty((2, m))
    st.evaluate(h, KAPPA, r, v)
    return r, v


def el_residual_and_potential(grid, h):
    """R and V at every interior node through energy.el_residual."""
    return el_residual(make_profile(grid, h, 1, 2), EnergyParams(KAPPA),
                       with_potential=True)


def evolved_counts(grid):
    """Nodes 1..m the flow evaluates: the full and the half interval."""
    return (grid.n - 1, grid.midpoint_index - 1)


def allocating_evaluation(st, h, kappa, m):
    """R and V at nodes 1..m as one allocating expression each, written here
    independently of the stencil, in the operation order it keeps bit for bit."""
    hi = h[1:m + 1]
    two_h = 2.0 * hi
    s, c = np.sin(two_h), np.cos(two_h)
    c2t, s2t = st.cos_2theta[:m], st.sin_2theta[:m]
    d2 = (h[2:m + 2] - 2.0 * hi + h[:m]) / st.dtheta ** 2
    d1 = (h[2:m + 2] - h[:m]) / (2.0 * st.dtheta)
    r = (d2 + st.cot[:m] * d1 - s / (2.0 * st.sin2[:m])
         - 0.5 * kappa * (s * c2t - c * s2t))
    v = c / st.sin2[:m] + kappa * (c * c2t + s * s2t)
    return r, v


def test_evaluation_is_bitwise_the_reference_expressions(case):
    grid, h = case
    st = grid.stencil
    for m in evolved_counts(grid):
        expected = allocating_evaluation(st, h, KAPPA, m)
        for actual, wanted in zip(evaluated(st, h, m), expected):
            assert np.array_equal(actual, wanted)
    r, v = allocating_evaluation(st, h, KAPPA, grid.n - 1)
    p = make_profile(grid, h, 1, 2)
    assert np.array_equal(el_residual(p, EnergyParams(KAPPA)), r)
    for actual, wanted in zip(el_residual_and_potential(grid, h), (r, v)):
        assert np.array_equal(actual, wanted)
    # Newton on the half interval asks el_residual for nodes 1..m only
    m = grid.midpoint_index - 1
    half = el_residual(p, EnergyParams(KAPPA), with_potential=True, nodes=m)
    for actual, wanted in zip(half, allocating_evaluation(st, h, KAPPA, m)):
        assert np.array_equal(actual, wanted)
    # the second variation evaluates V alone
    op = assemble_second_variation(p, EnergyParams(KAPPA))
    assert np.array_equal(op.diag, st.divergence_diag + v)


def test_flow_kernel_residual_is_bitwise_the_reference(case):
    # the flow's residual and its sup, on the full and the half interval
    grid, h = case
    p = make_profile(grid, h, 1, 2)
    for half, m in zip((False, True), evolved_counts(grid)):
        kernel = flow._Kernel(p, KAPPA, half, 1.0)
        assert kernel.m == m
        r = np.empty(m)
        sup = kernel.evaluate(h, r)
        expected, _ = allocating_evaluation(grid.stencil, h, KAPPA, m)
        assert np.array_equal(r, expected)
        assert sup == np.max(np.abs(expected))


def test_residual_matches_inline_formula(case):
    grid, h = case
    expected = reference_residual(grid, h, KAPPA)
    assert_close(el_residual(make_profile(grid, h, 1, 2), EnergyParams(KAPPA)), expected)
    for m in evolved_counts(grid):
        r, _ = evaluated(grid.stencil, h, m)
        assert_close(r, expected[:m])


def test_potential_matches_inline_formula(case):
    grid, h = case
    expected = reference_potential(grid, h, KAPPA)
    assert_close(el_residual_and_potential(grid, h)[1], expected)
    st = grid.stencil
    for m in evolved_counts(grid):
        v = np.empty(m)
        st.evaluate(h, KAPPA, None, v)  # V alone
        assert_close(v, expected[:m])
        assert_close(evaluated(st, h, m)[1], expected[:m])


def test_jacobian_bands_match_inline_formula(case):
    grid, h = case
    _, v = el_residual_and_potential(grid, h)
    full = grid.stencil.jacobian_bands(v)
    for band, expected in zip(full, reference_jacobian(grid, h, KAPPA), strict=True):
        assert_close(band, expected)
    # the bands take their length from V: the leading block of the full ones
    m = grid.midpoint_index - 1
    dl, d, du = grid.stencil.jacobian_bands(v[:m])
    assert d.size == m and dl.size == du.size == m - 1
    assert np.array_equal(np.r_[dl, d, du], np.r_[full[0][:m - 1], full[1][:m],
                                                  full[2][:m - 1]])


def test_divergence_bands_match_inline_formula(case):
    grid, _ = case
    diag, offdiag = reference_divergence(grid)
    assert_close(grid.stencil.divergence_diag, diag)
    assert_close(grid.stencil.symmetric_offdiag, offdiag)


@pytest.mark.parametrize("kappa", [0.0, 1.0, KAPPA, 1e4])
def test_potential_bound_is_the_maximum_of_v(kappa):
    grid = make_grid(256)
    th = grid.nodes[1:-1]
    bound = grid.stencil.potential_bound(kappa)
    # the closed form of the maximum over h of V
    s2 = np.sin(th) ** 2
    assert_close(bound, np.sqrt(1 / s2 ** 2 + kappa ** 2 + 2 * kappa * np.cos(2 * th) / s2))
    # V on 720 constant profiles h never exceeds it beyond rounding, and
    # comes within 1e-4 of it; both terms of V are at most 1/sin^2 + kappa
    v = np.array([reference_potential(grid, np.full(grid.n + 1, x), kappa)
                  for x in np.linspace(0.0, np.pi, 720, endpoint=False)])
    scale = 1 / s2 + kappa
    assert np.all(v <= bound + 1e-14 * scale)
    assert np.all(v.max(axis=0) >= bound - 1e-4 * scale)


def test_built_once_per_grid_and_read_only():
    grid = make_grid(64)
    st = grid.stencil
    assert grid.stencil is st
    assert make_grid(64) is grid
    for a in (st.sin, st.cot, st.sin2, st.twice_sin2, st.cos_2theta, st.sin_2theta,
              st.sin_half, st.divergence_diag, st.symmetric_offdiag,
              st.jacobian_dl, st.jacobian_du, st.weight, st.edge_weight):
        assert not a.flags.writeable
