"""Property tests for invariants the code claims for every input.

- a profile CSV round trip is exact;
- ``run``, over one step or many, never touches the Dirichlet endpoints, so
  the boundary class is preserved bitwise;
- the reduced energy does not increase along ``run``, up to the per-step
  slack of its monitor.  The energy is the one whose gradient is the
  stencil R the flow follows; two examples on which the former trapezoid
  energy rose (near an exact solution on a coarse grid, and a steep
  first-type start at large kappa) are kept as regression cases.
"""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axiferro.energy import EnergyParams
from axiferro.flow import ENERGY_SLACK, FlowConfig, run
from axiferro.grid import make_grid
from axiferro.profile import (make_initial_first_type, make_profile,
                              read_profile_csv, write_profile_csv)

GRIDS = {n: make_grid(n) for n in (16, 64, 128)}
PROPERTY = settings(max_examples=30, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def any_profiles(draw):
    """Any finite interior values under a boundary class."""
    grid = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    m, n_end = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    interior = draw(st.lists(finite, min_size=grid.n - 1, max_size=grid.n - 1))
    return make_profile(grid, [m * np.pi, *interior, n_end * np.pi], m, n_end)


@st.composite
def smooth_profiles(draw, hemispheric=False):
    """The line from m*pi to n_end*pi plus a few sine modes.

    Hemispheric draws use only the modes sin(2k theta), which are odd about
    pi/2, and a class with m + n_end even, so the midpoint sits at k*pi.
    """
    grid = GRIDS[draw(st.sampled_from([64, 128]))]
    m = draw(st.integers(0, 2))
    n_end = m + draw(st.sampled_from([-2, 0, 2] if hemispheric else [-2, -1, 0, 1, 2]))
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    th = grid.nodes
    vals = m * np.pi + (n_end - m) * th
    for k, c in enumerate(coeffs, start=1):
        vals = vals + c * np.sin((2 * k if hemispheric else k) * th)
    return make_profile(grid, vals, m, n_end)


def endpoints_exact(p):
    return p.values[0] == p.m * np.pi and p.values[-1] == p.n_end * np.pi


kappas = st.floats(0.0, 15.0)


@PROPERTY
@given(p=any_profiles(), kappa=st.none() | finite)
def test_csv_round_trip_exact(p, kappa):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        write_profile_csv(p, path, kappa=kappa)
        q, kappa_read = read_profile_csv(path)
    assert (q.m, q.n_end, q.grid.n) == (p.m, p.n_end, p.grid.n)
    assert np.array_equal(q.values, p.values)
    assert kappa_read == kappa


@PROPERTY
@given(p=smooth_profiles(), kappa=kappas, dt=st.floats(1e-4, 0.1))
def test_step_keeps_endpoints_bitwise(p, kappa, dt):
    result = run(p, EnergyParams(kappa), FlowConfig(dt=dt, t_max=dt))
    assert result.steps <= 1
    assert endpoints_exact(result.final)


@PROPERTY
@given(data=st.data(), half=st.booleans(), kappa=kappas)
def test_run_keeps_endpoints_bitwise(data, half, kappa):
    p = data.draw(smooth_profiles(hemispheric=half))
    result = run(p, EnergyParams(kappa), FlowConfig(t_max=0.05), half_interval=half)
    assert endpoints_exact(result.final)


def tilted_exact(n, c):
    """pi - theta, an exact solution at kappa = 0, plus c sin(theta)."""
    th = GRIDS[n].nodes
    return make_profile(GRIDS[n], np.pi - th + c * np.sin(th), 1, 0)


@PROPERTY
@given(p=smooth_profiles(), kappa=kappas)
# regression cases: near an exact solution on a coarse grid, and a steep
# first-type start at large kappa
@example(p=tilted_exact(64, 0.01), kappa=0.0)
@example(p=make_initial_first_type(make_grid(1024), 100.0), kappa=100.0)
def test_energy_monotone_under_run(p, kappa):
    result = run(p, EnergyParams(kappa), FlowConfig(t_max=0.2, record_every=1))
    energies = [r.energy for r in result.records]
    slack = ENERGY_SLACK * (1.0 + abs(energies[0]))
    assert len(energies) == result.steps + 1
    assert all(b <= a + slack for a, b in zip(energies, energies[1:]))
