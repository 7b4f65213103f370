"""The LAPACK routines ``axiferro._lapack`` loads, against scipy.linalg's own."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack as scipy_lapack

import axiferro
from axiferro import _lapack, flow, spectrum, stationary
from axiferro.energy import EnergyParams
from axiferro.grid import make_grid
from axiferro.profile import make_initial_second_type, make_profile
from axiferro.saddle import find_second_type
from axiferro.stencil import Stencil
from oracles import banded_solve


def calls(m):
    """Each routine's arguments on one random symmetric tridiagonal of order m."""
    rng = np.random.default_rng(m)
    d, e = rng.standard_normal(m), rng.standard_normal(m - 1)
    b = rng.standard_normal(m)
    *factors, _ = scipy_lapack.dgttrf(e, d, e)
    _, w, iblock, isplit, _ = scipy_lapack.dstebz(d, e, 2, 0.0, 0.0, 1, 8, 0.0, b"B")
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return {
        "dgtsv": ((e, d, e, b), {}),
        "dgttrf": ((e, d, e), {}),
        "dgttrs": ((*factors, b), {}),
        "dstebz": ((d, e, 2, 0.0, 0.0, 1, 8, 1e-2, b"B"), {}),
        "dstein": ((d, e, w[:8], iblock, isplit), {}),
        # the vectors of a dense 2047 x 2047 solve would take about a second
        "dsyevd": ((dense,), {"compute_v": int(m < 1024)}),
    }


@pytest.mark.parametrize("m", [511, 2047])
def test_routines_match_scipy_bit_for_bit(m):
    for name, (args, kwargs) in calls(m).items():
        ours = getattr(_lapack, name)(*args, **kwargs)
        ref = getattr(scipy_lapack, name)(*args, **kwargs)
        assert len(ours) == len(ref), name
        for a, b in zip(ours, ref):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("n", [1024, 4096])
def test_newton_step_matches_solve_banded(n, monkeypatch):
    # the bands and right side of every Newton step, then its delta, against
    # scipy's banded solve of the same system
    bands, steps = [], []
    real_bands, real_solve = Stencil.jacobian_bands, stationary.solve_banded

    def recorded_bands(self, v):
        dl, d, du = real_bands(self, v)
        bands.append((dl.copy(), d.copy(), du.copy()))
        return dl, d, du

    def recorded_solve(*args):
        out = real_solve(*args)
        steps.append((args[3].copy(), out[3]))
        return out

    monkeypatch.setattr(Stencil, "jacobian_bands", recorded_bands)
    monkeypatch.setattr(stationary, "solve_banded", recorded_solve)
    grid = make_grid(n)
    exact = make_initial_second_type(grid)
    start = make_profile(grid, exact.values + 0.05 * np.sin(2 * grid.nodes), 0, 2)
    stationary.newton_solve(start, EnergyParams(4.0))
    assert len(bands) == len(steps) >= 2
    for (dl, d, du), (rhs, delta) in zip(bands, steps):
        assert np.array_equal(delta, banded_solve(dl, d, du, rhs))


def same_report(a, b):
    assert np.array_equal(a.profile.values, b.profile.values)
    for field in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(a.spectrum, field), getattr(b.spectrum, field))
    for field in ("energy", "explicit_direction_value", "residual_sup", "marginal",
                  "provenance", "hemispheric_dev"):
        assert getattr(a, field) == getattr(b, field), field
    assert a.spectrum.morse_index == b.spectrum.morse_index


def test_fallback_import_gives_the_same_report(monkeypatch):
    grid = make_grid(256)
    by_path = find_second_type(3.47, grid)
    tried = []

    def broken(*args, **kwargs):
        tried.append(args)
        raise ImportError("no such file")

    monkeypatch.setattr(importlib.util, "spec_from_file_location", broken)
    fallback = _lapack._load()
    assert tried
    assert fallback is scipy.linalg._flapack
    for module, names in ((flow, ("dgttrf", "dgttrs")),
                          (spectrum, ("dstebz", "dstein", "dsyevd"))):
        for name in names:
            monkeypatch.setattr(module, name, getattr(fallback, name))
    monkeypatch.setattr(stationary, "solve_banded", fallback.dgtsv)
    same_report(find_second_type(3.47, grid), by_path)


def test_import_leaves_scipy_linalg_out():
    src = os.path.dirname(os.path.dirname(axiferro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, axiferro; axiferro.make_grid(1024); "
            "print(sorted({'scipy.linalg', 'numpy.f2py'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
