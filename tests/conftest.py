import numpy as np
import pytest

from axiferro.grid import make_grid


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(256)


@pytest.fixture(scope="session")
def grid512():
    return make_grid(512)


@pytest.fixture(scope="session")
def grid1024():
    return make_grid(1024)


@pytest.fixture
def no_huge_grids(monkeypatch):
    """Fail the test if any grid with n above 1e7 is built."""
    from axiferro import grid
    real = grid._build_grid

    def guarded(n):
        if n > 1e7:
            pytest.fail(f"a grid with n = {n} was built")
        return real(n)

    monkeypatch.setattr(grid, "_build_grid", guarded)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
