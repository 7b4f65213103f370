import numpy as np
import pytest

from axiferro.grid import make_grid, quad_sin


def test_nodes_span_interval():
    g = make_grid(16)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == np.pi
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[8] == pytest.approx(np.pi / 2, abs=1e-15)


def test_midpoint_node_exact_for_power_of_two():
    g = make_grid(1024)
    assert g.nodes[g.midpoint_index] == np.pi / 2


@pytest.mark.parametrize("n", [15, 17, 101])
def test_odd_subdivision_rejected(n):
    with pytest.raises(ValueError, match="odd"):
        make_grid(n)


@pytest.mark.parametrize("n", [0, 2, 14])
def test_too_coarse_rejected(n):
    with pytest.raises(ValueError, match="coarse"):
        make_grid(n)


def test_non_integer_rejected():
    with pytest.raises(TypeError):
        make_grid(64.0)


def test_weights_sum_to_two():
    # integral of sin over [0, pi] is exactly 2
    assert abs(quad_sin(make_grid(256), np.ones(257)) - 2.0) < 1e-3
    assert abs(quad_sin(make_grid(1024), np.ones(1025)) - 2.0) < 1e-5


def test_endpoint_weights_zero():
    g = make_grid(64)
    assert g.weights[0] == 0.0 and g.weights[-1] == 0.0


def test_quad_zero_and_linearity(grid256, rng):
    g = grid256
    assert quad_sin(g, np.zeros(g.n + 1)) == 0.0
    u = rng.standard_normal(g.n + 1)
    v = rng.standard_normal(g.n + 1)
    lhs = quad_sin(g, 2.5 * u - 0.5 * v)
    assert lhs == pytest.approx(2.5 * quad_sin(g, u) - 0.5 * quad_sin(g, v),
                                rel=1e-13, abs=1e-13)


def test_quad_sin_squared(grid256):
    # integral of sin^3 = 4/3
    vals = np.sin(grid256.nodes) ** 2
    assert abs(quad_sin(grid256, vals) - 4.0 / 3.0) < 1e-3


def test_quad_rejects_nonfinite(grid256):
    vals = np.ones(grid256.n + 1)
    vals[17] = np.inf
    with pytest.raises(ValueError, match="node index 17"):
        quad_sin(grid256, vals)


def test_quad_rejects_wrong_length(grid256):
    with pytest.raises(ValueError, match="length"):
        quad_sin(grid256, np.ones(grid256.n))


def test_second_order_refinement():
    # error against the exact value shrinks ~4x per grid doubling; the
    # integrand theta^2 avoids the endpoint superconvergence of sin powers
    exact = np.pi ** 2 - 4.0  # integral of theta^2 sin(theta)
    errs = []
    for n in (256, 512, 1024):
        g = make_grid(n)
        errs.append(abs(quad_sin(g, g.nodes ** 2) - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_grid_arrays_immutable(grid256):
    with pytest.raises(ValueError):
        grid256.nodes[0] = 1.0


def test_one_shared_grid_per_n():
    g = make_grid(64)
    assert make_grid(64) is g
    assert make_grid(np.int64(64)) is g
    other = make_grid(66)
    assert other is not g and other.n == 66
    assert other.stencil is not g.stencil


@pytest.mark.parametrize("n, error, match", [(64.0, TypeError, "integer"),
                                             (np.float64(64.0), TypeError, "integer"),
                                             ("64", TypeError, "integer"),
                                             (63, ValueError, "odd"),
                                             (14, ValueError, "coarse")])
def test_validation_runs_before_the_shared_grid(n, error, match):
    make_grid(64)
    make_grid(np.int64(64))
    with pytest.raises(error, match=match):
        make_grid(n)


def test_node_text_is_the_repr_of_each_node(grid256):
    text = grid256._theta_text
    assert text == tuple(repr(float(t)) for t in grid256.nodes)
    assert grid256._theta_text is text
