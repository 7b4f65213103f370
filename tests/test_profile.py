import numpy as np
import pytest

from axiferro.grid import make_grid
from axiferro.profile import (W1, W2, WedgeSpec, _add_step, _symmetry_class,
                              builtin_profile, degree,
                              hemispheric_deviation, is_hemispheric,
                              make_initial_first_type,
                              make_initial_second_type, make_profile,
                              node_derivative, perturbation_direction,
                              read_profile_csv, wedge_check,
                              write_profile_csv)
from oracles import degree_quadrature


def theta_profile(grid):
    return make_profile(grid, grid.nodes.copy(), 0, 1)


def pi_profile(grid):
    return make_profile(grid, np.full(grid.n + 1, np.pi), 1, 1)


class TestProfileConstruction:
    def test_endpoints_snap_exactly(self, grid256):
        vals = grid256.nodes.copy()
        vals[0] = 1e-11   # within snapping slack
        p = make_profile(grid256, vals, 0, 1)
        assert p.values[0] == 0.0
        assert p.values[-1] == np.pi

    def test_mismatched_class_rejected(self, grid256):
        with pytest.raises(ValueError, match="boundary"):
            make_profile(grid256, grid256.nodes.copy(), 1, 1)

    def test_nonfinite_rejected(self, grid256):
        vals = grid256.nodes.copy()
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            make_profile(grid256, vals, 0, 1)

    def test_values_read_only(self, grid256):
        p = theta_profile(grid256)
        with pytest.raises(ValueError):
            p.values[1] = 0.0


class TestDegree:
    def test_normal_field(self, grid256):
        assert degree(theta_profile(grid256)) == 1

    def test_double_cover(self, grid256):
        assert degree(make_initial_second_type(grid256)) == 0

    def test_constant_pi(self, grid256):
        assert degree(pi_profile(grid256)) == 0

    def test_integral_matches_exact(self):
        # the boundary-integer formula is the quadrature of h' sin h, rounded
        g = make_grid(512)
        for name in ("theta", "two-theta", "pi", "first-type"):
            p = builtin_profile(name, g, kappa=5.0)
            assert abs(degree_quadrature(p.values) - degree(p)) < 1e-3, name

    def test_integral_zero_for_constant(self, grid256):
        p = pi_profile(grid256)
        assert degree_quadrature(p.values) == 0.0 == degree(p)

    def test_integral_second_order(self):
        errs = [abs(degree_quadrature(theta_profile(make_grid(n)).values) - 1.0)
                for n in (128, 256, 512)]
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0


class TestHemispheric:
    def test_two_theta(self, grid256):
        assert is_hemispheric(make_initial_second_type(grid256), 1e-12)

    def test_theta_odd_sum(self, grid256):
        assert not is_hemispheric(theta_profile(grid256))
        assert hemispheric_deviation(theta_profile(grid256)) == np.inf

    def test_even_bump_not_hemispheric(self, grid256):
        # h = pi + sin^2: reflection gives pi - sin^2, deviation 2 sin^2
        vals = np.pi + np.sin(grid256.nodes) ** 2
        p = make_profile(grid256, vals, 1, 1)
        assert not is_hemispheric(p, 1e-6)
        assert hemispheric_deviation(p) == pytest.approx(2.0, abs=1e-12)


class TestSymmetryClassUpdate:
    def test_half_interval_pins_and_reflects(self, grid256, rng):
        p = make_initial_first_type(grid256, 5.0)
        mid = grid256.midpoint_index
        m, k = _symmetry_class(p, True)
        assert (m, k) == (mid - 1, 1)
        h = p.values.copy()
        h[mid:-1] = 0.0  # the midpoint and right half are rewritten, not updated
        delta = rng.uniform(-0.1, 0.1, m)
        _add_step(h, delta, k)
        assert np.array_equal(h[1:mid], p.values[1:mid] + delta)
        assert h[mid] == np.pi
        assert np.array_equal(h[mid + 1:-1], 2.0 * np.pi - h[mid - 1:0:-1])
        assert (h[0], h[-1]) == (p.values[0], p.values[-1])
        assert hemispheric_deviation(make_profile(grid256, h, p.m, p.n_end)) == 0.0

    def test_full_interval_adds_only(self, grid256, rng):
        # a (1, 1) profile, so a reflection with k = 1 would be well defined
        p = make_profile(grid256, np.pi + np.sin(grid256.nodes) ** 2, 1, 1)
        m, k = _symmetry_class(p, False)
        assert (m, k) == (grid256.n - 1, None)
        h = p.values.copy()
        delta = rng.uniform(-0.1, 0.1, m)
        _add_step(h, delta, k)
        assert np.array_equal(h, p.values + np.concatenate(([0.0], delta, [0.0])))


class TestWedges:
    def test_pi_inside_w1(self, grid256):
        assert wedge_check(pi_profile(grid256), WedgeSpec(W1)).inside

    def test_two_theta_boundary_of_w2(self, grid256):
        assert wedge_check(make_initial_second_type(grid256),
                           WedgeSpec(W2, 1e-12)).inside

    def test_theta_violates_w1(self, grid256):
        verdict = wedge_check(theta_profile(grid256), WedgeSpec(W1, 1e-12))
        assert not verdict.inside
        assert verdict.node == 0
        assert verdict.excess == pytest.approx(np.pi, abs=1e-12)

    def test_tolerance_allows_slack(self, grid256):
        vals = np.full(grid256.n + 1, np.pi)
        vals[5] -= 1e-9
        p = make_profile(grid256, vals, 1, 1)
        assert not wedge_check(p, WedgeSpec(W1)).inside
        assert wedge_check(p, WedgeSpec(W1, 1e-8)).inside

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WedgeSpec("W3")


class TestFirstTypeInitial:
    def test_kappa4_breakpoint(self):
        g = make_grid(1024)
        p = make_initial_first_type(g, 4.0)
        # theta0 = pi/4 is a node at n = 1024
        assert p.values[g.n // 4] == pytest.approx(np.pi + np.pi / 4, abs=1e-14)

    def test_boundary_class(self, grid256):
        p = make_initial_first_type(grid256, 7.0)
        assert (p.m, p.n_end) == (1, 1)
        assert p.values[0] == np.pi and p.values[-1] == np.pi

    def test_midpoint_is_pi(self, grid256):
        for kappa in (4.0, 25.0, 1000.0):
            p = make_initial_first_type(grid256, kappa)
            assert abs(p.values[grid256.midpoint_index] - np.pi) < 1e-12

    def test_wedge_and_symmetry(self, grid512):
        for kappa in (4.0, 9.0, 100.0):
            p = make_initial_first_type(grid512, kappa)
            assert wedge_check(p, WedgeSpec(W1, 1e-12)).inside
            assert is_hemispheric(p, 1e-12)

    def test_kappa_below_four_rejected(self, grid256):
        with pytest.raises(ValueError, match="kappa"):
            make_initial_first_type(grid256, 3.9)


class TestSecondTypeInitial:
    def test_values_and_class(self, grid256):
        p = make_initial_second_type(grid256)
        assert np.array_equal(p.values, 2.0 * grid256.nodes)
        assert (p.m, p.n_end) == (0, 2)
        assert degree(p) == 0
        assert is_hemispheric(p, 1e-12)
        assert p.values[grid256.midpoint_index] == pytest.approx(np.pi, abs=1e-15)


class TestPerturbationDirection:
    def test_identity_profile_gives_zero(self, grid256):
        g = perturbation_direction(theta_profile(grid256))
        assert np.max(np.abs(g)) < 1e-12

    def test_two_theta_gives_sin(self, grid256):
        g = perturbation_direction(make_initial_second_type(grid256))
        assert np.max(np.abs(g - np.sin(grid256.nodes))) < 1e-12

    def test_constant_pi_gives_minus_sin(self, grid256):
        g = perturbation_direction(pi_profile(grid256))
        assert np.max(np.abs(g + np.sin(grid256.nodes))) < 1e-12

    def test_endpoints_exactly_zero(self, grid256, rng):
        vals = np.pi + 0.2 * np.sin(grid256.nodes) * (1 + rng.uniform())
        g = perturbation_direction(make_profile(grid256, vals, 1, 1))
        assert g[0] == 0.0 and g[-1] == 0.0


class TestCsvRoundTrip:
    def test_exact_round_trip(self, grid256, tmp_path, rng):
        vals = np.pi + 0.37 * np.sin(grid256.nodes) ** 3
        p = make_profile(grid256, vals, 1, 1)
        path = tmp_path / "p.csv"
        write_profile_csv(p, path, kappa=6.25)
        q, kappa = read_profile_csv(path)
        assert kappa == 6.25
        assert (q.m, q.n_end) == (1, 1)
        assert np.array_equal(q.values, p.values)
        assert q.grid.n == grid256.n

    def test_numpy_scalar_kappa_round_trip(self, grid256, tmp_path):
        path = tmp_path / "p.csv"
        write_profile_csv(pi_profile(grid256), path, kappa=np.float64(5.0))
        assert path.read_text().startswith("# m=1 n=1 kappa=5.0\n")
        q, kappa = read_profile_csv(path)
        assert kappa == 5.0 and type(kappa) is float
        assert np.array_equal(q.values, pi_profile(grid256).values)

    def test_kappa_optional(self, grid256, tmp_path):
        p = pi_profile(grid256)
        path = tmp_path / "p.csv"
        write_profile_csv(p, path)
        q, kappa = read_profile_csv(path, grid256)
        assert kappa is None
        assert np.array_equal(q.values, p.values)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_bytes_match_per_row_formatting(self, tmp_path, rng, n):
        grid = make_grid(n)
        vals = np.pi + rng.standard_normal(n + 1) * rng.uniform(1e-3, 10.0, n + 1)
        vals[0] = vals[-1] = np.pi
        p = make_profile(grid, vals, 1, 1)
        path = tmp_path / "p.csv"
        write_profile_csv(p, path, kappa=6.25, extra_header="# config_hash=abc")
        rows = [f"{float(t)!r},{float(v)!r}" for t, v in zip(grid.nodes, p.values)]
        expected = "\n".join(["# m=1 n=1 kappa=6.25", "# config_hash=abc", "theta,h",
                              *rows]) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_two_writes_on_one_shared_grid(self, tmp_path, rng):
        grid = make_grid(4096)
        for i, (m, n_end) in enumerate(((1, 1), (0, 2))):
            shared = make_grid(4096)
            assert shared is grid
            vals = m * np.pi + (n_end - m) * grid.nodes + rng.standard_normal(4097) * 1e-3
            vals[0], vals[-1] = m * np.pi, n_end * np.pi
            p = make_profile(shared, vals, m, n_end)
            path = tmp_path / f"p{i}.csv"
            write_profile_csv(p, path, kappa=5.0 + i)
            rows = [f"{float(t)!r},{float(v)!r}" for t, v in zip(grid.nodes, p.values)]
            expected = "\n".join([f"# m={m} n={n_end} kappa={5.0 + i!r}", "theta,h",
                                  *rows]) + "\n"
            assert path.read_bytes() == expected.encode()

    def test_crlf_blank_and_comment_lines_read_like_the_clean_file(self, grid256, tmp_path):
        p = make_profile(grid256, np.pi + 0.37 * np.sin(grid256.nodes) ** 3, 1, 1)
        clean = tmp_path / "clean.csv"
        write_profile_csv(p, clean, kappa=6.25, extra_header="# config_hash=abc")
        lines = clean.read_text().splitlines()
        noisy_lines = (["", "  "] + lines[:3] + ["", lines[3]] + lines[4:100]
                       + ["# a comment", "   ", "theta,h", " " + lines[100] + "\t"]
                       + lines[101:] + ["", ""])
        noisy = tmp_path / "noisy.csv"
        noisy.write_bytes("\r\n".join(noisy_lines).encode())
        expected, kappa = read_profile_csv(clean)
        q, noisy_kappa = read_profile_csv(noisy)
        assert kappa == noisy_kappa == 6.25
        assert (q.m, q.n_end, q.grid.n) == (1, 1, 256)
        assert np.array_equal(q.values, expected.values)
        assert np.array_equal(q.values, p.values)

    def test_header_kappa_not_a_number_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# m=1 n=1 kappa=abc\ntheta,h\n0.0,3.0\n")
        with pytest.raises(ValueError, match="kappa=abc") as info:
            read_profile_csv(path)
        assert str(path) in str(info.value)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,h\n0.0,0.0\n")
        with pytest.raises(ValueError, match="header"):
            read_profile_csv(path)

    @pytest.mark.parametrize("content,reason", [("", "empty"),
                                                ("# m=1 n=1\ntheta,h\n", "no data rows")])
    def test_no_data_rejected_with_path(self, tmp_path, content, reason):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match=reason) as info:
            read_profile_csv(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("nodes,reason", [(10, "n = 9 is an odd subdivision"),
                                              (5, "n = 4 too coarse")])
    def test_bad_node_count_rejected_with_path(self, tmp_path, nodes, reason):
        # without a grid the file's node count picks one, and make_grid's
        # refusal of that count names the file like every other refusal
        path = tmp_path / "bad.csv"
        theta = np.linspace(0.0, np.pi, nodes).tolist()
        path.write_text("# m=0 n=1\ntheta,h\n"
                        + "".join(f"{t!r},{t!r}\n" for t in theta))
        with pytest.raises(ValueError, match=reason) as info:
            read_profile_csv(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("rows,reason", [("0.0,0.0\n0.5\n", "number of columns"),
                                             ("0.0,0.0\n0.5,abc\n", "could not convert"),
                                             ("0.0\n0.5\n", "1 columns")])
    def test_malformed_rows_rejected_with_path(self, tmp_path, rows, reason):
        path = tmp_path / "bad.csv"
        path.write_text("# m=0 n=0\ntheta,h\n" + rows)
        with pytest.raises(ValueError, match=reason) as info:
            read_profile_csv(path)
        assert str(path) in str(info.value)


def test_builtin_names(grid256):
    for name in ("pi", "theta", "two-theta"):
        builtin_profile(name, grid256)
    builtin_profile("first-type", grid256, kappa=5.0)
    with pytest.raises(ValueError, match="unknown"):
        builtin_profile("nope", grid256)
    with pytest.raises(ValueError, match="kappa"):
        builtin_profile("first-type", grid256)


def test_node_derivative_exact_for_linear(grid256):
    hp = node_derivative(make_initial_second_type(grid256))
    assert np.max(np.abs(hp - 2.0)) < 1e-10
