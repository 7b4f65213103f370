import numpy as np
import pytest

from axiferro.cli import _report_payload
from axiferro.energy import (EnergyParams, assemble_second_variation, el_residual,
                             reduced_energy, residual_supnorm,
                             second_variation_form, wedge_certificates)
from axiferro.grid import make_grid, quad_sin
from axiferro.profile import (builtin_profile, make_initial_second_type,
                              make_profile)
from axiferro.saddle import find_second_type
from oracles import (certificate_f, certificate_lambda, fd_energy_derivative,
                     sampled_wedge_certificates, trapezoid_sin_integral)


def test_params_reject_negative_kappa():
    with pytest.raises(ValueError):
        EnergyParams(-1.0)


class TestReducedEnergy:
    def test_identity_profile(self, grid1024):
        p = builtin_profile("theta", grid1024)
        for kappa in (0.0, 2.0, 40.0):
            assert reduced_energy(p, EnergyParams(kappa)) == pytest.approx(
                2.0, rel=1e-5)

    def test_double_cover_at_four(self, grid1024):
        p = builtin_profile("two-theta", grid1024)
        assert reduced_energy(p, EnergyParams(4.0)) == pytest.approx(8.0, rel=1e-5)

    def test_constant_pi(self, grid1024):
        p = builtin_profile("pi", grid1024)
        for kappa in (0.0, 5.0, 30.0):
            assert reduced_energy(p, EnergyParams(kappa)) == pytest.approx(
                2.0 * kappa / 3.0, rel=1e-5, abs=1e-12)

    def test_full_energy_factor(self, grid256):
        # the saddle report's field energy is 2*pi times the reduced energy
        # of its profile
        report = find_second_type(4.0, grid=grid256)
        payload = _report_payload(report, "0" * 16, {})
        assert payload["full_energy"] == pytest.approx(
            2 * np.pi * reduced_energy(report.profile, EnergyParams(4.0)),
            rel=1e-14)

    def test_matches_reference_quadrature(self, grid1024, rng):
        # generic smooth profile against a high-resolution oracle
        a, b = rng.uniform(0.1, 0.4, 2)
        kappa = 3.7
        p = make_profile(grid1024,
                         np.pi + a * np.sin(grid1024.nodes)
                         + b * np.sin(2 * grid1024.nodes), 1, 1)

        def integrand(t):
            h = np.pi + a * np.sin(t) + b * np.sin(2 * t)
            hp = a * np.cos(t) + 2 * b * np.cos(2 * t)
            out = hp ** 2 + kappa * np.sin(h - t) ** 2
            s = np.sin(t)
            safe = s > 1e-12
            out[safe] += (np.sin(h[safe]) / s[safe]) ** 2
            return out

        exact = 0.5 * trapezoid_sin_integral(integrand)
        assert reduced_energy(p, EnergyParams(kappa)) == pytest.approx(
            exact, rel=1e-5)

    def test_refinement_second_order(self):
        vals = []
        for n in (256, 512, 1024):
            g = make_grid(n)
            p = make_profile(g, np.pi + 0.3 * np.sin(g.nodes), 1, 1)
            vals.append(reduced_energy(p, EnergyParams(2.0)))
        # Richardson: successive differences shrink ~4x
        assert 3.0 < (vals[0] - vals[1]) / (vals[1] - vals[2]) < 5.0


class TestResidual:
    def test_identity_solves_for_all_kappa(self, grid1024):
        p = builtin_profile("theta", grid1024)
        for kappa in (0.0, 1.0, 4.0, 10.0):
            assert residual_supnorm(p, EnergyParams(kappa)) < 1e-6

    def test_double_cover_solves_at_four(self, grid1024):
        p = builtin_profile("two-theta", grid1024)
        assert residual_supnorm(p, EnergyParams(4.0)) < 1e-6

    def test_double_cover_off_four(self, grid1024):
        # residual is (2 - kappa/2) sin(2 theta); at kappa = 6 sup is 1 at pi/4
        p = builtin_profile("two-theta", grid1024)
        r = el_residual(p, EnergyParams(6.0))
        expected = (2.0 - 3.0) * np.sin(2.0 * grid1024.interior)
        assert np.max(np.abs(r - expected)) < 1e-9
        assert residual_supnorm(p, EnergyParams(6.0)) == pytest.approx(1.0, abs=1e-6)

    def test_constant_pi_residual(self, grid512):
        # residual of h = pi is +kappa/2 sin(2 theta)
        p = builtin_profile("pi", grid512)
        r = el_residual(p, EnergyParams(5.0))
        assert np.max(np.abs(r - 2.5 * np.sin(2 * grid512.interior))) < 1e-9


class TestVariationalConsistency:
    def test_gradient_matches_fd(self, grid512, rng):
        # residual is the negative gradient in the sin-weighted inner product
        g = grid512
        base = np.pi + 0.25 * np.sin(g.nodes) + 0.1 * np.sin(2 * g.nodes)
        params = EnergyParams(2.5)

        def energy_of(vals):
            return reduced_energy(make_profile(g, vals, 1, 1), params)

        for _ in range(5):
            coefs = rng.uniform(-1, 1, 3)
            direction = sum(c * np.sin((i + 1) * g.nodes)
                            for i, c in enumerate(coefs))
            direction[0] = direction[-1] = 0.0
            fd1, _ = fd_energy_derivative(energy_of, base, direction, 1e-4)
            r = np.zeros(g.n + 1)
            r[1:-1] = el_residual(make_profile(g, base, 1, 1), params)
            assert abs(fd1 + quad_sin(g, r * direction)) < 1e-4

    def test_hessian_matches_fd(self, grid512, rng):
        g = grid512
        base = np.pi + 0.25 * np.sin(g.nodes) + 0.1 * np.sin(2 * g.nodes)
        params = EnergyParams(2.5)
        p = make_profile(g, base, 1, 1)

        def energy_of(vals):
            return reduced_energy(make_profile(g, vals, 1, 1), params)

        for _ in range(5):
            coefs = rng.uniform(-1, 1, 3)
            direction = sum(c * np.sin((i + 1) * g.nodes)
                            for i, c in enumerate(coefs))
            direction[0] = direction[-1] = 0.0
            _, fd2 = fd_energy_derivative(energy_of, base, direction, 1e-4)
            form = second_variation_form(p, params, direction)
            assert abs(fd2 - form) < 1e-4

    @pytest.mark.parametrize("n", [64, 1024])
    def test_energy_is_the_stencils_potential(self, n):
        # dE/dh_i = -w_i R_i at every interior node, and the form is E's
        # exact Hessian, on a coarse and a fine grid
        g = make_grid(n)
        rng = np.random.default_rng(n)
        base = np.pi + sum(c * np.sin((i + 1) * g.nodes)
                           for i, c in enumerate(rng.uniform(-0.3, 0.3, 3)))
        params = EnergyParams(2.5)
        p = make_profile(g, base, 1, 1)

        def energy_of(vals):
            return reduced_energy(make_profile(g, vals, 1, 1), params)

        w_r = g.stencil.weight * el_residual(p, params)
        fd = np.empty(n - 1)
        for i in range(1, n):
            e_i = np.zeros(n + 1)
            e_i[i] = 1.0
            fd[i - 1], _ = fd_energy_derivative(energy_of, base, e_i, 1e-5)
        assert np.max(np.abs(fd + w_r)) <= 1e-7 * np.max(np.abs(w_r))
        for _ in range(5):
            direction = sum(c * np.sin((i + 1) * g.nodes)
                            for i, c in enumerate(rng.uniform(-1, 1, 3)))
            direction[0] = direction[-1] = 0.0
            _, fd2 = fd_energy_derivative(energy_of, base, direction, 1e-4)
            assert second_variation_form(p, params, direction) == pytest.approx(
                fd2, rel=1e-6)

    def test_weight_is_second_order_and_mirror_symmetric(self):
        devs = []
        for n in (64, 128, 256, 512, 1024, 2048, 4096):
            g = make_grid(n)
            w = g.stencil.weight
            devs.append(np.max(np.abs(w / (np.sin(g.interior) * g.dtheta) - 1.0)))
            assert np.max(np.abs(w - w[::-1]) / w) < 1e-12
        assert all(a > 3.0 * b for a, b in zip(devs, devs[1:]))


class TestSecondVariationForm:
    def test_negative_direction_at_saddle(self, grid1024):
        p = make_initial_second_type(grid1024)
        val = second_variation_form(p, EnergyParams(4.0), np.sin(grid1024.nodes))
        assert val == pytest.approx(-8.0 / 3.0, abs=1e-3)

    def test_positive_direction_at_saddle(self, grid1024):
        p = make_initial_second_type(grid1024)
        val = second_variation_form(p, EnergyParams(4.0),
                                    np.sin(2 * grid1024.nodes))
        assert val == pytest.approx(32.0 / 15.0, abs=1e-3)

    def test_zero_direction(self, grid256):
        p = builtin_profile("pi", grid256)
        assert second_variation_form(p, EnergyParams(9.0),
                                     np.zeros(grid256.n + 1)) == 0.0

    def test_rejects_nonvanishing_endpoint(self, grid256):
        p = builtin_profile("pi", grid256)
        bad = np.cos(grid256.nodes)
        with pytest.raises(ValueError, match="vanish"):
            second_variation_form(p, EnergyParams(1.0), bad)


class TestOperatorAssembly:
    def test_form_operator_duality(self, grid512, rng):
        p = make_profile(grid512, np.pi + 0.2 * np.sin(grid512.nodes), 1, 1)
        params = EnergyParams(3.0)
        op = assemble_second_variation(p, params)
        for _ in range(5):
            coefs = rng.uniform(-1, 1, 4)
            g = sum(c * np.sin((i + 1) * grid512.nodes)
                    for i, c in enumerate(coefs))
            g[0] = g[-1] = 0.0
            form = second_variation_form(p, params, g)
            quad = op.quadratic_form(g[1:-1])
            assert abs(form - quad) < 2e-4 * (1 + abs(form))

    @pytest.mark.parametrize("n", [64, 1024])
    def test_matvec_is_the_dense_symmetrized_matrix(self, n, rng):
        op = assemble_second_variation(make_initial_second_type(make_grid(n)),
                                       EnergyParams(4.0))
        # built as oracles.dense_spectrum builds it
        off = np.asarray(op.offdiag, dtype=float)
        mat = np.diag(np.asarray(op.diag, dtype=float)) + np.diag(off, 1) + np.diag(off, -1)
        y = rng.standard_normal(op.dimension)
        bound = 1e-13 * np.max(np.abs(mat)) * np.max(np.abs(y))
        assert np.max(np.abs(op._matvec(y) - mat @ y)) <= bound

    @pytest.mark.parametrize("n", [64, 1024])
    def test_quadratic_form_of_the_dense_physical_matrix(self, n, rng):
        # A written out from the divergence-form formula, with V from its definition
        g = make_grid(n)
        h = np.pi + 0.2 * np.sin(g.nodes)
        op = assemble_second_variation(make_profile(g, h, 1, 1), EnergyParams(3.0))
        t, s, dt2 = g.interior, np.sin(g.interior), g.dtheta ** 2
        sh = np.sin(g.nodes[:-1] + 0.5 * g.dtheta)  # at the half nodes
        v_pot = np.cos(2 * h[1:-1]) / s ** 2 + 3.0 * np.cos(2 * h[1:-1] - 2 * t)
        a = (np.diag((sh[1:] + sh[:-1]) / (s * dt2) + v_pot)
             - np.diag(sh[1:-1] / (s[:-1] * dt2), 1) - np.diag(sh[1:-1] / (s[1:] * dt2), -1))
        w = s * g.dtheta
        for v in (np.sin(t), rng.standard_normal(op.dimension)):
            assert op.quadratic_form(v) == pytest.approx((w * v) @ (a @ v), rel=1e-10)

    def test_potential_identity_at_saddle(self, grid1024):
        # at h = 2 theta, kappa = 4 the potential collapses to 1/sin^2 - 4
        p = make_initial_second_type(grid1024)
        op = assemble_second_variation(p, EnergyParams(4.0))
        s = np.sin(grid1024.interior)
        sh = np.sin(grid1024.nodes[:-1] + 0.5 * grid1024.dtheta)
        laplace_diag = (sh[1:] + sh[:-1]) / (s * grid1024.dtheta ** 2)
        potential = np.asarray(op.diag) - laplace_diag
        target = 1.0 / s ** 2 - 4.0
        assert np.max(np.abs(potential - target)) < 1e-9 * np.max(np.abs(target))

    def test_dimension_and_weights(self, grid256):
        p = builtin_profile("pi", grid256)
        op = assemble_second_variation(p, EnergyParams(1.0))
        assert op.dimension == grid256.n - 1
        assert np.allclose(op.weight,
                           np.sin(grid256.interior) * grid256.dtheta)


def test_residual_noise_floor_covers_measurements():
    # exact solutions have zero analytic residual, so their measured sup
    # residual is pure evaluation noise; the floor model must bound it
    from axiferro.energy import residual_noise_floor
    for n in (256, 1024, 2048):
        g = make_grid(n)
        p = make_initial_second_type(g)
        measured = residual_supnorm(p, EnergyParams(4.0))
        assert measured <= 2.0 * residual_noise_floor(g.n)


CERTIFICATE_NAMES = {"f_on_W1", "f_on_W2", "lambda_on_W1_quarter", "lambda_on_W2"}


# the factorizations of energy.wedge_certificates' docstring, at the wedge
# point y = pi + s on W1 and y = x + s on W2, 0 <= s <= x <= pi/2
FACTORED = {
    ("f", "W1"): lambda x, s, k: 2 * np.sin(x - s) * (
        np.cos(x) * np.cos(s) * (1 + k * np.sin(x) ** 2)
        + np.sin(x) * np.sin(s) * (k * np.sin(x) ** 2 - 1)),
    ("f", "W2"): lambda x, s, k: -2 * np.sin(s) * (
        np.cos(s) * (1 + (k - 2) * np.sin(x) ** 2) - np.sin(2 * x) * np.sin(s)),
    ("lambda", "W1"): lambda x, s, k: 2 * np.sin(x - s) * (
        np.sin(x) * np.cos(s) * (k * np.cos(x) ** 2 - 1)
        + np.cos(x) * np.sin(s) * (k * np.sin(x) ** 2 - 1)),
    ("lambda", "W2"): lambda x, s, k: 2 * np.sin(s) * (
        np.sin(2 * x + s) - k * np.cos(s) * np.sin(x) * np.cos(x)),
}


class TestWedgeCertificates:
    def test_all_hold_at_and_above_four(self):
        for kappa in (4.0, 6.0, 25.0):
            verdicts = wedge_certificates(kappa)
            assert set(verdicts) == CERTIFICATE_NAMES
            assert all(v is True for v in verdicts.values()), (kappa, verdicts)

    # below 1, 2 and 3 the four verdicts differ, so agreement there also
    # checks each key's sign and wedge
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 2.0, 2.5, 2.9, 3.0, 3.5, 4.0, 7.0])
    def test_closed_forms_match_the_sampled_oracle(self, kappa):
        assert wedge_certificates(kappa) == sampled_wedge_certificates(kappa)

    @pytest.mark.parametrize("name, kind", sorted(FACTORED))
    def test_factorization_is_exact(self, rng, name, kind):
        x = rng.uniform(0.0, 0.5 * np.pi, 5000)
        s = rng.uniform(0.0, 1.0, x.size) * x
        kappa = np.linspace(0.0, 100.0, x.size)
        y = (np.pi if kind == "W1" else x) + s
        raw = (certificate_f if name == "f" else certificate_lambda)(x, y, kappa)
        assert np.max(np.abs(FACTORED[name, kind](x, s, kappa) - raw)) <= 1e-12

    def test_corner_value_zero(self):
        assert abs(certificate_f(np.pi / 4, np.pi + np.pi / 4, 4.0)) < 1e-12

    def test_lambda_diagonal_zero(self, rng):
        x = rng.uniform(0, np.pi / 2, 50)
        assert np.max(np.abs(certificate_lambda(x, x, 4.0))) < 1e-12

    def test_lambda_interior_value(self):
        assert certificate_lambda(np.pi / 4, np.pi / 2, 4.0) == pytest.approx(-1.0)

    def test_preconditions(self):
        for kappa in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="kappa"):
                wedge_certificates(kappa)
