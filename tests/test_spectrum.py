import numpy as np
import pytest

from axiferro.energy import (EnergyParams, TridiagonalOperator,
                             assemble_second_variation)
from axiferro.grid import make_grid
from axiferro import spectrum
from axiferro.profile import (builtin_profile, make_initial_first_type,
                              make_initial_second_type, make_profile)
from axiferro.saddle import find_first_type, find_second_type
from axiferro.spectrum import classify, eigs_lowest, legendre_validation
from oracles import dense_spectrum

# frozen from the dense eigensolve at n = 64 (regression fixtures)
THETA_KAPPA0_N64 = [-0.00025113366039074617, 3.996433782143419,
                    9.982171318819981]
THETA_KAPPA10_N64 = [9.999748866339715, 13.996433782143272,
                     19.982171318819972]


def saddle_operator(n, kappa=4.0):
    g = make_grid(n)
    return assemble_second_variation(make_initial_second_type(g),
                                     EnergyParams(kappa)), g


def oracle_fixture_operators():
    """The five n = 64 operator fixtures of acceptance criterion 13."""
    g = make_grid(64)
    return [assemble_second_variation(p, EnergyParams(kappa)) for p, kappa in (
        (make_initial_second_type(g), 4.0),
        (builtin_profile("theta", g), 0.0),
        (builtin_profile("theta", g), 10.0),
        (builtin_profile("pi", g), 5.0),
        (make_initial_first_type(g, 9.0), 9.0),
    )]


class TestEigsLowest:
    def test_legendre_shifted_eigenvalues(self):
        op, _ = saddle_operator(2048)
        res = eigs_lowest(op, 3)
        assert np.allclose(res.eigenvalues, [-2.0, 2.0, 8.0], atol=1e-3)
        assert res.morse_index == 1

    def test_eigenvectors_match_legendre_functions(self):
        op, g = saddle_operator(2048)
        res = eigs_lowest(op, 2)
        w = np.zeros(g.n + 1)
        w[1:-1] = op.weight
        for vec, exact in zip(res.eigenvectors,
                              (np.sin(g.nodes), np.sin(2 * g.nodes))):
            exact = exact / np.sqrt(np.sum(w * exact ** 2))
            corr = abs(np.sum(w * vec * exact))
            assert corr >= 1 - 1e-4

    def test_orthonormal_in_weighted_product(self):
        op, g = saddle_operator(512)
        res = eigs_lowest(op, 4)
        w = np.zeros(g.n + 1)
        w[1:-1] = op.weight
        gram = np.array([[np.sum(w * vi * vj) for vj in res.eigenvectors]
                         for vi in res.eigenvectors])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8

    def test_eigenpair_residuals(self):
        op, _ = saddle_operator(512)
        res = eigs_lowest(op, 4)
        assert np.all(res.residuals <= 1e-8 * res.operator_scale)

    def test_rayleigh_quotient_consistency(self):
        op, _ = saddle_operator(512)
        res = eigs_lowest(op, 3)
        for lam, vec in zip(res.eigenvalues, res.eigenvectors):
            v = vec[1:-1]
            rq = op.quadratic_form(v) / np.dot(op.weight * v, v)
            assert rq == pytest.approx(lam, rel=1e-8, abs=1e-10)

    def test_matches_dense_oracle(self):
        for n in (64, 1024):
            op, _ = saddle_operator(n)
            mine = eigs_lowest(op, 6).eigenvalues
            ref = dense_spectrum(op, 6)
            assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-8, n

    @pytest.mark.parametrize("negate", [False, True])
    def test_sign_rule_first_significant_component_positive(self, negate, monkeypatch):
        # the rule holds for the symmetrized vector sqrt(w) v, where the
        # eigensolver works; the returned v is that vector over sqrt(w).
        # The negated run checks that eigs_lowest enforces it whatever sign
        # the driver returns.  At kappa = 4, n = 1024 the reflection-
        # antisymmetric modes 2 and 4 have two extreme components equal up
        # to rounding, which is why the rule does not key on the largest.
        if negate:
            real = spectrum.dstein

            def negated(*args):
                vecs, info = real(*args)
                return -vecs, info

            monkeypatch.setattr(spectrum, "dstein", negated)
        for op in oracle_fixture_operators() + [saddle_operator(n)[0] for n in (512, 1024)]:
            res = eigs_lowest(op, 4)
            for vec in res.eigenvectors:
                y = vec[1:-1] * np.sqrt(op.weight)
                first = np.flatnonzero(np.abs(y) > 1e-8 * np.max(np.abs(y)))[0]
                assert y[first] > 0

    def test_constant_shift_moves_spectrum(self, grid256):
        import dataclasses
        p = make_initial_second_type(grid256)
        op = assemble_second_variation(p, EnergyParams(4.0))
        shifted = dataclasses.replace(op, diag=np.asarray(op.diag) + 3.5)
        base = eigs_lowest(op, 3).eigenvalues
        moved = eigs_lowest(shifted, 3).eigenvalues
        assert np.allclose(moved - base, 3.5, atol=1e-9)

    def test_deterministic_and_prefix_stable(self):
        op, _ = saddle_operator(256)
        a = eigs_lowest(op, 3)
        b = eigs_lowest(op, 3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        wide = eigs_lowest(op, 5)
        assert np.allclose(wide.eigenvalues[:3], a.eigenvalues, atol=1e-10)

    def test_k_out_of_range(self):
        op, _ = saddle_operator(64)
        with pytest.raises(ValueError):
            eigs_lowest(op, 0)
        with pytest.raises(ValueError):
            eigs_lowest(op, op.dimension + 1)

    def test_regression_fixture_theta(self, grid64):
        # pinned by the dense eigensolve; identity profile has the shifted
        # spectrum l(l+1) - 2 + kappa up to the stencil error
        th = builtin_profile("theta", grid64)
        for kappa, frozen in ((0.0, THETA_KAPPA0_N64),
                              (10.0, THETA_KAPPA10_N64)):
            op = assemble_second_variation(th, EnergyParams(kappa))
            got = eigs_lowest(op, 3).eigenvalues
            assert np.max(np.abs(got - np.array(frozen))) < 1e-8


class TestInertiaCertificate:
    def test_pivot_count_matches_dense_oracle(self):
        for op in oracle_fixture_operators():
            ref = dense_spectrum(op)
            # midpoints between the low eigenvalues, plus shifts below and
            # above the whole spectrum
            shifts = list(0.5 * (ref[:8] + ref[1:9])) + [ref[0] - 1.0,
                                                          ref[-1] + 1.0]
            for shift in shifts:
                expected = int(np.sum(ref < shift))
                assert spectrum.negative_count(op.diag, op.offdiag,
                                                shift) == expected

    @pytest.mark.parametrize("n", [512, 1024])
    def test_count_matches_dense_oracle_at_the_code_shifts(self, n):
        # the saddle operators of both types, at the shifts of the probe
        # (+-1e-8) and of the Morse index (-tol), at -1e-12 x scale,
        # 1e-6 on either side of lambda1 and lambda2, and below and above
        # the whole spectrum
        grid = make_grid(n)
        reports = [find_first_type(5.0, grid), find_first_type(6.67, grid),
                   find_second_type(3.5, grid), find_second_type(4.0, grid),
                   find_second_type(10.0, grid)]
        for report in reports:
            op = assemble_second_variation(report.profile, EnergyParams(report.kappa))
            ref = dense_spectrum(op)
            shifts = [-1e-8, 1e-8, -1e-12 * op.norm_estimate(), -report.spectrum.tol,
                      *(ref[:2] - 1e-6), *(ref[:2] + 1e-6), ref[0] - 1.0, ref[-1] + 1.0]
            for shift in shifts:
                # no eigenvalue lies within the dense solve's error of a shift
                assert np.min(np.abs(ref - shift)) > 1e-7
                assert spectrum.negative_count(op.diag, op.offdiag,
                                                shift) == int(np.sum(ref < shift))

    def test_nonzero_info_raises(self, monkeypatch):
        op, _ = saddle_operator(256)
        real = spectrum.dstebz

        def failing(*args):
            return (*real(*args)[:4], 1)

        monkeypatch.setattr(spectrum, "dstebz", failing)
        with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
            spectrum.negative_count(op.diag, op.offdiag, 0.0)

    def test_dropped_lowest_eigenvalue_raises(self, monkeypatch, grid256):
        # the eigensolve skips lambda1 < 0 of the saddle at kappa = 4, so it
        # finds no negative eigenvalue; the count at the shift still finds one
        p = make_initial_second_type(grid256)
        params = EnergyParams(4.0)
        real = spectrum._ritz_pairs

        def drop_lowest(op, k, abstol, split):
            vals, vecs, res = real(op, k + 1, abstol, split)
            return vals[1:], vecs[1:], res[1:]

        monkeypatch.setattr(spectrum, "_ritz_pairs", drop_lowest)
        with pytest.raises(np.linalg.LinAlgError, match="Morse index 0 .* count 1"):
            eigs_lowest(assemble_second_variation(p, params), 3)
        with pytest.raises(np.linalg.LinAlgError, match="Morse index 0 .* count 1"):
            classify(p, params, k=3)

    def test_disagreement_raises(self, monkeypatch):
        op, _ = saddle_operator(256)
        real = spectrum._ritz_pairs

        def shifted(*args):
            vals, vecs, res = real(*args)
            return vals + 10.0, vecs, res

        monkeypatch.setattr(spectrum, "_ritz_pairs", shifted)
        with pytest.raises(np.linalg.LinAlgError,
                           match="Morse index 0 .* inertia count 1"):
            eigs_lowest(op, 3)

    def test_count_may_exceed_morse_when_all_k_negative(self):
        # shifted saddle spectrum about -7, -3, 3: with k = 1 the only
        # computed eigenvalue is negative, and the certificate asks for a
        # count of at least 1, not exactly 1
        import dataclasses
        op, _ = saddle_operator(128)
        op = dataclasses.replace(op, diag=np.asarray(op.diag) - 5.0)
        assert [eigs_lowest(op, k).morse_index for k in (1, 2, 3)] == [1, 2, 2]


def relative_gap(vals, ref):
    return float(np.max(np.abs(vals - ref) / np.maximum(np.abs(ref), 1.0)))


@pytest.fixture(scope="module")
def dense_checked_operators():
    """Saddle-report operators at n = 1024 and the criterion-13 fixtures at
    n = 64, each with its dense spectrum, built once for the module."""
    grid = make_grid(1024)
    reports = [find_first_type(4.0, grid), find_first_type(6.5, grid),
               find_second_type(3.21, grid), find_second_type(1000.0, grid)]
    ops = [assemble_second_variation(r.profile, EnergyParams(r.kappa))
           for r in reports] + oracle_fixture_operators()
    return [(op, dense_spectrum(op)) for op in ops]


def asymmetric_operator():
    """A profile without the reflection symmetry: its operator does not split."""
    g = make_grid(1024)
    t = g.nodes
    p = make_profile(g, np.pi + 0.3 * np.sin(t) * np.cos(t) + 0.2 * np.sin(3 * t), 1, 1)
    return assemble_second_variation(p, EnergyParams(3.0))


def near_degenerate_operator(gap, p=300):
    """Two chains with a weak coupling; the second is shifted so that its
    lowest eigenvalue sits about ``gap`` above the first chain's fourth."""
    j = np.arange(1, 5)
    mu = 2e4 * (1.0 - np.cos(j * np.pi / (p + 1)))
    shift = mu[3] - mu[0] + gap
    d = np.concatenate((np.full(p, 2e4), np.full(p, 2e4 + shift)))
    e = np.concatenate((np.full(p - 1, -1e4), [1e-6], np.full(p - 1, -1e4)))
    return TridiagonalOperator(dimension=2 * p, diag=d, offdiag=e, weight=np.ones(2 * p))


@pytest.fixture
def solves(monkeypatch):
    """Records (abstol, split) of every call of the private Ritz solve."""
    calls = []
    real = spectrum._ritz_pairs

    def spy(op, k, abstol, split):
        calls.append((abstol, split))
        return real(op, k, abstol, split)

    monkeypatch.setattr(spectrum, "_ritz_pairs", spy)
    return calls


class TestRitzSolve:
    def test_values_match_dense_oracle(self, dense_checked_operators):
        # the fixtures are what they say: second type at kappa = 3.21 has
        # lambda2 near 0.148, at kappa = 1000 lambda2..lambda4 lie within 11
        # of each other near 1000
        near_fold, large = dense_checked_operators[2][1], dense_checked_operators[3][1]
        assert 0.14 < near_fold[1] < 0.16
        assert 990.0 < large[1] and large[3] - large[1] < 11.0
        for op, ref in dense_checked_operators:
            assert relative_gap(eigs_lowest(op, 4).eigenvalues, ref[:4]) <= 1e-10

    def test_split_and_unsplit_solves_agree(self, dense_checked_operators):
        for op, _ in dense_checked_operators:
            split, _, _ = spectrum._ritz_pairs(op, 4, spectrum._ABSTOL, True)
            whole, _, _ = spectrum._ritz_pairs(op, 4, spectrum._ABSTOL, False)
            assert relative_gap(split, whole) <= 1e-10

    def test_mirror_symmetric_operators_take_the_split(self, solves,
                                                      dense_checked_operators):
        # the theta profile is not hemispheric, but its operator is symmetric;
        # every symmetric operator here is solved once, on the sectors
        g = make_grid(1024)
        ops = [assemble_second_variation(make_initial_second_type(g), EnergyParams(4.0)),
               assemble_second_variation(builtin_profile("theta", g), EnergyParams(10.0))]
        ops += [op for op, _ in dense_checked_operators]
        for op in ops:
            solves.clear()
            eigs_lowest(op, 4)
            assert solves == [(spectrum._ABSTOL, True)]
        op = asymmetric_operator()
        solves.clear()
        vals = eigs_lowest(op, 4).eigenvalues
        assert solves == [(spectrum._ABSTOL, False)]
        assert relative_gap(vals, dense_spectrum(op, 4)) <= 1e-10

    @pytest.mark.parametrize("make_op, path", [
        (lambda: saddle_operator(1024)[0], True),
        (lambda: assemble_second_variation(builtin_profile("theta", make_grid(1024)),
                                           EnergyParams(10.0)), True),
        (asymmetric_operator, False),
    ])
    def test_vectors_vanish_at_both_endpoints(self, make_op, path, solves):
        # the sector solve and the whole-matrix solve both return vectors on
        # the full node range, exactly zero at the Dirichlet endpoints
        op = make_op()
        vectors = eigs_lowest(op, 5).eigenvectors
        assert solves == [(spectrum._ABSTOL, path)]
        assert vectors.shape == (5, op.dimension + 2)
        assert np.all(vectors[:, [0, -1]] == 0.0)
        assert np.all(np.abs(vectors[:, 1:-1]).max(axis=1) > 0.0)

    @pytest.mark.parametrize("gap", [1e-4, 1e-12])
    def test_near_degenerate_pair_repeats_once(self, gap, solves):
        op = near_degenerate_operator(gap)
        ref = dense_spectrum(op, 5)
        # the pair is as close as asked, to the dense solve's rounding
        assert ref[4] - ref[3] < gap + 1e-10
        vals = eigs_lowest(op, 4).eigenvalues
        assert solves == [(spectrum._ABSTOL, False), (0.0, False)]
        assert relative_gap(vals, ref[:4]) <= 1e-10

    def test_failed_certificate_repeats_once(self, solves, monkeypatch,
                                             dense_checked_operators):
        op, ref = dense_checked_operators[1]
        real = spectrum.negative_count
        counted = []

        def first_call_off_by_one(diag, off, shift):
            counted.append(shift)
            return real(diag, off, shift) + (len(counted) == 1)

        monkeypatch.setattr(spectrum, "negative_count", first_call_off_by_one)
        vals = eigs_lowest(op, 4).eigenvalues
        assert solves == [(spectrum._ABSTOL, True), (0.0, False)]
        assert relative_gap(vals, ref[:4]) <= 1e-10

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_pair_residuals_at_rounding(self, n):
        grid = make_grid(n)
        for report in (find_first_type(6.5, grid), find_second_type(3.47, grid)):
            res = report.spectrum
            assert np.all(res.residuals <= 1e-12 * res.operator_scale)


class TestLegendreValidation:
    def test_table_and_refinement(self):
        report = legendre_validation(make_grid(1024), 5)
        exact = np.arange(1, 6) * np.arange(2, 7) - 4.0
        assert report.max_deviation_fine == np.max(np.abs(report.computed_fine - exact))
        assert report.max_deviation_coarse < 1e-2
        assert report.max_deviation_fine < 1e-2 / 3
        assert 3.0 < report.refinement_ratio < 5.0

    def test_first_eigenfunction_is_sin(self, grid512):
        p = make_initial_second_type(grid512)
        op = assemble_second_variation(p, EnergyParams(4.0))
        res = eigs_lowest(op, 1)
        w = np.zeros(grid512.n + 1)
        w[1:-1] = op.weight
        exact = np.sin(grid512.nodes)
        exact /= np.sqrt(np.sum(w * exact ** 2))
        assert abs(np.sum(w * res.eigenvectors[0] * exact)) >= 1 - 1e-6

    def test_rejects_bad_lmax(self, grid256):
        with pytest.raises(ValueError):
            legendre_validation(grid256, 0)


class TestClassify:
    def test_saddle_at_exact_solution(self, grid1024):
        p = make_initial_second_type(grid1024)
        res = classify(p, EnergyParams(4.0), k=3)
        assert res.morse_index == 1
        assert res.eigenvalues[0] == pytest.approx(-2.0, abs=1e-3)
        assert res.eigenvalues[1] == pytest.approx(2.0, abs=1e-3)
        assert res.explicit_direction_value == pytest.approx(-8.0 / 3.0, abs=1e-3)

    def test_stable_branch_all_positive(self, grid512):
        p = builtin_profile("theta", grid512)
        res = classify(p, EnergyParams(10.0), k=3)
        assert res.morse_index == 0
        assert np.all(res.eigenvalues > 0)

    def test_morse_index_certified_at_classify_tol(self, grid256, monkeypatch):
        # the inertia count is wrong only at shifts at or below -tol, where
        # the Morse index is certified; the Ritz certificate's count above
        # the spectrum stays right, so only the index check can catch it
        p = make_initial_second_type(grid256)
        params = EnergyParams(4.0)
        op = assemble_second_variation(p, params)
        tol = eigs_lowest(op, 3).tol
        real = spectrum.negative_count

        def off_by_one_below(diag, off, shift):
            return real(diag, off, shift) + (shift <= -tol)

        monkeypatch.setattr(spectrum, "negative_count", off_by_one_below)
        with pytest.raises(np.linalg.LinAlgError, match="inertia count 2"):
            classify(p, params, k=3)
        with pytest.raises(np.linalg.LinAlgError, match="inertia count 2"):
            eigs_lowest(op, 3)

    def test_two_inertia_counts(self, grid256, monkeypatch):
        # the Ritz certificate and the Morse index at -tol, on the slack of
        # the low spectrum, 1e-6 max(1, max |lambda_i|), for classify and
        # eigs_lowest alike
        p = make_initial_second_type(grid256)
        params = EnergyParams(4.0)
        real = spectrum.negative_count
        shifts = []

        def counted(diag, off, shift):
            shifts.append(shift)
            return real(diag, off, shift)

        monkeypatch.setattr(spectrum, "negative_count", counted)
        res = classify(p, params, k=3)
        assert len(shifts) == 2 and shifts[1] == -res.tol
        shifts.clear()
        alone = eigs_lowest(assemble_second_variation(p, params), 3)
        assert len(shifts) == 2 and shifts[1] == -alone.tol
        assert res.tol == alone.tol == 1e-6 * np.max(np.abs(alone.eigenvalues))

    def test_rejects_nonstationary(self, grid256):
        p = builtin_profile("pi", grid256)
        with pytest.raises(ValueError, match="not stationary"):
            classify(p, EnergyParams(5.0))

    def test_morse_index_grid_independent(self):
        for n in (256, 512):
            g = make_grid(n)
            p = make_initial_second_type(g)
            assert classify(p, EnergyParams(4.0), k=3).morse_index == 1
            th = builtin_profile("theta", g)
            assert classify(th, EnergyParams(10.0), k=3).morse_index == 0
