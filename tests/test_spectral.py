"""Diagonal-operator calculus: semigroup, resolvent, weights, envelopes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loglog_polyfit
from paper import semigroup_apply

from modalreg.errors import ModeMismatchError, SingularResolventError
from modalreg.exosystem import ExoSpace
from modalreg.regulator import (ModalCoupling, build_feedforward,
                                forcing_matrix, frequency_grid,
                                solve_regulator)
from modalreg.spectral import (DiagonalGenerator, ModeRange, SpectralVector,
                               check_geometric_condition,
                               check_superpolynomial, classify_tail,
                               decay_envelope, fit_decay_rate,
                               fractional_norm, loglog_fit)


def wave_spectrum(n, nu=1.0):
    """mu_k = -nu pi / k**2 + i k pi on k = -n..n without 0."""
    modes = ModeRange.symmetric(n, exclude_zero=True)
    k = modes.indices.astype(float)
    return DiagonalGenerator(modes, -nu * math.pi / k**2 + 1j * math.pi * k)


def wave_input_column(gen):
    k = gen.modes.indices
    return SpectralVector(
        gen.modes,
        2.0 * (1.0 - (-1.0) ** k) / (k.astype(float) ** 3 * math.pi**3))


def accumulating_spectrum(n, period=2.0 * math.pi):
    """mu_j = -1/(1+|j|) + 2 pi i j / period on j = -n..n."""
    modes = ModeRange.symmetric(n)
    j = modes.indices.astype(float)
    return DiagonalGenerator(modes,
                             -1.0 / (1.0 + np.abs(j)) + 2j * math.pi * j / period)


class TestModeRange:
    def test_symmetric_and_exclusion(self):
        r = ModeRange.symmetric(3, exclude_zero=True)
        assert list(r) == [-3, -2, -1, 1, 2, 3]
        assert 0 not in r
        assert r.position(1) == 3

    def test_empty_after_exclusion_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ModeRange(0, 0, frozenset({0}))

    def test_excluded_outside_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ModeRange(0, 2, frozenset({5}))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            ModeRange(3, 1)


class TestGenerator:
    def test_left_half_plane_enforced(self):
        with pytest.raises(ValueError, match="left half-plane"):
            DiagonalGenerator(ModeRange(0, 1), np.array([-1.0, 0.0 + 1j]))


class TestSemigroup:
    def test_identity_at_zero(self):
        gen = accumulating_spectrum(4)
        v = SpectralVector.from_dict(gen.modes, {1: 2.0 - 1j, -3: 0.5})
        out = semigroup_apply(gen, 0.0, v)
        np.testing.assert_array_equal(out.coeffs, v.coeffs)

    def test_scalar_exponential(self):
        gen = DiagonalGenerator(ModeRange(0, 0), np.array([-1.0 + 0j]))
        v = SpectralVector.unit(gen.modes, 0)
        out = semigroup_apply(gen, 1.0, v)
        assert out.coeffs[0] == pytest.approx(math.exp(-1.0))

    def test_wave_mode_five_magnitude(self):
        # damping rate nu pi / k**2 at k = 5 integrated over t = 10
        gen = wave_spectrum(8)
        v = SpectralVector.unit(gen.modes, 5)
        out = semigroup_apply(gen, 10.0, v)
        assert abs(out.coeffs[gen.modes.position(5)]) == pytest.approx(
            math.exp(-10.0 * math.pi / 25.0), rel=1e-12)

    def test_rejects_negative_time(self):
        gen = accumulating_spectrum(2)
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_apply(gen, -0.1, SpectralVector.zeros(gen.modes))

    def test_mode_mismatch(self):
        gen = accumulating_spectrum(2)
        v = SpectralVector.zeros(ModeRange.symmetric(3))
        with pytest.raises(ModeMismatchError):
            semigroup_apply(gen, 1.0, v)

    @settings(deadline=None)
    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    def test_semigroup_law(self, s, t):
        gen = accumulating_spectrum(5)
        v = SpectralVector(gen.modes,
                           np.linspace(-1, 1, len(gen.modes)) + 0.25j)
        once = semigroup_apply(gen, s + t, v)
        twice = semigroup_apply(gen, s, semigroup_apply(gen, t, v))
        np.testing.assert_allclose(once.coeffs, twice.coeffs,
                                   rtol=1e-12, atol=1e-300)

    def test_norm_nonincreasing(self):
        gen = accumulating_spectrum(5)
        v = SpectralVector(gen.modes, np.ones(len(gen.modes), dtype=complex))
        norms = [semigroup_apply(gen, t, v).norm for t in (0.0, 0.5, 1.0, 3.0)]
        assert all(b <= a for a, b in zip(norms, norms[1:]))


def unit_grid(eigenvalues, n_exo=1):
    """Frequency grid of a plant with b = c = 1 on modes 0.. and harmonics
    -n_exo..n_exo at period 2 pi, so omega_k = k."""
    gen = DiagonalGenerator(ModeRange(0, len(eigenvalues) - 1),
                            np.asarray(eigenvalues, dtype=complex))
    ones = SpectralVector(gen.modes, np.ones(len(gen.modes)))
    space = ExoSpace.power_weights(2.0 * math.pi,
                                   ModeRange.symmetric(n_exo), 2.0)
    return frequency_grid(gen, ModalCoupling(b=ones, c=ones), space)


class TestResolvent:
    """The resolvent (i omega_k - mu_n)^{-1} lives in the frequency grid
    (regulator.frequency_grid) and the spectral solve."""

    def test_simple_value(self):
        grid = unit_grid([-1.0])
        j = grid.space.modes.position(0)
        assert grid.h[j] == pytest.approx(1.0)
        assert grid.gaps[j] == pytest.approx(1.0)

    def test_complex_division(self):
        grid = unit_grid([-1.0])
        j = grid.space.modes.position(1)
        # oracle: 1/(1+i) rationalized by the conjugate
        expected = (1.0 - 1j) / 2.0
        assert grid.h[j] == pytest.approx(expected)
        assert grid.h[j] == pytest.approx(0.5 - 0.5j)

    def test_exact_hit_raises_with_mode(self):
        gen = accumulating_spectrum(3)
        ones = SpectralVector(gen.modes, np.ones(len(gen.modes)))
        space = ExoSpace.power_weights(2.0 * math.pi, ModeRange.symmetric(3),
                                       2.0)
        # the generator rejects an imaginary-axis eigenvalue at
        # construction, so one is set on the axis afterwards
        gen.eigenvalues[gen.modes.position(2)] = \
            1j * space.omegas[space.modes.position(2)]
        coupling = ModalCoupling(b=ones, c=ones)
        with pytest.raises(SingularResolventError) as err:
            frequency_grid(gen, coupling, space)
        assert err.value.mode == 2

    def test_resolvent_identity(self):
        gen = accumulating_spectrum(6)
        rng = np.random.default_rng(7)
        b = SpectralVector(gen.modes, rng.standard_normal(len(gen.modes))
                           + 1j * rng.standard_normal(len(gen.modes)))
        coupling = ModalCoupling(b=b, c=b)
        space = ExoSpace.power_weights(3.0, ModeRange.symmetric(4), 2.0)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        back = (1j * space.omegas[None, :] - gen.eigenvalues[:, None]) * sol.pi
        np.testing.assert_allclose(back, forcing_matrix(coupling, gain, space),
                                   rtol=1e-13)

    def test_min_gap_reported(self):
        grid = unit_grid([-1.0, -2.0])
        j = grid.space.modes.position(1)
        assert grid.gaps[j] == pytest.approx(math.sqrt(2.0))
        assert grid.gaps[j] == abs(1j * grid.space.omegas[j] - (-1.0))


class TestFractionalNorm:
    def test_beta_zero_plain_norm(self):
        gen = accumulating_spectrum(3)
        v = SpectralVector.unit(gen.modes, 0)
        assert fractional_norm(gen, 0.0, v) == pytest.approx(1.0)

    def test_single_mode_weight(self):
        gen = DiagonalGenerator(ModeRange(0, 0), np.array([-3.0 + 4.0j]))
        v = SpectralVector.unit(gen.modes, 0)
        assert fractional_norm(gen, 2.0, v) == pytest.approx(25.0)

    @pytest.mark.parametrize("beta,verdict,exponent", [
        (2.25, "summable", -1.5),   # terms ~ n**(2 beta - 6)
        (2.75, "divergent", -0.5),
    ])
    def test_wave_input_membership_boundary(self, beta, verdict, exponent):
        gen = wave_spectrum(2000)
        b = wave_input_column(gen)
        terms = np.abs(gen.eigenvalues) ** (2 * beta) * np.abs(b.coeffs) ** 2
        report = classify_tail(gen.modes.indices, terms)
        assert report.verdict == verdict
        assert report.exponent == pytest.approx(exponent, abs=0.05)
        # partial sums must be consistent with the finite value
        assert fractional_norm(gen, beta, b) ** 2 == pytest.approx(terms.sum())


class TestGeometricCondition:
    def test_wave_wedge_with_exact_constant(self):
        gen = wave_spectrum(300)
        report = check_geometric_condition(gen, alpha=2.0, c=math.pi**3,
                                           d=math.pi)
        assert report.passed
        assert report.tightest_c == pytest.approx(math.pi**3, rel=1e-12)

    def test_accumulating_wedge(self):
        gen = accumulating_spectrum(200)  # omega_j = j for p = 2 pi
        report = check_geometric_condition(gen, alpha=1.0, c=0.5, d=1.0)
        assert report.passed
        # min over |j| >= 1 of |j| / (1 + |j|) = 1/2 at |j| = 1
        assert report.tightest_c == pytest.approx(0.5)

    def test_shifted_spectrum(self):
        modes = ModeRange(1, 40)
        gen = DiagonalGenerator(modes, -1.0 + 1j * modes.indices)
        report = check_geometric_condition(gen, alpha=1.0, c=0.5, d=1.0)
        assert report.passed
        assert report.tightest_c == pytest.approx(1.0)
        assert report.n_checked == 40

    def test_failure_lists_modes(self):
        modes = ModeRange(1, 3)
        gen = DiagonalGenerator(modes, np.array([-1e-8 + 10j, -1.0 + 20j,
                                                 -1.0 + 30j]))
        report = check_geometric_condition(gen, alpha=1.0, c=1.0, d=1.0)
        assert not report.passed
        assert report.failing_modes == [1]


class TestDecayEnvelope:
    def test_unit_at_time_zero(self):
        gen = accumulating_spectrum(5)
        env = decay_envelope(gen, 0.0, [0.0, 1.0])
        assert env.values[0] == pytest.approx(1.0)

    def test_monotone_for_beta_zero(self):
        gen = accumulating_spectrum(20)
        env = decay_envelope(gen, 0.0, np.linspace(0.0, 50.0, 40))
        assert np.all(np.diff(env.values) <= 0)

    def test_boundary_warning(self):
        gen = accumulating_spectrum(10)
        env = decay_envelope(gen, 1.0, np.geomspace(1.0, 1e4, 50))
        assert env.boundary_mask.any()
        # early times resolved well inside the range
        assert not env.boundary_mask[0]

    def test_wave_envelope_slope(self):
        gen = wave_spectrum(10_000)
        t = np.geomspace(10.0, 1e3, 120)
        env = decay_envelope(gen, 1.0, t)
        assert not env.boundary_mask.any()
        fit = fit_decay_rate(env.values, t, (10.0, 1e3))
        assert fit.exponent_beta == pytest.approx(0.5, abs=0.05)

    def test_accumulating_envelope_slope(self):
        gen = accumulating_spectrum(10_000)
        t = np.geomspace(10.0, 1e3, 120)
        env = decay_envelope(gen, 1.0, t)
        assert not env.boundary_mask.any()
        fit = fit_decay_rate(env.values, t, (10.0, 1e3))
        assert fit.exponent_beta == pytest.approx(1.0, abs=0.05)

    def test_exponential_spectrum_bound_and_flag(self):
        modes = ModeRange.symmetric(15)
        gen = DiagonalGenerator(modes, -1.0 + 1j * modes.indices)
        t = np.geomspace(0.5, 40.0, 100)
        env = decay_envelope(gen, 0.0, t)
        assert np.all(env.values <= np.exp(-t) * (1 + 1e-12))
        check = check_superpolynomial(env.values, t, (0.5, 40.0))
        assert check.is_superpolynomial
        assert check.late_exponent > check.early_exponent

    def test_empty_grid_rejected(self):
        gen = accumulating_spectrum(3)
        with pytest.raises(ValueError, match="empty"):
            decay_envelope(gen, 0.0, [])


class TestFitDecayRate:
    def test_exact_reciprocal(self):
        t = np.geomspace(1.0, 100.0, 64)
        fit = fit_decay_rate(1.0 / t, t, (1.0, 100.0))
        assert abs(fit.exponent_beta - 1.0) <= 1e-9
        assert fit.residual <= 1e-9
        assert np.exp(fit.intercept) == pytest.approx(1.0)

    def test_too_few_points(self):
        t = np.geomspace(1.0, 100.0, 50)
        with pytest.raises(ValueError, match="need >= 10"):
            fit_decay_rate(1.0 / t, t, (1.0, 1.1))

    def test_nonpositive_envelope(self):
        t = np.linspace(1.0, 10.0, 20)
        env = 1.0 / t
        env[5] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_decay_rate(env, t, (1.0, 10.0))


class TestLogLogFit:
    def test_one_sequence_matches_polyfit(self):
        rng = np.random.default_rng(3)
        x = np.geomspace(1.0, 500.0, 90)
        y = x ** -0.7 * np.exp(0.3 * rng.standard_normal(x.size))
        fit = loglog_fit(x, y)
        slope, intercept = loglog_polyfit(x, y)
        assert fit.slope == slope and fit.intercept == intercept
        assert fit.n_points == 90 and fit.floor_time == math.inf
        assert fit.residual == np.max(np.abs(
            np.log(y) - (slope * np.log(x) + intercept)))

    def test_window_keep_and_positivity_select_points(self):
        x = np.geomspace(1.0, 100.0, 60)
        y = 1.0 / x
        y[10] = 0.0
        keep = np.arange(x.size) % 2 == 0
        fit = loglog_fit(x, y, window=(2.0, 50.0), keep=keep)
        use = (x >= 2.0) & (x <= 50.0) & (y > 0) & keep
        assert fit.n_points == use.sum()
        assert np.array_equal(fit.inside, (x >= 2.0) & (x <= 50.0))
        assert fit.slope == loglog_polyfit(x[use], y[use])[0]

    def test_too_few_points_fit_nothing(self):
        x = np.arange(1.0, 6.0)
        fit = loglog_fit(x, 1.0 / x, min_points=10)
        assert fit.n_points == 5
        assert math.isnan(fit.slope) and math.isnan(fit.residual)

    def test_floor_time_counts_zeros_and_residue(self):
        x = np.arange(1.0, 41.0)
        y = 2.0 ** -x
        # from x = 31 on: exact zeros and residue below eps * max y
        y[30:] = [3e-17, 0.0, 1e-17, 0.0, 4e-17, 0.0, 0.0, 2e-17, 0.0, 0.0]
        eps_max = np.finfo(float).eps * 0.5
        first = np.flatnonzero(y <= eps_max)[0]
        assert first == 30 and y[29] > eps_max
        assert loglog_fit(x, y).floor_time == x[first]
        # the floor is measured against the whole grid, read in the window
        assert loglog_fit(x, y, window=(35.0, 40.0)).floor_time == 35.0
        assert loglog_fit(x, y, window=(1.0, 30.0)).floor_time == math.inf


class TestClassifyTail:
    def test_finite_support_is_summable(self):
        idx = np.arange(-50, 51)
        terms = np.zeros(101)
        terms[50 + 3] = 1.0
        report = classify_tail(idx, terms)
        assert report.verdict == "summable"
        assert report.exponent == -math.inf

    def test_critical_band_is_inconclusive(self):
        idx = np.arange(1, 400)
        report = classify_tail(idx, 1.0 / idx)
        assert report.verdict == "inconclusive"
        assert report.exponent == pytest.approx(-1.0, abs=0.01)

    def test_zero_terms_excluded_from_fit(self):
        idx = np.arange(1, 400)
        terms = idx.astype(float) ** -2.0
        terms[idx % 2 == 0] = 0.0  # only odd entries survive
        report = classify_tail(idx, terms)
        assert report.verdict == "summable"
        assert report.exponent == pytest.approx(-2.0, abs=0.01)

    @pytest.mark.parametrize(("terms", "message"), [
        (np.ones(9), "lengths differ"),
        (-np.ones(10), "nonnegative"),
        (np.ones((10, 3)), r"shape \(10, 3\)"),
    ], ids=["length", "negative", "two_dimensional"])
    def test_malformed_terms_rejected(self, terms, message):
        with pytest.raises(ValueError, match=message):
            classify_tail(np.arange(1, 11), terms)
