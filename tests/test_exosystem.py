"""Harmonic signal space: shift group, synthesis, point evaluation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from paper import (dirac_constant, dirac_functional, domain_tail_report,
                   from_csv, graph_norm, group_apply, is_conjugate_symmetric,
                   weight_tail_report, weighted_norm)

from modalreg.exosystem import ExoSpace, ExoState, synthesize_signal
from modalreg.spectral import ModeRange


def make_space(n=5, period=2.0 * math.pi, gamma=2.0):
    return ExoSpace.power_weights(period, ModeRange.symmetric(n), gamma)


class TestExoSpace:
    def test_power_weights_start_at_one(self):
        space = make_space()
        assert space.weights[space.modes.position(0)] == pytest.approx(1.0)
        assert np.all(space.weights >= 1.0)

    def test_gamma_floor_enforced(self):
        with pytest.raises(ValueError, match="1/2"):
            make_space(gamma=0.5)

    def test_weights_below_one_rejected(self):
        with pytest.raises(ValueError, match="f_k >= 1"):
            ExoSpace(1.0, ModeRange.symmetric(1), np.array([1.0, 0.5, 1.0]))

    def test_weight_tail_summable_for_power_family(self):
        space = make_space(n=300, gamma=2.0)
        report = weight_tail_report(space)
        assert report.verdict == "summable"
        # inverse-square weights fall like omega**(-2 gamma)
        assert report.exponent == pytest.approx(-4.0, abs=0.05)


class TestGroup:
    def test_identity(self):
        w = ExoState.from_dict(make_space(), {1: 1.0 + 2j, -2: 0.5})
        out = group_apply(w, 0.0)
        np.testing.assert_array_equal(out.coeffs, w.coeffs)

    def test_one_period_is_identity(self):
        space = make_space(period=3.7)
        w = ExoState.from_dict(space, {2: 1.0 - 1j, -1: 2.0})
        out = group_apply(w, 3.7)
        np.testing.assert_allclose(out.coeffs, w.coeffs, atol=1e-12)

    def test_quarter_period_phase(self):
        w = ExoState.unit(make_space(period=2.0 * math.pi), 1)
        out = group_apply(w, math.pi / 2.0)
        assert out.coeffs[out.space.modes.position(1)] == pytest.approx(1j)

    @settings(deadline=None)
    @given(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
    def test_group_law_and_isometry(self, s, t):
        space = make_space(period=2.0)
        rng = np.random.default_rng(11)
        w = ExoState(space, rng.standard_normal(len(space.modes))
                     + 1j * rng.standard_normal(len(space.modes)))
        once = group_apply(w, s + t)
        twice = group_apply(group_apply(w, t), s)
        np.testing.assert_allclose(once.coeffs, twice.coeffs,
                                   rtol=1e-12, atol=1e-14)
        # isometry up to rounding in |exp(i theta)|
        assert weighted_norm(once) == pytest.approx(weighted_norm(w), rel=1e-13)


class TestSynthesis:
    def test_constant_signal(self):
        w = ExoState.unit(make_space(), 0)
        for t in (0.0, 1.3, -7.0):
            assert synthesize_signal(w, t) == pytest.approx(1.0)

    def test_sine_from_euler_pair(self):
        space = make_space(period=2.0 * math.pi)
        w = ExoState.from_dict(space, {1: 1.0 / 2j, -1: -1.0 / 2j})
        t = np.linspace(-3.0, 3.0, 17)
        np.testing.assert_allclose(synthesize_signal(w, t), np.sin(t),
                                   atol=1e-15)

    def test_matches_direct_summation_oracle(self):
        space = make_space(n=2, period=3.0)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = ExoState(space, coeffs)
        t = 0.7
        oracle = sum(
            complex(coeffs[space.modes.position(k)])
            * cmath.exp(2j * cmath.pi * k * t / 3.0)
            for k in space.modes.indices
        )
        assert synthesize_signal(w, t) == pytest.approx(oracle, rel=1e-14)

    def test_shift_compatibility(self):
        space = make_space(period=2.0)
        rng = np.random.default_rng(9)
        w = ExoState(space, rng.standard_normal(len(space.modes)) + 0j)
        s, t = 0.37, 1.91
        lhs = synthesize_signal(group_apply(w, s), t)
        rhs = synthesize_signal(w, s + t)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_periodicity_bound(self):
        space = make_space(n=8, period=2.0)
        rng = np.random.default_rng(3)
        w = ExoState(space, rng.standard_normal(len(space.modes))
                     + 1j * rng.standard_normal(len(space.modes)))
        budget = 1e-12 * np.abs(w.coeffs).sum()
        for t in np.linspace(0.0, 4.0, 9):
            assert abs(synthesize_signal(w, t + 2.0)
                       - synthesize_signal(w, t)) <= budget


class TestDirac:
    def test_unit_mode(self):
        assert dirac_functional(ExoState.unit(make_space(), 3)) == pytest.approx(1.0)

    def test_zero_state(self):
        assert dirac_functional(ExoState.zeros(make_space())) == 0.0

    def test_cauchy_schwarz_saturation(self):
        # w_k = f_k**-2 meets the bound with equality: sum w_k = c**2 and
        # the weighted norm of w is exactly c
        space = make_space(n=6, gamma=1.5)
        w = ExoState(space, (space.weights**-2.0).astype(complex))
        c = dirac_constant(space)
        val = dirac_functional(w)
        assert val.real == pytest.approx(c**2, rel=1e-13)
        assert abs(val) == pytest.approx(c * weighted_norm(w), rel=1e-13)

    def test_bound_on_many_random_states(self):
        space = make_space(n=10, gamma=1.0)
        rng = np.random.default_rng(17)
        batch = rng.standard_normal((10_000, len(space.modes))) \
            + 1j * rng.standard_normal((10_000, len(space.modes)))
        sums = np.abs(batch.sum(axis=1))
        norms = np.linalg.norm(batch * space.weights[None, :], axis=1)
        c = dirac_constant(space)
        assert np.all(sums <= c * norms * (1.0 + 1e-12))


class TestNorms:
    def test_basis_vector_norm_is_weight(self):
        space = make_space(n=4, gamma=2.0)
        for k in (-3, 0, 2):
            w = ExoState.unit(space, k)
            assert weighted_norm(w) == pytest.approx(
                space.weights[space.modes.position(k)])

    def test_zero_norm(self):
        assert weighted_norm(ExoState.zeros(make_space())) == 0.0

    def test_pythagorean_sum(self):
        space = make_space()
        a = ExoState.unit(space, 1)
        b = ExoState.unit(space, -2)
        combined = ExoState(space, a.coeffs + b.coeffs)
        fa = space.weights[space.modes.position(1)]
        fb = space.weights[space.modes.position(-2)]
        assert weighted_norm(combined) == pytest.approx(math.hypot(fa, fb))

    def test_graph_norm_unit_mode(self):
        space = make_space(period=2.0, gamma=1.0)
        k = 2
        w = ExoState.unit(space, k)
        f_k = space.weights[space.modes.position(k)]
        omega_k = 2.0 * math.pi * k / 2.0
        assert graph_norm(w) == pytest.approx(f_k * (1.0 + abs(omega_k)))


class TestDomainTrend:
    def test_rapidly_decaying_state_classified_summable(self):
        space = make_space(n=200, gamma=1.0)
        coeffs = 2.0 ** (-np.abs(space.modes.indices.astype(float)))
        w = ExoState(space, coeffs.astype(complex))
        assert domain_tail_report(w).verdict == "summable"

    def test_slowly_decaying_state_classified_divergent(self):
        # coefficients ~ 1/|k| leave omega w f growing for gamma = 1
        space = make_space(n=200, gamma=1.0)
        k = space.modes.indices.astype(float)
        coeffs = np.where(k == 0, 1.0, 1.0 / np.maximum(np.abs(k), 1.0))
        w = ExoState(space, coeffs.astype(complex))
        assert domain_tail_report(w).verdict == "divergent"


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        space = make_space(n=3)
        rng = np.random.default_rng(23)
        w = ExoState(space, rng.standard_normal(7) + 1j * rng.standard_normal(7))
        path = tmp_path / "state.csv"
        w.to_csv(path)
        back = from_csv(path, space)
        np.testing.assert_array_equal(back.coeffs, w.coeffs)

    def test_conjugate_symmetry_detection(self):
        space = make_space(n=2)
        real_sig = ExoState.from_dict(space, {1: 1.0 - 2j, -1: 1.0 + 2j})
        assert is_conjugate_symmetric(real_sig)
        skew = ExoState.from_dict(space, {1: 1.0, -1: 0.5})
        assert not is_conjugate_symmetric(skew)
