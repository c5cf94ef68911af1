"""Golden scenario data, presets, and the seeded random generator."""

import math

import numpy as np
import pytest
from paper import dirac_functional, is_conjugate_symmetric
from scipy.integrate import quad

import modalreg.scenarios as scenarios
from modalreg.regulator import build_feedforward, frequency_grid
from modalreg.scenarios import (VALID_KINDS, ScenarioConfig,
                                build_random_scenario, build_scenario,
                                nominal_geometric_params, resolve_w0,
                                resolve_z0)
from modalreg.spectral import check_geometric_condition
from modalreg.sylvester import check_b_regularity


class TestConfigValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            ScenarioConfig(kind="heat")

    def test_damping_range(self):
        with pytest.raises(ValueError, match="nu"):
            ScenarioConfig(kind="wave", nu=1.5)
        with pytest.raises(ValueError, match="nu"):
            ScenarioConfig(kind="wave", nu=0.0)

    def test_weight_exponent_floor(self):
        with pytest.raises(ValueError, match="gamma"):
            ScenarioConfig(kind="wave", gamma=0.4)

    def test_custom_needs_lists(self):
        with pytest.raises(ValueError, match="custom"):
            ScenarioConfig(kind="custom")

    def test_default_periods(self):
        assert ScenarioConfig(kind="wave").resolved_period == 2.0
        assert ScenarioConfig(kind="diagonal").resolved_period \
            == pytest.approx(2.0 * math.pi)


@pytest.fixture(scope="module")
def wave():
    return build_scenario(ScenarioConfig(kind="wave", n_plant=200, n_exo=30))


@pytest.fixture(scope="module")
def diag():
    return build_scenario(ScenarioConfig(kind="diagonal", n_plant=100,
                                         n_exo=50))


@pytest.fixture(scope="module")
def small_diag():
    cfg = ScenarioConfig(kind="diagonal", n_plant=20, n_exo=10)
    return cfg, build_scenario(cfg)


class TestWaveScenario:
    def test_first_eigenvalue(self, wave):
        gen, _, _ = wave
        assert gen.eigenvalues[gen.modes.position(1)] == pytest.approx(
            -math.pi + 1j * math.pi)

    def test_mode_zero_excluded(self, wave):
        gen, _, _ = wave
        assert 0 not in gen.modes

    def test_first_input_coefficient_against_quadrature(self, wave):
        _, coupling, _ = wave
        # the input profile is x (1 - x); its sine-series coefficient is
        # computed independently by adaptive quadrature
        oracle, err = quad(lambda x: x * (1.0 - x) * math.sin(math.pi * x),
                           0.0, 1.0)
        assert err < 1e-12
        b1 = coupling.b.coeffs[coupling.modes.position(1)]
        assert b1.real == pytest.approx(4.0 / math.pi**3, rel=1e-12)
        assert b1.real == pytest.approx(oracle, rel=1e-10)

    def test_even_coefficients_vanish(self, wave):
        _, coupling, _ = wave
        for k in (2, -4):
            assert coupling.b.coeffs[coupling.modes.position(k)] == 0.0

    def test_output_is_conjugate_input(self, wave):
        _, coupling, _ = wave
        np.testing.assert_array_equal(coupling.c.coeffs,
                                      np.conj(coupling.b.coeffs))

    def test_no_disturbance(self, wave):
        _, coupling, _ = wave
        assert not any(coupling.p_entries.values())

    def test_spectral_order_is_nominal(self, wave):
        gen, _, _ = wave
        assert -check_geometric_condition(gen).slope == pytest.approx(
            nominal_geometric_params(ScenarioConfig(kind="wave")), abs=1e-12)

    def test_input_membership_boundary(self, wave):
        gen, coupling, _ = wave
        assert check_b_regularity(gen, coupling.b, 2.25).tail.verdict \
            == "summable"
        assert check_b_regularity(gen, coupling.b, 2.6).tail.verdict \
            != "summable"


class TestDiagonalScenario:
    def test_mode_zero_eigenvalue(self, diag):
        gen, _, _ = diag
        assert gen.eigenvalues[gen.modes.position(0)] == -1.0

    def test_transfer_is_first_order_lag(self, diag):
        gen, coupling, space = diag
        h = frequency_grid(gen, coupling, space).h
        for k in (0, 1, -17):
            omega = space.omegas[space.modes.position(k)]
            assert h[space.modes.position(k)] == pytest.approx(
                1.0 / (1.0 + 1j * omega), rel=1e-13)

    @pytest.mark.parametrize("gamma,passes", [(2.0, True), (1.25, False)])
    def test_gain_summability_boundary(self, gamma, passes):
        cfg = ScenarioConfig(kind="diagonal", n_plant=200, n_exo=200,
                             gamma=gamma)
        gen, coupling, space = build_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        from modalreg.regulator import check_assumption2
        assert (check_assumption2(gain).tail.verdict
                == "summable") is passes


class TestRandomScenario:
    def test_deterministic_in_seed(self):
        a = build_random_scenario(7)
        b = build_random_scenario(7)
        np.testing.assert_array_equal(a[0].eigenvalues, b[0].eigenvalues)
        np.testing.assert_array_equal(a[1].b.coeffs, b[1].b.coeffs)
        np.testing.assert_array_equal(a[2].weights, b[2].weights)
        assert a[2].period == b[2].period

    def test_spectrum_and_bounds_invariants(self):
        for seed in range(25):
            gen, coupling, space = build_random_scenario(seed)
            assert gen.eigenvalues.real.max() < 0
            assert np.abs(gen.eigenvalues.real).min() >= 1e-2
            assert np.abs(gen.eigenvalues.imag).max() <= 1e3
            assert np.abs(coupling.b.coeffs).max() <= 1.0
            assert np.abs(coupling.c.coeffs).max() <= 1.0
            assert np.all(space.weights >= 1.0)

    def test_response_floor_guaranteed(self):
        from modalreg.regulator import check_assumption1
        for seed in range(10):
            gen, coupling, space = build_random_scenario(seed)
            assert check_assumption1(frequency_grid(gen, coupling, space),
                                     floor=1e-3).passed


class TestDispatch:
    """build_scenario builds the mode ranges and period the config
    implies; a random scenario's are the ones its seed draws."""

    @pytest.mark.parametrize("cfg, plant, period", [
        (ScenarioConfig(kind="wave", n_plant=4, n_exo=3),
         [-4, -3, -2, -1, 1, 2, 3, 4], 2.0),
        (ScenarioConfig(kind="diagonal", n_plant=4, n_exo=3, period=3.0),
         list(range(-4, 5)), 3.0),
        (ScenarioConfig(kind="custom", n_exo=3, period=5.0,
                        eigenvalues=[-1.0, -2.0 + 1j, -0.5 - 3j],
                        b=[1.0, 0.5j, 1.0], c=[1.0, 0.0, -1.0]),
         [0, 1, 2], 5.0),
        (ScenarioConfig(kind="random", seed=5, n_plant=5, n_exo=5),
         None, None),
    ], ids=["wave", "diagonal", "custom", "random"])
    def test_dispatch(self, cfg, plant, period):
        gen, coupling, space = build_scenario(cfg)
        assert gen.eigenvalues.real.max() < 0
        exo = list(range(-cfg.n_exo, cfg.n_exo + 1))
        if cfg.kind == "random":
            drawn_gen, _, drawn_space = build_random_scenario(cfg.seed)
            plant = list(drawn_gen.modes.indices)
            exo = list(drawn_space.modes.indices)
            period = drawn_space.period
        assert list(gen.modes.indices) == plant
        assert coupling.modes == gen.modes
        assert list(space.modes.indices) == exo
        assert space.period == period

    def test_every_kind_is_built(self):
        assert set(scenarios._PLANTS) | {"random"} == set(VALID_KINDS)


class TestPresets:
    def test_square_wave_preset(self, small_diag):
        cfg, (gen, coupling, space) = small_diag
        w0 = resolve_w0(ScenarioConfig(kind="diagonal", n_plant=20, n_exo=10,
                                       w0_preset="square11"), space)
        assert is_conjugate_symmetric(w0)
        assert dirac_functional(w0) == pytest.approx(0.0)
        at = space.modes.position
        assert w0.coeffs[at(3)] == pytest.approx(-2j / (3.0 * math.pi))
        assert w0.coeffs[at(2)] == 0.0
        support = np.flatnonzero(np.abs(w0.coeffs))
        assert np.abs(space.modes.indices[support]).max() == 5

    def test_square_wave_needs_room(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=20, n_exo=3,
                             w0_preset="square11")
        _, _, space = build_scenario(cfg)
        with pytest.raises(ValueError, match="square11"):
            resolve_w0(cfg, space)

    def test_smooth_and_unit_presets(self, small_diag):
        cfg, (gen, coupling, space) = small_diag
        smooth = resolve_w0(ScenarioConfig(kind="diagonal", w0_preset="smooth",
                                           n_plant=20, n_exo=10), space)
        at = space.modes.position
        assert smooth.coeffs[at(0)] == 1.0
        assert smooth.coeffs[at(3)] == pytest.approx(0.125)
        unit = resolve_w0(ScenarioConfig(kind="diagonal", w0_preset="unit",
                                         n_plant=20, n_exo=10), space)
        assert dirac_functional(unit) == 1.0

    def test_graph_domain_initial_state(self, small_diag):
        cfg, (gen, coupling, space) = small_diag
        z0 = resolve_z0(ScenarioConfig(kind="diagonal", z0_preset="inv_mu_sq",
                                       n_plant=20, n_exo=10), gen)
        np.testing.assert_allclose(
            z0.coeffs, 1.0 / (1.0 + np.abs(gen.eigenvalues) ** 2))

    def test_manifold_initial_state_needs_solution(self, small_diag):
        cfg, (gen, coupling, space) = small_diag
        with pytest.raises(ValueError, match="pi_w0"):
            resolve_z0(ScenarioConfig(kind="diagonal", z0_preset="pi_w0",
                                      n_plant=20, n_exo=10), gen)

    def test_explicit_lists(self, small_diag):
        cfg, (gen, coupling, space) = small_diag
        z0 = resolve_z0(ScenarioConfig(kind="diagonal",
                                       z0_preset=[0.5j] * len(gen.modes),
                                       n_plant=20, n_exo=10), gen)
        assert z0.coeffs[gen.modes.position(0)] == 0.5j
        with pytest.raises(ValueError, match="length"):
            resolve_z0(ScenarioConfig(kind="diagonal", z0_preset=[1.0, 2.0],
                                      n_plant=20, n_exo=10), gen)
        with pytest.raises(ValueError, match="explicit w0 list has length 3, "
                                             "expected 21"):
            resolve_w0(ScenarioConfig(kind="diagonal", w0_preset=[1.0] * 3,
                                      n_plant=20, n_exo=10), space)


class TestNominalAlpha:
    CUSTOM = {"eigenvalues": [-1 + 1j], "b": [1.0], "c": [1.0]}

    def config(self, kind, **settings):
        return ScenarioConfig(kind=kind, **(self.CUSTOM if kind == "custom"
                                            else {}), **settings)

    @pytest.mark.parametrize("kind,alpha", [
        ("wave", 2.0), ("diagonal", 1.0), ("random", 1.0), ("custom", 1.0)])
    def test_default_by_kind(self, kind, alpha):
        assert nominal_geometric_params(self.config(kind)) == alpha

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_configured_alpha_honoured(self, kind):
        assert nominal_geometric_params(self.config(kind, alpha=1.5)) == 1.5
