"""Exact closed-loop trajectories, the explicit error expression, and the
decay certificates."""

import math

import numpy as np
import pytest
from oracles import rk4_closed_loop

from modalreg.exosystem import ExoState
from modalreg.regulator import (build_feedforward, forcing_matrix,
                                solve_regulator)
from modalreg.scenarios import (ScenarioConfig, build_diagonal_scenario,
                                build_random_scenario, build_wave_scenario,
                                resolve_w0, resolve_z0)
from modalreg.simulator import (certify_decay, error_formula_check,
                                simulate_closed_loop, state_deviation_norms)
from modalreg.spectral import SpectralVector, decay_envelope


@pytest.fixture(scope="module")
def diagonal():
    cfg = ScenarioConfig(kind="diagonal", n_plant=30, n_exo=15,
                         w0_preset="square11", z0_preset="inv_mu_sq")
    gen, coupling, space = build_diagonal_scenario(cfg)
    gain = build_feedforward(gen, coupling, space)
    sol = solve_regulator(gen, coupling, gain, space)
    return cfg, gen, coupling, space, gain, sol


class TestSimulation:
    def test_zero_data_zero_trajectories(self, diagonal):
        _, gen, coupling, space, gain, _ = diagonal
        res = simulate_closed_loop(gen, coupling, gain,
                                   SpectralVector.zeros(gen.modes),
                                   ExoState.zeros(space),
                                   np.linspace(0.0, 10.0, 11))
        assert np.all(res.z == 0) and np.all(res.e == 0) and np.all(res.u == 0)

    def test_free_decay_matches_closed_form(self, diagonal):
        _, gen, coupling, space, gain, _ = diagonal
        rng = np.random.default_rng(8)
        z0 = SpectralVector(gen.modes,
                            rng.standard_normal(len(gen.modes)) + 0j)
        t = np.linspace(0.0, 20.0, 9)
        res = simulate_closed_loop(gen, coupling, gain, z0,
                                   ExoState.zeros(space), t)
        expected = np.exp(np.multiply.outer(t, gen.eigenvalues)) \
            @ (coupling.c.coeffs * z0.coeffs)
        np.testing.assert_allclose(res.e, expected, atol=1e-14)
        assert np.all(res.u == 0)

    def test_steady_manifold_has_zero_error(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = resolve_w0(cfg, space)
        z0 = SpectralVector(gen.modes, sol.pi @ w0.coeffs)
        res = simulate_closed_loop(gen, coupling, gain, z0, w0,
                                   np.geomspace(1e-2, 1e3, 200))
        assert np.abs(res.e).max() <= 1e-9

    def test_affine_superposition(self, diagonal):
        _, gen, coupling, space, gain, _ = diagonal
        rng = np.random.default_rng(12)
        z0a = SpectralVector(gen.modes, rng.standard_normal(len(gen.modes)) + 0j)
        z0b = SpectralVector(gen.modes, rng.standard_normal(len(gen.modes)) + 0j)
        w0 = ExoState(space, rng.standard_normal(len(space.modes)) + 0j)
        t = np.linspace(0.0, 5.0, 7)
        full = simulate_closed_loop(gen, coupling, gain, z0a + z0b, w0, t)
        part1 = simulate_closed_loop(gen, coupling, gain, z0a, w0, t)
        part2 = simulate_closed_loop(gen, coupling, gain, z0b,
                                     ExoState.zeros(space), t)
        np.testing.assert_allclose(full.z, part1.z + part2.z,
                                   rtol=1e-12, atol=1e-14)

    def test_state_approaches_periodic_orbit(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = resolve_w0(cfg, space)
        z0 = resolve_z0(cfg, gen, sol, w0)
        t = np.geomspace(1e-2, 100.0, 64)
        res = simulate_closed_loop(gen, coupling, gain, z0, w0, t)
        dev = state_deviation_norms(res, sol)
        offset = SpectralVector(gen.modes, z0.coeffs - sol.pi @ w0.coeffs)
        envelope = decay_envelope(gen, 0.0, t).values
        assert np.all(dev <= envelope * offset.norm * (1.0 + 1e-12))

    def test_deviation_matches_orbit_of_scaled_map(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = resolve_w0(cfg, space)
        z0 = resolve_z0(cfg, gen, sol, w0)
        t = np.geomspace(1e-2, 100.0, 64)
        res = simulate_closed_loop(gen, coupling, gain, z0, w0, t)
        phases = np.exp(1j * np.multiply.outer(t, space.omegas))
        orbit = phases @ (sol.pi * w0.coeffs[None, :]).T
        want = np.linalg.norm(res.z - orbit, axis=1)
        np.testing.assert_allclose(state_deviation_norms(res, sol), want,
                                   rtol=1e-12, atol=1e-14 * np.abs(res.z).max())

    def test_matches_fixed_step_integrator(self):
        for seed in (0, 1, 2):
            gen, coupling, space = build_random_scenario(seed)
            gain = build_feedforward(gen, coupling, space, floor=1e-4)
            rng = np.random.default_rng(seed + 1000)
            z0 = SpectralVector(gen.modes,
                                rng.standard_normal(len(gen.modes))
                                + 1j * rng.standard_normal(len(gen.modes)))
            w0 = ExoState(space, rng.standard_normal(len(space.modes))
                          + 1j * rng.standard_normal(len(space.modes)))
            times = [0.0, 2.0, 5.0]
            oracle = rk4_closed_loop(gen.eigenvalues,
                                     forcing_matrix(coupling, gain, space),
                                     w0.coeffs, space.omegas, z0.coeffs,
                                     t_end=5.0, step=1e-3, checkpoints=times)
            exact = simulate_closed_loop(gen, coupling, gain, z0, w0,
                                         np.array(times))
            for i, t in enumerate(times):
                err = np.linalg.norm(exact.z[i] - oracle[t])
                assert err <= 1e-6 * max(1.0, np.linalg.norm(exact.z[i]))


class TestErrorFormula:
    def test_solved_run_matches_formula(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = resolve_w0(cfg, space)
        z0 = resolve_z0(cfg, gen, sol, w0)
        res = simulate_closed_loop(gen, coupling, gain, z0, w0,
                                   np.geomspace(1e-2, 100.0, 100))
        assert error_formula_check(res, sol, gen, coupling) <= 1e-9

    def test_on_manifold_reduces_to_output_mismatch(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = resolve_w0(cfg, space)
        z0 = SpectralVector(gen.modes, sol.pi @ w0.coeffs)
        res = simulate_closed_loop(gen, coupling, gain, z0, w0,
                                   np.linspace(0.0, 30.0, 50))
        assert error_formula_check(res, sol, gen, coupling) <= 1e-12

    def test_corrupted_gain_detected(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = resolve_w0(cfg, space)
        z0 = resolve_z0(cfg, gen, sol, w0)
        k_pos = space.modes.position(1)
        bad_gain = build_feedforward(gen, coupling, space)
        delta = 0.05
        bad_gain.ell = bad_gain.ell.copy()
        bad_gain.ell[k_pos] += delta
        res = simulate_closed_loop(gen, coupling, gain=bad_gain, z0=z0, w0=w0,
                                   t_grid=np.geomspace(1.0, 200.0, 120))
        mismatch = error_formula_check(res, sol, gen, coupling)
        injected = delta * abs(gain.h_values[k_pos]) * abs(w0.coeffs[k_pos])
        assert mismatch >= 0.5 * injected


class TestDecayCertificate:
    def test_exact_reciprocal(self):
        t = np.geomspace(1.0, 100.0, 80)
        cert = certify_decay(t, 1.0 / t, alpha=1.0, window=(1.0, 100.0))
        assert cert.m == pytest.approx(1.0)
        assert cert.slope == pytest.approx(-1.0, abs=1e-9)
        assert cert.passed and cert.matches_nominal

    def test_oscillating_error_uses_peaks(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        t = np.geomspace(1e-2, 1e3, 512)
        values = (1.0 / t) * (1.1 + np.sin(7.0 * t))
        cert = certify_decay(t, values, alpha=1.0, window=(1.0, 1e3))
        assert not cert.used_fallback
        assert cert.slope == pytest.approx(-1.0, abs=0.1)

    def test_simulated_error_run(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = resolve_w0(cfg, space)
        z0 = resolve_z0(cfg, gen, sol, w0)
        res = simulate_closed_loop(gen, coupling, gain, z0, w0,
                                   np.geomspace(1e-2, 50.0, 300))
        cert = certify_decay(res.t_grid, res.e, alpha=1.0, window=(0.1, 30.0))
        assert cert.m > 0

    def test_short_window_rejected(self):
        t = np.geomspace(1.0, 100.0, 80)
        with pytest.raises(ValueError, match="envelope points"):
            certify_decay(t, 1.0 / t, alpha=1.0, window=(1.0, 1.2))

    def test_wave_golden_error_stays_above_floor(self):
        """The resonant wave at N = 1000 bottoms out near 1.2e-15, twenty
        times eps * max|e|: a decaying error, not rounding residue."""
        cfg = ScenarioConfig(kind="wave", nu=1.0, gamma=2.0, n_plant=1000,
                             n_exo=1000, w0_preset="square11",
                             z0_preset="inv_mu_sq")
        gen, coupling, space = build_wave_scenario(cfg)
        gain = build_feedforward(gen, coupling, space)
        sol = solve_regulator(gen, coupling, gain, space)
        w0 = resolve_w0(cfg, space)
        z0 = resolve_z0(cfg, gen, sol, w0)
        t = np.geomspace(1e-2, 1e3, 512)
        abs_e = np.abs(simulate_closed_loop(gen, coupling, gain, z0, w0, t).e)
        cert = certify_decay(t, abs_e, alpha=2.0, window=(10.0, 1e3))
        assert cert.floor_time == math.inf
        floor = np.finfo(float).eps * abs_e.max()
        assert 10 * floor < abs_e[t >= 10.0].min() < 1e-14

    def test_rounding_floor_reported(self):
        t = np.geomspace(1.0, 100.0, 80)
        values = 1.0 / t**8
        values[60:] = 0.0
        cert = certify_decay(t, values, alpha=1.0, window=(1.0, 100.0))
        assert cert.floor_time == t[60]  # 1 / t**8 is still above eps there
        assert cert.slope == pytest.approx(-8.0)

    def test_identically_zero_rejected(self):
        t = np.geomspace(1.0, 100.0, 80)
        with pytest.raises(ValueError, match="vanish"):
            certify_decay(t, np.zeros_like(t), alpha=1.0, window=(1.0, 100.0))
