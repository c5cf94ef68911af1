"""Exact closed-loop trajectories, the explicit error expression, and the
decay certificates."""

import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import rk4_closed_loop

import modalreg.regulator as regulator
import modalreg.simulator as simulator
from modalreg.cli import main
from modalreg.config import load_config
from modalreg.exosystem import ExoState
from modalreg.regulator import (build_feedforward, forcing_matrix,
                                frequency_grid, residual_first_equation,
                                residual_second_equation, solve_regulator,
                                steady_state_image)
from modalreg.scenarios import (ScenarioConfig, build_diagonal_scenario,
                                build_random_scenario, build_scenario,
                                build_wave_scenario, resolve_w0, resolve_z0)
from modalreg.simulator import (certify_decay, simulate_closed_loop,
                                simulate_outputs, state_deviation_norms)
from modalreg.spectral import SpectralVector, decay_envelope


@pytest.fixture(scope="module")
def diagonal():
    cfg = ScenarioConfig(kind="diagonal", n_plant=30, n_exo=15,
                         w0_preset="square11", z0_preset="inv_mu_sq")
    gen, coupling, space = build_diagonal_scenario(cfg)
    gain = build_feedforward(frequency_grid(gen, coupling, space))
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
        z0 = resolve_z0(cfg, gen)
        t = np.geomspace(1e-2, 100.0, 64)
        res = simulate_closed_loop(gen, coupling, gain, z0, w0, t)
        dev = state_deviation_norms(res, sol)
        offset = SpectralVector(gen.modes, z0.coeffs - sol.pi @ w0.coeffs)
        envelope = decay_envelope(gen, 0.0, t).values
        assert np.all(dev <= envelope * offset.norm * (1.0 + 1e-12))

    def test_deviation_matches_orbit_of_scaled_map(self, diagonal):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = resolve_w0(cfg, space)
        z0 = resolve_z0(cfg, gen)
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
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            rng = np.random.default_rng(seed + 1000)
            z0 = SpectralVector(gen.modes,
                                rng.standard_normal(len(gen.modes))
                                + 1j * rng.standard_normal(len(gen.modes)))
            w0 = ExoState(space, rng.standard_normal(len(space.modes))
                          + 1j * rng.standard_normal(len(space.modes)))
            times = [0.0, 2.0, 5.0]
            oracle = rk4_closed_loop(gen.eigenvalues,
                                     [forcing_matrix(coupling, gain, space)],
                                     [w0.coeffs], [space.omegas], z0.coeffs,
                                     t_end=5.0, step=1e-3, checkpoints=times)
            exact = simulate_closed_loop(gen, coupling, gain, z0, w0,
                                         np.array(times))
            for i, t in enumerate(times):
                err = np.linalg.norm(exact.z[i] - oracle[t])
                assert err <= 1e-6 * max(1.0, np.linalg.norm(exact.z[i]))


class TestOutputPath:
    """simulate_outputs (e and the state deviation from Pi w0 and c Pi)
    against the full-state path simulate_closed_loop +
    state_deviation_norms."""

    CUSTOM = ScenarioConfig(
        kind="custom", eigenvalues=(-0.3 + 1j, -0.05 - 2.5j, -1.0 + 4j,
                                    -0.01 + 0.5j),
        b=(1.0, 0.5j, 0.25, -0.75), c=(0.5, 1.0, -0.5j, 0.25), n_exo=6,
        period=5.0, p_entries={(1, 2): 0.3 - 0.1j, (3, -1): 0.5j, (2, 6): 1.0},
        w0_preset="smooth", z0_preset="inv_mu_sq")

    def states(self, case):
        """(gen, coupling, space, w0, z0) of one case; random seeds 1, 4
        and 10 carry a disturbance matrix P."""
        if case.startswith("random"):
            seed = int(case[len("random"):])
            gen, coupling, space = build_random_scenario(seed)
            assert any(coupling.p_entries.values())
            rng = np.random.default_rng(seed)
            w0 = ExoState(space, rng.standard_normal(len(space.modes))
                          + 1j * rng.standard_normal(len(space.modes)))
            z0 = SpectralVector(gen.modes,
                                1.0 / (1.0 + np.abs(gen.eigenvalues)))
            return gen, coupling, space, w0, z0
        cfg = self.CUSTOM if case == "custom" else ScenarioConfig(
            kind=case, n_plant=200, n_exo=200, w0_preset="square11",
            z0_preset="inv_mu_sq")
        gen, coupling, space = build_scenario(cfg)
        return (gen, coupling, space, resolve_w0(cfg, space),
                resolve_z0(cfg, gen))

    CASES = ["wave", "diagonal", "custom", "random1", "random4", "random10"]

    @staticmethod
    def record_blocks(monkeypatch, module):
        """The lists of slices ``module`` gets from ``_blocks``, call by
        call."""
        calls = []
        inner = regulator._blocks

        def recording(n_cols, n_rows):
            calls.append(inner(n_cols, n_rows))
            return calls[-1]

        monkeypatch.setattr(module, "_blocks", recording)
        return calls

    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_full_state_path(self, case, width, monkeypatch):
        gen, coupling, space, w0, z0 = self.states(case)
        if width is not None:  # several blocks of harmonics and of times
            monkeypatch.setattr(regulator, "_BLOCK_ENTRIES",
                                width * len(gen.modes))
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        t = np.geomspace(1e-2, 1e3, 512)
        ref = simulate_closed_loop(gen, coupling, gain, z0, w0, t)
        ref_dev = state_deviation_norms(ref, sol)

        image = steady_state_image(gen, coupling, gain, w0)
        np.testing.assert_allclose(
            image.pi_w0, sol.pi @ w0.coeffs, rtol=0,
            atol=1e-14 * (np.abs(sol.pi) @ np.abs(w0.coeffs)).max())
        np.testing.assert_allclose(
            image.mismatch, (coupling.c.coeffs @ sol.pi - 1.0) * w0.coeffs,
            rtol=0, atol=1e-14 * np.abs(w0.coeffs).max())
        blocks = self.record_blocks(monkeypatch, simulator)
        out = simulate_outputs(gen, coupling, gain, z0, image, t)
        if width is not None:  # two-row blocks, the last one included
            assert len(blocks[0]) == t.size // 2
            assert blocks[0][-1] == slice(t.size - 2, t.size)

        assert out.y_r.tobytes() == ref.y_r.tobytes()
        assert out.u.tobytes() == ref.u.tobytes()
        assert np.all(np.abs(out.e - ref.e) <= 1e-14 * np.abs(ref.e).max())
        assert np.all(np.abs(out.state_deviation - ref_dev)
                      <= 1e-12 * ref_dev + 1e-14 * ref_dev.max())
        np.testing.assert_allclose(out.y, ref.y, rtol=0,
                                   atol=1e-14 * np.abs(ref.y).max())

        # each row depends on its own time point only: one block of all
        # the time points gives the same bits
        monkeypatch.setattr(regulator, "_BLOCK_ENTRIES",
                            t.size * max(len(gen.modes), len(space.modes)))
        whole = simulate_outputs(gen, coupling, gain, z0, image, t)
        assert blocks[-1] == [slice(0, t.size)]
        for name in ("y", "y_r", "u", "e", "state_deviation"):
            assert getattr(out, name).tobytes() == getattr(whole, name).tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_envelope_blocks_change_no_bits(self, case, monkeypatch):
        gen = self.states(case)[0]
        t = np.geomspace(1e-2, 1e3, 512)
        blocks = self.record_blocks(monkeypatch, regulator)
        monkeypatch.setattr(regulator, "_BLOCK_ENTRIES", 2 * len(gen.modes))
        split = decay_envelope(gen, 1.0, t)
        monkeypatch.setattr(regulator, "_BLOCK_ENTRIES", t.size * len(gen.modes))
        whole = decay_envelope(gen, 1.0, t)
        assert [len(b) for b in blocks] == [t.size // 2, 1]
        for name in ("values", "argmax_modes", "boundary_mask"):
            assert getattr(split, name).tobytes() == getattr(whole, name).tobytes()

    def test_on_manifold_deviation_is_exactly_zero(self, diagonal):
        cfg, gen, coupling, space, gain, _ = diagonal
        w0 = resolve_w0(cfg, space)
        image = steady_state_image(gen, coupling, gain, w0)
        z0 = resolve_z0(replace(cfg, z0_preset="pi_w0"), gen,
                        pi_w0=image.pi_w0)
        out = simulate_outputs(gen, coupling, gain, z0, image,
                               np.geomspace(1e-2, 1e3, 64))
        assert np.all(out.state_deviation == 0.0)
        assert np.abs(out.e).max() <= 1e-14

    def test_harmonics_outside_the_support_are_not_visited(self, diagonal,
                                                           monkeypatch):
        cfg, gen, coupling, space, gain, sol = diagonal
        w0 = ExoState.unit(space, 3)
        visited = []
        inner = regulator._denominators

        def recording(gen_, omegas):
            visited.extend(omegas.tolist())
            return inner(gen_, omegas)

        monkeypatch.setattr(regulator, "_denominators", recording)
        image = steady_state_image(gen, coupling, gain, w0)
        assert visited == [space.omegas[space.modes.position(3)]]
        np.testing.assert_allclose(image.pi_w0,
                                   sol.pi[:, space.modes.position(3)],
                                   rtol=1e-15)


class TestErrorFormula:
    """The full-state error against e(t) = c . T(t)(z0 - Pi w0)
    + sum_k (c pi_k - 1) w0_k exp(i omega_k t) of the solved gain, the
    explicit expression that simulate_outputs evaluates."""

    @staticmethod
    def mismatch(diagonal, z0, t, run_gain=None):
        """Worst |e - formula| / (1 + |formula|), e from the full-state
        path under ``run_gain`` (the solved gain when None)."""
        cfg, gen, coupling, space, gain, _ = diagonal
        w0 = resolve_w0(cfg, space)
        e = simulate_closed_loop(gen, coupling, run_gain or gain, z0, w0, t).e
        image = steady_state_image(gen, coupling, gain, w0)
        formula = simulate_outputs(gen, coupling, gain, z0, image, t).e
        return float(np.max(np.abs(e - formula) / (1.0 + np.abs(formula))))

    def test_solved_run_matches_formula(self, diagonal):
        cfg, gen = diagonal[:2]
        assert self.mismatch(diagonal, resolve_z0(cfg, gen),
                             np.geomspace(1e-2, 100.0, 100)) <= 1e-9

    def test_on_manifold_reduces_to_output_mismatch(self, diagonal):
        cfg, gen, _, space, _, sol = diagonal
        z0 = SpectralVector(gen.modes, sol.pi @ resolve_w0(cfg, space).coeffs)
        assert self.mismatch(diagonal, z0, np.linspace(0.0, 30.0, 50)) <= 1e-12

    def test_corrupted_gain_detected(self, diagonal):
        cfg, gen, coupling, space, _, _ = diagonal
        w0 = resolve_w0(cfg, space)
        k_pos = space.modes.position(1)
        grid = frequency_grid(gen, coupling, space)
        bad_gain = build_feedforward(grid)
        delta = 0.05
        bad_gain.ell = bad_gain.ell.copy()
        bad_gain.ell[k_pos] += delta
        mismatch = self.mismatch(diagonal, resolve_z0(cfg, gen),
                                 np.geomspace(1.0, 200.0, 120), bad_gain)
        injected = delta * abs(grid.h[k_pos]) * abs(w0.coeffs[k_pos])
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
        z0 = resolve_z0(cfg, gen)
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
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        w0 = resolve_w0(cfg, space)
        z0 = resolve_z0(cfg, gen)
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


class TestPolynomiallyStableCustom:
    """``kind = custom`` plants with Re mu_n = -c (1+n)**-alpha decay
    polynomially, so ``decay`` reaches the nominal-rate check, which no
    exponentially stable random scenario does."""

    @staticmethod
    def config_text(n, alpha, u, powers, n_exo, period):
        """Modes n = 0..N-1 with mu_n = -c (1+n)**-alpha + i (1+n), and
        power-law b, c and w0. With c = m**alpha / 1000, m between
        2 * 100**(1/alpha) and N/2, the order (c t)**(1/alpha) of the mode
        that dominates the semigroup envelope stays between 2 and N/2 on
        the default window [10, 1000]."""
        lo, hi = 2.0 * 100.0 ** (1.0 / alpha), n / 2.0
        c = (lo * (hi / lo) ** u) ** alpha / 1000.0
        m = 1.0 + np.arange(n)
        k = np.arange(-n_exo, n_exo + 1)

        def spell(values):
            return ", ".join(repr(complex(v)) for v in values)

        return (f"[scenario]\nkind = custom\n"
                f"eigenvalues = {spell(-c * m ** -alpha + 1j * m)}\n"
                f"b = {spell(m ** -powers[0])}\nc = {spell(m ** -powers[1])}\n"
                f"n_exo = {n_exo}\nperiod = {period!r}\nalpha = {alpha!r}\n"
                f"w0_list = {spell((1.0 + np.abs(k)) ** -powers[2])}\n"
                f"z0_preset = inv_mu_sq\n")

    @settings(deadline=None, max_examples=8)
    @given(n=st.integers(48, 64), alpha=st.floats(2.0, 3.0),
           u=st.floats(0.0, 1.0),
           powers=st.tuples(*[st.floats(0.5, 2.0)] * 3),
           n_exo=st.integers(2, 8), period=st.floats(3.0, 10.0))
    def test_regulated_and_nominal_rate_reached(self, n, alpha, u, powers,
                                                n_exo, period):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(self.config_text(n, alpha, u, powers, n_exo,
                                             period))
            cfg = load_config(path)
            gen, coupling, space = build_scenario(cfg.scenario)
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            sol = solve_regulator(gen, coupling, gain, space)
            assert residual_first_equation(sol, gen, coupling, gain,
                                           space) <= 1e-10
            assert residual_second_equation(sol, coupling, space) <= 1e-10

            w0 = resolve_w0(cfg.scenario, space)
            z0 = resolve_z0(cfg.scenario, gen)
            t = cfg.sim.grid()
            ref = simulate_closed_loop(gen, coupling, gain, z0, w0, t)
            ref_dev = state_deviation_norms(ref, sol)
            out = simulate_outputs(gen, coupling, gain, z0,
                                   steady_state_image(gen, coupling, gain, w0),
                                   t)
            assert out.y_r.tobytes() == ref.y_r.tobytes()
            assert out.u.tobytes() == ref.u.tobytes()
            assert np.all(np.abs(out.e - ref.e) <= 1e-14 * np.abs(ref.e).max())
            assert np.all(np.abs(out.state_deviation - ref_dev)
                          <= 1e-12 * ref_dev + 1e-14 * ref_dev.max())

            assert main(["decay", "--config", str(path),
                         "--out", str(Path(tmp) / "out")]) in (0, 1)
            report = (Path(tmp) / "out" / "decay_report.txt").read_text()
        assert "flagged superpolynomial" not in report
        assert re.search(r"\n  nominal 1/alpha = \S+: PASS", report)
