"""Frequency-response data, design assumptions, gains, and the spectral
solution of the regulator equations."""

import math

import numpy as np
import pytest
from oracles import (first_residual_one_shot, frequency_grid_one_shot,
                     naive_transfer_value, power_iteration_norm)

import modalreg.regulator as regulator
from modalreg.errors import AssumptionFailure, SingularResolventError
from modalreg.exosystem import ExoState
from modalreg.regulator import (ModalCoupling, build_feedforward,
                                check_assumption1, check_assumption2,
                                control_signal, forcing_matrix, frequency_grid,
                                residual_first_equation,
                                residual_second_equation, solve_regulator)
from modalreg.scenarios import (ScenarioConfig, build_diagonal_scenario,
                                build_random_scenario, build_wave_scenario)
from modalreg.spectral import SpectralVector


@pytest.fixture(scope="module")
def diagonal():
    cfg = ScenarioConfig(kind="diagonal", n_plant=40, n_exo=40)
    return build_diagonal_scenario(cfg)


@pytest.fixture(scope="module")
def wave_resonant():
    cfg = ScenarioConfig(kind="wave", n_plant=120, n_exo=50, period=2.0)
    return build_wave_scenario(cfg)


class TestTransferFunction:
    """H(i omega_k) as the frequency grid holds it."""

    def test_diagonal_closed_form(self, diagonal):
        gen, coupling, space = diagonal
        h = frequency_grid(gen, coupling, space).h
        for k in (-7, 0, 3, 40):
            omega = 2.0 * math.pi * k / space.period
            assert h[space.modes.position(k)] == pytest.approx(
                1.0 / (1.0 + 1j * omega), rel=1e-13)

    def test_unit_frequency_value(self, diagonal):
        gen, coupling, space = diagonal
        assert space.omegas[space.modes.position(1)] == 1.0
        h = frequency_grid(gen, coupling, space).h
        assert h[space.modes.position(1)] == pytest.approx(0.5 - 0.5j,
                                                          rel=1e-13)

    def test_wave_matches_reversed_summation_oracle(self, wave_resonant):
        gen, coupling, space = wave_resonant
        h = frequency_grid(gen, coupling, space).h
        for k in (0, 1, 9, 20):
            omega = 2.0 * math.pi * k / space.period
            oracle = naive_transfer_value(gen.eigenvalues, coupling.b.coeffs,
                                          coupling.c.coeffs, 1j * omega)
            assert abs(h[space.modes.position(k)] - oracle) <= 1e-12


class TestDisturbanceTransfer:
    """H_d(k) as the frequency grid holds it."""

    def test_zero_disturbance(self, diagonal):
        gen, coupling, space = diagonal
        assert np.all(frequency_grid(gen, coupling, space).hd == 0.0)

    def test_input_shaped_column_reproduces_transfer(self, diagonal):
        gen, base, space = diagonal
        k = 3
        entries = {(int(n), k): complex(base.b.coeffs[base.modes.position(n)])
                   for n in base.modes
                   if base.b.coeffs[base.modes.position(n)] != 0}
        coupling = ModalCoupling(b=base.b, c=base.c, p_entries=entries)
        grid = frequency_grid(gen, coupling, space)
        j = space.modes.position(k)
        assert grid.hd[j] == pytest.approx(grid.h[j], rel=1e-13)

    def test_single_entry_value(self, diagonal):
        gen, base, space = diagonal
        coupling = ModalCoupling(b=base.b, c=base.c, p_entries={(0, 1): 1.0})
        omega1 = 2.0 * math.pi / space.period
        hd = frequency_grid(gen, coupling, space).hd
        assert hd[space.modes.position(1)] == pytest.approx(
            1.0 / (1.0 + 1j * omega1), rel=1e-13)
        assert np.count_nonzero(hd) == 1


class TestDisturbanceEncoding:
    """P is validated and stored once, read-only; entries at harmonics
    outside the retained exosystem range contribute nothing."""

    def test_entries_read_only(self, diagonal):
        _, base, _ = diagonal
        entries = {(0, 1): 0.5}
        coupling = ModalCoupling(b=base.b, c=base.c, p_entries=entries)
        with pytest.raises(TypeError):
            coupling.p_entries[(0, 2)] = 1.0
        entries[(0, 2)] = 1.0  # the caller's dict is copied, not kept
        assert dict(coupling.p_entries) == {(0, 1): 0.5}

    def test_entry_outside_plant_range_rejected(self, diagonal):
        _, base, _ = diagonal
        with pytest.raises(ValueError, match="plant mode 99"):
            ModalCoupling(b=base.b, c=base.c, p_entries={(99, 1): 1.0})

    def test_entry_outside_exo_range_ignored(self, diagonal):
        gen, base, space = diagonal
        inside = {(0, 1): 0.5, (3, -2): 0.25j}
        outside = {**inside, (2, space.modes.hi + 5): 7.0}
        ref = ModalCoupling(b=base.b, c=base.c, p_entries=inside)
        coupling = ModalCoupling(b=base.b, c=base.c, p_entries=outside)
        assert len(coupling.p_entries) == 3
        grid, grid_ref = (frequency_grid(gen, cp, space)
                          for cp in (coupling, ref))
        np.testing.assert_array_equal(grid.hd, grid_ref.hd)
        gain, gain_ref = build_feedforward(grid), build_feedforward(grid_ref)
        np.testing.assert_array_equal(gain.ell, gain_ref.ell)
        np.testing.assert_array_equal(forcing_matrix(coupling, gain, space),
                                      forcing_matrix(ref, gain_ref, space))
        sol = solve_regulator(gen, coupling, gain, space)
        np.testing.assert_array_equal(
            sol.pi, solve_regulator(gen, ref, gain_ref, space).pi)
        assert residual_first_equation(sol, gen, coupling, gain,
                                       space) <= 1e-10
        assert residual_second_equation(sol, coupling, space) <= 1e-10


class TestBlockedGrid:
    """The grid and the first residual are computed one block of harmonics
    at a time; at any block width they equal the one-shot computation bit
    for bit."""

    SCENARIOS = [("wave", None), ("random", 1), ("random", 4), ("random", 10)]

    @staticmethod
    def scenario(kind, seed):
        if kind == "wave":
            return build_wave_scenario(ScenarioConfig(
                kind="wave", n_plant=60, n_exo=100, period=2.0))
        return build_random_scenario(seed)

    @pytest.mark.parametrize("kind, seed", SCENARIOS)
    @pytest.mark.parametrize("width", [2, 3, 7, 523])
    def test_matches_one_shot(self, kind, seed, width, monkeypatch):
        gen, coupling, space = self.scenario(kind, seed)
        # widths 2 and 7 leave a one-column remainder on some of these
        # harmonic counts (201, 9, 13)
        monkeypatch.setattr(regulator, "_BLOCK_ENTRIES", width * len(gen.modes))
        grid = frequency_grid(gen, coupling, space)
        for got, want in zip((grid.h, grid.hd, grid.gaps),
                             frequency_grid_one_shot(gen, coupling, space)):
            assert got.tobytes() == want.tobytes()
        gain = build_feedforward(grid)
        sol = solve_regulator(gen, coupling, gain, space)
        forcing = forcing_matrix(coupling, gain, space)
        assert residual_first_equation(sol, gen, coupling, gain, space) == \
            first_residual_one_shot(sol.pi, gen, forcing, space)

    def test_blocks_cover_positions_in_order(self, monkeypatch):
        monkeypatch.setattr(regulator, "_BLOCK_ENTRIES", 30)
        for n in range(1, 12):
            blocks = regulator._blocks(n, 10)  # width 3
            assert [j for b in blocks for j in range(n)[b]] == list(range(n))
            assert n < 2 or min(b.stop - b.start for b in blocks) >= 2

    def test_exact_hit_in_later_block_raises(self, monkeypatch):
        gen, coupling, space = self.scenario("wave", None)
        monkeypatch.setattr(regulator, "_BLOCK_ENTRIES", 7 * len(gen.modes))
        k_pos = len(space.modes) - 3  # in the last block
        n_pos = gen.modes.position(5)
        gen.eigenvalues[n_pos] = 1j * space.omegas[k_pos]
        with pytest.raises(SingularResolventError) as err:
            frequency_grid(gen, coupling, space)
        assert err.value.mode == 5


class TestAssumption1:
    def test_diagonal_magnitudes(self, diagonal):
        gen, coupling, space = diagonal
        report = check_assumption1(frequency_grid(gen, coupling, space))
        assert report.passed
        omega_max = 2.0 * math.pi * 40 / space.period
        assert report.min_magnitude == pytest.approx(
            1.0 / math.hypot(1.0, omega_max), rel=1e-12)
        assert abs(report.argmin_mode) == 40

    def test_zero_output_fails(self, diagonal):
        gen, base, space = diagonal
        coupling = ModalCoupling(b=base.b, c=SpectralVector.zeros(base.modes))
        report = check_assumption1(frequency_grid(gen, coupling, space),
                                   floor=1e-8)
        assert not report.passed
        assert report.min_magnitude == 0.0

    def test_resonant_gaps_annotated(self, wave_resonant):
        gen, coupling, space = wave_resonant
        report = check_assumption1(frequency_grid(gen, coupling, space))
        # at period 2 the harmonic k sits pi nu / k**2 away from mode k
        pos = space.modes.position(9)
        assert report.resolvent_gaps[pos] == pytest.approx(math.pi / 81.0,
                                                           rel=1e-12)
        assert report.passed


class TestFeedforward:
    def test_diagonal_gains_invert_response(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        np.testing.assert_allclose(gain.ell, 1.0 + 1j * space.omegas,
                                   rtol=1e-12)

    def test_no_disturbance_means_pure_inverse(self, wave_resonant):
        gen, coupling, space = wave_resonant
        grid = frequency_grid(gen, coupling, space)
        gain = build_feedforward(grid)
        np.testing.assert_allclose(gain.ell, 1.0 / grid.h, rtol=1e-13)
        assert np.all(grid.hd == 0)

    def test_unit_disturbance_response_zeroes_gain(self, diagonal):
        gen, base, space = diagonal
        # p column equal to (1 + i omega_k) b makes H_d(k) = 1 exactly
        entries = {(0, int(k)): 1.0 + 1j * space.omegas[space.modes.position(k)]
                   for k in space.modes}
        coupling = ModalCoupling(b=base.b, c=base.c, p_entries=entries)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        np.testing.assert_allclose(gain.ell, 0.0, atol=1e-12)

    def test_floor_enforcement(self, diagonal):
        # the floor is Assumption 1's test; the gain build applies none,
        # but an exact zero cannot be inverted
        gen, base, space = diagonal
        coupling = ModalCoupling(b=base.b, c=SpectralVector.zeros(base.modes))
        with pytest.raises(AssumptionFailure,
                           match=f"vanishes exactly at harmonic {space.modes.lo}"):
            build_feedforward(frequency_grid(gen, coupling, space))

    def test_one_grid_serves_assumption_gain_and_solve(self, wave_resonant):
        gen, coupling, space = wave_resonant
        grid = frequency_grid(gen, coupling, space)
        report = check_assumption1(grid)
        gain = build_feedforward(grid)
        assert report.resolvent_gaps is grid.gaps
        fresh = build_feedforward(frequency_grid(gen, coupling, space))
        np.testing.assert_array_equal(gain.ell, fresh.ell)
        np.testing.assert_array_equal(
            solve_regulator(gen, coupling, gain, space).pi,
            solve_regulator(gen, coupling, fresh, space).pi)

    def test_gain_transfer_consistency(self, wave_resonant):
        gen, coupling, space = wave_resonant
        grid = frequency_grid(gen, coupling, space)
        identity = grid.h * build_feedforward(grid).ell + grid.hd
        np.testing.assert_allclose(identity, 1.0, rtol=0, atol=1e-12)


class TestAssumption2:
    @pytest.mark.parametrize("gamma,verdict", [(2.0, "summable"),
                                               (1.25, "divergent")])
    def test_weight_exponent_boundary(self, gamma, verdict):
        cfg = ScenarioConfig(kind="diagonal", n_plant=200, n_exo=200,
                             gamma=gamma)
        gen, coupling, space = build_diagonal_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        report = check_assumption2(gain, space)
        assert report.verdict == verdict
        # terms are (1 + omega**2)**(1 - gamma)
        assert report.tail.exponent == pytest.approx(2.0 * (1.0 - gamma),
                                                     abs=0.05)
        assert report.partial_sums[-1] == pytest.approx(report.total)
        assert np.all(np.diff(report.partial_sums) >= 0)

    def test_zero_gain_sequence(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        gain.ell = np.zeros_like(gain.ell)
        report = check_assumption2(gain, space)
        assert report.verdict == "summable"
        assert report.total == 0.0


class TestRegulatorSolve:
    def test_diagonal_steady_state_is_rank_one(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        row0 = gen.modes.position(0)
        np.testing.assert_allclose(sol.pi[row0, :], 1.0, rtol=1e-12)
        others = np.delete(sol.pi, row0, axis=0)
        assert np.all(others == 0)

    def test_zero_forcing_gives_zero_map(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        gain.ell = np.zeros_like(gain.ell)
        sol = solve_regulator(gen, coupling, gain, space)
        assert np.all(sol.pi == 0)
        assert sol.operator_norm_estimate == 0.0

    def test_columns_equal_resolvent_application(self, wave_resonant):
        gen, coupling, space = wave_resonant
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        forcing = forcing_matrix(coupling, gain, space)
        for k in (-11, 0, 9):
            j = space.modes.position(k)
            resolvent = forcing[:, j] / (1j * space.omegas[j] - gen.eigenvalues)
            np.testing.assert_array_equal(sol.pi[:, j], resolvent)

    def test_norm_estimate_matches_plain_power_iteration(self, wave_resonant):
        gen, coupling, space = wave_resonant
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        assert sol.operator_norm_estimate == power_iteration_norm(
            sol.pi, space.weights)

    def test_norm_estimate_computed_on_first_access_only(self, diagonal,
                                                         monkeypatch):
        import modalreg.regulator as regulator

        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        calls = []
        inner = regulator._weighted_norm_estimate

        def counting(pi, weights):
            calls.append(pi.shape)
            return inner(pi, weights)

        monkeypatch.setattr(regulator, "_weighted_norm_estimate", counting)
        sol = solve_regulator(gen, coupling, gain, space)
        assert calls == []
        first = sol.operator_norm_estimate
        assert sol.operator_norm_estimate == first
        assert len(calls) == 1

    def test_norm_estimate_matches_svd(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        exact = np.linalg.svd(sol.pi / space.weights[None, :],
                              compute_uv=False)[0]
        assert sol.operator_norm_estimate == pytest.approx(exact, rel=1e-6)


class TestResiduals:
    def test_solved_residuals_at_rounding_level(self, wave_resonant):
        gen, coupling, space = wave_resonant
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        assert residual_first_equation(sol, gen, coupling, gain, space) <= 1e-10
        assert residual_second_equation(sol, coupling, space) <= 1e-10

    def test_injected_fault_detected(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        n_pos, k_pos = gen.modes.position(2), space.modes.position(5)
        sol.pi[n_pos, k_pos] += 1e-3
        expected = 1e-3 * abs(1j * space.omegas[k_pos]
                              - gen.eigenvalues[n_pos]) \
            / (1.0 + np.linalg.norm(sol.pi[:, k_pos]))
        res = residual_first_equation(sol, gen, coupling, gain, space)
        assert res == pytest.approx(expected, rel=1e-6)

    def test_zero_map_residual_is_forcing_norm(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        sol.pi = np.zeros_like(sol.pi)
        expected = np.linalg.norm(forcing_matrix(coupling, gain, space),
                                  axis=0).max()
        res = residual_first_equation(sol, gen, coupling, gain, space)
        assert res == pytest.approx(expected, rel=1e-12)

    def test_two_resolution_mismatch_reported(self):
        # slow 1/(1+|n|) input tail so the truncation gap is visible
        from modalreg.exosystem import ExoSpace
        from modalreg.spectral import DiagonalGenerator, ModeRange

        def plant(n):
            modes = ModeRange.symmetric(n)
            j = modes.indices.astype(float)
            gen = DiagonalGenerator(modes, -1.0 / (1.0 + np.abs(j)) + 1j * j)
            coeffs = 1.0 / (1.0 + np.abs(j))
            coupling = ModalCoupling(
                b=SpectralVector(modes, coeffs.astype(complex)),
                c=SpectralVector(modes, coeffs.astype(complex)))
            return gen, coupling

        space = ExoSpace.power_weights(2.0 * math.pi, ModeRange.symmetric(10),
                                       2.0)
        gain_fine = build_feedforward(frequency_grid(*plant(240), space))
        gen_c, coupling_c = plant(120)
        sol = solve_regulator(gen_c, coupling_c, gain_fine, space)
        res = residual_second_equation(sol, coupling_c, space)
        # oracle: with no disturbance the column output is H_coarse * ell_fine
        h_coarse = np.array([
            naive_transfer_value(gen_c.eigenvalues, coupling_c.b.coeffs,
                                 coupling_c.c.coeffs, 1j * om)
            for om in space.omegas])
        expected = np.abs(h_coarse * gain_fine.ell - 1.0).max()
        assert res == pytest.approx(expected, rel=1e-12)
        assert res > 1e-8  # the truncation gap is visible, not hidden

    def test_randomized_scenarios_property(self):
        for seed in range(20):
            gen, coupling, space = build_random_scenario(seed)
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            sol = solve_regulator(gen, coupling, gain, space)
            assert residual_first_equation(sol, gen, coupling, gain,
                                           space) <= 1e-10
            assert residual_second_equation(sol, coupling, space) <= 1e-10


class TestControlSignal:
    def test_zero_state(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        w0 = ExoState.zeros(space)
        assert control_signal(gain, w0, 2.7) == 0.0

    def test_single_harmonic_matches_gain_phase(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=10, n_exo=10,
                             period=2.0 * math.pi)
        gen, coupling, space = build_diagonal_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        w0 = ExoState.unit(space, 1)
        for t in (0.0, 0.4, 2.0):
            expected = (1.0 + 1j) * np.exp(1j * t)
            assert control_signal(gain, w0, t) == pytest.approx(expected,
                                                                rel=1e-12)

    def test_periodic_in_the_signal_period(self, diagonal):
        gen, coupling, space = diagonal
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        rng = np.random.default_rng(2)
        w0 = ExoState(space, rng.standard_normal(len(space.modes)) + 0j)
        u0 = control_signal(gain, w0, 1.1)
        u1 = control_signal(gain, w0, 1.1 + space.period)
        assert abs(u1 - u0) <= 1e-12 * max(1.0, abs(u0))
