"""Integral representation of the steady-state map and its diagnostics."""

import math

import numpy as np
import pytest
from oracles import (analytic_tails_whole, conformity_per_column,
                     trapezoid_column)
from paper import lemma_identity_check

import modalreg.sylvester as sylvester
from modalreg.errors import ModeMismatchError
from modalreg.exosystem import ExoSpace, ExoState
from modalreg.regulator import (FeedforwardGain, ModalCoupling,
                                build_feedforward, forcing_matrix,
                                frequency_grid, solve_regulator)
from modalreg.scenarios import (ScenarioConfig, build_custom_scenario,
                                build_diagonal_scenario, build_random_scenario,
                                build_wave_scenario)
from modalreg.spectral import DiagonalGenerator, ModeRange, SpectralVector
from modalreg.sylvester import (DEFAULT_HORIZONS, QuadratureSpec,
                                _tail_trend_verdict, check_b_regularity,
                                conformity_diagnostic, quadrature_pi_column)


def single_mode_gen(mu):
    return DiagonalGenerator(ModeRange(0, 0), np.array([mu], dtype=complex))


def constant_gain(modes, ell):
    return FeedforwardGain(modes, np.full(len(modes), ell, dtype=complex))


def forcing_operator(b, space, ell=1.0, p_entries=None):
    """The forcing operator b ell + P as the (coupling, gain) pair the
    diagnostics take; they never read the output row."""
    coupling = ModalCoupling(b=b, c=SpectralVector.zeros(b.modes),
                             p_entries=p_entries or {})
    return coupling, constant_gain(space.modes, ell)


class TestQuadratureColumn:
    def test_unit_decay_integrates_to_one(self):
        gen = single_mode_gen(-1.0 + 0j)
        col, report = quadrature_pi_column(
            gen, SpectralVector.unit(gen.modes, 0), 0.0)
        assert col.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        tails = [report.tail_norms[h] for h in sorted(report.tail_norms)]
        assert all(b < a for a, b in zip(tails, tails[1:]))
        assert report.verdict == "conform-trend"

    def test_limit_equals_resolvent_columns(self):
        for build, cfg in ((build_wave_scenario,
                            ScenarioConfig(kind="wave", n_plant=120, n_exo=20,
                                           period=2.0 * math.pi)),
                           (build_diagonal_scenario,
                            ScenarioConfig(kind="diagonal", n_plant=120,
                                           n_exo=20))):
            gen, coupling, space = build(cfg)
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            sol = solve_regulator(gen, coupling, gain, space)
            forcing = forcing_matrix(coupling, gain, space)
            for k in (-5, 0, 5):
                omega = 2.0 * math.pi * k / space.period
                j = space.modes.position(k)
                qcol, _ = quadrature_pi_column(
                    gen, SpectralVector(gen.modes, forcing[:, j]), omega)
                rcol = SpectralVector(gen.modes, sol.pi[:, j])
                assert (qcol - rcol).norm <= 1e-6 * rcol.norm

    def test_remainder_at_final_horizon_is_exact(self):
        # difference from the limit must equal the dropped exponential tail
        gen = single_mode_gen(-0.02 + 3j)
        d = SpectralVector.unit(gen.modes, 0)
        omega = 1.0
        spec = QuadratureSpec(horizons=(5.0, 10.0, 20.0))
        col, _ = quadrature_pi_column(gen, d, omega, spec)
        mu = gen.eigenvalues[0]
        limit = 1.0 / (1j * omega - mu)
        remainder = np.exp((mu - 1j * omega) * 20.0) / (1j * omega - mu)
        assert col.coeffs[0] == pytest.approx(limit - remainder, rel=1e-13)

    def test_numeric_matches_analytic(self):
        gen = single_mode_gen(-1.0 + 0j)
        d = SpectralVector.unit(gen.modes, 0)
        analytic, _ = quadrature_pi_column(
            gen, d, 1.0, QuadratureSpec(horizons=(50.0,)))
        numeric, _ = trapezoid_column(gen.eigenvalues, d.coeffs, 1.0,
                                      (50.0,), step=1e-3)
        assert abs(numeric[0] - analytic.coeffs[0]) <= 1e-6

    def test_geometric_tails_for_uniformly_damped_spectra(self):
        # uniform damping floor a: per-entry increments contract by at least
        # exp(-a dt) * 2 / (1 - exp(-a dt)) per doubling
        rng = np.random.default_rng(42)
        for trial in range(5):
            modes = ModeRange.symmetric(6)
            # keep the slowest rate below ~1 so the last octave increment
            # stays above the underflow floor exp(-745)
            a = 0.25 + rng.uniform(0.0, 0.6)
            mu = -a - rng.uniform(0.0, 0.15, len(modes)) \
                + 1j * rng.uniform(-5.0, 5.0, len(modes))
            gen = DiagonalGenerator(modes, mu)
            d = SpectralVector(modes, rng.standard_normal(len(modes))
                               + 1j * rng.standard_normal(len(modes)))
            _, report = quadrature_pi_column(gen, d, 0.7)
            horizons = sorted(report.tail_norms)
            tails = np.array([report.tail_norms[h] for h in horizons])
            assert np.all(np.diff(tails) < 0)
            for j in range(1, len(tails) - 1):
                dt = horizons[j] - horizons[j - 1]
                bound = math.exp(-a * dt) * 2.0 / (1.0 - math.exp(-a * dt))
                assert tails[j + 1] <= tails[j] * bound * (1.0 + 1e-9)
            assert report.verdict == "conform-trend"


class TestConformity:
    def test_wave_rank_one_forcing_is_conform(self):
        cfg = ScenarioConfig(kind="wave", n_plant=200, n_exo=30, period=2.0)
        gen, coupling, space = build_wave_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        report = conformity_diagnostic(gen, coupling, gain, space, alpha=2.0,
                                       eps=0.25)
        assert report.verdict == "conform-trend"
        ev = report.sufficient_condition
        assert ev.beta == 2.25
        assert ev.worst_tail.verdict == "summable"
        assert ev.worst_tail.exponent == pytest.approx(-1.5, abs=0.1)
        assert np.isfinite(ev.sup_bound)

    def test_rough_columns_are_not_conform(self):
        cfg = ScenarioConfig(kind="wave", n_plant=200, n_exo=10, period=2.0)
        gen, _, space = build_wave_scenario(cfg)
        # every column is the same rough input column
        rough = SpectralVector(gen.modes,
                               1.0 / np.abs(gen.eigenvalues) ** 0.1 + 0j)
        report = conformity_diagnostic(gen, *forcing_operator(rough, space),
                                       space, alpha=2.0, eps=0.25)
        assert report.verdict == "non-conform-trend"
        assert report.sufficient_condition.worst_tail.verdict == "divergent"

    def test_zero_forcing_trivially_conform(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=30, n_exo=10)
        gen, _, space = build_diagonal_scenario(cfg)
        report = conformity_diagnostic(
            gen, *forcing_operator(SpectralVector.zeros(gen.modes), space),
            space, alpha=1.0, eps=0.5)
        assert report.verdict == "conform-trend"
        assert report.sufficient_condition.sup_bound == 0.0

    @pytest.mark.parametrize("build, cfg", [
        (build_wave_scenario, ScenarioConfig(kind="wave", n_plant=200,
                                             n_exo=30, period=2.0)),
        (build_diagonal_scenario, ScenarioConfig(kind="diagonal", n_plant=40,
                                                 n_exo=40)),
    ], ids=["wave", "diagonal"])
    def test_trend_is_the_input_column_trend(self, build, cfg):
        # without P every forcing column is ell_k b, so conformity's
        # mode-sum trend is the trend of b in D((-A)**(alpha + eps))
        gen, coupling, space = build(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        alpha, eps = 2.0, 0.25
        report = conformity_diagnostic(gen, coupling, gain, space, alpha, eps)
        breg = check_b_regularity(gen, coupling.b, [alpha + eps])
        assert (report.sufficient_condition.worst_tail
                == breg.entries[alpha + eps].tail)

    def test_regular_rank_one_implies_conform(self):
        # whenever the input column is regular at alpha + eps and the
        # weighted gains are summable, rank-one forcing must be conform
        for seed in range(8):
            gen, coupling, space = build_random_scenario(seed)
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            alpha, eps = 1.0, 0.25
            breg = check_b_regularity(gen, coupling.b, [alpha + eps])
            rank_one = ModalCoupling(b=coupling.b, c=coupling.c)  # P dropped
            report = conformity_diagnostic(gen, rank_one, gain, space, alpha,
                                           eps)
            if breg.entries[alpha + eps].tail.verdict == "summable":
                assert report.verdict == "conform-trend"


def _disturbance_off_the_input_column():
    """Custom plant whose input column vanishes on the odd modes, where P
    puts its entries; harmonic 2 takes two of them, and the entry on the
    last mode changes the tail its column fits."""
    n = np.arange(30)
    b = np.where(n % 2 == 0, 1.0 / (1.0 + n) ** 4, 0.0)
    return build_custom_scenario(ScenarioConfig(
        kind="custom", n_exo=10, eigenvalues=-0.5 / (1.0 + n) + 1j * (n + 0.5),
        b=b, c=b, p_entries={(3, 2): 0.5 + 0.2j, (7, 2): -0.3j, (11, -4): 1.0,
                             (29, 5): 0.7}))


def _random_with_disturbance():
    for seed in range(20):
        scenario = build_random_scenario(seed)
        if scenario[1].p_entries:
            return scenario
    raise AssertionError("no random scenario with a disturbance matrix")


class TestBatchedConformity:
    """conformity_diagnostic processes all harmonics together; the
    per-column loop in the oracle is the reference."""

    SCENARIOS = [
        lambda: build_wave_scenario(ScenarioConfig(kind="wave", n_plant=200,
                                                   n_exo=30, period=2.0)),
        lambda: build_diagonal_scenario(ScenarioConfig(kind="diagonal",
                                                       n_plant=40, n_exo=40)),
        _random_with_disturbance,
        _disturbance_off_the_input_column,
    ]
    SCENARIO_IDS = ["wave_resonant", "diagonal", "random_disturbed",
                    "disturbance_off_b"]

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
    def test_matches_per_column_oracle(self, scenario):
        gen, coupling, space = scenario()
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        alpha, eps, spec = 2.0, 0.25, QuadratureSpec()
        report = conformity_diagnostic(gen, coupling, gain, space, alpha, eps,
                                       spec)
        forcing = forcing_matrix(coupling, gain, space)
        agg, bounds, worst = conformity_per_column(gen, forcing, space,
                                                   alpha + eps, spec)
        got = np.array([report.tail_norms[h] for h in spec.horizons])
        np.testing.assert_allclose(got, agg, rtol=1e-12, atol=0.0)
        ev = report.sufficient_condition
        assert ev.column_bounds.keys() == bounds.keys()
        np.testing.assert_allclose(list(ev.column_bounds.values()),
                                   list(bounds.values()), rtol=1e-12, atol=0.0)
        sup_k = max(bounds, key=lambda k: bounds[k])
        assert (ev.argmax_mode, ev.sup_bound) == (sup_k, bounds[sup_k])
        assert ev.worst_tail.verdict == worst.verdict
        assert ev.worst_tail.exponent == pytest.approx(worst.exponent,
                                                       rel=1e-12)
        if worst.verdict == "divergent":
            expected = "non-conform-trend"
        elif (worst.verdict == "summable" and _tail_trend_verdict(
                spec.horizons, agg) == "conform-trend"):
            expected = "conform-trend"
        else:
            expected = "inconclusive"
        assert report.verdict == expected

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
    def test_buffered_tails_match_whole_arrays(self, scenario, monkeypatch):
        gen, coupling, space = scenario()
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        forcing = forcing_matrix(coupling, gain, space)
        n_rows = int(np.any(forcing != 0, axis=1).sum())
        # blocks of 7 harmonics: no one-column block, which numpy would sum
        # pairwise, on 61, 81 or the random scenario's 13 harmonics
        monkeypatch.setattr(sylvester, "_BLOCK_ENTRIES", 7 * n_rows)
        assert len(space.modes) % 7 != 1
        got = sylvester._analytic_tails(gen, forcing, space.omegas,
                                        DEFAULT_HORIZONS)
        want = analytic_tails_whole(gen, forcing, space.omegas,
                                    DEFAULT_HORIZONS)
        assert got.tobytes() == want.tobytes()

    def test_zeroed_columns_have_zero_bounds(self):
        gen, coupling, space = _random_with_disturbance()
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        gain.ell[1::2] = 0.0
        odd = set(space.modes.indices[1::2].tolist())
        sparse = ModalCoupling(b=coupling.b, c=coupling.c, p_entries={
            nk: v for nk, v in coupling.p_entries.items() if nk[1] not in odd})
        report = conformity_diagnostic(gen, sparse, gain, space, 1.0, 0.25)
        bounds = list(report.sufficient_condition.column_bounds.values())
        assert bounds[1::2] == [0.0] * (len(bounds) // 2)
        assert any(bounds[0::2])

    def test_analytic_tails_match_trapezoid_oracle(self):
        # the closed-form horizon tails that `check` reports, against a
        # composite trapezoid of the same integrals
        gen = DiagonalGenerator(ModeRange(-2, 2),
                                np.array([-0.5 + 1j, -0.3 - 2j, -1.0,
                                          -0.4 + 0.5j, -0.6 - 1j]))
        space = ExoSpace.power_weights(2.0 * math.pi, ModeRange.symmetric(2),
                                       2.0)
        rng = np.random.default_rng(5)
        # one column of 5 plant modes per harmonic, drawn column by column,
        # held as a dense disturbance matrix next to a zero input column
        forcing = (rng.standard_normal((len(space.modes), 5)) + 1j).T
        entries = {(int(n), int(k)): forcing[i, j]
                   for i, n in enumerate(gen.modes.indices)
                   for j, k in enumerate(space.modes.indices)}
        coupling, gain = forcing_operator(SpectralVector.zeros(gen.modes),
                                          space, p_entries=entries)
        spec = QuadratureSpec(horizons=(2.0, 4.0, 8.0))
        report = conformity_diagnostic(gen, coupling, gain, space, 1.0, 0.25,
                                       spec)
        want = np.array([trapezoid_column(gen.eigenvalues, forcing[:, j], om,
                                          spec.horizons, step=1e-4)[1]
                         for j, om in enumerate(space.omegas)]).T
        # the trapezoid's relative error is about step**2 / 12 times the
        # largest |mu_n - i omega_k|**2, 1.3e-8 here; the per-column tails
        # are checked too, since the f-scaled maximum is the k = 0 column's
        np.testing.assert_allclose(
            sylvester._analytic_tails(gen, forcing, space.omegas,
                                      spec.horizons), want, rtol=1e-7, atol=0.0)
        got = np.array([report.tail_norms[h] for h in spec.horizons])
        np.testing.assert_allclose(got, (want / space.weights).max(axis=1),
                                   rtol=1e-7, atol=0.0)


class TestLemmaIdentity:
    def test_zero_time_both_sides_vanish(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=20, n_exo=10)
        gen, coupling, space = build_diagonal_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        w = ExoState.unit(space, 1)
        res = lemma_identity_check(gen, coupling, gain, sol, w, [0.0])
        assert res == 0.0

    def test_diagonal_identity(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=30, n_exo=15)
        gen, coupling, space = build_diagonal_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        w = ExoState.unit(space, 1)
        res = lemma_identity_check(gen, coupling, gain, sol, w,
                                   [0.1, 1.0, 10.0])
        assert res <= 1e-10

    def test_randomized_property(self):
        rng = np.random.default_rng(100)
        for seed in range(10):
            gen, coupling, space = build_random_scenario(seed)
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            sol = solve_regulator(gen, coupling, gain, space)
            w = ExoState(space, rng.standard_normal(len(space.modes))
                         + 1j * rng.standard_normal(len(space.modes)))
            res = lemma_identity_check(gen, coupling, gain, sol, w,
                                       [0.1, 1.0, 10.0, 100.0])
            assert res <= 1e-8


class TestForcingOperands:
    """Both diagnostics take the forcing operator as (coupling, gain); a
    coupling or a gain from another mode range is rejected."""

    @pytest.mark.parametrize("check", [
        lambda gen, coupling, gain, space, sol: conformity_diagnostic(
            gen, coupling, gain, space, 1.0, 0.25),
        lambda gen, coupling, gain, space, sol: lemma_identity_check(
            gen, coupling, gain, sol, ExoState.unit(space, 1), [1.0]),
    ], ids=["conformity", "lemma_identity"])
    def test_other_mode_range_rejected(self, check):
        cfg = ScenarioConfig(kind="diagonal", n_plant=20, n_exo=10)
        gen, coupling, space = build_diagonal_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain, space)
        check(gen, coupling, gain, space, sol)  # matching ranges are accepted
        wider = ModeRange(gen.modes.lo, gen.modes.hi + 1)
        other_coupling = ModalCoupling(b=SpectralVector.zeros(wider),
                                       c=SpectralVector.zeros(wider))
        other_gain = constant_gain(ModeRange(space.modes.lo,
                                             space.modes.hi + 1), 1.0)
        for wrong in ((other_coupling, gain), (coupling, other_gain)):
            with pytest.raises(ModeMismatchError):
                check(gen, *wrong, space, sol)


class TestBRegularity:
    def test_wave_membership_boundary(self):
        cfg = ScenarioConfig(kind="wave", n_plant=200, n_exo=10)
        gen, coupling, _ = build_wave_scenario(cfg)
        report = check_b_regularity(gen, coupling.b, [2.25, 2.6])
        assert report.entries[2.25].tail.verdict == "summable"
        assert report.entries[2.6].tail.verdict != "summable"
        assert report.entries[2.25].tail.exponent == pytest.approx(-1.5,
                                                                   abs=0.05)
        assert report.entries[2.6].tail.exponent == pytest.approx(-0.8,
                                                                  abs=0.05)

    def test_finitely_supported_column_regular_at_every_order(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=50, n_exo=10)
        gen, coupling, _ = build_diagonal_scenario(cfg)
        report = check_b_regularity(gen, coupling.b, [0.5, 1.0, 5.0, 20.0])
        assert all(entry.tail.verdict == "summable"
                   for entry in report.entries.values())


class TestQuadratureSpec:
    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            QuadratureSpec(horizons=(10.0, 10.0))
        with pytest.raises(ValueError, match="empty"):
            QuadratureSpec(horizons=())

    def test_default_schedule_is_octaves_from_ten(self):
        spec = QuadratureSpec()
        assert spec.horizons == tuple(10.0 * 2**j for j in range(8))
