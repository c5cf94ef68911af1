"""Integral representation of the steady-state map and its diagnostics."""

import math
import re

import numpy as np
import pytest
from oracles import (analytic_tails_whole, conformity_per_column,
                     trapezoid_column, unit_vector)
from paper import lemma_identity_check

import modalreg.regulator as regulator
import modalreg.spectral as spectral
import modalreg.sylvester as sylvester
from modalreg.errors import ModeMismatchError
from modalreg.exosystem import ExoSpace, ExoState
from modalreg.regulator import (FeedforwardGain, ModalCoupling,
                                _conjugate_half, build_feedforward,
                                forcing_matrix, frequency_grid,
                                solve_regulator)
from modalreg.scenarios import (ScenarioConfig, build_random_scenario,
                                build_scenario)
from modalreg.spectral import DiagonalGenerator, ModeRange, SpectralVector
from modalreg.sylvester import (HORIZONS, _tail_trend_verdict,
                                check_b_regularity, conformity_diagnostic,
                                quadrature_pi_column)


def single_mode_gen(mu):
    return DiagonalGenerator(ModeRange(0, 0), np.array([mu], dtype=complex))


def constant_gain(space, ell):
    return FeedforwardGain(space, np.full(len(space.modes), ell, dtype=complex))


def forcing_operator(b, space, ell=1.0, p_entries=None):
    """The forcing operator b ell + P as the (coupling, gain) pair the
    diagnostics take; they never read the output row."""
    coupling = ModalCoupling(b=b, c=SpectralVector.zeros(b.modes),
                             p_entries=p_entries or {})
    return coupling, constant_gain(space, ell)


class TestQuadratureColumn:
    def test_unit_decay_integrates_to_one(self):
        gen = single_mode_gen(-1.0 + 0j)
        col, report = quadrature_pi_column(
            gen, unit_vector(gen.modes, 0), 0.0)
        assert col.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        tails = [report.tail_norms[h] for h in sorted(report.tail_norms)]
        assert all(b < a for a, b in zip(tails, tails[1:]))
        assert report.verdict == "conform-trend"

    def test_limit_equals_resolvent_columns(self):
        for cfg in (ScenarioConfig(kind="wave", n_plant=120, n_exo=20,
                                   period=2.0 * math.pi),
                    ScenarioConfig(kind="diagonal", n_plant=120, n_exo=20)):
            gen, coupling, space = build_scenario(cfg)
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            sol = solve_regulator(gen, coupling, gain)
            forcing = forcing_matrix(coupling, gain)
            for k in (-5, 0, 5):
                omega = 2.0 * math.pi * k / space.period
                j = space.modes.position(k)
                qcol, _ = quadrature_pi_column(
                    gen, SpectralVector(gen.modes, forcing[:, j]), omega)
                rcol = sol.pi[:, j]
                assert (np.linalg.norm(qcol.coeffs - rcol)
                        <= 1e-6 * np.linalg.norm(rcol))

    def test_remainder_at_final_horizon_is_exact(self):
        # difference from the limit must equal the dropped exponential tail
        gen = single_mode_gen(-0.02 + 3j)
        d = unit_vector(gen.modes, 0)
        omega = 1.0
        col, _ = quadrature_pi_column(gen, d, omega,
                                      horizons=(5.0, 10.0, 20.0))
        mu = gen.eigenvalues[0]
        limit = 1.0 / (1j * omega - mu)
        remainder = np.exp((mu - 1j * omega) * 20.0) / (1j * omega - mu)
        assert col.coeffs[0] == pytest.approx(limit - remainder, rel=1e-13)

    def test_numeric_matches_analytic(self):
        gen = single_mode_gen(-1.0 + 0j)
        d = unit_vector(gen.modes, 0)
        analytic, _ = quadrature_pi_column(gen, d, 1.0, horizons=(50.0,))
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
        gen, coupling, space = build_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        report = conformity_diagnostic(gen, coupling, gain, alpha=2.0,
                                       eps=0.25)
        assert report.verdict == "conform-trend"
        ev = report.sufficient_condition
        assert ev.worst_tail.verdict == "summable"
        assert ev.worst_tail.exponent == pytest.approx(-1.5, abs=0.1)
        assert np.isfinite(ev.sup_bound)

    def test_rough_columns_are_not_conform(self):
        cfg = ScenarioConfig(kind="wave", n_plant=200, n_exo=10, period=2.0)
        gen, _, space = build_scenario(cfg)
        # every column is the same rough input column
        rough = SpectralVector(gen.modes,
                               1.0 / np.abs(gen.eigenvalues) ** 0.1 + 0j)
        report = conformity_diagnostic(gen, *forcing_operator(rough, space),
                                       alpha=2.0, eps=0.25)
        assert report.verdict == "non-conform-trend"
        assert report.sufficient_condition.worst_tail.verdict == "divergent"

    def test_zero_forcing_trivially_conform(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=30, n_exo=10)
        gen, _, space = build_scenario(cfg)
        report = conformity_diagnostic(
            gen, *forcing_operator(SpectralVector.zeros(gen.modes), space),
            alpha=1.0, eps=0.5)
        assert report.verdict == "conform-trend"
        assert report.sufficient_condition.sup_bound == 0.0

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(kind="wave", n_plant=200, n_exo=30, period=2.0),
        ScenarioConfig(kind="diagonal", n_plant=40, n_exo=40),
    ], ids=["wave", "diagonal"])
    def test_trend_is_the_input_column_trend(self, cfg):
        # without P every forcing column is ell_k b, so conformity's
        # mode-sum trend is the trend of b in D((-A)**(alpha + eps))
        gen, coupling, space = build_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        alpha, eps = 2.0, 0.25
        report = conformity_diagnostic(gen, coupling, gain, alpha, eps)
        breg = check_b_regularity(gen, coupling.b, alpha + eps)
        assert report.sufficient_condition.worst_tail == breg.tail

    def test_regular_rank_one_implies_conform(self):
        # whenever the input column is regular at alpha + eps and the
        # weighted gains are summable, rank-one forcing must be conform
        for seed in range(8):
            gen, coupling, space = build_random_scenario(seed)
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            alpha, eps = 1.0, 0.25
            breg = check_b_regularity(gen, coupling.b, alpha + eps)
            rank_one = ModalCoupling(b=coupling.b, c=coupling.c)  # P dropped
            report = conformity_diagnostic(gen, rank_one, gain, alpha,
                                           eps)
            if breg.tail.verdict == "summable":
                assert report.verdict == "conform-trend"


def _disturbance_off_the_input_column():
    """Custom plant whose input column vanishes on the odd modes, where P
    puts its entries; harmonic 2 takes two of them, and the entry on the
    last mode changes the tail its column fits."""
    n = np.arange(30)
    b = np.where(n % 2 == 0, 1.0 / (1.0 + n) ** 4, 0.0)
    gen, coupling, space = build_scenario(ScenarioConfig(
        kind="custom", n_exo=10, eigenvalues=-0.5 / (1.0 + n) + 1j * (n + 0.5),
        b=b, c=b))
    return gen, ModalCoupling(
        b=coupling.b, c=coupling.c,
        p_entries={(3, 2): 0.5 + 0.2j, (7, 2): -0.3j, (11, -4): 1.0,
                   (29, 5): 0.7}), space


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
        lambda: build_scenario(ScenarioConfig(kind="wave", n_plant=200,
                                              n_exo=30, period=2.0)),
        lambda: build_scenario(ScenarioConfig(kind="diagonal", n_plant=40,
                                              n_exo=40)),
        _random_with_disturbance,
        _disturbance_off_the_input_column,
    ]
    SCENARIO_IDS = ["wave_resonant", "diagonal", "random_disturbed",
                    "disturbance_off_b"]

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
    def test_matches_per_column_oracle(self, scenario):
        gen, coupling, space = scenario()
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        alpha, eps = 2.0, 0.25
        report = conformity_diagnostic(gen, coupling, gain, alpha, eps)
        forcing = forcing_matrix(coupling, gain)
        agg, bounds, worst = conformity_per_column(gen, forcing, space,
                                                   alpha + eps, HORIZONS)
        got = np.array([report.tail_norms[h] for h in HORIZONS])
        np.testing.assert_allclose(got, agg, rtol=1e-12, atol=0.0)
        ev = report.sufficient_condition
        sup_k = max(bounds, key=lambda k: bounds[k])
        assert (ev.argmax_mode, ev.sup_bound) == (sup_k, bounds[sup_k])
        assert ev.worst_tail.verdict == worst.verdict
        assert ev.worst_tail.exponent == pytest.approx(worst.exponent,
                                                       rel=1e-12)
        if worst.verdict == "divergent":
            expected = "non-conform-trend"
        elif (worst.verdict == "summable" and _tail_trend_verdict(
                HORIZONS, agg) == "conform-trend"):
            expected = "conform-trend"
        else:
            expected = "inconclusive"
        assert report.verdict == expected

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
    def test_blocked_tails_match_one_block(self, scenario, monkeypatch):
        gen, coupling, space = scenario()
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        t = np.array(HORIZONS)
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 10**9)
        assert len(spectral._blocks(len(space.modes), len(gen.modes))) == 1
        want = sylvester._gram_tails(gen, coupling, gain, t)
        # the blocks of 7 harmonics that conformity_diagnostic walks
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 7 * len(gen.modes))
        assert len(spectral._blocks(len(space.modes), len(gen.modes))) > 1
        got = sylvester._gram_tails(gen, coupling, gain, t)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        # within their rounding bounds of the exact increments, wherever
        # those are above the underflow floor
        tails, slack = got
        exact = analytic_tails_whole(gen, forcing_matrix(coupling, gain),
                                     space.omegas, t)
        above = exact > 1e-150
        assert np.all(np.abs(tails - exact)[above]
                      <= slack[above] + 1e-15 * exact[above])

    def test_near_resonant_column_recomputed(self, monkeypatch):
        # a lightly damped mode 1e-6 off omega_1: the Gram sums of that
        # column lose about 1e-10 relative to cancellation, and it holds
        # every horizon's largest tail, so the guard recomputes it, and
        # only it
        space = ExoSpace.power_weights(2.0 * math.pi, ModeRange.symmetric(3),
                                       1.0)
        gen = DiagonalGenerator(ModeRange(0, 2), np.array(
            [-1e-4 + 1j * (1.0 + 1e-6), -0.5 + 0.3j, -1.0 - 2j]))
        coupling, gain = forcing_operator(
            SpectralVector(gen.modes, np.ones(3, dtype=complex)), space)
        agg, _, _ = conformity_per_column(gen, forcing_matrix(coupling, gain),
                                          space, 1.25, HORIZONS)
        reruns = []
        exact = sylvester.quadrature_pi_column
        monkeypatch.setattr(sylvester, "quadrature_pi_column",
                            lambda *a: reruns.append(a[2]) or exact(*a))
        report = conformity_diagnostic(gen, coupling, gain, 1.0, 0.25)
        got = np.array([report.tail_norms[h] for h in HORIZONS])
        np.testing.assert_allclose(got, agg, rtol=1e-12, atol=0.0)
        assert reruns == [1.0]

    @pytest.mark.parametrize("scenario, want", [
        (lambda: build_random_scenario(57), 1.8756694903336605e-162),
        (lambda: build_scenario(ScenarioConfig(kind="diagonal", n_plant=60,
                                               n_exo=60, gamma=1.25)),
         1.1259823474166023e-278),
    ], ids=["random57", "diagonal60"])
    def test_last_horizon_below_the_square_underflow(self, scenario, want):
        # increments far below 1e-154, whose squares underflow; `want` is
        # a 40-digit (mpmath) evaluation of the largest f-scaled increment
        # at horizon 1280, the last row `check` writes to its tails CSV
        gen, coupling, space = scenario()
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        report = conformity_diagnostic(gen, coupling, gain, 1.0, 0.25)
        assert report.tail_norms[HORIZONS[-1]] == pytest.approx(
            want, rel=1e-12, abs=0.0)
        agg, _, _ = conformity_per_column(gen, forcing_matrix(coupling, gain),
                                          space, 1.25, HORIZONS)
        assert agg[-1] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zeroed_columns_have_zero_bounds(self):
        gen, coupling, space = _random_with_disturbance()
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        gain.ell[1::2] = 0.0
        odd = set(space.modes.indices[1::2].tolist())
        sparse = ModalCoupling(b=coupling.b, c=coupling.c, p_entries={
            nk: v for nk, v in coupling.p_entries.items() if nk[1] not in odd})
        ev = conformity_diagnostic(gen, sparse, gain, 1.0,
                                   0.25).sufficient_condition
        assert ev.sup_bound > 0.0 and ev.argmax_mode not in odd
        # every column zero, the columns P touches among them: the largest
        # bound, and so every bound, is exactly zero
        gain.ell[:] = 0.0
        zero = ModalCoupling(b=coupling.b, c=coupling.c,
                             p_entries=dict.fromkeys(coupling.p_entries, 0.0))
        ev = conformity_diagnostic(gen, zero, gain, 1.0,
                                   0.25).sufficient_condition
        assert ev.sup_bound == 0.0

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
        horizons = (2.0, 4.0, 8.0)
        report = conformity_diagnostic(gen, coupling, gain, 1.0, 0.25,
                                       horizons=horizons)
        want = np.array([trapezoid_column(gen.eigenvalues, forcing[:, j], om,
                                          horizons, step=1e-4)[1]
                         for j, om in enumerate(space.omegas)]).T
        # the trapezoid's relative error is about step**2 / 12 times the
        # largest |mu_n - i omega_k|**2, 1.3e-8 here; the per-column tails
        # are checked too, since the f-scaled maximum is the k = 0 column's
        np.testing.assert_allclose(
            sylvester._gram_tails(gen, coupling, gain, np.array(horizons))[0],
            want, rtol=1e-7, atol=0.0)
        got = np.array([report.tail_norms[h] for h in horizons])
        np.testing.assert_allclose(got, (want / space.weights).max(axis=1),
                                   rtol=1e-7, atol=0.0)


def _wave():
    return build_scenario(ScenarioConfig(kind="wave", n_plant=200, n_exo=30,
                                         period=2.0))


def _with_grid_gain(gen, coupling, space):
    return gen, coupling, build_feedforward(frequency_grid(gen, coupling,
                                                           space))


def _wave_with_one_p_entry():
    """The wave's input column with one entry of P and a constant gain,
    so P is the only condition of the mirror that fails."""
    gen, coupling, space = _wave()
    return gen, *forcing_operator(coupling.b, space, 0.5 - 0.25j,
                                  p_entries={(3, 2): 0.3 + 0.1j})


def _wave_with_one_unpaired_mode():
    gen, coupling, space = _wave()
    gen.eigenvalues[gen.modes.position(7)] += 1e-3
    return _with_grid_gain(gen, coupling, space)


def _closed_cb_open_b2():
    """c b closed under conjugation, |b|**2 not: b = 2 and 1 on the pair
    (1, 2), c = 0.5 and 1."""
    return _with_grid_gain(*build_scenario(ScenarioConfig(
        kind="custom", n_exo=5,
        eigenvalues=(-0.5, -0.2 + 1j, -0.2 - 1j, -0.3 + 2.5j, -0.3 - 2.5j),
        b=(1.0, 2.0, 1.0, 0.3j, -0.3j), c=(0.8, 0.5, 1.0, 1.0, 1.0))))


def _wave_with_unmirrored_gain():
    gen, coupling, gain = _with_grid_gain(*_wave())
    gain.ell[0] *= 2.0
    return gen, coupling, gain


def _conformity_bytes(gen, coupling, gain):
    """The horizon tails, their rounding bounds and the report of
    conformity, as bytes."""
    t = np.array(HORIZONS)
    tails, slack = sylvester._gram_tails(
        gen, coupling, gain, t, sylvester._mirror_half(gen, coupling, gain))
    report = conformity_diagnostic(gen, coupling, gain, 1.0, 0.25)
    ev = report.sufficient_condition
    return (tails.tobytes(), slack.tobytes(),
            np.array(list(report.tail_norms.values())).tobytes(),
            report.verdict, np.float64(ev.sup_bound).tobytes(),
            ev.argmax_mode, ev.worst_tail)


class TestConjugateMirror:
    """On a real plant without P, conformity contracts the harmonics
    omega_k >= 0 only, and column -k copies column k."""

    def test_mirrored_columns_are_copies(self, monkeypatch):
        gen, coupling, gain = _with_grid_gain(*_wave())
        n_exo, t = len(gain.space.modes), np.array(HORIZONS)
        half = sylvester._mirror_half(gen, coupling, gain)
        assert half == n_exo // 2
        contracted = []
        inner = sylvester._blocks
        monkeypatch.setattr(sylvester, "_blocks", lambda n_cols, n_rows: (
            contracted.append(n_cols) or inner(n_cols, n_rows)))
        tails, slack = sylvester._gram_tails(gen, coupling, gain, t, half)
        assert contracted == [n_exo - half]
        for a in (tails, slack):
            assert a[:, :half].tobytes() == a[:, ::-1][:, :half].tobytes()
        # the contracted columns are those of the pass over every column
        every = sylvester._gram_tails(gen, coupling, gain, t)
        for a, b in zip((tails, slack), every):
            assert a[:, half:].tobytes() == b[:, half:].tobytes()
        # the mirrored tails stay within their rounding bounds of the
        # exact increments of their own columns
        exact = analytic_tails_whole(gen, forcing_matrix(coupling, gain),
                                     gain.space.omegas, t)
        above = exact > 1e-150
        assert np.all(np.abs(tails - exact)[above]
                      <= slack[above] + 1e-15 * exact[above])
        # blocks of 7 harmonics give the bits of one block
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 7 * len(gen.modes))
        assert len(spectral._blocks(n_exo - half, len(gen.modes))) > 1
        blocked = sylvester._gram_tails(gen, coupling, gain, t, half)
        for a, b in zip((tails, slack), blocked):
            assert a.tobytes() == b.tobytes()

    def test_resonant_pair_recomputed_once(self, monkeypatch):
        # a lightly damped pair 1e-6 off +/- omega_1: both columns hold a
        # horizon's largest tail, and the guard recomputes them once, at
        # +omega_1, where the unpaired pass recomputes both
        space = ExoSpace.power_weights(2.0 * math.pi, ModeRange.symmetric(3),
                                       1.0)
        mu = -1e-4 + 1j * (1.0 + 1e-6)
        gen = DiagonalGenerator(ModeRange(0, 4), np.array(
            [mu, mu.conjugate(), -0.5, -1.0 + 2j, -1.0 - 2j]))
        coupling, gain = forcing_operator(
            SpectralVector(gen.modes, np.ones(5, dtype=complex)), space)
        agg, _, _ = conformity_per_column(gen, forcing_matrix(coupling, gain),
                                          space, 1.25, HORIZONS)
        reruns, held = [], []
        exact, gram = sylvester.quadrature_pi_column, sylvester._gram_tails
        monkeypatch.setattr(sylvester, "quadrature_pi_column",
                            lambda *a: reruns.append(a[2]) or exact(*a))
        monkeypatch.setattr(sylvester, "_gram_tails",
                            lambda *a: held.append(gram(*a)) or held[-1])
        report = conformity_diagnostic(gen, coupling, gain, 1.0, 0.25)
        got = np.array([report.tail_norms[h] for h in HORIZONS])
        np.testing.assert_allclose(got, agg, rtol=1e-12, atol=0.0)
        assert reruns == [1.0]
        # the recomputed tails went to both columns of the pair
        tails = held[0][0]
        assert tails.tobytes() == tails[:, ::-1].tobytes()
        reruns.clear()
        monkeypatch.setattr(regulator, "conjugate_partners",
                            lambda mu: np.full(mu.size, -1, np.intp))
        conformity_diagnostic(gen, coupling, gain, 1.0, 0.25)
        assert reruns == [-1.0, 1.0]

    @pytest.mark.parametrize("scenario, grid_mirror", [
        (lambda: _with_grid_gain(*_random_with_disturbance()), False),
        (_wave_with_one_p_entry, True),
        (_wave_with_one_unpaired_mode, False),
        (_closed_cb_open_b2, True),
        (_wave_with_unmirrored_gain, True),
    ], ids=["random_with_p", "wave_one_p_entry", "one_unpaired_mode",
            "b2_not_paired", "gain_not_mirrored"])
    def test_failed_condition_is_the_unpaired_result(self, scenario,
                                                     grid_mirror,
                                                     monkeypatch):
        gen, coupling, gain = scenario()
        cb = coupling.c.coeffs * coupling.b.coeffs
        assert bool(_conjugate_half(gen.eigenvalues, gain.space.omegas,
                                    cb)[0]) == grid_mirror
        assert sylvester._mirror_half(gen, coupling, gain) == 0
        paired = _conformity_bytes(gen, coupling, gain)
        monkeypatch.setattr(regulator, "conjugate_partners",
                            lambda mu: np.full(mu.size, -1, np.intp))
        assert paired == _conformity_bytes(gen, coupling, gain)

    def test_wave50_tails_against_40_digit_values(self):
        # `want`: per horizon, the largest f-scaled increment over the
        # columns ell_k b of the sweep's wave50 config, evaluated with
        # mpmath at 40 digits from the float64 mu, b, ell, omega and f.
        # Each value lies within 2e-15 relative: the Gram sums round by
        # a few ulps, and a mirrored column takes the tails of column k,
        # whose |ell| differs from its own by up to 4 ulps at N = 50.
        gen, coupling, space = build_scenario(ScenarioConfig(
            kind="wave", n_plant=50, n_exo=50, gamma=1.0))
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        assert sylvester._mirror_half(gen, coupling, gain) == 50
        want = [7.752424716692587, 0.049183598618732574, 0.034899102914876,
                0.025494122568728808, 0.018036648722872698,
                0.012746309508019088, 0.009050852596770765,
                0.006400010921087533]
        report = conformity_diagnostic(gen, coupling, gain, 1.0, 0.25)
        got = [report.tail_norms[h] for h in HORIZONS]
        assert got == pytest.approx(want, rel=2e-15, abs=0.0)


class TestLemmaIdentity:
    def test_zero_time_both_sides_vanish(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=20, n_exo=10)
        gen, coupling, space = build_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain)
        w = ExoState.unit(space, 1)
        res = lemma_identity_check(gen, coupling, gain, sol, w, [0.0])
        assert res == 0.0

    def test_diagonal_identity(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=30, n_exo=15)
        gen, coupling, space = build_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain)
        w = ExoState.unit(space, 1)
        res = lemma_identity_check(gen, coupling, gain, sol, w,
                                   [0.1, 1.0, 10.0])
        assert res <= 1e-10

    def test_randomized_property(self):
        rng = np.random.default_rng(100)
        for seed in range(10):
            gen, coupling, space = build_random_scenario(seed)
            gain = build_feedforward(frequency_grid(gen, coupling, space))
            sol = solve_regulator(gen, coupling, gain)
            w = ExoState(space, rng.standard_normal(len(space.modes))
                         + 1j * rng.standard_normal(len(space.modes)))
            res = lemma_identity_check(gen, coupling, gain, sol, w,
                                       [0.1, 1.0, 10.0, 100.0])
            assert res <= 1e-8


class TestForcingOperands:
    """Both diagnostics take the forcing operator as (coupling, gain); a
    coupling from another mode range is rejected. The gain carries the
    space it was designed on, so it cannot disagree with one."""

    @pytest.mark.parametrize("check", [
        lambda gen, coupling, gain, space, sol: conformity_diagnostic(
            gen, coupling, gain, 1.0, 0.25),
        lambda gen, coupling, gain, space, sol: lemma_identity_check(
            gen, coupling, gain, sol, ExoState.unit(space, 1), [1.0]),
    ], ids=["conformity", "lemma_identity"])
    def test_other_mode_range_rejected(self, check):
        cfg = ScenarioConfig(kind="diagonal", n_plant=20, n_exo=10)
        gen, coupling, space = build_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        sol = solve_regulator(gen, coupling, gain)
        check(gen, coupling, gain, space, sol)  # matching ranges are accepted
        wider = ModeRange(gen.modes.lo, gen.modes.hi + 1)
        other_coupling = ModalCoupling(b=SpectralVector.zeros(wider),
                                       c=SpectralVector.zeros(wider))
        with pytest.raises(ModeMismatchError):
            check(gen, other_coupling, gain, space, sol)


class TestBRegularity:
    def test_wave_membership_boundary(self):
        cfg = ScenarioConfig(kind="wave", n_plant=200, n_exo=10)
        gen, coupling, _ = build_scenario(cfg)
        inside = check_b_regularity(gen, coupling.b, 2.25).tail
        outside = check_b_regularity(gen, coupling.b, 2.6).tail
        assert inside.verdict == "summable"
        assert outside.verdict != "summable"
        assert inside.exponent == pytest.approx(-1.5, abs=0.05)
        assert outside.exponent == pytest.approx(-0.8, abs=0.05)

    def test_finitely_supported_column_regular_at_every_order(self):
        cfg = ScenarioConfig(kind="diagonal", n_plant=50, n_exo=10)
        gen, coupling, _ = build_scenario(cfg)
        assert all(check_b_regularity(gen, coupling.b, beta).tail.verdict
                   == "summable" for beta in (0.5, 1.0, 5.0, 20.0))


class TestHorizons:
    def test_default_schedule_is_octaves_from_ten(self):
        assert HORIZONS == tuple(10.0 * 2**j for j in range(8))

    @pytest.mark.parametrize("horizons", [
        (40.0, 20.0, 10.0), (10.0, 10.0, 20.0), (-5.0, 10.0, 20.0),
        (0.0, 10.0), (10.0, math.inf), (math.nan, 10.0), (),
    ], ids=["decreasing", "repeated", "negative", "zero", "infinite", "nan",
            "empty"])
    def test_bad_schedule_rejected(self, horizons):
        cfg = ScenarioConfig(kind="diagonal", n_plant=20, n_exo=10)
        gen, coupling, space = build_scenario(cfg)
        gain = build_feedforward(frequency_grid(gen, coupling, space))
        named = re.escape(repr(horizons))
        with pytest.raises(ValueError, match=named):
            quadrature_pi_column(gen, unit_vector(gen.modes, 0), 1.0,
                                 horizons=horizons)
        with pytest.raises(ValueError, match=named):
            conformity_diagnostic(gen, coupling, gain, 1.0, 0.25,
                                  horizons=horizons)

    def test_increment_below_the_square_underflow(self):
        # exp(-400) - exp(-800): its square, about 1e-348, is below the
        # smallest double
        gen = single_mode_gen(-1.0 + 0j)
        _, report = quadrature_pi_column(gen, unit_vector(gen.modes, 0), 0.0,
                                         horizons=(400.0, 800.0))
        assert report.tail_norms[800.0] == pytest.approx(
            math.exp(-400.0), rel=1e-12, abs=0.0)
