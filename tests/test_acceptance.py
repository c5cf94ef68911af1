"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output) and asserts all of its checks,
including the runtime budget.
"""

import math
import time

import numpy as np
import pytest
from oracles import rk4_closed_loop
from paper import lemma_identity_check

import modalreg as mr


def _conclude(num, desc, checks):
    ok = all(bool(c) for c, _ in checks)
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    for good, label in checks:
        assert good, f"criterion {num}: {label}"


def _solve(kind, **kwargs):
    cfg = mr.ScenarioConfig(kind=kind, **kwargs)
    gen, coupling, space = mr.build_scenario(cfg)
    gain = mr.build_feedforward(mr.frequency_grid(gen, coupling, space))
    sol = mr.solve_regulator(gen, coupling, gain)
    return cfg, gen, coupling, space, gain, sol


def test_criterion_1_regulator_equation_exactness():
    checks = []
    cases = [("wave", dict(period=2.0, gamma=2.0, nu=1.0, n_plant=200,
                           n_exo=200)),
             ("wave", dict(period=2.0 * math.pi, gamma=2.0, nu=1.0,
                           n_plant=200, n_exo=200)),
             ("diagonal", dict(period=2.0 * math.pi, gamma=2.0, n_plant=200,
                               n_exo=200))]
    for kind, kwargs in cases:
        start = time.perf_counter()
        _, gen, coupling, space, gain, sol = _solve(kind, **kwargs)
        r1 = mr.residual_first_equation(sol, gen, coupling, gain)
        r2 = mr.residual_second_equation(sol, coupling)
        elapsed = time.perf_counter() - start
        tag = f"{kind} p={kwargs.get('period'):.3g}"
        checks += [(r1 <= 1e-10, f"{tag}: first residual {r1:.2e} <= 1e-10"),
                   (r2 <= 1e-10, f"{tag}: second residual {r2:.2e} <= 1e-10"),
                   (elapsed < 1.0, f"{tag}: runtime {elapsed:.2f}s < 1s")]
    _conclude(1, "regulator equation residuals <= 1e-10 at N = 200", checks)


def test_criterion_2_integral_matches_spectral_solve():
    start = time.perf_counter()
    checks = []
    cases = [("wave", dict(period=2.0 * math.pi, n_plant=200, n_exo=200)),
             ("diagonal", dict(n_plant=200, n_exo=200))]
    for kind, kwargs in cases:
        _, gen, coupling, space, gain, sol = _solve(kind, **kwargs)
        forcing = mr.forcing_matrix(coupling, gain)
        worst_rel = 0.0
        monotone = True
        for k in range(-10, 11):
            omega = 2.0 * math.pi * k / space.period
            j = space.modes.position(k)
            column = mr.SpectralVector(gen.modes, forcing[:, j])
            qcol, report = mr.quadrature_pi_column(gen, column, omega)
            tails = [report.tail_norms[h] for h in sorted(report.tail_norms)]
            monotone &= all(b < a for a, b in zip(tails, tails[1:]))
            rcol = sol.pi[:, j]
            worst_rel = max(worst_rel, np.linalg.norm(qcol.coeffs - rcol)
                            / np.linalg.norm(rcol))
        assert max(sorted(report.tail_norms)) == 1280.0
        checks += [(worst_rel <= 1e-6,
                    f"{kind}: worst column error {worst_rel:.2e} <= 1e-6"),
                   (monotone, f"{kind}: tail norms strictly decreasing")]
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 5.0, f"runtime {elapsed:.2f}s < 5s"))
    _conclude(2, "horizon-1280 integral equals the resolvent columns", checks)


def test_criterion_3_convolution_identity_on_random_scenarios():
    start = time.perf_counter()
    worst_lemma = 0.0
    worst_res = 0.0
    for seed in range(100):
        gen, coupling, space = mr.build_random_scenario(seed)
        gain = mr.build_feedforward(mr.frequency_grid(gen, coupling, space))
        sol = mr.solve_regulator(gen, coupling, gain)
        worst_res = max(
            worst_res,
            mr.residual_first_equation(sol, gen, coupling, gain),
            mr.residual_second_equation(sol, coupling))
        rng = np.random.default_rng(10_000 + seed)
        w = mr.ExoState(space, rng.standard_normal(len(space.modes))
                        + 1j * rng.standard_normal(len(space.modes)))
        res = lemma_identity_check(gen, coupling, gain, sol, w,
                                   [0.1, 1.0, 10.0, 100.0])
        worst_lemma = max(worst_lemma, res)
    elapsed = time.perf_counter() - start
    _conclude(3, "convolution identity over 100 seeded scenarios", [
        (worst_lemma <= 1e-8, f"worst identity residual {worst_lemma:.2e} <= 1e-8"),
        (worst_res <= 1e-10, f"worst regulator residual {worst_res:.2e} <= 1e-10"),
        (elapsed < 30.0, f"runtime {elapsed:.2f}s < 30s"),
    ])


def test_criterion_4_polynomial_decay_exponents():
    start = time.perf_counter()
    t = np.geomspace(10.0, 1e3, 160)
    wave_gen, _, _ = mr.build_scenario(
        mr.ScenarioConfig(kind="wave", n_plant=10_000, n_exo=1))
    wave_env = mr.decay_envelope(wave_gen, 1.0, t)
    wave_exp = -mr.fit_decay_rate(wave_env.values, t, (10.0, 1e3)).slope
    diag_gen, _, _ = mr.build_scenario(
        mr.ScenarioConfig(kind="diagonal", n_plant=10_000, n_exo=1))
    diag_env = mr.decay_envelope(diag_gen, 1.0, t)
    diag_exp = -mr.fit_decay_rate(diag_env.values, t, (10.0, 1e3)).slope
    elapsed = time.perf_counter() - start
    _conclude(4, "semigroup envelope exponents at N = 10^4", [
        (abs(wave_exp - 0.5) <= 0.05,
         f"wave exponent {wave_exp:.4f} = 0.50 +/- 0.05"),
        (not wave_env.boundary_mask.any(), "wave argmax interior"),
        (abs(diag_exp - 1.0) <= 0.05,
         f"diagonal exponent {diag_exp:.4f} = 1.00 +/- 0.05"),
        (not diag_env.boundary_mask.any(), "diagonal argmax interior"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10s"),
    ])


def _decade_sups(t, values):
    edges = 10.0 ** np.arange(-2, 4)
    sups = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (t >= lo) & (t < hi)
        if mask.any():
            sups.append(values[mask].max())
    return sups


def test_criterion_5_tracking_decay():
    checks = []
    t = np.geomspace(1e-2, 1e3, 512)
    for kind, alpha, slope_limit in (("diagonal", 1.0, -0.9),
                                     ("wave", 2.0, -0.45)):
        start = time.perf_counter()
        cfg = mr.ScenarioConfig(kind=kind, n_plant=200, n_exo=200,
                                w0_preset="square11", z0_preset="inv_mu_sq")
        gen, coupling, space = mr.build_scenario(cfg)
        gain = mr.build_feedforward(mr.frequency_grid(gen, coupling, space))
        sol = mr.solve_regulator(gen, coupling, gain)
        w0 = mr.resolve_w0(cfg, space)
        z0 = mr.resolve_z0(cfg, gen)
        assert np.linalg.norm(z0.coeffs) > 0 and np.linalg.norm(
            z0.coeffs - sol.pi @ w0.coeffs) > 1e-3  # off the manifold
        result = mr.simulate_closed_loop(gen, coupling, gain, z0, w0, t)
        dev = mr.state_deviation_norms(result, sol)
        cert = mr.certify_decay(t, dev, alpha, (10.0, 1e3))
        elapsed = time.perf_counter() - start
        checks.append((cert.slope <= slope_limit,
                       f"{kind}: state-deviation slope {cert.slope:.3f} "
                       f"<= {slope_limit}"))
        checks.append((elapsed < 10.0, f"{kind}: runtime {elapsed:.2f}s < 10s"))
        if kind == "diagonal":
            abs_e = np.abs(result.e)
            sups = _decade_sups(t, abs_e)
            ratio = abs_e[t >= 100.0].max() / abs_e.max()
            checks.append((all(b < a for a, b in zip(sups, sups[1:])),
                           "diagonal: per-decade error sup decreasing"))
            checks.append((ratio <= 1e-6,
                           f"diagonal: final-decade error ratio {ratio:.2e} "
                           "<= 1e-6"))
    _conclude(5, "tracking error and state deviation decay", checks)


def test_criterion_6_invariant_manifold():
    start = time.perf_counter()
    checks = []
    t = np.geomspace(1e-2, 1e3, 256)
    for kind in ("wave", "diagonal"):
        cfg = mr.ScenarioConfig(kind=kind, n_plant=200, n_exo=200,
                                w0_preset="square11", z0_preset="pi_w0")
        gen, coupling, space = mr.build_scenario(cfg)
        gain = mr.build_feedforward(mr.frequency_grid(gen, coupling, space))
        sol = mr.solve_regulator(gen, coupling, gain)
        w0 = mr.resolve_w0(cfg, space)
        z0 = mr.resolve_z0(cfg, gen, pi_w0=sol.pi @ w0.coeffs)
        result = mr.simulate_closed_loop(gen, coupling, gain, z0, w0, t)
        sup_e = np.abs(result.e).max()
        checks.append((sup_e <= 1e-9,
                       f"{kind}: on-manifold sup |e| {sup_e:.2e} <= 1e-9"))
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 2.0, f"runtime {elapsed:.2f}s < 2s"))
    _conclude(6, "steady-state manifold keeps the error at zero", checks)


def test_criterion_7_gain_summability_boundary():
    start = time.perf_counter()
    verdicts = {}
    for gamma in (2.0, 1.25):
        cfg = mr.ScenarioConfig(kind="diagonal", n_plant=200, n_exo=200,
                                gamma=gamma)
        gen, coupling, space = mr.build_scenario(cfg)
        gain = mr.build_feedforward(mr.frequency_grid(gen, coupling, space))
        verdicts[gamma] = mr.check_assumption2(gain)
    elapsed = time.perf_counter() - start
    _conclude(7, "weighted-gain summability boundary at gamma = 3/2", [
        (verdicts[2.0].tail.verdict == "summable",
         f"gamma = 2 summable (exponent {verdicts[2.0].tail.exponent:.2f})"),
        (verdicts[1.25].tail.verdict == "divergent",
         f"gamma = 1.25 divergent (exponent {verdicts[1.25].tail.exponent:.2f})"),
        (elapsed < 1.0, f"runtime {elapsed:.2f}s < 1s"),
    ])


def test_criterion_8_input_column_membership_boundary():
    start = time.perf_counter()
    gen, coupling, _ = mr.build_scenario(
        mr.ScenarioConfig(kind="wave", n_plant=200, n_exo=1))
    verdict = {beta: mr.check_b_regularity(gen, coupling.b, beta).tail.verdict
               for beta in (2.25, 2.6)}
    elapsed = time.perf_counter() - start
    _conclude(8, "input-column fractional membership boundary", [
        (verdict[2.25] == "summable", "summable at order 2.25"),
        (verdict[2.6] != "summable", "not summable at order 2.6"),
        (elapsed < 1.0, f"runtime {elapsed:.2f}s < 1s"),
    ])


def test_criterion_9_simulator_matches_fixed_step_integrator():
    """The 20 seeds' modes step as one concatenated RK4 system. Both the
    full-state path and the output path the CLI runs are held to it: the
    outputs y and e against c . z and c . z - y_r of the RK4 states, each
    error relative to ||c|| ||z||, the bound that a state error of
    relative size r puts on the output error, times r."""
    start = time.perf_counter()
    times = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    runs = []
    for seed in range(20):
        gen, coupling, space = mr.build_random_scenario(seed)
        gain = mr.build_feedforward(mr.frequency_grid(gen, coupling, space))
        rng = np.random.default_rng(20_000 + seed)
        z0 = mr.SpectralVector(gen.modes,
                               rng.standard_normal(len(gen.modes))
                               + 1j * rng.standard_normal(len(gen.modes)))
        w0 = mr.ExoState(space, rng.standard_normal(len(space.modes))
                         + 1j * rng.standard_normal(len(space.modes)))
        runs.append((gen, coupling, space, gain, z0, w0))
    oracle = rk4_closed_loop(
        np.concatenate([gen.eigenvalues for gen, *_ in runs]),
        [mr.forcing_matrix(coupling, gain)
         for _, coupling, space, gain, _, _ in runs],
        [w0.coeffs for *_, w0 in runs],
        [space.omegas for _, _, space, *_ in runs],
        np.concatenate([z0.coeffs for *_, z0, _ in runs]),
        t_end=50.0, step=1e-3, checkpoints=times)
    worst = worst_output = 0.0
    offset = 0
    for gen, coupling, _, gain, z0, w0 in runs:
        exact = mr.simulate_closed_loop(gen, coupling, gain, z0, w0,
                                        np.array(times))
        outputs = mr.simulate_outputs(
            gen, coupling, gain, z0,
            mr.steady_state_image(gen, coupling, gain, w0), np.array(times))
        y_r = mr.synthesize_signal(w0, np.array(times))
        c = coupling.c.coeffs
        block = slice(offset, offset + len(gen.modes))
        offset = block.stop
        for i, t_val in enumerate(times):
            z = oracle[t_val][block]
            rel = np.linalg.norm(exact.z[i] - z) / np.linalg.norm(exact.z[i])
            worst = max(worst, rel)
            scale = np.linalg.norm(c) * np.linalg.norm(z)
            worst_output = max(worst_output,
                               abs(outputs.y[i] - c @ z) / scale,
                               abs(outputs.e[i] - (c @ z - y_r[i])) / scale)
    elapsed = time.perf_counter() - start
    _conclude(9, "exact simulation equals the fixed-step oracle", [
        (worst <= 1e-6, f"worst relative state error {worst:.2e} <= 1e-6"),
        (worst_output <= 1e-6,
         f"worst relative output/error mismatch {worst_output:.2e} <= 1e-6"),
        (elapsed < 60.0, f"runtime {elapsed:.2f}s < 60s"),
    ])
