"""Command-line front end: check, solve, simulate, decay.

Every command reads one config file, writes CSV artifacts plus a
human-readable report into the output directory, and exits with 0 on
success, 1 on an assumption or tolerance failure, 2 on a usage or config
error. Identical config and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .csvio import write_csv as _write_csv  # perfbench/tracing.py wraps this name
from .errors import AssumptionFailure, ConfigError
from .regulator import (build_feedforward, check_assumption1,
                        check_assumption2, frequency_grid,
                        residual_first_equation, residual_second_equation,
                        solve_regulator, steady_state_image)
# the dense forcing build, not called here; perfbench/tracing.py wraps
# this name
from .regulator import forcing_matrix as forcing_columns
from .scenarios import (build_scenario, kind_reads, nominal_geometric_params,
                        resolve_w0, resolve_z0)
from .simulator import certify_decay, simulate_outputs
# the full-state reference path, not called here; perfbench/tracing.py
# wraps these names
from .simulator import simulate_closed_loop, state_deviation_norms
from .spectral import (check_geometric_condition, check_superpolynomial,
                       decay_envelope, fit_decay_rate)
from .sylvester import conformity_diagnostic


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_text(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _running_max_from_right(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def _scenario_header(cfg: RunConfig, gen, space) -> list:
    """The scenario as built: mode counts and period from the built
    objects, and only the parameters its builder read."""
    sc = cfg.scenario
    fields = [f"kind={sc.kind}", f"plant_modes={len(gen.modes)}",
              f"harmonics={len(space.modes)}", f"period={_fmt(space.period)}"]
    fields += [f"{name}={_fmt(getattr(sc, name))}"
               for name in ("seed", "gamma", "nu") if kind_reads(sc.kind, name)]
    return ["scenario: " + " ".join(fields), ""]


def cmd_check(cfg: RunConfig, out_dir: Path, force: bool = False) -> int:
    gen, coupling, space = build_scenario(cfg.scenario)
    tol = cfg.tolerances
    lines = _scenario_header(cfg, gen, space)
    failures = []

    grid = frequency_grid(gen, coupling, space)
    a1 = check_assumption1(grid, floor=tol.assumption1_floor)
    lines.append(f"Assumption 1 (nonvanishing frequency response): "
                 f"{'PASS' if a1.passed else 'FAIL'}")
    lines.append(f"  min |H(i omega_k)| = {_fmt(a1.min_magnitude)} at "
                 f"k = {a1.argmin_mode} (floor {_fmt(a1.floor)})")
    gap_pos = int(np.argmin(a1.resolvent_gaps))
    lines.append(f"  smallest resolvent gap = "
                 f"{_fmt(a1.resolvent_gaps[gap_pos])} at "
                 f"k = {int(space.modes.indices[gap_pos])}")
    if not a1.passed:
        failures.append("Assumption 1")

    a2 = None
    conf = None
    if a1.passed:
        gain = build_feedforward(grid)
        a2 = check_assumption2(gain, space)
        status = {"summable": "PASS", "divergent": "FAIL",
                  "inconclusive": "PASS (inconclusive trend)"}[a2.verdict]
        lines.append(f"Assumption 2 (square-summable weighted gains): {status}")
        lines.append(f"  tail exponent = {_fmt(a2.tail.exponent)} "
                     f"({a2.tail.verdict}); partial sum = {_fmt(a2.total)}")
        if a2.verdict == "divergent":
            failures.append("Assumption 2")

        alpha = cfg.scenario.nominal_alpha
        conf = conformity_diagnostic(gen, coupling, gain, space, alpha=alpha,
                                     eps=tol.conformity_eps,
                                     spec=cfg.quadrature)
        lines.append(f"Conformity (smoothing order {_fmt(alpha + tol.conformity_eps)}): "
                     f"{conf.verdict}")
        ev = conf.sufficient_condition
        lines.append(f"  sup_k column bound / f_k = {_fmt(ev.sup_bound)} at "
                     f"k = {ev.argmax_mode}; worst mode-sum trend: "
                     f"{ev.worst_tail.verdict}")
        if conf.verdict == "non-conform-trend":
            failures.append("Conformity")
    else:
        lines.append("Assumption 2: SKIPPED (Assumption 1 failed)")
        lines.append("Conformity: SKIPPED (Assumption 1 failed)")

    g_alpha, g_c, g_d = nominal_geometric_params(cfg.scenario, gen)
    geo = check_geometric_condition(gen, g_alpha, g_c, g_d)
    lines.append(f"Geometric condition (alpha={_fmt(g_alpha)}, c={_fmt(g_c)}, "
                 f"d={_fmt(g_d)}): {'PASS' if geo.passed else 'FAIL'}")
    lines.append(f"  tightest admissible c = {_fmt(geo.tightest_c)} over "
                 f"{geo.n_checked} checked modes")
    if not geo.passed:
        failures.append("Geometric condition")

    lines.append("")
    if failures:
        lines.append(f"overall: FAIL ({'; '.join(failures)})")
    else:
        lines.append("overall: PASS")

    _write_text(out_dir / "check_report.txt", lines)
    _write_csv(out_dir / "assumption2_partial_sums.csv", ["K", "partial_sum"],
               () if a2 is None else (a2.shell_radii, a2.partial_sums))
    tails = sorted(conf.tail_norms.items()) if conf is not None else []
    # (horizon, tail_norm) pairs as two columns, (2, 0) when empty
    _write_csv(out_dir / "conformity_tails.csv", ["horizon", "tail_norm"],
               np.array(tails, dtype=float).reshape(-1, 2).T)
    print("\n".join(lines))
    return 1 if failures else 0


def _gain_pipeline(cfg: RunConfig, force: bool):
    """Shared gate + gain used by solve/simulate/decay."""
    gen, coupling, space = build_scenario(cfg.scenario)
    tol = cfg.tolerances
    grid = frequency_grid(gen, coupling, space)
    a1 = check_assumption1(grid, floor=tol.assumption1_floor)
    if not a1.passed and not force:
        raise AssumptionFailure(
            f"Assumption 1 failed: min |H| = {a1.min_magnitude:.3e} at "
            f"k = {a1.argmin_mode} is below floor {tol.assumption1_floor:.3e} "
            "(rerun with --force to proceed anyway)"
        )
    gain = build_feedforward(grid)
    return gen, coupling, space, a1, gain


def _simulate(cfg: RunConfig, gen, coupling, gain, w0, t_grid):
    """The configured run's outputs and state deviation, from Pi w0 and
    c Pi; the steady-state map is never built whole."""
    image = steady_state_image(gen, coupling, gain, w0)
    z0 = resolve_z0(cfg.scenario, gen, pi_w0=image.pi_w0)
    return simulate_outputs(gen, coupling, gain, z0, image, t_grid)


def cmd_solve(cfg: RunConfig, out_dir: Path, force: bool = False) -> int:
    gen, coupling, space, a1, gain = _gain_pipeline(cfg, force)
    solution = solve_regulator(gen, coupling, gain, space)
    tol = cfg.tolerances
    res1 = residual_first_equation(solution, gen, coupling, gain, space)
    res2 = residual_second_equation(solution, coupling, space)

    lines = _scenario_header(cfg, gen, space)
    if not a1.passed:
        lines.append("WARN: Assumption 1 failed "
                     f"(min |H| = {_fmt(a1.min_magnitude)} at k = {a1.argmin_mode}); "
                     "gains were built anyway under --force")
        lines.append("")
    ok1 = res1 <= tol.first_residual
    ok2 = res2 <= tol.second_residual
    lines.append(f"first regulator equation residual  = {_fmt(res1)}  "
                 f"[{'PASS' if ok1 else 'FAIL'} <= {_fmt(tol.first_residual)}]")
    lines.append(f"second regulator equation residual = {_fmt(res2)}  "
                 f"[{'PASS' if ok2 else 'FAIL'} <= {_fmt(tol.second_residual)}]")
    lines.append(f"operator norm estimate of the steady-state map = "
                 f"{_fmt(solution.operator_norm_estimate)}")
    _write_text(out_dir / "residuals.txt", lines)

    exo_idx = space.modes.indices
    _write_csv(out_dir / "L.csv", ["k", "re", "im"],
               (exo_idx, gain.ell.real, gain.ell.imag))
    # flattened views: row (n, k) of Pi.csv is entry i * K + j of pi
    pi = solution.pi.ravel()
    _write_csv(out_dir / "Pi.csv", ["n", "k", "re", "im"],
               (np.repeat(gen.modes.indices, len(exo_idx)),
                np.tile(exo_idx, len(gen.modes)), pi.real, pi.imag))
    print("\n".join(lines))
    return 0 if (ok1 and ok2) else 1


def cmd_simulate(cfg: RunConfig, out_dir: Path, force: bool = False) -> int:
    gen, coupling, space, a1, gain = _gain_pipeline(cfg, force)
    w0 = resolve_w0(cfg.scenario, space)
    t_grid = cfg.sim.grid()
    result = _simulate(cfg, gen, coupling, gain, w0, t_grid)
    dev = result.state_deviation

    abs_e = np.abs(result.e)
    _write_csv(out_dir / "trajectory.csv",
               ["t", "y_re", "y_im", "yr_re", "yr_im", "u_re", "u_im",
                "e_re", "e_im", "abs_e", "state_dev_norm"],
               (t_grid, result.y.real, result.y.imag,
                result.y_r.real, result.y_r.imag,
                result.u.real, result.u.imag,
                result.e.real, result.e.imag, abs_e, dev))

    w0.to_csv(out_dir / "w0.csv")

    final = t_grid >= t_grid[-1] / 10.0
    lines = _scenario_header(cfg, gen, space)
    if not a1.passed:
        lines.append("WARN: Assumption 1 failed; simulated under --force")
    lines.append(f"grid: {len(t_grid)} points on "
                 f"[{_fmt(t_grid[0])}, {_fmt(t_grid[-1])}] ({cfg.sim.spacing})")
    lines.append(f"sup |e| over the whole run    = {_fmt(abs_e.max())}")
    lines.append(f"sup |e| over the final decade = {_fmt(abs_e[final].max())}")
    lines.append(f"final state deviation norm    = {_fmt(dev[-1])}")
    _write_text(out_dir / "simulate_summary.txt", lines)
    print("\n".join(lines))
    return 0


def cmd_decay(cfg: RunConfig, out_dir: Path, force: bool = False) -> int:
    gen, coupling, space, a1, gain = _gain_pipeline(cfg, force)
    t_grid = cfg.sim.grid()
    window = cfg.sim.window
    alpha = cfg.scenario.nominal_alpha
    tol = cfg.tolerances

    env = decay_envelope(gen, beta=1.0, t_grid=t_grid)
    try:
        fit = fit_decay_rate(env.values, t_grid, window)
        superpoly = check_superpolynomial(env.values, t_grid, window)
    except ValueError as exc:
        print(f"decay: degenerate window: {exc}", file=sys.stderr)
        return 2

    result = _simulate(cfg, gen, coupling, gain,
                       resolve_w0(cfg.scenario, space), t_grid)
    abs_e = np.abs(result.e)
    dev = result.state_deviation

    _write_csv(out_dir / "envelope.csv",
               ["t", "semigroup_envelope", "error_envelope",
                "state_dev_envelope"],
               (t_grid, env.values, _running_max_from_right(abs_e),
                _running_max_from_right(dev)))

    target = 1.0 / alpha
    lines = _scenario_header(cfg, gen, space)
    failures = []
    lines.append(f"semigroup envelope exponent (beta = 1) = "
                 f"{_fmt(fit.exponent_beta)} on window "
                 f"[{_fmt(window[0])}, {_fmt(window[1])}]")
    if env.boundary_mask[(t_grid >= window[0]) & (t_grid <= window[1])].any():
        lines.append("  WARN: envelope argmax touched the truncation boundary "
                     "inside the window; exponent unreliable")
    if superpoly.is_superpolynomial:
        lines.append(f"  flagged superpolynomial (early exponent "
                     f"{_fmt(superpoly.early_exponent)}, late "
                     f"{_fmt(superpoly.late_exponent)}); nominal match skipped")
    else:
        ok = abs(fit.exponent_beta - target) <= tol.slope_tol
        lines.append(f"  nominal 1/alpha = {_fmt(target)}: "
                     f"{'PASS' if ok else 'FAIL'} (+/- {_fmt(tol.slope_tol)})")
        if not ok:
            failures.append("semigroup envelope exponent")

    # the scalar error is reported only: an exact run saturates the
    # rounding floor and flattens, while the state-deviation norm carries
    # the guaranteed rate and gates the exit code
    for name, values, gated in (("error", abs_e, False),
                                ("state deviation", dev, True)):
        if values.max() == 0.0:
            lines.append(f"{name} certificate: skipped (identically zero run)")
            continue
        try:
            cert = certify_decay(t_grid, values, alpha, window)
        except ValueError as exc:
            lines.append(f"{name} certificate: skipped ({exc})")
            continue
        floor = f"reached the rounding floor at t = {_fmt(cert.floor_time)}"
        if not gated and np.isfinite(cert.floor_time):
            lines.append(f"{name} envelope: {floor}")
            continue
        status = ("PASS" if cert.passed else "FAIL") if gated else "reported"
        lines.append(f"{name} envelope slope = {_fmt(cert.slope)} "
                     f"(target <= {_fmt(cert.target_slope)} + "
                     f"{_fmt(cert.slope_tol)}; m = {_fmt(cert.m)}): {status}")
        if np.isfinite(cert.floor_time):
            lines.append(f"  note: {floor}")
        if gated and not cert.passed:
            failures.append(f"{name} decay certificate")

    lines.append("")
    if failures:
        lines.append(f"overall: FAIL ({'; '.join(failures)})")
    elif superpoly.is_superpolynomial:
        lines.append("overall: PASS (nominal rate not evaluated)")
    else:
        lines.append("overall: PASS")
    _write_text(out_dir / "decay_report.txt", lines)
    print("\n".join(lines))
    return 1 if failures else 0


_COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "decay": cmd_decay,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalreg",
        description="Spectral feedforward regulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "run assumption, conformity and spectrum checks"),
        ("solve", "build the gain sequence and the steady-state map"),
        ("simulate", "run the exact closed-loop simulation"),
        ("decay", "fit decay envelopes and certificates"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--force", action="store_true",
                       help="proceed past a failed assumption gate")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--modes", type=int, default=None,
                       help="override both mode counts")
    return parser


def _override(cfg: RunConfig, flag: str, **settings) -> RunConfig:
    """Apply a flag to the scenario settings its kind reads; a flag that
    sets none of them is a config error."""
    kind = cfg.scenario.kind
    read = {k: v for k, v in settings.items() if kind_reads(kind, k)}
    if not read:
        raise ConfigError(f"{flag} does not apply to kind = {kind}, which "
                          f"does not read {' or '.join(settings)}")
    return dataclasses.replace(
        cfg, scenario=dataclasses.replace(cfg.scenario, **read))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = _override(cfg, "--seed", seed=args.seed)
        if args.modes is not None:
            cfg = _override(cfg, "--modes", n_plant=args.modes,
                            n_exo=args.modes)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, force=args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssumptionFailure as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
