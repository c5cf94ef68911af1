"""Command-line front end: check, solve, simulate, decay.

    modalreg COMMAND --config PATH [--out DIR] [--force] [--seed N] [--modes N]

The flags may come before or after the command; ``modalreg --help``
lists the commands. Every command reads one config file, writes CSV
artifacts plus a human-readable report into the output directory, prints
the report, and exits with 0 on success, 1 on an assumption or tolerance
failure, 2 on a usage or config error. solve, simulate and decay stop at
a failed Assumption 1 unless ``--force`` is given, and every report made
past it carries one WARN line under the scenario line. Identical config
and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .csvio import overwrite
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
from .simulator import _CERT_SLOPE_TOL, certify_decay, simulate_outputs
# the full-state reference path, not called here; perfbench/tracing.py
# wraps these names
from .simulator import simulate_closed_loop, state_deviation_norms
from .spectral import (_TAIL_MIN_POINTS, check_geometric_condition,
                       check_superpolynomial, decay_envelope, fit_decay_rate)
from .sylvester import conformity_diagnostic

# The regulator equations count as solved when both residuals are at most
# this bound: the pair is solved in closed form, so it is a rounding level.
_RESIDUAL_BOUND = 1e-10
# Conformity asks the forcing operator to smooth into D((-A)**(alpha + eps))
# for some eps > 0; check reports it at this one eps.
_CONFORMITY_EPS = 0.25
# Assumption 1 holds when every |H(i omega_k)| is at least this floor.
_ASSUMPTION1_FLOOR = 1e-8
# decay's semigroup exponent matches the nominal 1/alpha within this.
_EXPONENT_TOL = 0.05


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_text(path: Path, lines) -> None:
    with overwrite(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


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


def _gate(cfg: RunConfig):
    """The scenario as built, its state w0, its frequency grid and
    Assumption 1. All four commands check the state settings here: one
    that does not fit the built scenario is a config error naming it."""
    sc = cfg.scenario
    gen, coupling, space = build_scenario(sc)
    key = "w0_preset" if isinstance(sc.w0_preset, str) else "w0_list"
    try:
        w0 = resolve_w0(sc, space)
        if not isinstance(sc.z0_preset, str):  # every z0 preset fits
            key = "z0_list"
            resolve_z0(sc, gen)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {key}: {exc}") from None
    grid = frequency_grid(gen, coupling, space)
    a1 = check_assumption1(grid, floor=_ASSUMPTION1_FLOOR)
    return gen, coupling, space, w0, grid, a1


def _overall(lines: list, failures: list, passed: str = "PASS") -> tuple:
    """End a report with its verdict; exit 1 if anything failed."""
    verdict = f"FAIL ({'; '.join(failures)})" if failures else passed
    return lines + ["", f"overall: {verdict}"], 1 if failures else 0


def cmd_check(cfg: RunConfig, out_dir: Path, force: bool = False) -> tuple:
    gen, coupling, space, _, grid, a1 = _gate(cfg)
    alpha = nominal_geometric_params(cfg.scenario)
    lines = _scenario_header(cfg, gen, space)
    failures = []

    lines.append(f"Assumption 1 (nonvanishing frequency response): "
                 f"{'PASS' if a1.passed else 'FAIL'}")
    lines.append(f"  min |H(i omega_k)| = {_fmt(a1.min_magnitude)} at "
                 f"k = {a1.argmin_mode} (floor {_fmt(_ASSUMPTION1_FLOOR)})")
    gap_pos = int(np.argmin(grid.gaps))
    lines.append(f"  smallest resolvent gap = {_fmt(grid.gaps[gap_pos])} at "
                 f"k = {int(space.modes.indices[gap_pos])}")
    if not a1.passed:
        failures.append("Assumption 1")

    a2 = None
    conf = None
    if a1.passed:
        gain = build_feedforward(grid)
        a2 = check_assumption2(gain)
        status = {"summable": "PASS", "divergent": "FAIL",
                  "inconclusive": "INCONCLUSIVE (trend at truncation)"}
        lines.append(f"Assumption 2 (square-summable weighted gains): "
                     f"{status[a2.tail.verdict]}")
        lines.append(f"  tail exponent = {_fmt(a2.tail.exponent)} "
                     f"({a2.tail.verdict}); partial sum = {_fmt(a2.total)}")
        if a2.tail.verdict == "divergent":
            failures.append("Assumption 2")

        conf = conformity_diagnostic(gen, coupling, gain, alpha=alpha,
                                     eps=_CONFORMITY_EPS)
        lines.append(f"Conformity (smoothing order "
                     f"{_fmt(alpha + _CONFORMITY_EPS)}): {conf.verdict}")
        ev = conf.sufficient_condition
        lines.append(f"  sup_k column bound / f_k = {_fmt(ev.sup_bound)} at "
                     f"k = {ev.argmax_mode}; worst mode-sum trend: "
                     f"{ev.worst_tail.verdict}")
        if conf.verdict == "non-conform-trend":
            failures.append("Conformity")
    else:
        lines.append("Assumption 2: SKIPPED (Assumption 1 failed)")
        lines.append("Conformity: SKIPPED (Assumption 1 failed)")

    # a measurement beside the nominal order, not a verdict
    order = check_geometric_condition(gen)
    n = order.n_points
    fitted = (f"alpha_hat = {_fmt(-order.slope)} over {n} modes"
              if n >= _TAIL_MIN_POINTS else
              f"not evaluated ({n} modes; need >= {_TAIL_MIN_POINTS})")
    lines.append(f"Spectral order (-Re mu against |Im mu|, outer half): "
                 f"{fitted}; nominal alpha = {_fmt(alpha)}")

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "assumption2_partial_sums.csv", ["K", "partial_sum"],
               () if a2 is None else
               (np.arange(a2.partial_sums.size), a2.partial_sums))
    tails = sorted(conf.tail_norms.items()) if conf is not None else []
    # (horizon, tail_norm) pairs as two columns, (2, 0) when empty
    _write_csv(out_dir / "conformity_tails.csv", ["horizon", "tail_norm"],
               np.array(tails, dtype=float).reshape(-1, 2).T)
    # an inconclusive trend is named but, like a pass, exits 0
    inconclusive = a2 is not None and a2.tail.verdict == "inconclusive"
    return _overall(lines, failures, "PASS (Assumption 2 inconclusive)"
                    if inconclusive else "PASS")


def _gain_pipeline(cfg: RunConfig, force: bool):
    """The gate and the gain for solve, simulate and decay, with the report
    header: a failed Assumption 1 stops the run unless ``force``, and then
    the header carries one WARN line."""
    gen, coupling, space, w0, grid, a1 = _gate(cfg)
    header = _scenario_header(cfg, gen, space)
    if not a1.passed:
        if not force:
            raise AssumptionFailure(
                f"Assumption 1 failed: min |H| = {a1.min_magnitude:.3e} at "
                f"k = {a1.argmin_mode} is below floor "
                f"{_ASSUMPTION1_FLOOR:.3e} (rerun with --force to proceed anyway)")
        header += [f"WARN: Assumption 1 failed (min |H| = "
                   f"{_fmt(a1.min_magnitude)} at k = {a1.argmin_mode}, floor "
                   f"{_fmt(_ASSUMPTION1_FLOOR)}); run anyway under --force", ""]
    return gen, coupling, w0, header, build_feedforward(grid)


def _simulate(cfg: RunConfig, gen, coupling, gain, w0, t_grid):
    """The configured run's outputs and state deviation, from Pi w0 and
    c Pi; the steady-state map is never built whole."""
    image = steady_state_image(gen, coupling, gain, w0)
    z0 = resolve_z0(cfg.scenario, gen, pi_w0=image.pi_w0)
    return simulate_outputs(gen, coupling, gain, z0, image, t_grid)


def cmd_solve(cfg: RunConfig, out_dir: Path, force: bool = False) -> tuple:
    gen, coupling, _, lines, gain = _gain_pipeline(cfg, force)
    solution = solve_regulator(gen, coupling, gain)
    res1 = residual_first_equation(solution, gen, coupling, gain)
    res2 = residual_second_equation(solution, coupling)

    ok1 = res1 <= _RESIDUAL_BOUND
    ok2 = res2 <= _RESIDUAL_BOUND
    lines.append(f"first regulator equation residual  = {_fmt(res1)}  "
                 f"[{'PASS' if ok1 else 'FAIL'} <= {_fmt(_RESIDUAL_BOUND)}]")
    lines.append(f"second regulator equation residual = {_fmt(res2)}  "
                 f"[{'PASS' if ok2 else 'FAIL'} <= {_fmt(_RESIDUAL_BOUND)}]")
    lines.append(f"operator norm estimate of the steady-state map = "
                 f"{_fmt(solution.operator_norm_estimate)}")

    exo_idx = gain.space.modes.indices
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "L.csv", ["k", "re", "im"],
               (exo_idx, gain.ell.real, gain.ell.imag))
    # views, written in C order: row (n, k) of Pi.csv is entry [i, j] of pi
    pi = solution.pi
    _write_csv(out_dir / "Pi.csv", ["n", "k", "re", "im"],
               (np.broadcast_to(gen.modes.indices[:, None], pi.shape),
                np.broadcast_to(exo_idx, pi.shape), pi.real, pi.imag))
    return lines, 0 if (ok1 and ok2) else 1


def cmd_simulate(cfg: RunConfig, out_dir: Path, force: bool = False) -> tuple:
    gen, coupling, w0, lines, gain = _gain_pipeline(cfg, force)
    t_grid = cfg.sim.grid()
    result = _simulate(cfg, gen, coupling, gain, w0, t_grid)
    dev = result.state_deviation

    abs_e = np.abs(result.e)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "trajectory.csv",
               ["t", "y_re", "y_im", "yr_re", "yr_im", "u_re", "u_im",
                "e_re", "e_im", "abs_e", "state_dev_norm"],
               (t_grid, result.y.real, result.y.imag,
                result.y_r.real, result.y_r.imag,
                result.u.real, result.u.imag,
                result.e.real, result.e.imag, abs_e, dev))

    w0.to_csv(out_dir / "w0.csv")

    final = t_grid >= t_grid[-1] / 10.0
    lines.append(f"grid: {len(t_grid)} points on "
                 f"[{_fmt(t_grid[0])}, {_fmt(t_grid[-1])}] ({cfg.sim.spacing})")
    lines.append(f"sup |e| over the whole run    = {_fmt(abs_e.max())}")
    lines.append(f"sup |e| over the final decade = {_fmt(abs_e[final].max())}")
    lines.append(f"final state deviation norm    = {_fmt(dev[-1])}")
    return lines, 0


def cmd_decay(cfg: RunConfig, out_dir: Path, force: bool = False) -> tuple:
    gen, coupling, w0, lines, gain = _gain_pipeline(cfg, force)
    t_grid = cfg.sim.grid()
    window = cfg.sim.window
    alpha = nominal_geometric_params(cfg.scenario)

    env = decay_envelope(gen, beta=1.0, t_grid=t_grid)
    # a degenerate window raises here, before anything is written
    exponent = -fit_decay_rate(env.values, t_grid, window).slope
    superpoly = check_superpolynomial(env.values, t_grid, window)

    result = _simulate(cfg, gen, coupling, gain, w0, t_grid)
    abs_e = np.abs(result.e)
    dev = result.state_deviation

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "envelope.csv",
               ["t", "semigroup_envelope", "error_envelope",
                "state_dev_envelope"],
               (t_grid, env.values, _running_max_from_right(abs_e),
                _running_max_from_right(dev)))

    target = 1.0 / alpha
    failures = []
    lines.append(f"semigroup envelope exponent (beta = 1) = "
                 f"{_fmt(exponent)} on window "
                 f"[{_fmt(window[0])}, {_fmt(window[1])}]")
    unreliable = env.boundary_mask[
        (t_grid >= window[0]) & (t_grid <= window[1])].any()
    if unreliable:
        lines.append("  WARN: envelope argmax touched the truncation boundary "
                     "inside the window; exponent unreliable")
    if superpoly.is_superpolynomial:
        lines.append(f"  flagged superpolynomial (early exponent "
                     f"{_fmt(superpoly.early_exponent)}, late "
                     f"{_fmt(superpoly.late_exponent)}); nominal match skipped")
    elif unreliable:
        lines.append("  nominal match skipped (exponent unreliable)")
    else:
        ok = abs(exponent - target) <= _EXPONENT_TOL
        lines.append(f"  nominal 1/alpha = {_fmt(target)}: "
                     f"{'PASS' if ok else 'FAIL'} (+/- {_fmt(_EXPONENT_TOL)})")
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
                     f"(target <= {_fmt(-1.0 / alpha)} + "
                     f"{_fmt(_CERT_SLOPE_TOL)}; m = {_fmt(cert.m)}): {status}")
        if np.isfinite(cert.floor_time):
            lines.append(f"  note: {floor}")
        if gated and not cert.passed:
            failures.append(f"{name} decay certificate")

    return _overall(lines, failures,
                    "PASS (nominal rate not evaluated)"
                    if superpoly.is_superpolynomial or unreliable else "PASS")


# command -> (function, report file); each function makes the output
# directory once nothing can stop it, writes its CSV artifacts there and
# returns its report lines and exit code, so a stopped run leaves no
# directory behind
_COMMANDS = {
    "check": (cmd_check, "check_report.txt"),
    "solve": (cmd_solve, "residuals.txt"),
    "simulate": (cmd_simulate, "simulate_summary.txt"),
    "decay": (cmd_decay, "decay_report.txt"),
}


@functools.lru_cache(maxsize=None)  # built once per process, reused by main
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalreg",
        description="Spectral feedforward regulation toolkit",
    )
    parser.add_argument(
        "command", choices=_COMMANDS,
        help="check: assumption, conformity and spectrum checks; "
             "solve: gains, steady-state map and residuals; "
             "simulate: the exact closed-loop run; "
             "decay: decay envelopes and certificates")
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="proceed past a failed assumption gate")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--modes", type=int, default=None,
                        help="override both mode counts")
    return parser


def _override(cfg: RunConfig, flag: str, **settings) -> RunConfig:
    """Apply a flag to the scenario settings its kind reads; a flag that
    sets none of them, or sets one out of range, is a config error."""
    kind = cfg.scenario.kind
    read = {k: v for k, v in settings.items() if kind_reads(kind, k)}
    if not read:
        raise ConfigError(f"{flag} does not apply to kind = {kind}, which "
                          f"does not read {' or '.join(settings)}")
    try:
        scenario = dataclasses.replace(cfg.scenario, **read)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    return dataclasses.replace(cfg, scenario=scenario)


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
        command, report = _COMMANDS[args.command]
        lines, code = command(cfg, out_dir, force=args.force)
        _write_text(out_dir / report, lines)
        print("\n".join(lines))
        return code
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
