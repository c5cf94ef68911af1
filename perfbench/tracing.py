"""Spans and counters around the public functions of each modalreg module.

Wrappers replace the bound names in the calling modules (``cli`` imports
by name, so patching only the defining module would miss its calls). A
span is ``[name, start, end, parent, invocation]``; spans stay in memory
and are returned when the pass ends. A span's name is
``<layer>.<function>``, the layer being the module that defines the
function, whichever module calls it.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

_perf = time.perf_counter

# (module the name is looked up in, attribute, span name)
SPANS = (
    ("cli", "load_config", "config.load_config"),
    ("cli", "build_scenario", "scenarios.build_scenario"),
    ("cli", "nominal_geometric_params", "scenarios.nominal_geometric_params"),
    ("cli", "resolve_w0", "scenarios.resolve_w0"),
    ("cli", "resolve_z0", "scenarios.resolve_z0"),
    ("cli", "check_assumption1", "regulator.check_assumption1"),
    ("scenarios", "check_assumption1", "regulator.check_assumption1"),
    ("cli", "build_feedforward", "regulator.build_feedforward"),
    ("cli", "check_assumption2", "regulator.check_assumption2"),
    ("cli", "forcing_columns", "regulator.forcing_columns"),
    ("cli", "solve_regulator", "regulator.solve_regulator"),
    ("cli", "residual_first_equation", "regulator.residual_first_equation"),
    ("cli", "residual_second_equation", "regulator.residual_second_equation"),
    ("regulator", "frequency_denominators", "regulator.frequency_denominators"),
    ("simulator", "frequency_denominators", "regulator.frequency_denominators"),
    ("sylvester", "frequency_denominators", "regulator.frequency_denominators"),
    ("regulator", "forcing_matrix", "regulator.forcing_matrix"),
    ("simulator", "forcing_matrix", "regulator.forcing_matrix"),
    ("simulator", "control_signal", "regulator.control_signal"),
    ("simulator", "synthesize_signal", "exosystem.synthesize_signal"),
    ("regulator", "classify_tail", "spectral.classify_tail"),
    ("sylvester", "classify_tail", "spectral.classify_tail"),
    ("sylvester", "fractional_norm", "spectral.fractional_norm"),
    ("cli", "conformity_diagnostic", "sylvester.conformity_diagnostic"),
    ("cli", "simulate_closed_loop", "simulator.simulate_closed_loop"),
    ("cli", "state_deviation_norms", "simulator.state_deviation_norms"),
    ("cli", "certify_decay", "simulator.certify_decay"),
    ("cli", "check_geometric_condition", "spectral.check_geometric_condition"),
    ("cli", "decay_envelope", "spectral.decay_envelope"),
    ("cli", "fit_decay_rate", "spectral.fit_decay_rate"),
    ("cli", "check_superpolynomial", "spectral.check_superpolynomial"),
    ("cli", "_write_csv", "cli.write"),
    ("cli", "_write_text", "cli.write"),
)


class Tracer:
    """Span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.invocation = -1
        self._stack = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.invocation]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = _perf()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """Span ``fn`` as ``name``; ``count(result, args)`` runs after the
        span closes, inside a ``trace.count`` span of its own."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                self.call("trace.count", count, (result, args), {})
            return result
        return wrapper

    def counter(self, key, fn):
        """Count calls of ``fn`` without a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def _file_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def install(tracer: Tracer) -> None:
    """Patch the modalreg modules in place; used in a throwaway process."""
    from modalreg import cli, regulator, scenarios, simulator, sylvester
    from modalreg.exosystem import ExoState

    modules = {"cli": cli, "regulator": regulator, "scenarios": scenarios,
               "simulator": simulator, "sylvester": sylvester}
    counts = tracer.counts

    def csv_written(path):
        counts["cli.bytes_written"] += os.path.getsize(path)
        counts["cli.rows_written"] += _file_rows(path) - 1  # minus the header

    def on_write_csv(_result, args):
        csv_written(args[0])

    def on_write_text(_result, args):
        counts["cli.bytes_written"] += os.path.getsize(args[0])

    def on_to_csv(_result, args):
        csv_written(args[1])

    def on_denominators(_result, args):
        gen, space = args[0], args[1]
        counts["regulator.denominator_builds"] += 1
        counts["regulator.grid_bytes_computed"] += \
            len(gen.modes) * len(space.modes) * 16

    def bump(key):
        def hook(_result, _args):
            counts[key] += 1
        return hook

    def on_build(_result, args):
        if args[0].kind == "random":
            counts["scenarios.random_built"] += 1

    def on_simulate(result, args):
        counts["simulator.points_x_modes"] += len(result.t_grid) * len(args[0].modes)

    hooks = {
        ("cli", "_write_csv"): on_write_csv,
        ("cli", "_write_text"): on_write_text,
        ("cli", "build_scenario"): on_build,
        ("cli", "simulate_closed_loop"): on_simulate,
        ("scenarios", "check_assumption1"): bump("scenarios.random_attempts"),
        ("regulator", "forcing_matrix"): bump("regulator.forcing_builds"),
        ("simulator", "forcing_matrix"): bump("regulator.forcing_builds"),
        ("regulator", "frequency_denominators"): on_denominators,
        ("simulator", "frequency_denominators"): on_denominators,
        ("sylvester", "frequency_denominators"): on_denominators,
    }
    for mod_name, attr, span in SPANS:
        module = modules[mod_name]
        setattr(module, attr, tracer.wrap(span, getattr(module, attr),
                                          hooks.get((mod_name, attr))))
    ExoState.to_csv = tracer.wrap("cli.write", ExoState.to_csv, on_to_csv)
    sylvester.quadrature_pi_column = tracer.counter(
        "sylvester.columns", sylvester.quadrature_pi_column)


def _total(totals, *names) -> float:
    return sum(totals.get(n, 0.0) for n in names)


def summarize(spans, counts) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    totals, self_by_layer = Counter(), Counter()
    for i, s in enumerate(spans):
        totals[s[0]] += dur[i]
        self_by_layer[s[0].split(".")[0]] += dur[i] - child[i]
    main_self = sum(dur[i] - child[i] for i, s in enumerate(spans)
                    if s[0] == "cli.main")
    write_s = totals["cli.write"]
    attempts = counts["scenarios.random_attempts"]
    return {
        "cli.self_s": main_self,
        "cli.write_s": write_s,
        "cli.rows_written": counts["cli.rows_written"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "cli.write_MBps": counts["cli.bytes_written"] / 1e6 / write_s if write_s else 0.0,
        "config.load_config_s": totals["config.load_config"],
        "scenarios.build_scenario_s": totals["scenarios.build_scenario"],
        "scenarios.resolve_state_s": _total(totals, "scenarios.resolve_w0",
                                            "scenarios.resolve_z0"),
        "scenarios.random_attempts": attempts,
        "scenarios.accept_ratio": (counts["scenarios.random_built"] / attempts
                                   if attempts else 0.0),
        "scenarios.self_s": self_by_layer["scenarios"],
        "regulator.check_assumption1_s": totals["regulator.check_assumption1"],
        "regulator.build_feedforward_s": totals["regulator.build_feedforward"],
        "regulator.check_assumption2_s": totals["regulator.check_assumption2"],
        "regulator.solve_regulator_s": totals["regulator.solve_regulator"],
        "regulator.residuals_s": _total(totals, "regulator.residual_first_equation",
                                        "regulator.residual_second_equation"),
        "regulator.denominator_builds": counts["regulator.denominator_builds"],
        "regulator.forcing_builds": counts["regulator.forcing_builds"],
        "regulator.grid_mb_computed": counts["regulator.grid_bytes_computed"] / 1e6,
        "regulator.self_s": self_by_layer["regulator"],
        "sylvester.conformity_s": totals["sylvester.conformity_diagnostic"],
        "sylvester.columns": counts["sylvester.columns"],
        "sylvester.self_s": self_by_layer["sylvester"],
        "simulator.simulate_closed_loop_s": totals["simulator.simulate_closed_loop"],
        "simulator.state_deviation_norms_s": totals["simulator.state_deviation_norms"],
        "simulator.certify_decay_s": totals["simulator.certify_decay"],
        "simulator.points_x_modes": counts["simulator.points_x_modes"],
        "simulator.self_s": self_by_layer["simulator"],
        "spectral.decay_envelope_s": totals["spectral.decay_envelope"],
        "spectral.fit_s": _total(totals, "spectral.fit_decay_rate",
                                 "spectral.check_superpolynomial"),
        "spectral.geometric_s": totals["spectral.check_geometric_condition"],
        "spectral.self_s": self_by_layer["spectral"],
        "exosystem.self_s": self_by_layer["exosystem"],
    }
