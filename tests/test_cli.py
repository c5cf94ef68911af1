"""Config parsing, subcommand behavior, exit codes, and artifact formats."""

import csv
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from oracles import traced_cli_peak

from modalreg import cli
from modalreg.cli import main
from modalreg.config import _FIELD, CONFIG_KEYS, SimGrid, load_config
from modalreg.errors import ConfigError
from modalreg.scenarios import (KIND_READS, VALID_KINDS, ScenarioConfig,
                                build_scenario, nominal_geometric_params,
                                resolve_w0, resolve_z0)

DIAG_OK = """
[scenario]
kind = diagonal
n_plant = 60
n_exo = 60
gamma = 2.0
w0_preset = square11
z0_preset = inv_mu_sq
"""

DIAG_DIVERGENT = """
[scenario]
kind = diagonal
n_plant = 120
n_exo = 120
gamma = 1.25
"""

CUSTOM_DEAD_OUTPUT = """
[scenario]
kind = custom
eigenvalues = -1+1j, -2-1j, -0.5+3j
b = 1, 0.5, 0.25
c = 0, 0, 0
n_exo = 5
"""

# a response far below the Assumption 1 floor but nonzero:
# min |H| = 7.26e-11 at k = -3
CUSTOM_TINY = """
[scenario]
kind = custom
eigenvalues = -1+1j, -2-1j, -0.5+3j
b = 1, 1, 1
c = 1e-10, 1e-10, 1e-10
n_exo = 3
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfigParsing:
    def test_minimal_config_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, DIAG_OK))
        assert cfg.scenario.kind == "diagonal"
        assert cfg.sim.n_points == 512

    def test_unknown_key_rejected(self, tmp_path):
        bad = DIAG_OK + "color = blue\n"
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = DIAG_OK + "\n[plotting]\nstyle = fancy\n"
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))

    def test_bad_value_reported_with_location(self, tmp_path):
        bad = DIAG_OK.replace("n_plant = 60", "n_plant = many")
        with pytest.raises(ConfigError, match=r"\[scenario\] n_plant"):
            load_config(write(tmp_path, bad))

    def test_overrides_parsed(self, tmp_path):
        text = DIAG_OK + """
[simulate]
t_min = 0.1
t_max = 100
n_points = 64
spacing = linear
window_lo = 1
window_hi = 50
"""
        cfg = load_config(write(tmp_path, text))
        assert cfg.sim.spacing == "linear"
        assert len(cfg.sim.grid()) == 64

    def test_explicit_state_lists(self, tmp_path):
        text = DIAG_OK.replace("w0_preset = square11",
                               "w0_list = 1+0j, 0, 0.5j") \
            .replace("n_exo = 60", "n_exo = 1")
        cfg = load_config(write(tmp_path, text))
        assert cfg.scenario.w0_preset == (1.0, 0.0, 0.5j)

    # the method settings and verdict thresholds are constants: the
    # horizon schedule, the residual bounds, the conformity margin, the
    # Assumption 1 floor and the exponent tolerance
    @pytest.mark.parametrize("section, line", [
        ("quadrature", "horizons = 10, 20, 40"),
        ("quadrature", "method = analytic"),
        ("quadrature", "step = 0.01"),
        ("tolerances", "first_residual = 1e-10"),
        ("tolerances", "second_residual = 1e-10"),
        ("tolerances", "conformity_eps = 0.25"),
        ("tolerances", "assumption1_floor = 1e-8"),
        ("tolerances", "slope_tol = 0.05"),
    ], ids=["horizons", "method", "step", "first_residual", "second_residual",
            "conformity_eps", "assumption1_floor", "slope_tol"])
    def test_removed_quadrature_keys_rejected(self, section, line, tmp_path,
                                              capsys):
        message = f"unknown section [{section}]"
        path = write(tmp_path, DIAG_OK + f"\n[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert main(["check", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["eigenvalues", "b", "c"])
    def test_custom_only_keys_rejected_elsewhere(self, key, tmp_path, capsys):
        text = "[scenario]\nkind = wave\nn_plant = 5\nn_exo = 5\n"
        path = write(tmp_path, f"{text}{key} = -1, -2\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["check", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def rejected_by_every_command(path, out, message, capsys):
        for command in ("check", "solve", "simulate", "decay"):
            assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n" * 4
        assert not out.exists()

    # every float key and one complex list
    NUMBER_KEYS = [(section, key) for section, keys in CONFIG_KEYS.items()
                   for key, conv in keys.items() if conv is float]
    NUMBER_KEYS += [("scenario", "eigenvalues")]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", NUMBER_KEYS)
    def test_non_finite_number_rejected(self, section, key, value, tmp_path,
                                        capsys):
        text = ("[scenario]\nkind = custom\nb = 1, 1\nc = 1, 1\n"
                if key == "eigenvalues"
                else "[scenario]\nkind = wave\nn_plant = 5\nn_exo = 5\n")
        if section != "scenario":
            text += f"[{section}]\n"
        raw = {"eigenvalues": f"{value}, -1"}.get(key, value)
        path = write(tmp_path, f"{text}{key} = {raw}\n")
        self.rejected_by_every_command(
            path, tmp_path / "out",
            f"[{section}] {key} = {raw!r}: numbers must be finite", capsys)

    # state settings that do not fit the built diagonal 10 x 3 scenario
    # (21 plant modes, 7 harmonics): every command rejects them alike,
    # naming the key, before it writes anything
    @pytest.mark.parametrize("command", ["check", "solve", "simulate",
                                         "decay"])
    @pytest.mark.parametrize("line, message", [
        ("w0_preset = square11", "w0_preset: square11 preset needs "
         "exosystem modes through |k| = 5"),
        ("w0_list = 1, 2",
         "w0_list: explicit w0 list has length 2, expected 7"),
        ("z0_list = 1, 2, 3",
         "z0_list: explicit z0 list has length 3, expected 21"),
    ], ids=["w0_preset", "w0_list", "z0_list"])
    def test_state_setting_misfit_rejected(self, command, line, message,
                                           tmp_path, capsys):
        text = "[scenario]\nkind = diagonal\nn_plant = 10\nn_exo = 3\n"
        path = write(tmp_path, f"{text}{line}\n")
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"config error: [scenario] "
                                           f"{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["-1", "0"])
    def test_nonpositive_alpha_rejected(self, alpha, tmp_path, capsys):
        path = write(tmp_path, DIAG_OK + f"alpha = {alpha}\n")
        self.rejected_by_every_command(
            path, tmp_path / "out",
            f"[scenario]: alpha must be positive, got {float(alpha)}", capsys)


class TestCheckCommand:
    def test_passing_scenario(self, tmp_path, capsys):
        code = main(["check", "--config", write(tmp_path, DIAG_OK),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = (tmp_path / "out" / "check_report.txt").read_text()
        assert "overall: PASS" in report
        header, rows = read_csv(tmp_path / "out" / "assumption2_partial_sums.csv")
        assert header == ["K", "partial_sum"]
        assert len(rows) == 61
        header, rows = read_csv(tmp_path / "out" / "conformity_tails.csv")
        assert header == ["horizon", "tail_norm"]
        assert len(rows) == 8

    def test_resonant_wave_scenario_passes(self, tmp_path, capsys):
        text = """
[scenario]
kind = wave
n_plant = 200
n_exo = 200
period = 2.0
gamma = 2.0
"""
        out = tmp_path / "out"
        code = main(["check", "--config", write(tmp_path, text),
                     "--out", str(out)])
        assert code == 0
        report = (out / "check_report.txt").read_text()
        assert "Conformity" in report and "conform-trend" in report
        assert ("Spectral order (-Re mu against |Im mu|, outer half): "
                "alpha_hat = ") in report
        fitted = re.search(r"alpha_hat = (\S+) over 202 modes; "
                           r"nominal alpha = 2\n", report)
        assert float(fitted.group(1)) == pytest.approx(2.0, abs=1e-12)
        assert "Geometric condition" not in report
        assert "overall: PASS" in report

    def test_spectral_order_beside_configured_alpha(self, tmp_path, capsys):
        text = ("[scenario]\nkind = wave\nn_plant = 100\nn_exo = 100\n"
                "alpha = 1.5\n")
        out = tmp_path / "out"
        assert main(["check", "--config", write(tmp_path, text),
                     "--out", str(out)]) == 0
        report = (out / "check_report.txt").read_text()
        fitted = re.search(r"alpha_hat = (\S+) over 102 modes; "
                           r"nominal alpha = 1.5\n", report)
        assert float(fitted.group(1)) == pytest.approx(2.0, abs=1e-12)
        # the conformity order reads the same nominal alpha
        assert "Conformity (smoothing order 1.75)" in report

    def test_spectral_order_not_evaluated_on_few_modes(self, tmp_path,
                                                       capsys):
        text = ("[scenario]\nkind = custom\neigenvalues = -1+1j, -2, -1-2j\n"
                "b = 1, 1, 1\nc = 1, 0.5, 1\nn_exo = 2\n")
        out = tmp_path / "out"
        main(["check", "--config", write(tmp_path, text), "--out", str(out)])
        report = (out / "check_report.txt").read_text()
        assert ("Spectral order (-Re mu against |Im mu|, outer half): "
                "not evaluated (2 modes; need >= 5); nominal alpha = 1\n"
                ) in report

    def test_divergent_gain_sequence_fails_named(self, tmp_path, capsys):
        code = main(["check", "--config", write(tmp_path, DIAG_DIVERGENT),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        report = (tmp_path / "out" / "check_report.txt").read_text()
        assert "overall: FAIL (Assumption 2)" in report

    def test_inconclusive_gain_trend_named(self, tmp_path, capsys):
        """At gamma = 3/2 the resonant wave's weighted gains go as k**-1
        (fitted exponent -0.99988 at N = 200): the Assumption 2 trend is
        inconclusive at truncation, the report says so, and the run still
        exits 0."""
        text = ("[scenario]\nkind = wave\nn_plant = 200\nn_exo = 200\n"
                "gamma = 1.5\n")
        out = tmp_path / "out"
        assert main(["check", "--config", write(tmp_path, text),
                     "--out", str(out)]) == 0
        report = (out / "check_report.txt").read_text()
        assert ("Assumption 2 (square-summable weighted gains): "
                "INCONCLUSIVE (trend at truncation)\n") in report
        assert "(inconclusive)" in report  # the tail exponent line
        assert "PASS (inconclusive trend)" not in report
        assert report.endswith("\noverall: PASS (Assumption 2 inconclusive)\n")

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("not a config [[[")
        code = main(["check", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        code = main(["check",
                     "--config", write(tmp_path, DIAG_OK + "mystery = 1\n"),
                     "--out", str(tmp_path / "out")])
        assert code == 2


class TestSolveCommand:
    def test_residuals_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--config", write(tmp_path, DIAG_OK),
                     "--out", str(out)])
        assert code == 0
        text = (out / "residuals.txt").read_text()
        assert text.count("PASS") == 2
        header, rows = read_csv(out / "L.csv")
        assert header == ["k", "re", "im"]
        assert len(rows) == 121
        header, rows = read_csv(out / "Pi.csv")
        assert header == ["n", "k", "re", "im"]
        assert len(rows) == 121 * 121

    @pytest.mark.parametrize("first, second", [("60", "30"), ("30", "60")])
    def test_rerun_into_the_same_directory(self, tmp_path, capsys,
                                           first, second):
        """A rerun into an existing --out, with longer or shorter files
        than the run before, leaves the bytes of a run into a fresh
        directory."""
        cfg = write(tmp_path, DIAG_OK)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--modes", first]) == 0
        sizes = {p.name: p.stat().st_size for p in out.iterdir()}
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--modes", second]) == 0
        assert main(["solve", "--config", cfg, "--out", str(fresh),
                     "--modes", second]) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(sizes) == ["L.csv", "Pi.csv", "residuals.txt"]
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        grew = [(fresh / name).stat().st_size > sizes[name] for name in names]
        assert grew == [int(second) > int(first)] * len(names)

    def test_wave_residuals_small(self, tmp_path, capsys):
        text = """
[scenario]
kind = wave
n_plant = 200
n_exo = 200
period = 6.283185307179586
gamma = 2.0
"""
        out = tmp_path / "out"
        code = main(["solve", "--config", write(tmp_path, text),
                     "--out", str(out)])
        assert code == 0
        report = (out / "residuals.txt").read_text()
        for line in report.splitlines():
            if "residual" in line:
                value = float(line.split("=")[1].split("[")[0])
                assert value <= 1e-10

    def test_dead_output_gate_and_force(self, tmp_path, capsys):
        cfg = write(tmp_path, CUSTOM_DEAD_OUTPUT)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Assumption 1" in err
        # forcing cannot help here: the response is exactly zero
        code = main(["solve", "--config", cfg, "--force",
                     "--out", str(tmp_path / "b")])
        assert code == 1

    def test_force_past_floor(self, tmp_path, capsys):
        # tiny but nonzero response: floor gate fails, --force proceeds
        cfg = write(tmp_path, CUSTOM_TINY)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "a")]) == 1
        code = main(["solve", "--config", cfg, "--force",
                     "--out", str(tmp_path / "b")])
        assert code == 0
        assert "WARN" in (tmp_path / "b" / "residuals.txt").read_text()

    @pytest.mark.parametrize("command", ["solve", "simulate", "decay"])
    def test_forced_report_warns(self, command, tmp_path, capsys):
        """Past a failed Assumption 1, every report made under --force
        carries the same WARN line under the scenario line."""
        cfg = write(tmp_path, CUSTOM_TINY)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "a")]) == 1
        assert not (tmp_path / "a").exists()
        capsys.readouterr()
        main([command, "--config", cfg, "--force", "--out", str(tmp_path / "b")])
        report = next((tmp_path / "b").glob("*.txt")).read_text()
        assert capsys.readouterr().out == report
        lines = report.splitlines()
        assert [ln for ln in lines if "Assumption 1" in ln] == [lines[2]]
        assert re.fullmatch(r"WARN: Assumption 1 failed \(min \|H\| = \S+ at "
                            r"k = -?\d+, floor 1e-08\); run anyway under --force",
                            lines[2])
        assert lines[3] == ""


class TestParser:
    def test_help_names_the_commands(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("check", "solve", "simulate", "decay"):
            assert command in out

    def test_unknown_command_is_usage_error(self, tmp_path, capsys):
        assert main(["frobnicate", "--config", write(tmp_path, DIAG_OK),
                     "--out", str(tmp_path / "out")]) == 2
        assert "frobnicate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["check", "--out", str(tmp_path / "out")]) == 2
        assert "--config" in capsys.readouterr().err

    def test_flags_before_the_command(self, tmp_path, capsys):
        cfg = write(tmp_path, DIAG_OK)
        assert main(["--config", cfg, "--out", str(tmp_path / "a"),
                     "solve"]) == 0
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("residuals.txt", "L.csv", "Pi.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_successive_calls_parse_independently(self, tmp_path, capsys):
        """One parser serves every call of a process; no flag of one call
        carries into the next."""
        cfg = write(tmp_path, DIAG_OK)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--modes", "5"]) == 0
        assert main(["check", "--config", cfg,
                     "--out", str(tmp_path / "b")]) == 0
        assert cli._build_parser() is cli._build_parser()
        assert "plant_modes=11 harmonics=11 " in \
            (tmp_path / "a" / "residuals.txt").read_text()
        assert "plant_modes=121 harmonics=121 " in \
            (tmp_path / "b" / "check_report.txt").read_text()
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
            ["L.csv", "Pi.csv", "residuals.txt"]
        assert not (tmp_path / "b" / "residuals.txt").exists()

    def test_usage_error_after_a_good_call(self, tmp_path, capsys):
        cfg = write(tmp_path, DIAG_OK)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(["check", "--out", str(tmp_path / "b")]) == 2
        assert "--config" in capsys.readouterr().err
        assert main(["check", "--config", cfg, "--modes", "five"]) == 2
        assert "--modes" in capsys.readouterr().err

    def test_help_after_a_good_call(self, tmp_path, capsys):
        cfg = write(tmp_path, DIAG_OK)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(["--help"]) == 0
        assert "usage: modalreg" in capsys.readouterr().out

    def test_module_entry_point_exit_codes(self, tmp_path):
        """``python -m modalreg.cli``: 0 on a pass, 1 on a failed
        assumption, 2 on a usage error."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        ok = write(tmp_path, DIAG_OK, "ok.ini")
        divergent = write(tmp_path, DIAG_DIVERGENT, "divergent.ini")
        runs = [(["check", "--config", ok], 0),
                (["check", "--config", divergent], 1),
                (["check"], 2)]
        for i, (argv, code) in enumerate(runs):
            proc = subprocess.run(
                [sys.executable, "-m", "modalreg.cli", *argv,
                 "--out", str(tmp_path / f"out{i}")],
                env=env, capture_output=True, text=True)
            assert proc.returncode == code, proc.stderr


class TestSimulateCommand:
    def test_manifold_start_stays_flat(self, tmp_path, capsys):
        text = DIAG_OK.replace("z0_preset = inv_mu_sq", "z0_preset = pi_w0")
        out = tmp_path / "out"
        code = main(["simulate", "--config", write(tmp_path, text),
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "y_re", "y_im", "yr_re", "yr_im", "u_re",
                          "u_im", "e_re", "e_im", "abs_e", "state_dev_norm"]
        abs_e = np.array([float(r[9]) for r in rows])
        assert abs_e.max() <= 1e-9

    def test_zero_reference_means_zero_input(self, tmp_path, capsys):
        text = DIAG_OK.replace("w0_preset = square11", "w0_preset = zero")
        out = tmp_path / "out"
        code = main(["simulate", "--config", write(tmp_path, text),
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert all(float(r[5]) == 0.0 and float(r[6]) == 0.0 for r in rows)

    def test_reference_state_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", write(tmp_path, DIAG_OK),
              "--out", str(out)])
        header, rows = read_csv(out / "w0.csv")
        assert header == ["k", "re", "im"]
        assert len(rows) == 121

    def test_numbers_round_trip_at_full_precision(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", write(tmp_path, DIAG_OK),
              "--out", str(out)])
        _, rows = read_csv(out / "trajectory.csv")
        t0 = float(rows[0][0])
        assert t0 == 1e-2  # 17 significant digits preserve the grid exactly

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write(tmp_path, DIAG_OK)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")])
        first = (tmp_path / "a" / "trajectory.csv").read_bytes()
        second = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert first == second
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        for name in ("trajectory.csv", "simulate_summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestDecayCommand:
    def test_diagonal_rate_certified(self, tmp_path, capsys):
        text = """
[scenario]
kind = diagonal
n_plant = 2000
n_exo = 50
w0_preset = square11
z0_preset = inv_mu_sq

[simulate]
window_lo = 10
window_hi = 500
"""
        out = tmp_path / "out"
        code = main(["decay", "--config", write(tmp_path, text),
                     "--out", str(out)])
        assert code == 0
        report = (out / "decay_report.txt").read_text()
        assert "nominal 1/alpha = 1: PASS" in report
        header, rows = read_csv(out / "envelope.csv")
        assert header == ["t", "semigroup_envelope", "error_envelope",
                          "state_dev_envelope"]
        env = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(env) <= 0)  # written as a monotone hull

    def test_degenerate_window_is_usage_error(self, tmp_path, capsys):
        text = DIAG_OK + """
[simulate]
window_lo = 10
window_hi = 10.1
"""
        out = tmp_path / "out"
        code = main(["decay", "--config", write(tmp_path, text),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "window [10.0, 10.1]" in capsys.readouterr().err

    def test_window_halves_too_sparse_named(self, tmp_path, capsys):
        # the window's 12 points pass the whole fit, but the superpolynomial
        # check fits each half, and each half holds 6
        text = """
[scenario]
kind = diagonal
n_plant = 20
n_exo = 10

[simulate]
n_points = 30
"""
        out = tmp_path / "out"
        code = main(["decay", "--config", write(tmp_path, text),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: window [10.0, 1000.0] splits at its geometric midpoint "
            "100.0 into halves of 6 and 6 grid points; need >= 10 in each\n")

    def test_exponential_spectrum_flagged(self, tmp_path, capsys):
        text = """
[scenario]
kind = custom
eigenvalues = -1+1j, -1-1j, -1+2j, -1-2j, -1+3j, -1-3j
b = 1, 1, 1, 1, 1, 1
c = 1, 1, 1, 1, 1, 1
n_exo = 3

[simulate]
t_min = 0.5
t_max = 40
window_lo = 0.5
window_hi = 40
"""
        out = tmp_path / "out"
        code = main(["decay", "--config", write(tmp_path, text),
                     "--out", str(out)])
        assert code == 0
        report = (out / "decay_report.txt").read_text()
        assert "superpolynomial" in report
        assert report.endswith("overall: PASS (nominal rate not evaluated)\n")

    def test_unreliable_exponent_not_matched(self, tmp_path, capsys):
        """At wave N = 50 the envelope's argmax reaches the last retained
        mode inside the window: the exponent is not compared with 1/alpha,
        and the run still exits 0."""
        text = ("[scenario]\nkind = wave\nn_plant = 50\nn_exo = 50\n"
                "gamma = 1.0\nw0_preset = square11\nz0_preset = inv_mu_sq\n")
        out = tmp_path / "out"
        assert main(["decay", "--config", write(tmp_path, text),
                     "--out", str(out)]) == 0
        report = (out / "decay_report.txt").read_text()
        assert ("  WARN: envelope argmax touched the truncation boundary "
                "inside the window; exponent unreliable\n"
                "  nominal match skipped (exponent unreliable)\n") in report
        assert "nominal 1/alpha" not in report
        assert "superpolynomial" not in report
        assert report.endswith("overall: PASS (nominal rate not evaluated)\n")

    def test_readme_example_config(self, tmp_path, capsys):
        """The README's example config, verbatim: its diagonal error run
        falls to the rounding floor, which the report names instead of
        fitting a slope to the residue."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"Example config:\n\n```ini\n(.*?)```", readme,
                          re.S).group(1)
        cfg = write(tmp_path, block)
        assert main(["check", "--config", cfg,
                     "--out", str(tmp_path / "check")]) == 0
        out = tmp_path / "decay"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "decay_report.txt").read_text()
        assert "error envelope: reached the rounding floor at t = " in report
        assert "error envelope slope" not in report
        assert "state deviation envelope slope = " in report

    @pytest.mark.parametrize("kind", ["wave", "diagonal"])
    def test_manifold_start_deviation_skipped(self, kind, tmp_path, capsys):
        """On the steady-state manifold x = z0 - Pi w0 is exactly zero, so
        the state deviation is too: no slope is fitted to rounding
        residue and the run passes."""
        text = DIAG_OK.replace("z0_preset = inv_mu_sq", "z0_preset = pi_w0") \
            .replace("kind = diagonal", f"kind = {kind}")
        out = tmp_path / "out"
        assert main(["decay", "--config", write(tmp_path, text),
                     "--out", str(out)]) == 0
        report = (out / "decay_report.txt").read_text()
        assert "state deviation certificate: skipped (identically zero run)" \
            in report
        _, rows = read_csv(out / "envelope.csv")
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_exponentially_stable_random_decay(self, tmp_path, capsys):
        """Seed 57's semigroup envelope falls far faster than any power;
        its fit must not overflow (RuntimeWarnings fail the suite)."""
        text = ("[scenario]\nkind = random\nw0_preset = unit\n"
                "z0_preset = inv_mu_sq\n")
        out = tmp_path / "out"
        assert main(["decay", "--config", write(tmp_path, text),
                     "--out", str(out), "--seed", "57"]) == 0
        report = (out / "decay_report.txt").read_text()
        assert "flagged superpolynomial" in report


class TestFlags:
    def test_modes_override(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--config", write(tmp_path, DIAG_OK),
                     "--out", str(out), "--modes", "5"])
        assert code == 0
        _, rows = read_csv(out / "Pi.csv")
        assert len(rows) == 11 * 11

    def test_seed_override_changes_random_scenario(self, tmp_path, capsys):
        text = "[scenario]\nkind = random\nseed = 1\n"
        cfg = write(tmp_path, text)
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a"),
              "--seed", "2"])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "3"])
        assert (tmp_path / "a" / "L.csv").read_bytes() \
            != (tmp_path / "b" / "L.csv").read_bytes()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        config = write(tmp_path, "[scenario]\nkind = random\nseed = -1\n")
        flag = write(tmp_path, "[scenario]\nkind = random\n", name="flag.ini")
        for path, extra, message in (
                (config, [], "[scenario]: seed must be non-negative, got -1"),
                (flag, ["--seed", "-3"],
                 "--seed: seed must be non-negative, got -3")):
            assert main(["check", "--config", path,
                         "--out", str(tmp_path / "out")] + extra) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not (tmp_path / "out").exists()


class TestScenarioHeader:
    """Report headers describe the scenario as built; kind = random takes
    no size, period or weight settings."""

    def header(self, out, name):
        return (out / name).read_text().splitlines()[0]

    def test_random_header_from_built_scenario(self, tmp_path, capsys):
        from modalreg.scenarios import build_random_scenario

        gen, _, space = build_random_scenario(5)
        out = tmp_path / "out"
        cfg = write(tmp_path, "[scenario]\nkind = random\n")
        main(["check", "--config", cfg, "--out", str(out), "--seed", "5"])
        assert self.header(out, "check_report.txt") == (
            f"scenario: kind=random plant_modes={len(gen.modes)} "
            f"harmonics={len(space.modes)} period={space.period:.17g} seed=5")

    def test_wave_header(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = "[scenario]\nkind = wave\nn_plant = 20\nn_exo = 10\nnu = 0.5\n"
        assert main(["solve", "--config", write(tmp_path, text),
                     "--out", str(out), "--modes", "8"]) == 0
        assert self.header(out, "residuals.txt") == (
            "scenario: kind=wave plant_modes=16 harmonics=17 period=2 "
            "gamma=2 nu=0.5")

    def test_custom_header_counts_listed_modes(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = ("[scenario]\nkind = custom\neigenvalues = -1+1j, -2\n"
                "b = 1, 1\nc = 1, 0.5\nn_exo = 3\n")
        assert main(["check", "--config", write(tmp_path, text),
                     "--out", str(out)]) == 0
        assert self.header(out, "check_report.txt") == (
            "scenario: kind=custom plant_modes=2 harmonics=7 "
            "period=6.2831853071795862 gamma=2")

    @pytest.mark.parametrize("key", ["n_plant", "n_exo", "period", "gamma",
                                     "nu"])
    def test_random_rejects_drawn_keys(self, key, tmp_path, capsys):
        path = write(tmp_path, f"[scenario]\nkind = random\n{key} = 1.5\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["check", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_random_rejects_modes_flag(self, tmp_path, capsys):
        code = main(["solve", "--config",
                     write(tmp_path, "[scenario]\nkind = random\n"),
                     "--out", str(tmp_path / "out"), "--modes", "900"])
        assert code == 2
        assert "--modes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


SCENARIO_KEYS = [key for key in CONFIG_KEYS["scenario"] if key != "kind"]
READ_PAIRS = [(kind, key) for kind in VALID_KINDS for key in SCENARIO_KEYS
              if kind in KIND_READS.get(key, VALID_KINDS)]
UNREAD_PAIRS = [(kind, key) for kind in VALID_KINDS for key in SCENARIO_KEYS
                if kind not in KIND_READS.get(key, VALID_KINDS)]


class TestKeyTable:
    """A [scenario] key loads exactly when KIND_READS lists its kind (a key
    absent from the map is read by every kind), and a key that loads
    changes what the run builds."""

    BASE = {
        "wave": {"kind": "wave", "n_plant": "2", "n_exo": "1"},
        "diagonal": {"kind": "diagonal", "n_plant": "2", "n_exo": "1"},
        "random": {"kind": "random"},
        "custom": {"kind": "custom", "eigenvalues": "-1+1j, -2",
                   "b": "1, 1", "c": "1, 0.5", "n_exo": "1"},
    }
    # two values per key, each valid for every kind that reads the key
    VALUES = {
        "nu": ("0.5", "0.25"), "period": ("3", "5"), "gamma": ("1.5", "2.5"),
        "n_plant": ("3", "4"), "n_exo": ("2", "3"), "seed": ("3", "4"),
        "alpha": ("1.5", "2.5"), "z0_preset": ("zero", "inv_mu_sq"),
        "w0_preset": ("unit", "smooth"),
        "eigenvalues": ("-1+1j, -2", "-1-1j, -3"), "b": ("1, 1", "1, 2"),
        "c": ("1, 0.5", "1, 0.25"),
    }

    def text(self, kind, key=None, value=None):
        settings = dict(self.BASE[kind])
        if key is not None:
            settings[key] = value
        return "[scenario]\n" + "".join(f"{k} = {v}\n"
                                        for k, v in settings.items())

    def values(self, kind, key, tmp_path):
        if key not in ("z0_list", "w0_list"):
            return self.VALUES[key]
        # explicit states must match the built plant or harmonic count
        scenario = load_config(write(tmp_path, self.text(kind))).scenario
        gen, _, space = build_scenario(scenario)
        size = len(gen.modes if key == "z0_list" else space.modes)
        return ", ".join(["1"] * size), ", ".join(["2j"] * size)

    @staticmethod
    def built(sc):
        """Everything a run takes from the scenario settings."""
        gen, coupling, space = build_scenario(sc)
        arrays = (gen.modes.indices, gen.eigenvalues, coupling.b.coeffs,
                  coupling.c.coeffs, space.modes.indices, space.weights,
                  resolve_w0(sc, space).coeffs, resolve_z0(sc, gen).coeffs)
        return ([a.tobytes() for a in arrays], dict(coupling.p_entries),
                space.period, nominal_geometric_params(sc))

    @pytest.mark.parametrize("key", SCENARIO_KEYS)
    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_key_loads_iff_kind_reads_it(self, kind, key, tmp_path):
        value = self.values(kind, key, tmp_path)[0]
        path = write(tmp_path, self.text(kind, key, value))
        if (kind, key) in READ_PAIRS:
            assert load_config(path).scenario.kind == kind
        else:
            with pytest.raises(ConfigError, match=f"does not read {key}"):
                load_config(path)

    @pytest.mark.parametrize(("kind", "key"), READ_PAIRS)
    def test_read_key_is_honoured(self, kind, key, tmp_path):
        first, second = (
            self.built(load_config(write(tmp_path, self.text(kind, key, v),
                                         name=f"{i}.ini")).scenario)
            for i, v in enumerate(self.values(kind, key, tmp_path)))
        assert first != second

    @pytest.mark.parametrize(("kind", "key"), UNREAD_PAIRS)
    def test_unread_setting_changes_nothing(self, kind, key, tmp_path):
        base = load_config(write(tmp_path, self.text(kind))).scenario
        value = CONFIG_KEYS["scenario"][key](self.VALUES[key][0])
        assert self.built(replace(base, **{key: value})) == self.built(base)

    @pytest.mark.parametrize(("section", "cls"), [
        ("scenario", ScenarioConfig), ("simulate", SimGrid)])
    def test_every_field_has_a_key(self, section, cls):
        # and every key names a field
        settable = {f.name for f in fields(cls)}
        assert {_FIELD.get(key, key) for key in CONFIG_KEYS[section]} == settable

    def test_map_names_scenario_fields(self):
        assert set(KIND_READS) <= {f.name for f in fields(ScenarioConfig)}

    @pytest.mark.parametrize("kind", ["wave", "diagonal", "custom"])
    def test_seed_flag_rejected_where_unread(self, kind, tmp_path, capsys):
        code = main(["check", "--config", write(tmp_path, self.text(kind)),
                     "--out", str(tmp_path / "out"), "--seed", "3"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_modes_flag_sets_the_harmonics_of_custom(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", "--config", write(tmp_path, self.text("custom")),
                     "--out", str(out), "--modes", "4"]) == 0
        header = (out / "check_report.txt").read_text().splitlines()[0]
        assert "plant_modes=2 harmonics=9 " in header


class TestSolveLayerWork:
    """Each command computes what it reports, and only solve builds the
    whole denominator matrix i omega_k - mu_n and the whole forcing
    matrix b ell + P, each once."""

    @pytest.mark.parametrize("command", ["simulate", "decay"])
    def test_norm_estimate_not_computed_unless_reported(
            self, command, tmp_path, capsys, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("norm estimate computed")

        monkeypatch.setattr("modalreg.regulator._weighted_norm_estimate",
                            refuse)
        code = main([command, "--config", write(tmp_path, DIAG_OK),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_solve_reports_norm_estimate(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--config", write(tmp_path, DIAG_OK),
                     "--out", str(out)]) == 0
        line = [ln for ln in (out / "residuals.txt").read_text().splitlines()
                if ln.startswith("operator norm estimate")]
        assert len(line) == 1
        assert float(line[0].split("=")[1]) > 0.0

    @pytest.mark.parametrize("command", ["check", "simulate", "decay"])
    def test_no_plant_by_harmonic_matrix_held(self, command, tmp_path,
                                              capsys):
        """Wave at N = 300 (600 plant modes x 601 harmonics): the traced
        peak stays below one complex matrix of that shape. Simulation
        holds one block of time points at a time (see
        test_time_axis_not_held); conformity holds one block of forcing
        columns at a time. Measured in a fresh interpreter, so imports
        made on first use count."""
        text = ("[scenario]\nkind = wave\nn_plant = 300\nn_exo = 300\n"
                "w0_preset = square11\nz0_preset = inv_mu_sq\n\n"
                "[simulate]\nn_points = 64\n")
        code, peak = traced_cli_peak(
            [command, "--config", write(tmp_path, text),
             "--out", str(tmp_path / "out")])
        assert code == 0
        assert peak < 600 * 601 * 16

    def test_solve_holds_pi_and_blocks(self, tmp_path, capsys):
        """Wave at N = 300: ``solve`` holds Pi, one 600 x 601 complex
        matrix, and blocks of about 1 MB beside it, below 1.5 such
        matrices in all (1.43 measured; 2.07 while D was built whole).
        Measured in a fresh interpreter, as above."""
        text = ("[scenario]\nkind = wave\nn_plant = 300\nn_exo = 300\n"
                "w0_preset = square11\nz0_preset = inv_mu_sq\n")
        code, peak = traced_cli_peak(
            ["solve", "--config", write(tmp_path, text),
             "--out", str(tmp_path / "out")])
        assert code == 0
        assert peak < 1.5 * 600 * 601 * 16

    @pytest.mark.parametrize("command", ["simulate", "decay"])
    def test_time_axis_not_held(self, command, tmp_path, capsys):
        """Wave at N = 300 on 4096 time points: the traced peak stays below
        a quarter of one complex (time x 600 plant modes) matrix, because
        the outputs are evaluated one block of time points at a time.
        Measured in a fresh interpreter, as above."""
        text = ("[scenario]\nkind = wave\nn_plant = 300\nn_exo = 300\n"
                "w0_preset = square11\nz0_preset = inv_mu_sq\n\n"
                "[simulate]\nn_points = 4096\n")
        code, peak = traced_cli_peak(
            [command, "--config", write(tmp_path, text),
             "--out", str(tmp_path / "out")])
        assert code == 0
        assert peak < 4096 * 600 * 16 / 4

    @pytest.mark.parametrize("command", ["check", "solve", "simulate", "decay"])
    def test_denominators_built_once(self, command, tmp_path, capsys,
                                     monkeypatch):
        import modalreg.cli as cli
        import modalreg.regulator as regulator
        import modalreg.simulator as simulator
        import modalreg.sylvester as sylvester

        builds, forcing_builds = [], []
        inner = regulator.frequency_denominators
        inner_forcing = regulator.forcing_matrix

        def counting(gen, space):
            builds.append((len(gen.modes), len(space.modes)))
            return inner(gen, space)

        def counting_forcing(coupling, gain):
            forcing_builds.append((len(coupling.modes), len(gain.space.modes)))
            return inner_forcing(coupling, gain)

        for module in (regulator, simulator, sylvester):
            monkeypatch.setattr(module, "frequency_denominators", counting)
        for module in (regulator, simulator):
            monkeypatch.setattr(module, "forcing_matrix", counting_forcing)
        monkeypatch.setattr(cli, "forcing_columns", counting_forcing)
        code = main([command, "--config", write(tmp_path, DIAG_OK),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert builds == []  # solve divides one block of harmonics at a time
        assert forcing_builds == ([(121, 121)] if command == "solve" else [])
