"""Config parsing, subcommand behavior, exit codes, and artifact formats."""

import csv
import math

import numpy as np
import pytest

from modalreg.cli import main
from modalreg.config import load_config
from modalreg.errors import ConfigError

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
        assert cfg.tolerances.assumption1_floor == 1e-8
        assert cfg.quadrature.horizons[-1] == 1280.0
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
[tolerances]
assumption1_floor = 1e-6
slope_tol = 0.1

[quadrature]
horizons = 10, 20, 40
method = numeric
step = 0.01

[simulate]
t_min = 0.1
t_max = 100
n_points = 64
spacing = linear
window_lo = 1
window_hi = 50
"""
        cfg = load_config(write(tmp_path, text))
        assert cfg.tolerances.assumption1_floor == 1e-6
        assert cfg.quadrature.horizons == (10.0, 20.0, 40.0)
        assert cfg.quadrature.method == "numeric"
        assert cfg.sim.spacing == "linear"
        assert len(cfg.sim.grid()) == 64

    def test_explicit_state_lists(self, tmp_path):
        text = DIAG_OK.replace("w0_preset = square11",
                               "w0_list = 1+0j, 0, 0.5j") \
            .replace("n_exo = 60", "n_exo = 1")
        cfg = load_config(write(tmp_path, text))
        assert cfg.scenario.w0_preset == (1.0, 0.0, 0.5j)


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
        assert "Geometric condition" in report and "overall: PASS" in report

    def test_divergent_gain_sequence_fails_named(self, tmp_path, capsys):
        code = main(["check", "--config", write(tmp_path, DIAG_DIVERGENT),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        report = (tmp_path / "out" / "check_report.txt").read_text()
        assert "overall: FAIL (Assumption 2)" in report

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
        text = """
[scenario]
kind = custom
eigenvalues = -1+1j, -2-1j
b = 1, 1
c = 1e-7, 1e-7
n_exo = 3

[tolerances]
assumption1_floor = 1e-4
"""
        cfg = write(tmp_path, text)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "a")]) == 1
        code = main(["solve", "--config", cfg, "--force",
                     "--out", str(tmp_path / "b")])
        assert code == 0
        assert "WARN" in (tmp_path / "b" / "residuals.txt").read_text()


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
        code = main(["decay", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        assert code == 2

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
        assert "superpolynomial" in (out / "decay_report.txt").read_text()


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


class TestSolveLayerWork:
    """Each command computes what it reports, and the denominator matrix
    i omega_k - mu_n once."""

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

    @pytest.mark.parametrize("command", ["check", "solve", "simulate", "decay"])
    def test_denominators_built_once(self, command, tmp_path, capsys,
                                     monkeypatch):
        import modalreg.regulator as regulator
        import modalreg.simulator as simulator
        import modalreg.sylvester as sylvester

        builds = []
        inner = regulator.frequency_denominators

        def counting(gen, space):
            builds.append((len(gen.modes), len(space.modes)))
            return inner(gen, space)

        for module in (regulator, simulator, sylvester):
            monkeypatch.setattr(module, "frequency_denominators", counting)
        code = main([command, "--config", write(tmp_path, DIAG_OK),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert builds == [(121, 121)]
