"""The columnar CSV writer against the row-by-row reference writer."""

import numpy as np
import pytest
from oracles import fmt_number, write_csv_rows

from modalreg.cli import _gain_pipeline, main
from modalreg.config import load_config
from modalreg.csvio import BLOCK_VALUES, write_csv
from modalreg.exosystem import ExoSpace, ExoState
from modalreg.regulator import solve_regulator
from modalreg.spectral import ModeRange

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308,
           2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e300, -1e-300, 123456789.0]


def assert_same_bytes(tmp_path, header, columns, fmt=fmt_number, **kwargs):
    write_csv(tmp_path / "new.csv", header, columns, **kwargs)
    write_csv_rows(tmp_path / "ref.csv", header, zip(*columns), fmt=fmt)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestNumberFormat:
    def test_special_floats(self, tmp_path):
        values = np.array(SPECIAL)
        assert_same_bytes(tmp_path, ["x", "neg"], [values, -values])

    def test_values_spanning_the_exponent_range(self, tmp_path):
        rng = np.random.default_rng(3)
        exps = rng.uniform(-300.0, 300.0, 500)
        values = rng.choice([-1.0, 1.0], 500) * rng.uniform(1.0, 10.0, 500) * 10.0**exps
        assert_same_bytes(tmp_path, ["x"], [values])

    def test_integer_and_bool_columns(self, tmp_path):
        n = len(SPECIAL)
        ints = np.arange(-n, n, 2, dtype=np.int64) * 10**17
        flags = np.arange(n) % 3 == 0
        assert_same_bytes(tmp_path, ["n", "flag", "x"],
                          [ints, flags, np.array(SPECIAL)])

    def test_zero_rows_give_header_only(self, tmp_path):
        assert_same_bytes(tmp_path, ["k", "re"],
                          [np.empty(0, dtype=np.int64), np.empty(0)])
        write_csv(tmp_path / "none.csv", ["k", "re"], ())
        assert (tmp_path / "none.csv").read_text() == "k,re\n"

    def test_shortest_round_trip_format(self, tmp_path):
        values = np.array(SPECIAL)
        assert_same_bytes(tmp_path, ["k", "re"],
                          [np.arange(len(values)), values],
                          fmt=lambda v: fmt_number(v) if isinstance(v, np.integer)
                          else repr(float(v)),
                          float_format="%r")

    @pytest.mark.parametrize("extra", [-1, 0, 1, BLOCK_VALUES // 3])
    def test_block_boundaries(self, tmp_path, extra):
        n = BLOCK_VALUES // 3 + extra  # a 3-column block holds BLOCK_VALUES // 3 rows
        rng = np.random.default_rng(n)
        assert_same_bytes(tmp_path, ["n", "x", "y"],
                          [np.arange(n) - 7, rng.standard_normal(n),
                           rng.standard_normal(n) * 1e-200])
        lines = (tmp_path / "new.csv").read_text().splitlines()
        assert len(lines) == n + 1

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])

    def test_exo_state_round_trip(self, tmp_path):
        space = ExoSpace.power_weights(2.0, ModeRange.symmetric(6), 2.0)
        coeffs = np.empty(13, dtype=complex)
        coeffs.real, coeffs.imag = SPECIAL[:13], SPECIAL[2:15]
        w = ExoState(space, coeffs)
        w.to_csv(tmp_path / "w0.csv")
        write_csv_rows(tmp_path / "ref.csv", ["k", "re", "im"],
                       ((int(k), repr(float(c.real)), repr(float(c.imag)))
                        for k, c in zip(space.modes.indices, coeffs)),
                       fmt=str)
        assert (tmp_path / "w0.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = ExoState.from_csv(tmp_path / "w0.csv", space)
        np.testing.assert_array_equal(back.coeffs.view(float), coeffs.view(float))


DIAG = """
[scenario]
kind = diagonal
n_plant = 40
n_exo = 30
gamma = 2.0
"""


def test_solve_artifacts_match_reference_writer(tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(DIAG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    gen, coupling, space, _, gain = _gain_pipeline(load_config(str(cfg_path)),
                                                   force=False)
    solution = solve_regulator(gen, coupling, gain, space)
    write_csv_rows(tmp_path / "L.csv", ["k", "re", "im"],
                   ((int(k), gain.ell[j].real, gain.ell[j].imag)
                    for j, k in enumerate(space.modes.indices)))
    write_csv_rows(tmp_path / "Pi.csv", ["n", "k", "re", "im"],
                   ((int(n), int(k), solution.pi[i, j].real, solution.pi[i, j].imag)
                    for i, n in enumerate(gen.modes.indices)
                    for j, k in enumerate(space.modes.indices)))
    for name in ("L.csv", "Pi.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
