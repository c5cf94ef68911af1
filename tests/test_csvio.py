"""The columnar CSV writer against the row-by-row reference writer."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fmt_number, traced_peak, write_csv_rows
from paper import from_csv

from modalreg import csvio
from modalreg.cli import _gain_pipeline, main
from modalreg.config import load_config
from modalreg.csvio import BLOCK_VALUES, KERNEL_BLOCK_VALUES, write_csv
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

    def test_unequal_shapes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length and shape"):
            write_csv(tmp_path / "bad.csv", ["a", "b"],
                      [np.zeros((3, 4)), np.zeros((4, 3))])

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
        back = from_csv(tmp_path / "w0.csv", space)
        np.testing.assert_array_equal(back.coeffs.view(float), coeffs.view(float))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The row counts of the blocks that took the numpy kernel."""
    calls = []
    inner = csvio._kernel_block

    def counting(cols):
        calls.append(len(cols[0]))
        return inner(cols)

    monkeypatch.setattr(csvio, "_kernel_block", counting)
    return calls


def spread(values, n):
    """``n`` values cycling through ``values``: enough for a kernel file."""
    return np.resize(np.asarray(values), n)


# m * 2**k with m odd: among them the exact 17th-digit ties, such as
# 3 * 2**-24 = 1.78813934326171875e-07, that the kernel hands to the template
DYADIC = [m * 2.0**k for m in range(1, 64, 2) for k in range(-80, 8)]
POWERS = 10.0 ** np.arange(-323, 309)
ULPS = np.concatenate([POWERS, np.nextafter(POWERS, 0.0),
                       np.nextafter(POWERS, np.inf)])
SUBNORMALS = np.array([5e-324, 1e-323, 2.5e-320, 1e-310, 2.225073858507201e-308,
                       -4.9e-324, -1e-315])


class TestKernel:
    """Files of at least KERNEL_BLOCK_VALUES ``%.17g`` values take the numpy
    kernel; their bytes must be the template's, value for value."""

    @pytest.mark.parametrize("values", [DYADIC, ULPS, SUBNORMALS, SPECIAL,
                                        [0.0, -0.0, 1.0, -1.0, 1e16, 1e17, 1e-5,
                                         1.5e-4, 123456789012345678.0]],
                             ids=["dyadic", "pow10-ulp", "subnormal", "special",
                                  "layout-edges"])
    def test_hard_values(self, tmp_path, kernel_calls, values):
        x = spread(values, max(KERNEL_BLOCK_VALUES, len(values)))
        assert_same_bytes(tmp_path, ["x", "neg"], [x, -x])
        assert kernel_calls

    def test_dyadic_ties_fall_back(self):
        x = np.array(DYADIC)
        _, _, slow = csvio._decimal(x)
        assert 3 * 2.0**-24 in x[slow]
        assert 0 < slow.sum() < len(x) // 10

    def test_mixed_columns(self, tmp_path, kernel_calls):
        n = KERNEL_BLOCK_VALUES
        rng = np.random.default_rng(5)
        ints = rng.integers(-2**63, 2**63 - 1, n, endpoint=True)
        ints[:2] = [-2**63, 2**63 - 1]
        big = np.arange(n, dtype=np.uint64) + np.uint64(2**64 - n)
        assert_same_bytes(tmp_path, ["i", "x", "u", "flag", "i32", "f32"],
                          [ints, rng.standard_normal(n), big, ints % 3 == 0,
                           (ints % 1000).astype(np.int32),
                           rng.standard_normal(n).astype(np.float32)])
        assert kernel_calls

    def test_repr_columns_keep_the_template(self, tmp_path, kernel_calls):
        x = spread(SPECIAL + DYADIC, KERNEL_BLOCK_VALUES)
        assert_same_bytes(tmp_path, ["k", "re"], [np.arange(len(x)), x],
                          fmt=lambda v: fmt_number(v) if isinstance(v, np.integer)
                          else repr(float(v)),
                          float_format="%r")
        assert kernel_calls == []

    @pytest.mark.parametrize("rows", [KERNEL_BLOCK_VALUES // 4 - 1,
                                      KERNEL_BLOCK_VALUES // 4,
                                      KERNEL_BLOCK_VALUES // 4 + 1,
                                      2 * (KERNEL_BLOCK_VALUES // 4) - 1,
                                      5 * (KERNEL_BLOCK_VALUES // 4) + 3])
    def test_threshold_and_block_boundaries(self, tmp_path, kernel_calls, rows):
        rng = np.random.default_rng(rows)
        assert_same_bytes(tmp_path, ["n", "k", "re", "im"],
                          [np.arange(rows) // 7, np.arange(rows) % 13 - 6,
                           rng.standard_normal(rows),
                           rng.standard_normal(rows) * 1e-9])
        per_block = KERNEL_BLOCK_VALUES // 4
        if 4 * rows < KERNEL_BLOCK_VALUES:
            assert kernel_calls == []
        else:
            assert kernel_calls == [min(per_block, rows - lo)
                                    for lo in range(0, rows, per_block)]
        assert len((tmp_path / "new.csv").read_bytes().splitlines()) == rows + 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1),
                              st.integers(-2**63, 2**63 - 1),
                              st.integers(2**63, 2**64 - 1),
                              st.booleans()),
                    min_size=8, max_size=300))
    def test_raw_bit_patterns(self, rows):
        bits, ints, big, flags = zip(*rows)
        columns = [np.array(bits, dtype=np.uint64).view(np.float64),
                   np.array(ints, dtype=np.int64),
                   np.array(big, dtype=np.uint64), np.array(flags)]
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            # every file of 32 values or more takes the kernel, 8 rows a block
            patch.setattr(csvio, "KERNEL_BLOCK_VALUES", 32)
            assert_same_bytes(Path(tmp), ["x", "i", "u", "flag"], columns)


class TestPiLayout:
    """Equal-shape N-D columns are written in C order, as Pi.csv uses."""

    def pi_columns(self, n, k):
        rng = np.random.default_rng(n)
        pi = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        pi[0, :3] = [0.0, -0.0, 1e-300]
        rows, cols = np.arange(n) - n // 2, np.arange(k) - k // 2
        views = (np.broadcast_to(rows[:, None], pi.shape),
                 np.broadcast_to(cols, pi.shape), pi.real, pi.imag)
        flat = (np.repeat(rows, k), np.tile(cols, n), pi.real.ravel(),
                pi.imag.ravel())
        return views, flat

    @pytest.mark.parametrize("n, k", [(3, 5), (41, 51), (300, 7)])
    def test_views_match_flattened_columns(self, tmp_path, n, k):
        views, flat = self.pi_columns(n, k)
        write_csv(tmp_path / "views.csv", ["n", "k", "re", "im"], views)
        assert_same_bytes(tmp_path, ["n", "k", "re", "im"], flat)
        assert (tmp_path / "views.csv").read_bytes() == \
            (tmp_path / "new.csv").read_bytes()

    @pytest.mark.parametrize("n", [100, 400])
    def test_working_set_does_not_grow_with_rows(self, tmp_path, n):
        """A 400 x 401 Pi (160,400 rows, as wave solve --modes 200 writes)
        and a 100 x 401 one both stay under the same 2 MB (0.76 MB traced
        for either), while the larger file is 8.5 MB of text."""
        views, _ = self.pi_columns(n, 401)
        write_csv(tmp_path / "warm.csv", ["n", "k", "re", "im"],
                  [c[:8] for c in views])  # builds the lookup tables
        _, peak = traced_peak(
            lambda: write_csv(tmp_path / "pi.csv", ["n", "k", "re", "im"], views))
        assert peak < 2_000_000


def test_import_builds_no_tables():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import modalreg.cli\n"
            "from modalreg import csvio\n"
            "print(csvio._tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0"


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
