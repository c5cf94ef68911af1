"""The columnar CSV writer against the row-by-row reference writer."""

import itertools
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
from modalreg.cli import _gain_pipeline, _simulate, main
from modalreg.config import load_config
from modalreg.csvio import (BLOCK_VALUES, KERNEL_BLOCK_VALUES,
                            KERNEL_MIN_VALUES, write_csv)
from modalreg.exosystem import ExoSpace, ExoState
from modalreg.regulator import solve_regulator
from modalreg.spectral import ModeRange, decay_envelope

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
    def test_block_boundaries(self, tmp_path, kernel_calls, extra):
        """The template's blocks, in ``%r`` files as ``w0.csv`` writes;
        ``%.17g`` files this long take the kernel."""
        n = BLOCK_VALUES // 3 + extra  # a 3-column block holds BLOCK_VALUES // 3 rows
        rng = np.random.default_rng(n)
        assert_same_bytes(tmp_path, ["n", "x", "y"],
                          [np.arange(n) - 7, rng.standard_normal(n),
                           rng.standard_normal(n) * 1e-200],
                          fmt=lambda v: fmt_number(v) if isinstance(v, np.integer)
                          else repr(float(v)),
                          float_format="%r")
        assert kernel_calls == []
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

    def counting(cols, ints):
        calls.append(len(cols[0]))
        return inner(cols, ints)

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
    """Files of at least KERNEL_MIN_VALUES ``%.17g`` values take the numpy
    kernel, in blocks of KERNEL_BLOCK_VALUES; their bytes must be the
    template's, value for value."""

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

    @pytest.mark.parametrize("rows", [KERNEL_MIN_VALUES // 4 - 1,
                                      KERNEL_MIN_VALUES // 4,
                                      KERNEL_MIN_VALUES // 4 + 1,
                                      KERNEL_BLOCK_VALUES // 4 - 1,
                                      KERNEL_BLOCK_VALUES // 4,
                                      KERNEL_BLOCK_VALUES // 4 + 1,
                                      2 * (KERNEL_BLOCK_VALUES // 4) - 1,
                                      5 * (KERNEL_BLOCK_VALUES // 4) + 3])
    def test_threshold_and_block_boundaries(self, tmp_path, kernel_calls, rows):
        """Below KERNEL_MIN_VALUES the template; from it on the kernel, in
        blocks of KERNEL_BLOCK_VALUES."""
        rng = np.random.default_rng(rows)
        assert_same_bytes(tmp_path, ["n", "k", "re", "im"],
                          [np.arange(rows) // 7, np.arange(rows) % 13 - 6,
                           rng.standard_normal(rows),
                           rng.standard_normal(rows) * 1e-9])
        per_block = KERNEL_BLOCK_VALUES // 4
        if 4 * rows < KERNEL_MIN_VALUES:
            assert kernel_calls == []
        else:
            assert kernel_calls == [min(per_block, rows - lo)
                                    for lo in range(0, rows, per_block)]
        assert len((tmp_path / "new.csv").read_bytes().splitlines()) == rows + 1

    def test_trajectory_with_fallback_values(self, tmp_path, kernel_calls):
        """A 512 x 11 file, as ``simulate`` writes, in one kernel block, with
        exact zeros, -0 and values below 1e-279 that the kernel hands to
        the template one by one."""
        columns = trajectory_columns(512)
        columns[7][::5] = 0.0
        columns[8][1::5] = -0.0
        columns[9][2::5] = np.geomspace(1e-280, 1e-320, 102)
        columns[10][3::5] = -5e-324
        _, _, slow = csvio._decimal(np.stack(columns, axis=1))
        assert slow[2::5, 9].all() and slow[3::5, 10].all()
        assert not slow[::5, 7].any() and not slow[1::5, 8].any()
        assert_same_bytes(tmp_path, TRAJECTORY_HEADER, columns)
        assert kernel_calls == [512]

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
            patch.setattr(csvio, "KERNEL_MIN_VALUES", 32)
            patch.setattr(csvio, "KERNEL_BLOCK_VALUES", 32)
            assert_same_bytes(Path(tmp), ["x", "i", "u", "flag"], columns)


@pytest.fixture
def laid_out(monkeypatch):
    """The number of values that went through the digit layout."""
    sizes = []
    inner = csvio._digit_fields

    def counting(x, out):
        sizes.append(x.size)
        return inner(x, out)

    monkeypatch.setattr(csvio, "_digit_fields", counting)
    return sizes


@pytest.fixture
def int_formatted(monkeypatch):
    """The lengths of the integer arrays formatted digit by digit."""
    sizes = []
    inner = csvio._int_digits

    def counting(v, out):
        sizes.append(v.size)
        return inner(v, out)

    monkeypatch.setattr(csvio, "_int_digits", counting)
    return sizes


def signed_zeros(n, seed):
    """``n`` zeros, each 0.0 or -0.0."""
    return np.where(np.random.default_rng(seed).random(n) < 0.5, -0.0, 0.0)


class TestZeroFields:
    """Zeros are written as ``0`` and ``-0`` directly once a block holds
    at least one in _ZERO_SHARE; only the other values are laid out."""

    def test_runs_of_signed_zeros(self, tmp_path, kernel_calls, laid_out):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(KERNEL_BLOCK_VALUES // 2)
        at = 0
        for length in itertools.cycle([1, 2, 3, 7, 30, 1, 64]):
            if at + length > x.size:
                break
            x[at:at + length] = signed_zeros(length, at)
            at += 2 * length
        nonzero = np.count_nonzero(x)
        assert 0 < nonzero < x.size
        assert_same_bytes(tmp_path, ["x", "neg"], [x, -x])
        assert kernel_calls == [x.size]
        assert laid_out == [2 * nonzero]

    def test_block_of_only_zeros(self, tmp_path, kernel_calls, laid_out):
        """The middle of three blocks is all zeros: nothing in it is laid
        out, and the blocks on either side keep their values."""
        rows = KERNEL_BLOCK_VALUES // 2  # two columns
        x = np.random.default_rng(12).standard_normal(3 * rows)
        x[rows:2 * rows] = signed_zeros(rows, 12)
        assert_same_bytes(tmp_path, ["re", "im"], [x, x[::-1].copy()])
        assert kernel_calls == [rows] * 3
        assert laid_out == [2 * rows, 0, 2 * rows]

    def test_file_of_only_zeros(self, tmp_path, kernel_calls, laid_out):
        x = signed_zeros(KERNEL_BLOCK_VALUES + 5, 13)
        assert_same_bytes(tmp_path, ["n", "re", "im"],
                          [np.arange(x.size), x, -x])
        step = KERNEL_BLOCK_VALUES // 3
        assert kernel_calls == [min(step, x.size - lo)
                                for lo in range(0, x.size, step)]
        assert laid_out == [0] * len(kernel_calls)
        text = (tmp_path / "new.csv").read_text()
        assert text.count(",-0") == x.size  # one -0 per row, of x or -x

    def test_zeros_across_a_block_boundary(self, tmp_path, kernel_calls):
        rows = KERNEL_BLOCK_VALUES // 4
        rng = np.random.default_rng(14)
        re, im = rng.standard_normal((2, 3 * rows))
        for at in (rows, 2 * rows):
            re[at - 40:at + 40] = signed_zeros(80, at)
            im[at - 3:at + 1] = -0.0
        assert_same_bytes(tmp_path, ["n", "k", "re", "im"],
                          [np.arange(3 * rows) // 9, np.arange(3 * rows) % 9,
                           re, im])
        assert kernel_calls == [rows] * 3

    @pytest.mark.parametrize("n, k", [(40, 21), (400, 401)])
    def test_wave_shaped_pi(self, tmp_path, laid_out, n, k):
        """Every other row of Pi signed zeros, as b_n = 0 at even n makes
        the wave's: half of each block is laid out."""
        views, flat = pi_columns(n, k, zero_rows=True)
        write_csv(tmp_path / "views.csv", ["n", "k", "re", "im"], views)
        assert sum(laid_out) == np.count_nonzero(views[2:])
        assert_same_bytes(tmp_path, ["n", "k", "re", "im"], flat)
        assert (tmp_path / "views.csv").read_bytes() == \
            (tmp_path / "new.csv").read_bytes()

    def test_few_zeros_keep_one_pass(self, tmp_path, laid_out):
        """Below one zero in _ZERO_SHARE values every value is laid out,
        the zeros too."""
        x = np.random.default_rng(15).standard_normal(KERNEL_BLOCK_VALUES // 2)
        x[::csvio._ZERO_SHARE + 1] = -0.0
        assert_same_bytes(tmp_path, ["x", "y"], [x, x[::-1].copy()])
        assert laid_out == [x.size * 2]


INT64 = np.iinfo(np.int64)


class TestIntegerTables:
    """An integer column spanning fewer integers than half its values is
    formatted once per integer of the file and gathered in every block."""

    def test_table_across_blocks(self, tmp_path, kernel_calls,
                                 int_formatted):
        n = 3 * (KERNEL_BLOCK_VALUES // 2) - 7  # two columns, three blocks
        v = np.arange(n) % 1001 - 500
        assert_same_bytes(tmp_path, ["i", "x"], [v, np.ones(n)])
        assert len(kernel_calls) == 3
        assert int_formatted == [1001]

    def test_wide_span_is_formatted_in_place(self, tmp_path, kernel_calls,
                                             int_formatted):
        """A span of KERNEL_BLOCK_VALUES integers or more gets no table,
        however many rows repeat it."""
        n = 4 * KERNEL_BLOCK_VALUES
        v = np.arange(n) % (KERNEL_BLOCK_VALUES + 1)
        assert_same_bytes(tmp_path, ["i"], [v])
        assert int_formatted == kernel_calls == [KERNEL_BLOCK_VALUES] * 4

    def test_broadcast_pi_indices(self, tmp_path, int_formatted):
        views, flat = pi_columns(400, 401)
        write_csv(tmp_path / "views.csv", ["n", "k", "re", "im"], views)
        assert_same_bytes(tmp_path, ["n", "k", "re", "im"], flat)
        assert (tmp_path / "views.csv").read_bytes() == \
            (tmp_path / "new.csv").read_bytes()
        # one table of the 400 n and one of the 401 k per file, for 79
        # blocks
        assert int_formatted == [400, 401] * 2

    @pytest.mark.parametrize("values", [
        [7], [-3, 5], [0, 1, 9999, 10000, -9999, -10000],
        list(range(-200, 201)),
        [INT64.min, INT64.min + 1, INT64.min + 4],
        [INT64.max, INT64.max - 1, INT64.max - 4],
        [INT64.min, 0, INT64.max]],
        ids=["one", "two", "group-edges", "pi-k", "int64-min", "int64-max",
             "int64-span"])
    def test_few_distinct_values(self, tmp_path, kernel_calls, int_formatted,
                                 values):
        v = spread(np.array(values, dtype=np.int64), KERNEL_BLOCK_VALUES // 2)
        assert_same_bytes(tmp_path, ["i", "x"],
                          [v, np.linspace(-1.0, 1.0, v.size)])
        assert kernel_calls == [v.size]
        span = int(v.max()) - int(v.min())
        assert int_formatted == [span + 1 if 2 * span < v.size else v.size]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    def test_all_distinct(self, tmp_path, int_formatted, dtype):
        n = KERNEL_BLOCK_VALUES // 2
        v = np.random.default_rng(16).permutation(n).astype(dtype)
        if dtype != np.uint64:
            v -= n // 2
        assert_same_bytes(tmp_path, ["i", "x"], [v, np.ones(n)])
        assert int_formatted == [n]

    @pytest.mark.parametrize("end", ["min", "max"])
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16,
                                       np.uint16, np.int32, np.uint32])
    def test_narrow_dtypes(self, tmp_path, int_formatted, dtype, end):
        """201 integers at either end of a narrow dtype's range: ``v - lo``
        reaches 200, past what int8 holds."""
        n = KERNEL_BLOCK_VALUES // 2
        offsets = np.resize([0, 200, 150, 17], n)
        info = np.iinfo(dtype)
        v = (info.min + offsets if end == "min" else info.max - offsets)
        v = v.astype(dtype)
        assert_same_bytes(tmp_path, ["i", "x"], [v, np.ones(n)])
        assert int_formatted == [201]

    def test_negative_values(self, tmp_path, int_formatted):
        n = KERNEL_BLOCK_VALUES // 2
        v = -(np.arange(n) % 37) - 10**6
        assert_same_bytes(tmp_path, ["i", "x"], [v, np.zeros(n)])
        assert int_formatted == [37]

    def test_uint64_near_the_top(self, tmp_path, int_formatted):
        n = KERNEL_BLOCK_VALUES // 2
        v = np.uint64(2**64 - 1) - (np.arange(n) % 5).astype(np.uint64)
        assert_same_bytes(tmp_path, ["u", "x"], [v, np.ones(n)])
        assert int_formatted == [5]

    def test_bool(self, tmp_path, int_formatted):
        n = KERNEL_BLOCK_VALUES // 3
        flags = np.arange(n) % 3 == 0
        assert_same_bytes(tmp_path, ["flag", "all", "x"],
                          [flags, np.ones(n, dtype=bool), np.ones(n)])
        assert int_formatted == [2, 1]


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(SPECIAL_FLOATS, st.floats()),
                          st.one_of(SPECIAL_FLOATS, st.floats()),
                          st.integers(-3, 3),
                          st.integers(-2**63, 2**63 - 1),
                          st.booleans()),
                min_size=8, max_size=200))
def test_mixed_columns_with_injected_specials(rows):
    """Any mix of zeros, nan, inf and finite floats beside narrow and wide
    integer columns, cut into blocks of 8 rows: the bytes of the
    row-by-row writer."""
    re, im, small, wide, flags = zip(*rows)
    columns = [np.array(small), np.array(re), np.array(im), np.array(wide),
               np.array(flags)]
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(csvio, "KERNEL_MIN_VALUES", 40)
        patch.setattr(csvio, "KERNEL_BLOCK_VALUES", 40)
        assert_same_bytes(Path(tmp), ["k", "re", "im", "i", "flag"], columns)


TRAJECTORY_HEADER = ["t", "y_re", "y_im", "yr_re", "yr_im", "u_re", "u_im",
                     "e_re", "e_im", "abs_e", "state_dev_norm"]


def trajectory_columns(rows):
    """A log time grid and ten decaying columns of ``rows`` values."""
    rng = np.random.default_rng(rows)
    t = np.geomspace(1e-2, 1e3, rows)
    return [t] + [rng.standard_normal(rows) * t**-1.5 for _ in range(10)]


def pi_columns(n, k, zero_rows=False):
    """The broadcast ``n``, ``k`` and Pi views that ``solve`` writes, and
    the same columns flattened; with ``zero_rows``, every other row of Pi
    is signed zeros."""
    rng = np.random.default_rng(n)
    pi = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    pi[0, :3] = [0.0, -0.0, 1e-300]
    if zero_rows:
        pi.real[1::2] = signed_zeros(k, n)
        pi.imag[1::2] = -pi.real[1::2]
    rows, cols = np.arange(n) - n // 2, np.arange(k) - k // 2
    views = (np.broadcast_to(rows[:, None], pi.shape),
             np.broadcast_to(cols, pi.shape), pi.real, pi.imag)
    flat = (np.repeat(rows, k), np.tile(cols, n), pi.real.ravel(),
            pi.imag.ravel())
    return views, flat


class TestPiLayout:
    """Equal-shape N-D columns are written in C order, as Pi.csv uses."""

    def pi_columns(self, n, k):
        return pi_columns(n, k)

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

    def test_zero_rows_working_set(self, tmp_path):
        """A 400 x 401 Pi whose every other row is signed zeros, as the
        wave's, stays under the same 2 MB."""
        views, _ = pi_columns(400, 401, zero_rows=True)
        write_csv(tmp_path / "warm.csv", ["n", "k", "re", "im"],
                  [c[:8] for c in views])
        _, peak = traced_peak(
            lambda: write_csv(tmp_path / "pi.csv", ["n", "k", "re", "im"], views))
        assert peak < 2_000_000

    def test_small_file_working_set(self, tmp_path):
        """A 512 x 11 trajectory, written by the kernel in one block after a
        warm call, stays under 0.8 MB traced: 0.70 MB measured, 0.93 MB if
        the spent arrays and a view of the buffer live to the end of the
        block."""
        columns = trajectory_columns(512)
        write_csv(tmp_path / "warm.csv", TRAJECTORY_HEADER,
                  [c[:32] for c in columns])  # a kernel file: builds the tables
        _, peak = traced_peak(lambda: write_csv(tmp_path / "trajectory.csv",
                                                TRAJECTORY_HEADER, columns))
        assert peak < 800_000


class TestOverwrite:
    """``csvio.overwrite``, through which every artifact is written, leaves
    exactly the bytes written and otherwise behaves like ``open(p, "wb")``."""

    @staticmethod
    def rewrite(path, data):
        with csvio.overwrite(path) as fh:
            fh.write(data)

    @pytest.mark.parametrize("mask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_mode_is_that_of_open(self, tmp_path, mask):
        old = os.umask(mask)
        try:
            self.rewrite(tmp_path / "new.csv", b"a\n")
            with open(tmp_path / "open.csv", "wb") as fh:
                fh.write(b"a\n")
        finally:
            os.umask(old)
        assert (tmp_path / "new.csv").read_bytes() == b"a\n"
        assert (tmp_path / "new.csv").stat().st_mode == \
            (tmp_path / "open.csv").stat().st_mode

    @pytest.mark.parametrize("old_size", [0, 5, 6, 7, 200_000])
    def test_existing_file_holds_exactly_the_new_bytes(self, tmp_path,
                                                       old_size):
        path = tmp_path / "f.csv"
        path.write_bytes(b"9" * old_size)
        inode = path.stat().st_ino
        self.rewrite(path, b"k,v\n1\n")
        assert path.read_bytes() == b"k,v\n1\n"
        assert path.stat().st_ino == inode

    def test_identical_rewrite_moves_mtime(self, tmp_path):
        path = tmp_path / "f.csv"
        write_csv(path, ["k"], [np.arange(3)])
        before = path.read_bytes()
        past = path.stat().st_mtime_ns - 3600 * 10**9
        os.utime(path, ns=(past, past))
        write_csv(path, ["k"], [np.arange(3)])
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns > past

    def test_raising_body_leaves_no_old_tail(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"9" * 100_000)
        with pytest.raises(RuntimeError):
            with csvio.overwrite(path) as fh:
                fh.write(b"new")
                raise RuntimeError
        assert path.read_bytes() == b"new"

    def test_failed_write_csv_keeps_the_written_prefix(self, tmp_path):
        """A value that fails to format in the second template block leaves
        the header and the first block, as a truncating open would."""
        values = np.array([0.5] * (BLOCK_VALUES + 10) + ["x"], dtype=object)
        path = tmp_path / "f.csv"
        path.write_bytes(b"9" * 100_000)
        with pytest.raises(TypeError):
            write_csv(path, ["v"], [values])
        write_csv(tmp_path / "prefix.csv", ["v"], [values[:BLOCK_VALUES]])
        assert path.read_bytes() == (tmp_path / "prefix.csv").read_bytes()

    def test_read_only_file_as_open(self, tmp_path):
        """Without write permission both raise PermissionError; where the
        permission bits do not bind (root), both write."""
        path = tmp_path / "ro.csv"

        def outcome(write):
            path.write_bytes(b"old contents")
            path.chmod(0o444)
            try:
                write(path, b"new")
            except PermissionError:
                return PermissionError
            finally:
                path.chmod(0o644)
            return path.read_bytes()

        def plain(p, data):
            with open(p, "wb") as fh:
                fh.write(data)

        path.touch(mode=0o444)
        expected = b"new" if os.access(path, os.W_OK) else PermissionError
        path.chmod(0o644)
        assert outcome(self.rewrite) == outcome(plain) == expected

    def test_directory_and_missing_parent_raise(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            self.rewrite(tmp_path, b"x")
        with pytest.raises(IsADirectoryError):
            write_csv(tmp_path, ["k"], [np.arange(3)])
        with pytest.raises(FileNotFoundError):
            self.rewrite(tmp_path / "missing" / "f.csv", b"x")
        assert not (tmp_path / "missing").exists()


def test_import_builds_no_tables():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import modalreg.cli\n"
            "from modalreg import csvio\n"
            "print(*(name for name, f in vars(csvio).items()\n"
            "        if hasattr(f, 'cache_info')))\n"
            "print(*(f.cache_info().currsize for f in vars(csvio).values()\n"
            "        if hasattr(f, 'cache_info')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    names, sizes = proc.stdout.splitlines()
    assert "_tables" in names.split()
    assert set(sizes.split()) == {"0"}


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
    gen, coupling, _, _, gain = _gain_pipeline(load_config(str(cfg_path)),
                                               force=False)
    solution = solve_regulator(gen, coupling, gain)
    write_csv_rows(tmp_path / "L.csv", ["k", "re", "im"],
                   ((int(k), gain.ell[j].real, gain.ell[j].imag)
                    for j, k in enumerate(gain.space.modes.indices)))
    write_csv_rows(tmp_path / "Pi.csv", ["n", "k", "re", "im"],
                   ((int(n), int(k), solution.pi[i, j].real, solution.pi[i, j].imag)
                    for i, n in enumerate(gen.modes.indices)
                    for j, k in enumerate(gain.space.modes.indices)))
    for name in ("L.csv", "Pi.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


# seed 4 draws a disturbance matrix P
RANDOM_SEED_4 = """
[scenario]
kind = random
seed = 4
w0_preset = unit
z0_preset = inv_mu_sq
"""

DIAG_60 = """
[scenario]
kind = diagonal
n_plant = 60
n_exo = 60
gamma = 2.0
"""


@pytest.mark.parametrize("text", [RANDOM_SEED_4, DIAG_60],
                         ids=["random-seed-4", "diagonal-60"])
def test_trajectory_and_envelope_match_reference_writer(tmp_path, capsys,
                                                        kernel_calls, text):
    """``trajectory.csv`` and ``envelope.csv`` take the kernel and equal the
    row-by-row reference writer byte for byte."""
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    cfg = load_config(str(cfg_path))
    gen, coupling, w0, _, gain = _gain_pipeline(cfg, force=False)
    assert any(coupling.p_entries.values()) == (text == RANDOM_SEED_4)
    t = cfg.sim.grid()
    run = _simulate(cfg, gen, coupling, gain, w0, t)
    abs_e = np.abs(run.e)
    dev = run.state_deviation
    write_csv_rows(tmp_path / "trajectory.csv", TRAJECTORY_HEADER,
                   zip(t, run.y.real, run.y.imag, run.y_r.real, run.y_r.imag,
                       run.u.real, run.u.imag, run.e.real, run.e.imag,
                       abs_e, dev))
    write_csv_rows(tmp_path / "envelope.csv",
                   ["t", "semigroup_envelope", "error_envelope",
                    "state_dev_envelope"],
                   zip(t, decay_envelope(gen, 1.0, t).values,
                       np.maximum.accumulate(abs_e[::-1])[::-1],
                       np.maximum.accumulate(dev[::-1])[::-1]))
    for command, name in (("simulate", "trajectory.csv"),
                          ("decay", "envelope.csv")):
        kernel_calls.clear()
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert kernel_calls == [len(t)]
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
