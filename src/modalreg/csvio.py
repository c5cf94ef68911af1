"""Columnar CSV writer shared by every artifact.

Integer and bool columns print as ``%d``; float columns print with
``float_format``, by default ``%.17g``, which equals
``format(float(x), ".17g")`` for every double, ``nan``, ``inf`` and ``-0``
included. Columns are equal-shape arrays written in C order, in blocks cut
along the leading axis. A file takes one of two paths with the same bytes:

* the template: one ``%`` template over each block's Python values. Files
  of fewer than ``KERNEL_MIN_VALUES`` values, other float formats
  (``%r``) and other dtypes go this way;
* the kernel: numpy fills one ``uint8`` buffer per block of
  ``KERNEL_BLOCK_VALUES`` values with a fixed-width slot per field, NUL
  where the field is shorter, and the NULs are deleted. Trajectories,
  envelopes and ``Pi.csv`` go this way. The kernel formats only what
  varies. An integer column whose [min, max] spans fewer integers than
  half its values is formatted once per integer of that range, into a
  table that every block of the file then indexes. In a float block
  where at least one value in ``_ZERO_SHARE`` is zero, the zeros are
  written as ``0`` or ``-0`` directly and only the others go through the
  digits below.

Why the kernel's ``%.17g`` digits are exact. For finite
1e-279 <= |x| < 1e280 let E = floor(log10 |x|) and q = 16 - E. The product
|x| * 10**q is formed as p + err: p = fl(|x| * hi), err its exact Dekker
remainder (Veltkamp split, no FMA) plus |x| * lo, where hi + lo is 10**q
correctly rounded to double-double from Python integers. The absolute
error of p + err is below 1e-14 (a few units of 2**-104 relative, on a
value below 1e17), far inside the 1e-9 guard: the 17 digits
D = round(p + err) are kept only where floor(p + err) is in [1e16, 1e17),
D < 1e17 and the fraction of p + err is more than 1e-9 from 1/2. There
the exact value rounds to the same D, so Python's correctly rounded,
round-half-even ``%.17g`` prints the same digits. The range keeps every
product and split clear of overflow and underflow. Everything else goes
to the template one value at a time: ``nan``, ``inf``, |x| outside the
range, near and exact ties (3 * 2**-24 = 1.78813934326171875e-07 is
exactly halfway at the 17th digit) and values whose E from ``log10`` is
off by one. Zeros and -0 stay in the kernel: where they are not written
directly, their digits are 0 and the layout gives ``0``. The layout follows
``%g``: fixed notation for -4 <= E < 17, otherwise ``e`` and a signed
exponent of at least two digits; trailing zeros and a bare point are
dropped. The digits before the point and those after it are masked out
of the same 17 and written one byte apart, the point between them.

Every artifact, the CSV files here and the command line's reports, is
written through ``overwrite``: an existing file is opened without
``O_TRUNC``, written from its first byte and then cut to the length just
written. A rerun into the same directory thus writes over the blocks each
file already owns. Truncating first makes the file system free them at
open and allocate new ones at close: on ext4 mounted with ``discard``
(2-vCPU VM), rewriting a 200 B or a 115 kB file took 110-190 us that way
and 12-16 us in place, more than formatting a small file. A new file gets
the bytes and the mode that ``open(path, "wb")`` gives. A write that
raises leaves the prefix written so far, as a truncating open would, never
an old tail; a process killed while writing can leave one, so rerun it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os

import numpy as np

# Values per template block. Larger blocks format little faster but raise
# peak memory: the Python floats and strings of one block take about 80 B
# per value.
BLOCK_VALUES = 1024
# Files of fewer values keep the template path. The kernel costs about
# 60 us per block plus 0.2 us per value, the template 0.6 us per value:
# formatting 3, 4 or 11 float columns in memory (2-vCPU VM), the template
# is faster at 128 values and the kernel at 256.
KERNEL_MIN_VALUES = 256
# Values per kernel block. The working set is about 120 B per value
# (0.69 MB traced for a 512 x 11 trajectory in one block), against the
# template's 80 kB for its 1024-value blocks.
KERNEL_BLOCK_VALUES = 8192
# A float block with at least one zero in _ZERO_SHARE values lays out its
# other values apart and writes the zeros directly. On 512 x 11 and
# 2048 x 2 blocks that breaks even between 1/32 and 1/16 zeros. Random
# scenarios' trajectory.csv and envelope.csv hold at most 1 % zeros and
# keep one pass; wave Pi.csv holds 50 % (every even n) and diagonal 99.6 %.
_ZERO_SHARE = 8

_E_MAX = 279  # the kernel's range 1e-279 <= |x| < 1e280 is |E| <= _E_MAX
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_TIE_GUARD = 1e-9
# sign, "0.000", 17 digits and a point, "e", exponent sign and three
# exponent digits
_FLOAT_SLOT = 29


def _padded(texts) -> np.ndarray:
    """One uint64 per text of at most 8 bytes, NUL-padded: gathered and
    viewed as uint8 it gives the texts back byte for byte."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)


def _words(mask: np.ndarray, byte: int) -> np.ndarray:
    """``byte`` where ``mask`` is set, rows of 24 bytes as three 64-bit
    words."""
    return np.where(mask, np.uint8(byte), np.uint8(0)).view(np.uint64)


@functools.lru_cache(maxsize=None)
def _tables() -> dict:
    """Lookup tables, built on first use, not at import. Those named by E
    are indexed by E + _E_MAX."""
    es = range(-_E_MAX, _E_MAX + 1)
    pow10 = []
    for e in es:
        q = 16 - e
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        hi = num / den  # int / int rounds correctly
        h_num, h_den = hi.as_integer_ratio()
        lo = (num * h_den - h_num * den) / (den * h_den)
        t = _SPLIT * hi
        head = t - (t - hi)
        pow10.append((hi, head, hi - head, lo))
    # uint8 and int16 temporaries: int64 ones would add a few hundred kB
    # to the resident set of a process that writes one small file
    g = np.arange(10000, dtype=np.int16)
    g_digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10],
                        axis=1).astype(np.uint8)
    # position after the last nonzero digit of each 4-digit group, 0 for 0000
    last = 4 - np.logical_and.accumulate(g_digits[:, ::-1] == 0, axis=1).sum(
        axis=1, dtype=np.uint8)
    # for 18 * (digits before the point) + (digits kept): masks of the
    # digit bytes 3..19 of _digit_fields' three words
    before, kept = np.divmod(np.arange(18 * 18)[:, None], 18)
    b = np.arange(24)
    point = before < kept
    return {
        # hi, head(hi), tail(hi), lo of 10**(16 - E)
        "pow10": np.array(pow10).T.copy(),
        # 18 times the digits before the point; 17 means none, as 17
        # digits never leave one
        "before": 18 * np.array([e + 1 if 0 <= e <= 16 else 17 if -4 <= e < 0
                                 else 1 for e in es], np.intp),
        "int_digits": np.array([e + 1 if 0 <= e <= 16 else 0 for e in es],
                               np.uint8),
        "prefix": _padded([b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
                           for e in es]),
        "suffix": _padded([b"" if -4 <= e <= 16 else b"e%+03d" % e for e in es]),
        "digits4": (g_digits + np.uint8(48)).view(np.uint32).ravel(),
        # digits through the last nonzero one when it lies in group i of
        # the four after the lead digit; 0 for a group 0000
        "sig": (last + np.arange(1, 17, 4, dtype=np.uint8)[:, None])
        * (last > 0),
        # the digits up to the point, or all kept ones (head); those after
        # it (tail); the point, in the byte before them (dot)
        "head": _words((3 <= b) & (b < 3 + np.where(point, before, kept)), 1),
        "tail": _words(point & (3 + before <= b) & (b < 3 + kept), 1),
        "dot": _words(point & (b == 2 + before), 46),
    }


def _decimal(x: np.ndarray) -> tuple:
    """(d, k, slow): the 17 significant digits of |x| as an int64 in
    [1e16, 1e17), 0 for zeros; the table index k = E + _E_MAX; and where
    the digits are not certified, so that the template must format x."""
    hi, head, tail, lo = _tables()["pow10"]
    a = np.abs(x)
    zero = a == 0.0
    in_range = (a >= 1e-279) & (a < 1e280)  # False for nan and inf
    a[~in_range] = 1.0  # log10 and the split never see 0, inf or nan
    k = np.floor(np.log10(a)).astype(np.intp)
    np.maximum(k, -_E_MAX, out=k)  # log10 may round past either end
    np.minimum(k, _E_MAX, out=k)
    k += _E_MAX
    p = a * hi[k]
    a_head = a * _SPLIT
    a_head -= a_head - a
    a_tail = a - a_head
    err = a_head * head[k]  # Dekker: the exact remainder of p ...
    err -= p
    err += a_head * tail[k]
    err += a_tail * head[k]
    err += a_tail * tail[k]
    err += a * lo[k]  # ... plus the low part of 10**q
    del a, a_head, a_tail  # spent arrays go early: they set the peak
    below = np.floor(err)
    err -= below  # the fraction of p + err
    d = p.astype(np.int64)  # exact: p >= 2**53 wherever d is kept
    d += below.astype(np.int64)
    del p, below
    exact = in_range & (d >= 10**16) & (np.abs(err - 0.5) > _TIE_GUARD)
    d += err > 0.5
    exact &= d < 10**17
    d[~exact] = 10**16
    d[zero] = 0
    return d, k, ~(exact | zero)


def _slots(a: np.ndarray) -> np.ndarray:
    """``a`` of shape ``s + (width,)`` as one ``void`` field per slot, of
    shape ``s``: gathers and scatters then move whole slots at a time."""
    return a.view(np.dtype((np.void, a.shape[-1])))[..., 0]


def _float_fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write the NUL-padded ``'%.17g' % x`` fields of the float64 array
    ``x`` into the zeroed uint8 ``out`` of shape ``x.shape + (_FLOAT_SLOT,)``.
    From a share of 1 / _ZERO_SHARE zeros on, the zeros are written as
    ``0`` or ``-0`` directly and only the other values are laid out."""
    zero = x == 0.0
    n_zero = np.count_nonzero(zero)
    if n_zero * _ZERO_SHARE < x.size:
        _digit_fields(x, out)
        return
    out[..., 0] = np.signbit(x).view(np.uint8) * np.uint8(45)
    out[..., 6] = zero.view(np.uint8) * np.uint8(48)
    nonzero = ~zero
    fields = np.zeros((x.size - n_zero, _FLOAT_SLOT), np.uint8)
    _digit_fields(x[nonzero], fields)
    _slots(out)[nonzero] = _slots(fields)


def _digit_fields(x: np.ndarray, out: np.ndarray) -> None:
    """:func:`_float_fields` for every value of ``x``, zeros included."""
    t = _tables()
    d, k, uncertified = _decimal(x)
    out[..., 0] = np.signbit(x).view(np.uint8) * np.uint8(45)
    out[..., 1:6] = t["prefix"][k].view(np.uint8).reshape(x.shape + (8,))[..., :5]
    out[..., 24:] = t["suffix"][k].view(np.uint8).reshape(x.shape + (8,))[..., :5]
    n_dig = t["int_digits"][k]
    at = t["before"][k]
    del k
    # quotients by a constant, and remainders from them: numpy divides by
    # a scalar several times faster than its divmod does
    high = d // 10**8
    low = d - high * 10**8
    del d
    lead = high // 10**8
    high -= lead * 10**8
    # "000" + lead, 4 groups of 4 and 4 spare bytes: three 64-bit words
    digits = np.empty(x.shape + (6,), np.uint32)
    digits[..., 0] = t["digits4"][lead]
    del lead
    for i, half in enumerate((high, low)):
        upper = half // 10**4
        for j, group in enumerate((upper, half - upper * 10**4), 2 * i):
            digits[..., j + 1] = t["digits4"][group]
            np.maximum(n_dig, t["sig"][j][group], out=n_dig)
    del high, low, half, upper, group
    np.maximum(n_dig, 1, out=n_dig)
    at += n_dig
    del n_dig
    # head: the digits up to the point, or all of them; then the digits
    # after the point and the point itself, written one byte further on.
    # The masks are 0/1 bytes gathered as 64-bit words; multiplying and
    # adding bytes keeps to numpy loops the kernel maps anyway, where a
    # bitwise and would map 64 kB more of numpy's code into every process.
    chars = digits.view(np.uint8)
    part = np.take(t["head"], at, axis=0)
    keep = part.view(np.uint8)
    keep *= chars
    out[..., 6:23] = keep[..., 3:20]
    chars *= np.take(t["tail"], at, axis=0, out=part).view(np.uint8)
    chars += np.take(t["dot"], at, axis=0, out=part).view(np.uint8)
    out[..., 7:24] += chars[..., 3:20]  # no byte is in both

    slow = np.nonzero(uncertified)
    if slow[0].size:
        text = [b"%.17g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, f"S{_FLOAT_SLOT}").view(np.uint8).reshape(
            -1, _FLOAT_SLOT)


def _int_width(lo: int, hi: int) -> int:
    """Field width for ``'%d'`` of integers in [lo, hi]: a sign and
    4-digit groups."""
    return 1 + 4 * -(-len(str(max(-lo, hi))) // 4)


def _int_column(c: np.ndarray) -> tuple:
    """(base, width, table) of the integer or bool column ``c`` of one
    file: its minimum, in the 64-bit dtype its blocks are formatted in;
    the field width of its [min, max]; and the fields of every integer in
    that range, when they are fewer than half the values of ``c`` and than
    ``KERNEL_BLOCK_VALUES``, else None. The table is built once per file
    and every block gathers from it: ``Pi.csv``'s ``n`` and ``k`` columns
    hold N and K integers in N x K rows. Building it costs about as much as
    formatting the column from half its values on."""
    dtype = c.dtype if c.dtype.itemsize == 8 else np.dtype(np.int64)
    lo, hi = int(c.min()), int(c.max())
    base, width = dtype.type(lo), _int_width(lo, hi)
    if 2 * (hi - lo) >= c.size or hi - lo >= KERNEL_BLOCK_VALUES:
        return base, width, None
    table = np.zeros((hi - lo + 1, width), np.uint8)
    _int_digits(base + np.arange(hi - lo + 1, dtype=dtype), table)
    return base, width, table


def _int_fields(v: np.ndarray, base, table, out: np.ndarray) -> None:
    """Write the NUL-padded ``'%d' % v`` fields of the integer or bool
    array ``v`` into the zeroed uint8 ``out``, from ``table`` at
    ``v - base`` where :func:`_int_column` built one."""
    v = v.astype(base.dtype, copy=False)  # bool and narrow ints: no wrap
    if table is None:
        _int_digits(v, out)
    else:
        _slots(out)[...] = _slots(table)[v - base]


def _int_digits(v: np.ndarray, out: np.ndarray) -> None:
    """The NUL-padded ``'%d' % v`` fields of the int64 or uint64 ``v``,
    written into the zeroed uint8 ``out``."""
    digits4 = _tables()["digits4"]
    mag = v
    if v.dtype.kind == "i":
        out[..., 0] = (v < 0).view(np.uint8) * np.uint8(45)
        mag = np.abs(v).view(np.uint64)  # |INT64_MIN| wraps to the bits of 2**63
    chars = out[..., 1:]
    n_groups = chars.shape[-1] // 4
    for g in range(n_groups):
        group = mag // np.uint64(10**(4 * (n_groups - 1 - g))) % np.uint64(10000)
        chars[..., 4 * g:4 * g + 4] = digits4[group.astype(np.intp)].view(
            np.uint8).reshape(v.shape + (4,))
    keep = np.logical_or.accumulate(chars != 48, axis=-1)
    keep[..., -1] = True
    chars *= keep


def _kernel_block(cols: list, ints: list) -> bytes:
    """The CSV rows of the equal-length 1-D ``cols``; ``ints`` holds the
    :func:`_int_column` of each integer column and None for each float
    one. Each field gets a fixed-width NUL-padded slot in one uint8
    buffer; deleting the NULs leaves the text."""
    widths = [_FLOAT_SLOT if i is None else i[1] for i in ints]
    rows = len(cols[0])
    buf = np.zeros((rows, sum(widths) + len(cols)), np.uint8)
    pos = 0
    # a run of adjacent float columns is formatted in one call
    for is_float, run in itertools.groupby(zip(cols, ints),
                                           key=lambda ci: ci[1] is None):
        run = list(run)
        if is_float:
            end = pos + len(run) * (_FLOAT_SLOT + 1)
            slots = buf[:, pos:end].reshape(rows, len(run), _FLOAT_SLOT + 1)
            x = np.stack([c for c, _ in run], axis=1).astype(np.float64, copy=False)
            _float_fields(x, slots[..., :-1])
            slots[..., -1] = 44
            del slots, x  # no view may keep buf alive past its del below
            pos = end
        else:
            for c, (base, width, table) in run:
                _int_fields(c, base, table, buf[:, pos:pos + width])
                buf[:, pos + width] = 44
                pos += width + 1
    buf[:, -1] = 10
    text = buf.tobytes()
    del buf
    # bytes.translate deletes the NULs several times faster than buf[buf != 0]
    return text.translate(None, b"\0")


def _keep_blocks(path, flags):
    # os.open's default mode is 0o777; open(path, "wb") creates with 0o666
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def overwrite(path):
    """Binary handle that writes ``path`` from its first byte; on leaving,
    also when the body raises, the file is cut to what was written."""
    with open(path, "wb", opener=_keep_blocks) as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def write_csv(path, header, columns, float_format: str = "%.17g") -> None:
    """Write ``header`` and one row per entry of the equal-shape
    ``columns``, in C order; no columns (or empty ones) give a header-only
    file."""
    cols = [np.asarray(c) for c in columns]
    shape = cols[0].shape if cols else (0,)
    if any(c.ndim == 0 or c.shape != shape for c in cols):
        raise ValueError(f"columns of {path} must be arrays of equal length "
                         "and shape")
    template = ",".join("%d" if c.dtype.kind in "biu" else float_format
                        for c in cols) + "\n"
    row_values = len(cols) * math.prod(shape[1:])
    kernel = (float_format == "%.17g"
              and shape[0] * row_values >= KERNEL_MIN_VALUES
              and all(c.dtype.kind in "biu"
                      or (c.dtype.kind == "f" and c.dtype.itemsize <= 8)
                      for c in cols))
    step = max(1, (KERNEL_BLOCK_VALUES if kernel else BLOCK_VALUES)
               // max(1, row_values))  # leading entries per block
    if kernel:
        ints = [None if c.dtype.kind == "f" else _int_column(c) for c in cols]
    with overwrite(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, shape[0], step):
            if kernel:
                fh.write(_kernel_block([c[lo:lo + step].reshape(-1) for c in cols],
                                       ints))
            else:
                block = [c[lo:lo + step].reshape(-1).tolist() for c in cols]
                fh.write("".join(map(template.__mod__, zip(*block))).encode())
