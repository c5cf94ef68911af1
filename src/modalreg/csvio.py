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
  envelopes and ``Pi.csv`` go this way.

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
off by one. Zeros and -0 stay in the kernel. The layout then follows
``%g``: fixed notation for -4 <= E < 17, otherwise ``e`` and a signed
exponent of at least two digits; trailing zeros and a bare point are
dropped.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# Values per template block. Larger blocks format little faster but raise
# peak memory: the Python floats and strings of one block take about 80 B
# per value.
BLOCK_VALUES = 1024
# Files of fewer values keep the template path. The kernel costs about
# 70 us per block plus 0.17 us per value, the template 0.55 us per value:
# formatting 3, 4 or 11 float columns in memory, the template is faster at
# 128 values and the kernel at 256.
KERNEL_MIN_VALUES = 256
# Values per kernel block. The working set is about 125 B per value
# (0.7 MB traced for a 512 x 11 trajectory in one block), against the
# template's 80 kB for its 1024-value blocks.
KERNEL_BLOCK_VALUES = 8192

_E_MAX = 279  # the kernel's range 1e-279 <= |x| < 1e280 is |E| <= _E_MAX
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_TIE_GUARD = 1e-9
# sign, "0.000", 17 digits with a point slot after each of the first 16,
# "e", exponent sign and three exponent digits
_FLOAT_SLOT = 44


def _padded(texts) -> np.ndarray:
    """One uint64 per text of at most 8 bytes, NUL-padded: gathered and
    viewed as uint8 it gives the texts back byte for byte."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)


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
    return {
        # hi, head(hi), tail(hi), lo of 10**(16 - E)
        "pow10": np.array(pow10).T.copy(),
        # '.' after this digit; 16 means none, as 17 digits never leave one
        "point": np.array([e if 0 <= e <= 16 else 16 if -4 <= e < 0 else 0
                           for e in es], np.uint8),
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
    np.clip(k, -_E_MAX, _E_MAX, out=k)  # log10 may round up to 280
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


def _float_fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write the NUL-padded ``'%.17g' % x`` fields of the float64 array
    ``x`` into the zeroed uint8 ``out`` of shape ``x.shape + (_FLOAT_SLOT,)``."""
    t = _tables()
    d, k, uncertified = _decimal(x)
    high, low = np.divmod(d, 10**8)
    del d
    lead, high = np.divmod(high, 10**8)
    digits = np.empty(x.shape + (5,), np.uint32)  # "000" + lead, 4 groups of 4
    digits[..., 0] = t["digits4"][lead]
    del lead
    n_dig = t["int_digits"][k]
    # a generator, so that two of the four 4-digit groups live at a time
    groups = (g for half in (high, low) for g in np.divmod(half, 10**4))
    for i, group in enumerate(groups):
        digits[..., i + 1] = t["digits4"][group]
        np.maximum(n_dig, t["sig"][i][group], out=n_dig)
    del high, low, group
    np.maximum(n_dig, 1, out=n_dig)
    chars = digits.view(np.uint8)[..., 3:]
    np.multiply(chars, np.arange(17) < n_dig[..., None], out=out[..., 6:40:2])
    point = t["point"][k]
    at = np.nonzero(n_dig > point + 1)
    out[at + (7 + 2 * point[at],)] = 46
    out[..., 0] = np.signbit(x).view(np.uint8) * np.uint8(45)
    out[..., 1:6] = t["prefix"][k].view(np.uint8).reshape(x.shape + (8,))[..., :5]
    out[..., 39:] = t["suffix"][k].view(np.uint8).reshape(x.shape + (8,))[..., :5]

    slow = np.nonzero(uncertified)
    if slow[0].size:
        text = [b"%.17g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, f"S{_FLOAT_SLOT}").view(np.uint8).reshape(
            -1, _FLOAT_SLOT)


def _int_width(v: np.ndarray) -> int:
    """Field width for ``'%d' % v``: a sign and 4-digit groups."""
    biggest = max(-int(v.min()), int(v.max()))
    return 1 + 4 * -(-len(str(biggest)) // 4)


def _int_fields(v: np.ndarray, out: np.ndarray) -> None:
    """Write the NUL-padded ``'%d' % v`` fields of the integer or bool
    array ``v`` into the zeroed uint8 ``out`` of width ``_int_width(v)``."""
    digits4 = _tables()["digits4"]
    if v.dtype.kind == "i":
        v = v.astype(np.int64, copy=False)
        out[..., 0] = (v < 0).view(np.uint8) * np.uint8(45)
        mag = np.abs(v).view(np.uint64)  # |INT64_MIN| wraps to the bits of 2**63
    else:
        mag = v.astype(np.uint64)
    chars = out[..., 1:]
    n_groups = chars.shape[-1] // 4
    for g in range(n_groups):
        group = mag // np.uint64(10**(4 * (n_groups - 1 - g))) % np.uint64(10000)
        chars[..., 4 * g:4 * g + 4] = digits4[group.astype(np.intp)].view(
            np.uint8).reshape(v.shape + (4,))
    keep = np.logical_or.accumulate(chars != 48, axis=-1)
    keep[..., -1] = True
    chars *= keep


def _kernel_block(cols: list) -> bytes:
    """The CSV rows of the equal-length 1-D ``cols``. Each field gets a
    fixed-width NUL-padded slot in one uint8 buffer; deleting the NULs
    leaves the text."""
    widths = [_FLOAT_SLOT if c.dtype.kind == "f" else _int_width(c) for c in cols]
    rows = len(cols[0])
    buf = np.zeros((rows, sum(widths) + len(cols)), np.uint8)
    pos = 0
    # a run of adjacent float columns is formatted in one call
    for is_float, run in itertools.groupby(zip(cols, widths),
                                           key=lambda cw: cw[0].dtype.kind == "f"):
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
            for c, width in run:
                _int_fields(c, buf[:, pos:pos + width])
                buf[:, pos + width] = 44
                pos += width + 1
    buf[:, -1] = 10
    text = buf.tobytes()
    del buf
    # bytes.translate deletes the NULs several times faster than buf[buf != 0]
    return text.translate(None, b"\0")


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
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, shape[0], step):
            if kernel:
                fh.write(_kernel_block([c[lo:lo + step].reshape(-1) for c in cols]))
            else:
                block = [c[lo:lo + step].reshape(-1).tolist() for c in cols]
                fh.write("".join(map(template.__mod__, zip(*block))).encode())
