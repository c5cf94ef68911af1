"""Columnar CSV writer shared by every artifact.

Integer and bool columns print as plain integers (``str(int(x))``); float
columns print with ``float_format``, by default ``%.17g``, which equals
``format(float(x), ".17g")`` for every double, ``nan``, ``inf`` and ``-0``
included. Rows are formatted in blocks through one ``%`` template, so no
per-value Python dispatch remains.
"""

from __future__ import annotations

import numpy as np

# Values per formatted block (a block holds BLOCK_VALUES // n_columns rows).
# Larger blocks format little faster but raise peak memory: the Python
# floats and strings of one block take about 80 B per value, and at 2048
# values a random-scenario run peaked 0.2 MB above the row-by-row writer.
BLOCK_VALUES = 1024


def write_csv(path, header, columns, float_format: str = "%.17g") -> None:
    """Write ``header`` and one row per index of the equal-length 1-D
    ``columns``; no columns (or zero-length ones) give a header-only file."""
    cols = [np.asarray(c) for c in columns]
    n_rows = len(cols[0]) if cols else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in cols):
        raise ValueError(f"columns of {path} must be 1-D and of equal length")
    template = ",".join("%d" if c.dtype.kind in "biu" else float_format
                        for c in cols) + "\n"
    step = max(1, BLOCK_VALUES // max(1, len(cols)))  # rows per block
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, step):
            block = [c[lo:lo + step].tolist() for c in cols]
            fh.write("".join(map(template.__mod__, zip(*block))))
