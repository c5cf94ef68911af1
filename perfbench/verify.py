"""Correctness checks of CLI artifacts against recorded reference outputs.

The reference keeps each CSV's header and row count, and then either its
values or, where storing them would be too large, a fingerprint.

An entry x of a column whose reference maximum magnitude is M may differ
from its reference value r by RTOL * (|r| + FLOOR * M). The |r| term keeps
small entries, such as the tails of a decaying envelope, to a relative
tolerance; the FLOOR * M term passes the cancellation error of an
equivalent formula, a few ulps of the column's scale. A column that is
zero throughout takes M from the largest column of its file.

Values are compared entry by entry, and non-finite entries must match in
place and kind.

A fingerprint keeps, per column, M, the number of non-finite entries
and, per block of BLOCK rows, the block's largest magnitude B and
N_WEIGHTS projections on fixed pseudo-random weights drawn uniformly from
[-1, 1). Each must agree within RTOL * (B + FLOOR * M). The weights are
continuous, so swapping two unequal entries moves every projection, and
an entry that is off by ten times its tolerance moves a projection past
its own unless all N_WEIGHTS of its weights are below 0.1 in magnitude
(odds 1e-3). Blocks keep that resolution local: an entry is measured
against the largest entry of its block, not of its column.

Both checks pass last-bit changes from an equivalent formula: summed over
a block, rounding errors stay far below RTOL.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from pathlib import Path

import numpy as np

RTOL = 1e-7
FLOOR = 1e-4
BLOCK = 64
N_WEIGHTS = 3
RESIDUAL_LIMIT = 1e-10
VALID_EXIT_CODES = (0, 1, 2)
_RESIDUAL_RE = re.compile(r"regulator equation residual\s*=\s*(\S+)")


def _weights(n: int) -> np.ndarray:
    """N_WEIGHTS rows of n weights in [-1, 1): a splitmix64 hash of the
    row index, integer arithmetic only, so they never change."""
    i = np.arange(n, dtype=np.uint64)
    rows = []
    for j in range(N_WEIGHTS):
        z = i + np.uint64(0x9E3779B97F4A7C15 * (j + 1) % 2**64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        rows.append((z >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0)
    return np.array(rows).reshape(N_WEIGHTS, n)


def load_csv(path: Path):
    """Header and data (rows x columns) of a numeric CSV artifact."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    with warnings.catch_warnings():
        # a header-only CSV is a valid artifact; loadtxt warns on it
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data.reshape(-1, len(header))


def _col_max(col: np.ndarray) -> float:
    return float(np.abs(col[np.isfinite(col)]).max(initial=0.0))


def fingerprint(col: np.ndarray) -> dict:
    """M, the non-finite count and [B, projection 1..N_WEIGHTS] per block."""
    finite = np.isfinite(col)
    n_blocks = -(-col.size // BLOCK)
    x = np.zeros(n_blocks * BLOCK)
    x[:col.size] = np.where(finite, col, 0.0)
    blocks = x.reshape(n_blocks, BLOCK)
    proj = (_weights(x.size).reshape(N_WEIGHTS, n_blocks, BLOCK)
            * blocks).sum(axis=2)
    return {"max": _col_max(col), "nonfinite": int((~finite).sum()),
            "blocks": np.column_stack([np.abs(blocks).max(axis=1, initial=0.0),
                                       proj.T]).tolist()}


def csv_record(header, data: np.ndarray, keep_values: bool) -> dict:
    record = {"header": header, "rows": data.shape[0]}
    if keep_values:
        record["values"] = [col.tolist() for col in data.T]
    else:
        record["cols"] = [fingerprint(col) for col in data.T]
    return record


def residuals(path: Path) -> list:
    return [float(v) for v in _RESIDUAL_RE.findall(path.read_text())]


def artifact_record(out_dir: Path, values_limit: int = 0) -> dict:
    """Everything the reference keeps about one invocation's output
    directory; a CSV of at most ``values_limit`` entries keeps its values."""
    files = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    record = {"files": files, "csv": {}}
    for name in files:
        if name.endswith(".csv"):
            header, data = load_csv(out_dir / name)
            record["csv"][name] = csv_record(header, data,
                                             data.size <= values_limit)
    if "residuals.txt" in files:
        record["residuals"] = residuals(out_dir / "residuals.txt")
    return record


def _floors(col_maxes) -> list:
    """FLOOR * M per column; an all-zero column uses its file's largest M."""
    fallback = max(col_maxes, default=0.0)
    return [FLOOR * (m if m > 0 else fallback) for m in col_maxes]


def _values_problem(name, col, ref, floor) -> str:
    ref = np.asarray(ref, dtype=np.float64)
    finite = np.isfinite(ref)
    if not np.array_equal(col[~finite], ref[~finite], equal_nan=True) \
            or not np.isfinite(col[finite]).all():
        return f"{name}: non-finite entries differ from the reference"
    tol = RTOL * (np.abs(ref) + floor)
    bad = np.flatnonzero(finite & ~(np.abs(col - ref) <= tol))
    if bad.size:
        i = bad[0]
        return (f"{name}: {bad.size} entries off, first row {i}: "
                f"{float(col[i])!r} vs reference {float(ref[i])!r} "
                f"(tol {tol[i]:.3g})")
    return ""


def _fingerprint_problem(name, got, ref, floor) -> str:
    if got["nonfinite"] != ref["nonfinite"]:
        return (f"{name}: {got['nonfinite']} non-finite values, "
                f"reference {ref['nonfinite']}")
    g, r = np.asarray(got["blocks"]), np.asarray(ref["blocks"])
    if g.shape != r.shape:
        return f"{name}: fingerprint shape {g.shape}, reference {r.shape}"
    if g.size == 0:
        return ""
    tol = RTOL * (r[:, :1] + floor)
    bad = np.flatnonzero((~(np.abs(g - r) <= tol)).any(axis=1))
    if bad.size:
        b = bad[0]
        return (f"{name}: {bad.size} blocks of {BLOCK} rows off, first at "
                f"row {b * BLOCK}: {g[b].tolist()} vs reference "
                f"{r[b].tolist()} (tol {tol[b, 0]:.3g})")
    return ""


def _csv_problems(fname, path: Path, ref: dict) -> list:
    header, data = load_csv(path)
    if header != ref["header"] or data.shape[0] != ref["rows"]:
        return [f"{fname}: header/rows {header}/{data.shape[0]}, "
                f"reference {ref['header']}/{ref['rows']}"]
    if "values" in ref:
        floors = _floors([_col_max(np.asarray(v, dtype=np.float64))
                          for v in ref["values"]])
        found = [_values_problem(f"{fname}:{c}", col, r, f)
                 for c, col, r, f in zip(header, data.T, ref["values"], floors)]
    else:
        floors = _floors([r["max"] for r in ref["cols"]])
        found = [_fingerprint_problem(f"{fname}:{c}", fingerprint(col), r, f)
                 for c, col, r, f in zip(header, data.T, ref["cols"], floors)]
    return [msg for msg in found if msg]


def compare(exit_code, error, out_dir: Path, ref: dict) -> list:
    """Reasons this invocation failed; an empty list means it passed."""
    if error is not None:
        return [f"raised {error}"]
    problems = []
    if exit_code not in VALID_EXIT_CODES:
        problems.append(f"exit code {exit_code} outside {VALID_EXIT_CODES}")
    if exit_code != ref["exit_code"]:
        problems.append(f"exit code {exit_code}, reference {ref['exit_code']}")
    files = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if files != ref["files"]:
        return problems + [f"artifacts {files}, reference {ref['files']}"]
    try:
        if "residuals" in ref:
            found = residuals(out_dir / "residuals.txt")
            if len(found) != len(ref["residuals"]):
                problems.append(f"{len(found)} residuals in residuals.txt, "
                                f"reference {len(ref['residuals'])}")
            problems += [f"residual {v!r} above {RESIDUAL_LIMIT}"
                         for v in found if not v <= RESIDUAL_LIMIT]
        for fname, rec in ref["csv"].items():
            problems += _csv_problems(fname, out_dir / fname, rec)
    except (ValueError, OSError) as exc:
        problems.append(f"unreadable artifacts: {exc}")
    return problems


def digests(out_dir: Path) -> dict:
    """SHA-256 of every artifact, for the byte-identical rerun check."""
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}
