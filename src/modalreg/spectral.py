"""Diagonal-operator calculus on a truncated mode set.

Everything acts coefficient-wise on sequences indexed by a finite
``ModeRange``: fractional-power weights ``|mu_n|**beta``, the decay
envelope ``sup_n exp(Re mu_n t) |mu_n|**(-beta)``, and ``loglog_fit``,
the one log-log line fit behind every decay rate, certificate and tail
trend.

Sums and sups over the full integer lattice are always taken over the
retained modes only; reports flag when an extremizer touches the range
boundary, because beyond that point the truncated quantity no longer
tracks the untruncated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModeMismatchError

# Tail classification thresholds: a fitted exponent q of positive terms
# ~ |n|**q is declared summable below SUMMABLE_BELOW, divergent above
# DIVERGENT_ABOVE, inconclusive in the band between.
SUMMABLE_BELOW = -1.05
DIVERGENT_ABOVE = -0.95

# A tail trend, or the spectrum's fitted order, needs this many points.
_TAIL_MIN_POINTS = 5

# A decay-rate fit needs this many grid points in its window.
_FIT_MIN_POINTS = 10

# An envelope is flagged superpolynomial when its late-window exponent
# exceeds the early-window one by more than this.
_SUPERPOLY_MARGIN = 0.5

# Entries per block of a blocked (rows x columns) evaluation: 1 MB of
# complex entries. Nothing outside the spectral solve holds a whole
# plant-modes x harmonics matrix.
_BLOCK_ENTRIES = 2**16


def _block_width(n_rows: int) -> int:
    """Columns of an n_rows-row block of about ``_BLOCK_ENTRIES`` entries,
    at least two."""
    return max(2, _BLOCK_ENTRIES // max(n_rows, 1))


def _blocks(n_cols: int, n_rows: int) -> list:
    """Slices of range(n_cols) in order, each spanning about
    ``_BLOCK_ENTRIES`` entries of an n_rows-row matrix.

    The last slice holds at least two columns when there are two: numpy
    sums a one-column block down its rows pairwise, not row by row as it
    sums wider blocks, so a lone last column would change the last bits
    of the column sums.
    """
    width = _block_width(n_rows)
    starts = list(range(0, n_cols, width))
    if len(starts) > 1 and n_cols - starts[-1] < 2:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_cols])]


@dataclass(frozen=True)
class ModeRange:
    """Contiguous integer mode window ``[lo, hi]``, optionally without 0."""

    lo: int
    hi: int
    exclude_zero: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty mode range: lo={self.lo} > hi={self.hi}")
        if self.exclude_zero:
            if not self.lo <= 0 <= self.hi:
                raise ValueError(f"excluded mode 0 outside [{self.lo}, {self.hi}]")
            if self.lo == self.hi:
                raise ValueError("mode range empty after exclusion")

    @classmethod
    def symmetric(cls, n: int, exclude_zero: bool = False) -> "ModeRange":
        """Modes ``-n..n``, optionally without 0."""
        if n < 1:
            raise ValueError("symmetric range needs n >= 1")
        return cls(-n, n, exclude_zero)

    @cached_property
    def indices(self) -> np.ndarray:
        full = np.arange(self.lo, self.hi + 1)
        if self.exclude_zero:
            full = full[full != 0]
        full.flags.writeable = False
        return full

    def position(self, mode: int) -> int:
        if mode not in self:
            without = " without 0" if self.exclude_zero else ""
            raise KeyError(f"mode {mode} not in range "
                           f"[{self.lo}, {self.hi}]{without}")
        m = int(mode)
        return m - self.lo - (self.exclude_zero and m > 0)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, mode) -> bool:
        m = int(mode)
        return self.lo <= m <= self.hi and not (self.exclude_zero and m == 0)


def _require_same_modes(a: ModeRange, b: ModeRange) -> None:
    if a != b:
        raise ModeMismatchError(f"mode ranges differ: {a} vs {b}")


def _require_same_space(a, b) -> None:  # two exosystem spaces
    _require_same_modes(a.modes, b.modes)
    if a.period != b.period:
        raise ModeMismatchError(f"periods differ: {a.period} vs {b.period}")


@dataclass(eq=False)
class SpectralVector:
    """Coefficient sequence over a mode range (coordinates in the plant basis)."""

    modes: ModeRange
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (len(self.modes),):
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, "
                f"expected ({len(self.modes)},)"
            )

    @classmethod
    def zeros(cls, modes: ModeRange) -> "SpectralVector":
        return cls(modes, np.zeros(len(modes), dtype=np.complex128))


@dataclass(eq=False)
class DiagonalGenerator:
    """Diagonal generator: one eigenvalue per retained mode, all in Re < 0."""

    modes: ModeRange
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.complex128)
        if self.eigenvalues.shape != (len(self.modes),):
            raise ValueError(
                f"eigenvalue array has shape {self.eigenvalues.shape}, "
                f"expected ({len(self.modes)},)"
            )
        worst = np.argmax(self.eigenvalues.real)
        if self.eigenvalues.real[worst] >= 0:
            mode = int(self.modes.indices[worst])
            raise ValueError(
                f"eigenvalue {self.eigenvalues[worst]} at mode {mode} "
                "is not strictly inside the left half-plane"
            )


@dataclass(eq=False)
class LogLogFit:
    """Slope of the least-squares line through (log x, log y) over the
    ``used`` points; nan when there were too few of them. The floor time
    is computed when read."""

    x: np.ndarray
    y: np.ndarray
    inside: np.ndarray  # the window, as a mask over x
    used: np.ndarray
    slope: float

    @property
    def n_points(self) -> int:
        return int(self.used.sum())

    @cached_property
    def floor_time(self) -> float:
        """Least window x at which |y| <= eps * max |y| over all of x
        (exact zeros count), inf if none: the rounding floor, below which
        a fit follows rounding residue."""
        mag = np.abs(self.y)
        at_floor = self.inside & (
            mag <= np.finfo(float).eps * mag.max(initial=0.0))
        return float(np.where(at_floor, self.x, np.inf).min(initial=np.inf))


@dataclass
class TailReport:
    """Trend classification of a positive term sequence over mode index."""

    exponent: float
    verdict: str  # "summable" | "divergent" | "inconclusive"


@dataclass
class EnvelopeResult:
    """Decay envelope sup_n exp(Re mu_n t)|mu_n|**(-beta) on a time grid."""

    values: np.ndarray
    boundary_mask: np.ndarray


@dataclass
class SuperpolynomialCheck:
    """Compares fitted exponents on the early and late halves of a window."""

    early_exponent: float
    late_exponent: float
    is_superpolynomial: bool


def conjugate_partners(mu: np.ndarray) -> np.ndarray:
    """For each mode n the position m with mu_m == conj(mu_n), so n itself
    where mu_n is real, and -1 where no mode has that value. A spectrum
    with a repeated value pairs nothing, and neither does one with
    unequally many eigenvalues above and below the real axis, told by
    counting alone (every random scenario). A real plant's spectrum, the
    wave's or the diagonal's, pairs every mode. Callers compute the
    partners anew: a generator's eigenvalues may be changed in place.
    """
    none = np.full(mu.size, -1, dtype=np.intp)
    if np.count_nonzero(mu.imag > 0) != np.count_nonzero(mu.imag < 0):
        return none
    order = np.argsort(mu)  # by real part, then imaginary part
    ranked = mu[order]
    if np.any(ranked[1:] == ranked[:-1]):
        return none
    conj = mu.conj()
    at = np.minimum(np.searchsorted(ranked, conj), mu.size - 1)
    return np.where(ranked[at] == conj, order[at], none)


def fractional_norm(gen: DiagonalGenerator, beta: float, v: SpectralVector) -> float:
    """Weighted norm sqrt(sum |mu_n|**(2 beta) |v_n|**2); beta = 0 is the
    plain norm. For a diagonal generator this is the graph norm of the
    fractional power of -A in closed form."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    _require_same_modes(gen.modes, v.modes)
    w = np.abs(gen.eigenvalues) ** beta
    return float(np.linalg.norm(w * v.coeffs))


def check_geometric_condition(gen: DiagonalGenerator) -> LogLogFit:
    """The spectrum's fitted order: alpha_hat = -slope of log(-Re mu_n)
    against log |Im mu_n| over the modes with Im mu_n != 0 and |Im mu_n|
    in the outer half [max/2, max]. A spectrum with -Re mu ~ |Im mu|**-alpha
    fits alpha. Fewer than ``_TAIL_MIN_POINTS`` such modes fit no line,
    and neither do modes all at one |Im mu|, which count as none.
    """
    mu = gen.eigenvalues
    im = np.abs(mu.imag)
    top = im.max()
    spread = im[im >= top / 2.0].min() < top
    return loglog_fit(im, -mu.real, (top / 2.0, top), keep=(im > 0) & spread,
                      min_points=_TAIL_MIN_POINTS)


def decay_envelope(gen: DiagonalGenerator, beta: float, t_grid) -> EnvelopeResult:
    """Envelope ``max_n exp(Re mu_n t) |mu_n|**(-beta)`` over the grid.

    Computed in log space so long times never overflow, one block of time
    points (about 1 MB of logs over all modes) at a time. The boundary
    mask marks times whose argmax mode sits at the edge of the retained
    range; past the first such time the envelope says nothing about the
    full operator. A conjugate pair (see :func:`conjugate_partners`) has
    equal Re mu and |mu| bit for bit, so equal logs; the first argmax is
    then never the upper mode of a pair, and only the lower one is
    searched.
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValueError("empty time grid")
    if np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be nonnegative and strictly increasing")
    mu = gen.eigenvalues
    n = mu.size
    partner = conjugate_partners(mu)
    # every mode but the upper one of each pair
    lower = np.flatnonzero((partner < 0) | (partner >= np.arange(n)))
    re = mu.real[lower]
    log_w = -beta * np.log(np.abs(mu[lower]))
    log_env = np.empty(t.size)
    argpos = np.empty(t.size, dtype=np.intp)
    for blk in _blocks(t.size, n):
        logs = t[blk, None] * re[None, :] + log_w[None, :]
        am = np.argmax(logs, axis=1)
        argpos[blk] = lower[am]
        log_env[blk] = logs[np.arange(am.size), am]
    boundary = (argpos == 0) | (argpos == n - 1)
    return EnvelopeResult(values=np.exp(log_env), boundary_mask=boundary)


def loglog_fit(x, y, window=None, keep=None, min_points: int = 2) -> LogLogFit:
    """Least-squares line through (log x, log y) over the points of x
    inside ``window`` (``(lo, hi)``, all of x when None) where ``keep``
    holds and y is positive; see :class:`LogLogFit`. Fewer than
    ``min_points`` such points fit no line.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = (np.ones(x.size, dtype=bool) if window is None
              else (x >= window[0]) & (x <= window[1]))
    used = inside & (y > 0)
    if keep is not None:
        used &= keep
    if used.sum() < min_points:
        slope = math.nan
    else:
        slope = np.polyfit(np.log(x[used]), np.log(y[used]), 1)[0]
    return LogLogFit(x, y, inside, used, float(slope))


def fit_decay_rate(envelope, t_grid, window) -> LogLogFit:
    """Least-squares fit of log envelope vs log t inside ``window``; the
    decay exponent is the negated slope. The window must hold at least
    10 grid points, all with a positive envelope.
    """
    env = np.asarray(envelope, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if env.shape != t.shape:
        raise ValueError("envelope and time grid lengths differ")
    lo, hi = float(window[0]), float(window[1])
    fit = loglog_fit(t, env, (lo, hi), min_points=_FIT_MIN_POINTS)
    n_window = int(fit.inside.sum())
    if n_window < _FIT_MIN_POINTS:
        raise ValueError(f"window [{lo}, {hi}] contains {n_window} grid "
                         f"points; need >= {_FIT_MIN_POINTS}")
    if fit.n_points < n_window:
        raise ValueError("envelope must be strictly positive on the fit window")
    return fit


def check_superpolynomial(envelope, t_grid, window) -> SuperpolynomialCheck:
    """Flag envelopes whose fitted exponent grows along the window, the
    signature of faster-than-polynomial decay on a log-log plot. Each half
    of the window must hold as many grid points as one fit needs."""
    t = np.asarray(t_grid, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    mid = math.sqrt(lo * hi)  # geometric midpoint splits log-evenly
    halves = ((lo, mid), (mid, hi))
    counts = [int(np.count_nonzero((t >= a) & (t <= b))) for a, b in halves]
    if min(counts) < _FIT_MIN_POINTS:
        raise ValueError(
            f"window [{lo}, {hi}] splits at its geometric midpoint {mid} "
            f"into halves of {counts[0]} and {counts[1]} grid points; need "
            f">= {_FIT_MIN_POINTS} in each")
    early, late = (-fit_decay_rate(envelope, t, half).slope
                   for half in halves)
    return SuperpolynomialCheck(
        early_exponent=early,
        late_exponent=late,
        is_superpolynomial=late > early + _SUPERPOLY_MARGIN,
    )


def classify_tail(indices, terms) -> TailReport:
    """Classify the decay trend of nonnegative ``terms`` against ``|index|``.

    Fits log terms vs log |index| on the outer half of the index range
    (zero terms are excluded from the fit; an all-zero tail means finite
    support and is summable by inspection). The verdict uses the module
    thresholds; "inconclusive" is a first-class outcome.
    """
    idx = np.abs(np.asarray(indices, dtype=float))
    a = np.asarray(terms, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"terms must be one sequence, got shape {a.shape}")
    if idx.shape != a.shape:
        raise ValueError("indices and terms lengths differ")
    if np.any(a < 0):
        raise ValueError("terms must be nonnegative")
    n_max = idx.max() if idx.size else 0
    tail = idx >= max(2.0, math.ceil(n_max / 2))
    fit = loglog_fit(idx[tail], a[tail], min_points=_TAIL_MIN_POINTS)
    if fit.n_points == 0:  # no positive terms beyond the tail window
        return TailReport(-math.inf, "summable")
    if fit.n_points < _TAIL_MIN_POINTS:  # too few positive tail terms
        return TailReport(math.nan, "inconclusive")
    return TailReport(fit.slope, _tail_verdict(fit.slope))


def _tail_verdict(slope: float) -> str:
    if slope < SUMMABLE_BELOW:
        return "summable"
    if slope > DIVERGENT_ABOVE:
        return "divergent"
    return "inconclusive"
