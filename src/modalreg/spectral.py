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
from typing import Iterator

import numpy as np

from .errors import ModeMismatchError

# Tail classification thresholds: a fitted exponent q of positive terms
# ~ |n|**q is declared summable below SUMMABLE_BELOW, divergent above
# DIVERGENT_ABOVE, inconclusive in the band between.
SUMMABLE_BELOW = -1.05
DIVERGENT_ABOVE = -0.95

# A tail trend needs this many positive terms to fit.
_TAIL_MIN_POINTS = 5

# The geometric condition admits equality cases that differ only by this
# relative rounding in the two ways of evaluating the bound.
_GEOMETRIC_REL_SLACK = 1e-12

# An envelope is flagged superpolynomial when its late-window exponent
# exceeds the early-window one by more than this.
_SUPERPOLY_MARGIN = 0.5


@dataclass(frozen=True)
class ModeRange:
    """Contiguous integer mode window ``[lo, hi]`` minus an excluded set."""

    lo: int
    hi: int
    excluded: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        if self.lo > self.hi:
            raise ValueError(f"empty mode range: lo={self.lo} > hi={self.hi}")
        for m in self.excluded:
            if not (self.lo <= int(m) <= self.hi):
                raise ValueError(f"excluded mode {m} outside [{self.lo}, {self.hi}]")
        if len(self.excluded) >= self.hi - self.lo + 1:
            raise ValueError("mode range empty after exclusion")

    @classmethod
    def symmetric(cls, n: int, exclude_zero: bool = False) -> "ModeRange":
        """Modes ``-n..n``, optionally without 0."""
        if n < 1:
            raise ValueError("symmetric range needs n >= 1")
        return cls(-n, n, frozenset({0}) if exclude_zero else frozenset())

    @cached_property
    def indices(self) -> np.ndarray:
        full = np.arange(self.lo, self.hi + 1)
        if self.excluded:
            full = full[~np.isin(full, sorted(self.excluded))]
        full.flags.writeable = False
        return full

    @cached_property
    def _positions(self) -> dict:
        return {int(m): i for i, m in enumerate(self.indices)}

    def position(self, mode: int) -> int:
        try:
            return self._positions[int(mode)]
        except KeyError:
            raise KeyError(f"mode {mode} not in range [{self.lo}, {self.hi}] "
                           f"minus {set(self.excluded) or '{}'}") from None

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(int(m) for m in self.indices)

    def __contains__(self, mode) -> bool:
        return int(mode) in self._positions


def _require_same_modes(a: ModeRange, b: ModeRange) -> None:
    if a != b:
        raise ModeMismatchError(f"mode ranges differ: {a} vs {b}")


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

    @classmethod
    def unit(cls, modes: ModeRange, mode: int) -> "SpectralVector":
        v = np.zeros(len(modes), dtype=np.complex128)
        v[modes.position(mode)] = 1.0
        return cls(modes, v)

    @classmethod
    def from_dict(cls, modes: ModeRange, entries: dict) -> "SpectralVector":
        v = np.zeros(len(modes), dtype=np.complex128)
        for mode, val in entries.items():
            v[modes.position(mode)] = val
        return cls(modes, v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "SpectralVector") -> "SpectralVector":
        _require_same_modes(self.modes, other.modes)
        return SpectralVector(self.modes, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralVector") -> "SpectralVector":
        _require_same_modes(self.modes, other.modes)
        return SpectralVector(self.modes, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralVector":
        return SpectralVector(self.modes, self.coeffs * scalar)

    __rmul__ = __mul__


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
    """Least-squares line ``log y = slope log x + intercept`` through the
    ``used`` points of (x, y); slope and intercept are nan when there were
    too few of them. The residual and the floor time are computed when
    read."""

    x: np.ndarray
    y: np.ndarray
    inside: np.ndarray  # the window, as a mask over x
    used: np.ndarray
    slope: float
    intercept: float

    @property
    def n_points(self) -> int:
        return int(self.used.sum())

    @cached_property
    def residual(self) -> float:
        """Largest |log y - line| over the used points; nan without a line."""
        if not self.used.any():
            return math.nan
        line = np.log(self.x[self.used]) * self.slope
        gap = np.log(self.y[self.used]) - (line + self.intercept)
        return float(np.abs(gap).max())

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
class DecayReport:
    """Least-squares log-log fit of an envelope over a time window."""

    exponent_beta: float
    intercept: float
    window: tuple
    residual: float
    n_points: int


@dataclass
class TailReport:
    """Trend classification of a positive term sequence over mode index."""

    exponent: float
    verdict: str  # "summable" | "divergent" | "inconclusive"
    n_fit: int
    note: str = ""


@dataclass
class GeometricConditionReport:
    """Outcome of the spectral wedge test Re mu <= -c/|Im mu|**alpha."""

    alpha: float
    c: float
    d: float
    passed: bool
    tightest_c: float
    n_checked: int
    failing_modes: list


@dataclass
class EnvelopeResult:
    """Decay envelope sup_n exp(Re mu_n t)|mu_n|**(-beta) on a time grid."""

    t_grid: np.ndarray
    beta: float
    values: np.ndarray
    argmax_modes: np.ndarray
    boundary_mask: np.ndarray


@dataclass
class SuperpolynomialCheck:
    """Compares fitted exponents on the early and late halves of a window."""

    early_exponent: float
    late_exponent: float
    is_superpolynomial: bool


def fractional_norm(gen: DiagonalGenerator, beta: float, v: SpectralVector) -> float:
    """Weighted norm sqrt(sum |mu_n|**(2 beta) |v_n|**2); beta = 0 is the
    plain norm. For a diagonal generator this is the graph norm of the
    fractional power of -A in closed form."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    _require_same_modes(gen.modes, v.modes)
    if beta == 0:
        return v.norm
    w = np.abs(gen.eigenvalues) ** beta
    return float(np.linalg.norm(w * v.coeffs))


def check_geometric_condition(gen: DiagonalGenerator, alpha: float, c: float,
                              d: float) -> GeometricConditionReport:
    """Test Re mu_n <= -c/|Im mu_n|**alpha on every mode with |Im mu_n| >= d,
    up to ``_GEOMETRIC_REL_SLACK``. Also reports the tightest admissible
    ``c`` for this ``alpha`` and ``d``.
    """
    if alpha <= 0 or c <= 0 or d <= 0:
        raise ValueError("alpha, c, d must all be positive")
    mu = gen.eigenvalues
    im = np.abs(mu.imag)
    checked = im >= d
    n_checked = int(checked.sum())
    if n_checked == 0:
        return GeometricConditionReport(alpha, c, d, True, math.inf, 0, [])
    re = mu.real[checked]
    bound = -c / im[checked] ** alpha
    ok = re <= bound * (1.0 - _GEOMETRIC_REL_SLACK)
    failing = [int(m) for m in gen.modes.indices[checked][~ok]]
    tightest = float(np.min((-re) * im[checked] ** alpha))
    return GeometricConditionReport(alpha, c, d, not failing, tightest,
                                    n_checked, failing)


def decay_envelope(gen: DiagonalGenerator, beta: float, t_grid) -> EnvelopeResult:
    """Envelope ``max_n exp(Re mu_n t) |mu_n|**(-beta)`` over the grid.

    Computed in log space so long times never overflow, one block of time
    points (about 1 MB of logs) at a time. The boundary mask marks times
    whose argmax mode sits at the edge of the retained range; past the
    first such time the envelope says nothing about the full operator.
    """
    from .regulator import _blocks  # regulator builds on this module

    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValueError("empty time grid")
    if np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be nonnegative and strictly increasing")
    re = gen.eigenvalues.real
    log_w = -beta * np.log(np.abs(gen.eigenvalues))
    n = re.size
    log_env = np.empty(t.size)
    argpos = np.empty(t.size, dtype=np.intp)
    for blk in _blocks(t.size, n):
        logs = t[blk, None] * re[None, :] + log_w[None, :]
        am = np.argmax(logs, axis=1)
        argpos[blk] = am
        log_env[blk] = logs[np.arange(am.size), am]
    boundary = (argpos == 0) | (argpos == n - 1)
    return EnvelopeResult(
        t_grid=t,
        beta=beta,
        values=np.exp(log_env),
        argmax_modes=gen.modes.indices[argpos],
        boundary_mask=boundary,
    )


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
        slope = intercept = math.nan
    else:
        slope, intercept = np.polyfit(np.log(x[used]), np.log(y[used]), 1)
    return LogLogFit(x, y, inside, used, float(slope), float(intercept))


def fit_decay_rate(envelope, t_grid, window) -> DecayReport:
    """Least-squares slope of log envelope vs log t inside ``window``.

    Returns the decay exponent (negated slope), the intercept, and the
    maximum absolute log deviation of the fit.
    """
    env = np.asarray(envelope, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if env.shape != t.shape:
        raise ValueError("envelope and time grid lengths differ")
    lo, hi = float(window[0]), float(window[1])
    fit = loglog_fit(t, env, (lo, hi), min_points=10)
    n_window = int(fit.inside.sum())
    if n_window < 10:
        raise ValueError(
            f"window [{lo}, {hi}] contains {n_window} grid points; need >= 10"
        )
    if fit.n_points < n_window:
        raise ValueError("envelope must be strictly positive on the fit window")
    return DecayReport(
        exponent_beta=-fit.slope,
        intercept=fit.intercept,
        window=(lo, hi),
        residual=fit.residual,
        n_points=fit.n_points,
    )


def check_superpolynomial(envelope, t_grid, window) -> SuperpolynomialCheck:
    """Flag envelopes whose fitted exponent grows along the window, the
    signature of faster-than-polynomial decay on a log-log plot."""
    t = np.asarray(t_grid, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    mid = math.sqrt(lo * hi)  # geometric midpoint splits log-evenly
    early = fit_decay_rate(envelope, t, (lo, mid))
    late = fit_decay_rate(envelope, t, (mid, hi))
    return SuperpolynomialCheck(
        early_exponent=early.exponent_beta,
        late_exponent=late.exponent_beta,
        is_superpolynomial=(late.exponent_beta
                            > early.exponent_beta + _SUPERPOLY_MARGIN),
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
    if fit.n_points == 0:
        return TailReport(-math.inf, "summable", 0,
                          "no positive terms beyond the tail window")
    if fit.n_points < _TAIL_MIN_POINTS:
        return TailReport(math.nan, "inconclusive", fit.n_points,
                          "too few positive tail terms to fit")
    return TailReport(fit.slope, _tail_verdict(fit.slope), fit.n_points)


def _tail_verdict(slope: float) -> str:
    if slope < SUMMABLE_BELOW:
        return "summable"
    if slope > DIVERGENT_ABOVE:
        return "divergent"
    return "inconclusive"
