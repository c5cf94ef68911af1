"""Feedforward design at the exosystem frequencies.

The plant is SISO in modal coordinates: input column ``b``, output row
``c``, optional disturbance matrix ``P`` mapping exosystem harmonics into
plant modes. At each retained harmonic the frequency response
``H(i omega_k) = sum_n c_n b_n / (i omega_k - mu_n)`` is inverted to build
the modal gain sequence ``ell_k = H(i omega_k)^{-1} (1 - H_d(k))``, where
``H_d(k)`` is the disturbance's contribution to the output at that
frequency. The steady-state map has the explicit spectral form
``pi_{n,k} = (b_n ell_k + p_{n,k}) / (i omega_k - mu_n)``.

All quantities here are computed from one retained mode set, so both
regulator residuals vanish to rounding; distance to the untruncated
problem is reported separately as tail estimates.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import AssumptionFailure, ModeMismatchError, SingularResolventError
from .exosystem import ExoSpace, ExoState, synthesize_signal
from .spectral import (DiagonalGenerator, ModeRange, SpectralVector,
                       TailReport, classify_tail)

# Plant modes x harmonics per block of denominators (1 MB of complex
# entries). Nothing outside the spectral solve holds the whole matrix.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True, eq=False)
class ModalCoupling:
    """Input/output coefficient sequences and the sparse disturbance matrix.

    ``p_entries`` maps ``(n, k)`` to the coefficient of exosystem harmonic k
    in plant mode n; columns are finitely supported. The entries are
    checked and stored read-only once, as parallel arrays of plant
    position, harmonic and value, so the stored form cannot go stale.
    """

    b: SpectralVector
    c: SpectralVector
    p_entries: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.b.modes != self.c.modes:
            raise ModeMismatchError("input and output vectors live on "
                                    "different plant mode ranges")
        entries = dict(self.p_entries)
        for n, _k in entries:
            if n not in self.b.modes:
                raise ValueError(f"disturbance entry refers to plant mode {n} "
                                 "outside the retained range")
        object.__setattr__(self, "p_entries", MappingProxyType(entries))
        object.__setattr__(self, "_p_rows", np.array(
            [self.modes.position(n) for n, _k in entries], dtype=np.intp))
        object.__setattr__(self, "_p_harmonics", np.array(
            [int(k) for _n, k in entries], dtype=np.int64))
        object.__setattr__(self, "_p_values", np.array(
            list(entries.values()), dtype=np.complex128))

    @property
    def modes(self) -> ModeRange:
        return self.b.modes

    def disturbance_in(self, exo_modes: ModeRange):
        """(plant positions, exo positions, values) of the entries of P
        whose harmonic is retained in ``exo_modes``, in insertion order."""
        idx = exo_modes.indices  # sorted
        cols = np.searchsorted(idx, self._p_harmonics)
        keep = idx[np.minimum(cols, len(idx) - 1)] == self._p_harmonics
        return self._p_rows[keep], cols[keep], self._p_values[keep]


@dataclass
class Assumption1Report:
    """Per-harmonic magnitudes of the frequency response and the floor test."""

    exo_modes: ModeRange
    magnitudes: np.ndarray
    resolvent_gaps: np.ndarray
    floor: float
    passed: bool
    min_magnitude: float
    argmin_mode: int


@dataclass(eq=False)
class FrequencyGrid:
    """What is read off the denominators ``D[n, k] = i omega_k - mu_n`` of
    one plant and exosystem: the frequency response ``h`` and disturbance
    response ``hd`` at every harmonic and the smallest resolvent gap per
    harmonic. A run builds it once and passes it down; D itself is not
    kept."""

    space: ExoSpace
    h: np.ndarray
    hd: np.ndarray
    gaps: np.ndarray


@dataclass(eq=False)
class FeedforwardGain:
    """Modal gain sequence ell_k, one entry per retained harmonic."""

    exo_modes: ModeRange
    ell: np.ndarray

    def __post_init__(self):
        self.ell = np.asarray(self.ell, dtype=np.complex128)


@dataclass
class Assumption2Report:
    """Square-summability evidence for the weighted gain sequence."""

    exo_modes: ModeRange
    terms: np.ndarray
    shell_radii: np.ndarray
    partial_sums: np.ndarray
    total: float
    tail: TailReport

    @property
    def verdict(self) -> str:
        return self.tail.verdict


@dataclass(eq=False)
class SylvesterSolution:
    """Modal matrix pi_{n,k} of the steady-state map, one column per
    exosystem harmonic, with the exosystem weights f_k.

    ``operator_norm_estimate`` is a power-iteration estimate of the norm of
    the map between the weighted spaces. It is computed on first access
    and cached; ``solve``, the one command that builds the solution,
    reports it."""

    plant_modes: ModeRange
    exo_modes: ModeRange
    pi: np.ndarray
    weights: np.ndarray

    @cached_property
    def operator_norm_estimate(self) -> float:
        return _weighted_norm_estimate(self.pi, self.weights)


def _denominators(gen: DiagonalGenerator, omegas: np.ndarray) -> np.ndarray:
    """D[n, k] = i omega_k - mu_n for the given frequencies; raises on an
    exact eigenvalue hit. The library's only exact-hit check."""
    denom = 1j * omegas[None, :] - gen.eigenvalues[:, None]
    hits = np.flatnonzero(denom == 0.0)
    if hits.size:
        n_pos, _ = np.unravel_index(hits[0], denom.shape)
        raise SingularResolventError(int(gen.modes.indices[n_pos]),
                                     complex(gen.eigenvalues[n_pos]))
    return denom


def frequency_denominators(gen: DiagonalGenerator, space: ExoSpace) -> np.ndarray:
    """Matrix D[n, k] = i omega_k - mu_n; raises on an exact eigenvalue hit."""
    return _denominators(gen, space.omegas)


def _blocks(n_cols: int, n_rows: int) -> list:
    """Slices of range(n_cols) in order, each spanning about
    ``_BLOCK_ENTRIES`` entries of an n_rows-row matrix.

    The last slice holds at least two columns when there are two: numpy
    sums a one-column block down its rows pairwise, not row by row as it
    sums wider blocks, so a lone last column would change the last bits
    of the column sums.
    """
    width = max(2, _BLOCK_ENTRIES // max(n_rows, 1))
    starts = list(range(0, n_cols, width))
    if len(starts) > 1 and n_cols - starts[-1] < 2:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_cols])]


def _check_plant(gen: DiagonalGenerator, coupling: ModalCoupling) -> None:
    if gen.modes != coupling.modes:
        raise ModeMismatchError("coupling and generator mode ranges differ")


def _check_operands(gen: DiagonalGenerator, coupling: ModalCoupling,
                    gain: FeedforwardGain, space: ExoSpace) -> None:
    """The forcing operator (coupling, gain) must live on the mode ranges
    of the plant and the exosystem it is applied to."""
    _check_plant(gen, coupling)
    if gain.exo_modes != space.modes:
        raise ModeMismatchError("gain and space mode ranges differ")


def frequency_grid(gen: DiagonalGenerator, coupling: ModalCoupling,
                   space: ExoSpace) -> FrequencyGrid:
    """H(i omega_k), H_d(k) and the resolvent gaps of every retained
    harmonic, from the denominators built one block of harmonics at a
    time (each block is checked for an exact hit)."""
    _check_plant(gen, coupling)
    cb = coupling.c.coeffs * coupling.b.coeffs
    support = np.flatnonzero(cb)  # modes outside it add exact zeros to H
    n_exo = len(space.modes)
    h = np.empty(n_exo, dtype=np.complex128)
    gaps = np.empty(n_exo)
    for blk in _blocks(n_exo, len(gen.modes)):
        denom = _denominators(gen, space.omegas[blk])
        h[blk] = (cb[support, None] / denom[support]).sum(axis=0)
        gaps[blk] = np.abs(denom).min(axis=0)
    return FrequencyGrid(space=space, h=h,
                         hd=_disturbance_response(gen, coupling, space),
                         gaps=gaps)


def _disturbance_response(gen: DiagonalGenerator, coupling: ModalCoupling,
                          space: ExoSpace) -> np.ndarray:
    """H_d(k) = sum_n c_n p_{n,k} / (i omega_k - mu_n), one scalar step
    per entry of P (an array product would round differently)."""
    hd = np.zeros(len(space.modes), dtype=np.complex128)
    c = coupling.c.coeffs
    rows, cols, vals = coupling.disturbance_in(space.modes)
    denom = 1j * space.omegas[cols] - gen.eigenvalues[rows]
    for n_pos, k_pos, val, d in zip(rows, cols, vals, denom):
        hd[k_pos] += c[n_pos] * val / d
    return hd


def check_assumption1(grid: FrequencyGrid,
                      floor: float = 1e-8) -> Assumption1Report:
    """Nonvanishing frequency response: pass iff min_k |H(i omega_k)| >= floor.

    The per-harmonic resolvent gaps are reported alongside, so resonant
    near-hits that shrink H are visible rather than hidden.
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    modes = grid.space.modes
    mags = np.abs(grid.h)
    argmin = int(np.argmin(mags))
    return Assumption1Report(
        exo_modes=modes,
        magnitudes=mags,
        resolvent_gaps=grid.gaps,
        floor=floor,
        passed=bool(mags[argmin] >= floor),
        min_magnitude=float(mags[argmin]),
        argmin_mode=int(modes.indices[argmin]),
    )


def build_feedforward(grid: FrequencyGrid) -> FeedforwardGain:
    """Gain sequence ell_k = H(i omega_k)^{-1} (1 - H_d(k)).

    No floor is applied here (:func:`check_assumption1` is the floor test;
    gains near a response zero blow up visibly), but an exact zero raises,
    since the inversion is impossible.
    """
    modes = grid.space.modes
    h = grid.h
    zeros = np.flatnonzero(h == 0.0)
    if zeros.size:
        raise AssumptionFailure(f"frequency response vanishes exactly at "
                                f"harmonic {int(modes.indices[zeros[0]])}")
    return FeedforwardGain(exo_modes=modes, ell=(1.0 - grid.hd) / h)


def check_assumption2(gain: FeedforwardGain, space: ExoSpace) -> Assumption2Report:
    """Square-summability of the weighted gains (ell_k / f_k).

    Reports the partial sums over growing symmetric shells |k| <= K and a
    tail-exponent fit of the terms; the verdict is a trend at truncation,
    not a proof about the untruncated sequence.
    """
    if gain.exo_modes != space.modes:
        raise ModeMismatchError("gain and space mode ranges differ")
    terms = np.abs(gain.ell / space.weights) ** 2
    radii = np.abs(space.modes.indices)
    max_r = int(radii.max())
    shell_sums = np.bincount(radii, weights=terms, minlength=max_r + 1)
    partial = np.cumsum(shell_sums)
    return Assumption2Report(
        exo_modes=space.modes,
        terms=terms,
        shell_radii=np.arange(max_r + 1),
        partial_sums=partial,
        total=float(terms.sum()),
        tail=classify_tail(space.modes.indices, terms),
    )


def forcing_matrix(coupling: ModalCoupling, gain: FeedforwardGain,
                   space: ExoSpace) -> np.ndarray:
    """Columns of the closed-loop forcing operator: g_{n,k} = b_n ell_k + p_{n,k}."""
    return _forcing_columns(coupling, gain, space, np.arange(len(space.modes)))


def _forcing_columns(coupling: ModalCoupling, gain: FeedforwardGain,
                     space: ExoSpace, positions: np.ndarray) -> np.ndarray:
    """The forcing-matrix columns at the sorted harmonic ``positions``."""
    mat = np.outer(coupling.b.coeffs, gain.ell[positions])
    rows, cols, vals = coupling.disturbance_in(space.modes)
    j = np.minimum(np.searchsorted(positions, cols), positions.size - 1)
    keep = positions[j] == cols
    mat[rows[keep], j[keep]] += vals[keep]  # the keys of P are unique
    return mat


def _weighted_norm_estimate(pi: np.ndarray, weights: np.ndarray) -> float:
    """Power iteration on the f-weighted matrix M = pi / f from a
    deterministic start. M and M* are applied as pi @ (v / f) and
    conj(pi^T conj(w)) / f, so no copy of pi is made. Stops when the
    estimate changes by at most 1e-13 relative, or after 50 steps."""
    v = np.ones(pi.shape[1], dtype=np.complex128) / np.sqrt(pi.shape[1])
    estimate = 0.0
    for _ in range(50):
        w = pi @ (v / weights)
        v = (pi.T @ w.conj()).conj() / weights
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        previous, estimate = estimate, np.linalg.norm(w)
        if abs(estimate - previous) <= 1e-13 * estimate:
            break
    return float(np.linalg.norm(pi @ (v / weights)))


def solve_regulator(gen: DiagonalGenerator, coupling: ModalCoupling,
                    gain: FeedforwardGain, space: ExoSpace) -> SylvesterSolution:
    """Spectral solution pi_{n,k} = (b_n ell_k + p_{n,k}) / (i omega_k - mu_n).

    Every column is exactly the resolvent at i omega_k applied to the
    forcing column, so the first regulator equation holds to rounding by
    construction, and the gain choice makes the output of every column
    equal one (the second equation).
    """
    _check_operands(gen, coupling, gain, space)
    pi = forcing_matrix(coupling, gain, space)
    pi /= frequency_denominators(gen, space)  # the one full build of D
    return SylvesterSolution(
        plant_modes=gen.modes,
        exo_modes=space.modes,
        pi=pi,
        weights=space.weights,
    )


@dataclass(eq=False)
class SteadyStateImage:
    """The steady-state map at one exosystem state w0: the plant state
    ``pi_w0`` = Pi w0 and the output mismatch ``mismatch[k]`` =
    (c . pi_k - 1) w0_k, exactly zero where w0_k is."""

    w0: ExoState
    pi_w0: np.ndarray
    mismatch: np.ndarray


def steady_state_image(gen: DiagonalGenerator, coupling: ModalCoupling,
                       gain: FeedforwardGain, w0: ExoState) -> SteadyStateImage:
    """Pi w0 and c Pi from the columns pi_k of the spectral solve, built
    one block of harmonics at a time and never held whole. Only the
    harmonics with w0_k != 0 are visited: the others add exact zeros."""
    space = w0.space
    _check_operands(gen, coupling, gain, space)
    pi_w0 = np.zeros(len(gen.modes), dtype=np.complex128)
    mismatch = np.zeros(len(space.modes), dtype=np.complex128)
    support = np.flatnonzero(w0.coeffs)
    for blk in _blocks(support.size, len(gen.modes)):
        pos = support[blk]
        pi = _forcing_columns(coupling, gain, space, pos)
        pi /= _denominators(gen, space.omegas[pos])
        pi_w0 += pi @ w0.coeffs[pos]
        mismatch[pos] = (coupling.c.coeffs @ pi - 1.0) * w0.coeffs[pos]
    return SteadyStateImage(w0=w0, pi_w0=pi_w0, mismatch=mismatch)


def residual_first_equation(solution: SylvesterSolution, gen: DiagonalGenerator,
                            coupling: ModalCoupling, gain: FeedforwardGain,
                            space: ExoSpace) -> float:
    """max_k ||i omega_k pi_k - mu pi_k - g_k|| / (1 + ||pi_k||).

    Zero in exact arithmetic for a spectral solve; this is the floating
    point self-check. Evaluated one block of harmonics at a time.
    """
    n_exo = len(space.modes)
    ratios = np.empty(n_exo)
    for blk in _blocks(n_exo, len(gen.modes)):
        pi = solution.pi[:, blk]  # a view: a copy would be column-major
        lhs = _denominators(gen, space.omegas[blk]) * pi
        lhs -= _forcing_columns(coupling, gain, space, np.arange(n_exo)[blk])
        ratios[blk] = (np.linalg.norm(lhs, axis=0)
                       / (1.0 + np.linalg.norm(pi, axis=0)))
    return float(np.max(ratios))


def residual_second_equation(solution: SylvesterSolution,
                             coupling: ModalCoupling,
                             space: ExoSpace) -> float:
    """max_k |c . pi_k - 1|: each steady-state column must reproduce the
    unit output of its harmonic."""
    out = coupling.c.coeffs @ solution.pi
    return float(np.max(np.abs(out - 1.0)))


def control_signal(gain: FeedforwardGain, w0: ExoState, t):
    """Feedforward input sum_k ell_k w0_k exp(i omega_k t); equals the gain
    applied to the shifted exosystem state."""
    if gain.exo_modes != w0.space.modes:
        raise ModeMismatchError("gain and state mode ranges differ")
    return synthesize_signal(ExoState(w0.space, gain.ell * w0.coeffs), t)
