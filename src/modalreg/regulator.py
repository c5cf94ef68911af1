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
regulator residuals vanish to rounding. They say nothing about the
distance to the untruncated problem, and nothing here estimates it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AssumptionFailure, SingularResolventError
from .exosystem import ExoSpace, ExoState, synthesize_signal
from .spectral import (DiagonalGenerator, ModeRange, SpectralVector,
                       TailReport, _block_width, _blocks,
                       _require_same_modes, _require_same_space,
                       classify_tail, conjugate_partners)


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
        _require_same_modes(self.b.modes, self.c.modes)
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
    """The smallest frequency-response magnitude and the floor test."""

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
    """Modal gain sequence ell_k, one entry per retained harmonic of the
    exosystem space it was designed on."""

    space: ExoSpace
    ell: np.ndarray

    def __post_init__(self):
        self.ell = np.asarray(self.ell, dtype=np.complex128)


@dataclass
class Assumption2Report:
    """Square-summability evidence for the weighted gain sequence."""

    partial_sums: np.ndarray  # entry K sums the shell |k| <= K
    total: float
    tail: TailReport


@dataclass(eq=False)
class SylvesterSolution:
    """Modal matrix pi_{n,k} of the steady-state map, one column per
    harmonic of ``space``, the exosystem space of the gain it was solved
    for (its weights f_k weight the columns).

    ``operator_norm_estimate`` is a power-iteration estimate of the norm of
    the map between the weighted spaces. It is computed on first access
    and cached; ``solve``, the one command that builds the solution,
    reports it."""

    plant_modes: ModeRange
    space: ExoSpace
    pi: np.ndarray

    @cached_property
    def operator_norm_estimate(self) -> float:
        return _weighted_norm_estimate(self.pi, self.space.weights)


def _denominators(gen: DiagonalGenerator, omegas: np.ndarray) -> np.ndarray:
    """D[n, k] = i omega_k - mu_n for the given frequencies, unchecked:
    :func:`frequency_grid` has ruled out an exact hit."""
    return 1j * omegas[None, :] - gen.eigenvalues[:, None]


def frequency_denominators(gen: DiagonalGenerator, space: ExoSpace) -> np.ndarray:
    """Matrix D[n, k] = i omega_k - mu_n over every retained harmonic."""
    return _denominators(gen, space.omegas)


def frequency_grid(gen: DiagonalGenerator, coupling: ModalCoupling,
                   space: ExoSpace) -> FrequencyGrid:
    """H(i omega_k), H_d(k) and the resolvent gaps of every retained
    harmonic.

    The gaps come first, from :func:`_resolvent_gaps`. A zero gap is an
    exact eigenvalue hit, which makes the regulator equations unsolvable
    at that harmonic: it raises :class:`SingularResolventError` naming the
    mode, before anything is divided. This is the library's only
    exact-hit check. A generator built in the open left half-plane cannot
    hit (Re D = -Re mu > 0); one changed after construction can. H is
    then summed one block of harmonics at a time over the modes with
    c_n b_n != 0 only: the others add exact zeros.

    A real plant pays once per conjugate pair. Where
    :func:`_conjugate_half` finds the mirror, only the terms at
    omega_k >= 0 are divided; H at -k is the conjugate of those terms
    summed in partner order, the direct sum's order, and division
    commutes with conjugation bit for bit.
    """
    _require_same_modes(gen.modes, coupling.modes)
    mu, omegas = gen.eigenvalues, space.omegas
    gaps = _resolvent_gaps(mu, omegas)
    if not gaps.all():  # the first harmonic with a zero gap
        n_pos = np.flatnonzero(mu == 1j * omegas[np.argmin(gaps)])[0]
        raise SingularResolventError(int(gen.modes.indices[n_pos]),
                                     complex(mu[n_pos]))
    cb = coupling.c.coeffs * coupling.b.coeffs
    support = np.flatnonzero(cb)
    half, partner = _conjugate_half(mu, omegas, cb)
    if half:
        perm = np.searchsorted(support, partner[support])  # partner order
    cb, mu = cb[support, None], mu[support, None]
    h = np.empty(omegas.size, dtype=np.complex128)
    for blk in _blocks(h.size - half, len(gen.modes)):
        cols = slice(half + blk.start, half + blk.stop)
        terms = cb / (1j * omegas[None, cols] - mu)
        if half:  # column j's mirror is h.size - 1 - j; the zero
            # harmonic, its own mirror, then takes its direct sum. Adding
            # 0.0 makes the -0.0 that conj makes of an exact zero the
            # +0.0 of a direct sum, and changes no other value.
            h[::-1][cols] = np.take(terms, perm, axis=0,
                                    mode="clip").sum(axis=0).conj() + 0.0
        h[cols] = terms.sum(axis=0)
    return FrequencyGrid(space=space, h=h,
                         hd=_disturbance_response(gen, coupling, space),
                         gaps=gaps)


def _conjugate_half(mu: np.ndarray, omegas: np.ndarray, cb: np.ndarray):
    """(half, partner) of a plant and its harmonics. ``partner`` is
    :func:`spectral.conjugate_partners` of mu. half is K // 2 when every
    mode has a partner, (c b)_partner = conj(c b), omega_-k = -omega_k
    and there are at least three harmonics, else 0; the harmonic
    positions j < half then mirror K - 1 - j. A side of one harmonic
    would not do: a one-column block sums pairwise. An unpaired spectrum
    (every random scenario) fails the first test at once.
    """
    partner = conjugate_partners(mu)
    if (partner.min() >= 0 and omegas.size >= 3
            and np.array_equal(omegas, -omegas[::-1])
            and np.array_equal(cb[partner], cb.conj())):
        return omegas.size // 2, partner
    return 0, partner


def _resolvent_gaps(mu: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """min_n |i omega_k - mu_n| for every omega_k, exactly.

    When one block of about ``_BLOCK_ENTRIES`` entries covers every
    (mode, harmonic) pair, that block is the search. Otherwise each
    harmonic starts at its place in the spectrum sorted by Im mu, with a
    window of about ``_BLOCK_ENTRIES // K`` modes around it. Every mode
    outside the window is at least as far in Im mu as the window's next
    neighbour on its side, and a gap is at least its Im part, so the
    window is doubled only for the harmonics whose next neighbour lies
    nearer in Im mu than their smallest gap so far. Each candidate is
    the same ``abs(1j * omega - mu)`` as in the dense block, so the gaps
    keep their bits.
    """
    n = mu.size
    width = _block_width(omegas.size)
    if width >= n:
        return np.abs(1j * omegas[None, :] - mu[:, None]).min(axis=0)
    mu = mu[np.argsort(mu.imag, kind="stable")]
    im = mu.imag
    centre = np.searchsorted(im, omegas)
    gaps = np.empty(omegas.size)
    todo = np.arange(omegas.size)
    while todo.size:
        width = min(width, n)
        lo = np.clip(centre[todo] - width // 2, 0, n - width)
        windows = sliding_window_view(mu, width)  # row j: mu[j:j + width]
        for blk in _blocks(todo.size, width):
            ks = todo[blk]
            gaps[ks] = np.abs(1j * omegas[ks, None]
                              - windows[lo[blk]]).min(axis=1)
        hi = lo + width
        om, best = omegas[todo], gaps[todo]
        wider = (((lo > 0) & (om - im[lo - 1] < best))
                 | ((hi < n) & (im[np.minimum(hi, n - 1)] - om < best)))
        todo, width = todo[wider], 2 * width
    return gaps


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


def check_assumption1(grid: FrequencyGrid, floor: float) -> Assumption1Report:
    """Nonvanishing frequency response: pass iff min_k |H(i omega_k)| >= floor.

    The per-harmonic resolvent gaps stay on the grid (``grid.gaps``), so
    resonant near-hits that shrink H are visible rather than hidden.
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    modes = grid.space.modes
    mags = np.abs(grid.h)
    argmin = int(np.argmin(mags))
    return Assumption1Report(
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
    return FeedforwardGain(space=grid.space, ell=(1.0 - grid.hd) / h)


def check_assumption2(gain: FeedforwardGain) -> Assumption2Report:
    """Square-summability of the weighted gains (ell_k / f_k).

    Reports the partial sums over growing symmetric shells |k| <= K and a
    tail-exponent fit of the terms; the verdict is a trend at truncation,
    not a proof about the untruncated sequence.
    """
    space = gain.space
    terms = np.abs(gain.ell / space.weights) ** 2
    radii = np.abs(space.modes.indices)
    shell_sums = np.bincount(radii, weights=terms)
    return Assumption2Report(
        partial_sums=np.cumsum(shell_sums),
        total=float(terms.sum()),
        tail=classify_tail(space.modes.indices, terms),
    )


def forcing_matrix(coupling: ModalCoupling, gain: FeedforwardGain) -> np.ndarray:
    """Columns of the closed-loop forcing operator: g_{n,k} = b_n ell_k + p_{n,k}."""
    return _forcing_columns(coupling, gain, np.arange(gain.ell.size))


def _forcing_columns(coupling: ModalCoupling, gain: FeedforwardGain,
                     positions: np.ndarray) -> np.ndarray:
    """The forcing-matrix columns at the sorted harmonic ``positions``."""
    mat = np.outer(coupling.b.coeffs, gain.ell[positions])
    rows, cols, vals = coupling.disturbance_in(gain.space.modes)
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
                    gain: FeedforwardGain) -> SylvesterSolution:
    """Spectral solution pi_{n,k} = (b_n ell_k + p_{n,k}) / (i omega_k - mu_n).

    Every column is exactly the resolvent at i omega_k applied to the
    forcing column, so the first regulator equation holds to rounding by
    construction, and the gain choice makes the output of every column
    equal one (the second equation). The forcing matrix is divided in
    place, one block of harmonics at a time, so D is never held whole.
    """
    _require_same_modes(gen.modes, coupling.modes)
    pi = forcing_matrix(coupling, gain)
    omegas = gain.space.omegas
    for blk in _blocks(omegas.size, len(gen.modes)):
        pi[:, blk] /= _denominators(gen, omegas[blk])
    return SylvesterSolution(plant_modes=gen.modes, space=gain.space, pi=pi)


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
    _require_same_modes(gen.modes, coupling.modes)
    _require_same_space(w0.space, gain.space)
    pi_w0 = np.zeros(len(gen.modes), dtype=np.complex128)
    mismatch = np.zeros(len(gain.space.modes), dtype=np.complex128)
    support = np.flatnonzero(w0.coeffs)
    for blk in _blocks(support.size, len(gen.modes)):
        pos = support[blk]
        pi = _forcing_columns(coupling, gain, pos)
        pi /= _denominators(gen, gain.space.omegas[pos])
        pi_w0 += pi @ w0.coeffs[pos]
        mismatch[pos] = (coupling.c.coeffs @ pi - 1.0) * w0.coeffs[pos]
    return SteadyStateImage(w0=w0, pi_w0=pi_w0, mismatch=mismatch)


def residual_first_equation(solution: SylvesterSolution, gen: DiagonalGenerator,
                            coupling: ModalCoupling,
                            gain: FeedforwardGain) -> float:
    """max_k ||i omega_k pi_k - mu pi_k - g_k|| / (1 + ||pi_k||).

    Zero in exact arithmetic for a spectral solve; this is the floating
    point self-check. Evaluated one block of harmonics at a time.
    """
    space = gain.space
    n_exo = len(space.modes)
    ratios = np.empty(n_exo)
    for blk in _blocks(n_exo, len(gen.modes)):
        pi = solution.pi[:, blk]  # a view: a copy would be column-major
        lhs = _denominators(gen, space.omegas[blk]) * pi
        lhs -= _forcing_columns(coupling, gain, np.arange(n_exo)[blk])
        ratios[blk] = (np.linalg.norm(lhs, axis=0)
                       / (1.0 + np.linalg.norm(pi, axis=0)))
    return float(np.max(ratios))


def residual_second_equation(solution: SylvesterSolution,
                             coupling: ModalCoupling) -> float:
    """max_k |c . pi_k - 1|: each steady-state column must reproduce the
    unit output of its harmonic."""
    out = coupling.c.coeffs @ solution.pi
    return float(np.max(np.abs(out - 1.0)))


def control_signal(gain: FeedforwardGain, w0: ExoState, t):
    """Feedforward input sum_k ell_k w0_k exp(i omega_k t); equals the gain
    applied to the shifted exosystem state."""
    _require_same_space(gain.space, w0.space)
    return synthesize_signal(ExoState(w0.space, gain.ell * w0.coeffs), t)
