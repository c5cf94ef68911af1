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
from typing import Optional

import numpy as np

from .errors import AssumptionFailure, ModeMismatchError, SingularResolventError
from .exosystem import ExoSpace, ExoState
from .spectral import (DiagonalGenerator, ModeRange, SpectralVector,
                       TailReport, classify_tail)


@dataclass(eq=False)
class ModalCoupling:
    """Input/output coefficient sequences and the sparse disturbance matrix.

    ``p_entries`` maps ``(n, k)`` to the coefficient of exosystem harmonic k
    in plant mode n; columns are finitely supported.
    """

    b: SpectralVector
    c: SpectralVector
    p_entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.b.modes != self.c.modes:
            raise ModeMismatchError("input and output vectors live on "
                                    "different plant mode ranges")
        for (n, _k), _ in self.p_entries.items():
            if n not in self.b.modes:
                raise ValueError(f"disturbance entry refers to plant mode {n} "
                                 "outside the retained range")

    @property
    def modes(self) -> ModeRange:
        return self.b.modes

    @property
    def has_disturbance(self) -> bool:
        return any(v != 0 for v in self.p_entries.values())

    def p_column(self, k: int) -> np.ndarray:
        """Dense disturbance column for exosystem mode k, aligned with the
        plant mode range."""
        col = np.zeros(len(self.modes), dtype=np.complex128)
        for (n, kk), val in self.p_entries.items():
            if kk == k:
                col[self.modes.position(n)] += val
        return col


@dataclass
class TransferEval:
    """One transfer-function value with its conditioning and a heuristic
    bound on the dropped tail (magnitude of the outermost-decile terms)."""

    value: complex
    min_gap: float
    nearest_mode: int
    tail_estimate: float


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
    """The denominators ``D[n, k] = i omega_k - mu_n`` of one plant and
    exosystem, and what is read off them: the frequency response ``h`` and
    disturbance response ``hd`` at every harmonic and the smallest
    resolvent gap per harmonic. A run builds it once and passes it down."""

    gen: DiagonalGenerator
    coupling: ModalCoupling
    space: ExoSpace
    denominators: np.ndarray
    h: np.ndarray
    hd: np.ndarray
    gaps: np.ndarray

    def serves(self, gen: DiagonalGenerator, space: ExoSpace) -> bool:
        """Whether the denominators are those of this generator and space."""
        return self.gen is gen and self.space is space


@dataclass(eq=False)
class FeedforwardGain:
    """Modal gain sequence with the frequency grid it was built from
    (provenance for the consistency identity H ell + H_d = 1)."""

    exo_modes: ModeRange
    ell: np.ndarray
    grid: FrequencyGrid
    floor: float

    def __post_init__(self):
        self.ell = np.asarray(self.ell, dtype=np.complex128)

    @property
    def h_values(self) -> np.ndarray:
        return self.grid.h

    @property
    def hd_values(self) -> np.ndarray:
        return self.grid.hd

    def ell_of(self, k: int) -> complex:
        return complex(self.ell[self.exo_modes.position(k)])


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

    @property
    def passed(self) -> bool:
        return self.tail.verdict == "summable"


@dataclass(eq=False)
class SylvesterSolution:
    """Modal matrix pi_{n,k} of the steady-state map, one column per
    exosystem harmonic, with the exosystem weights f_k.

    ``operator_norm_estimate`` is a power-iteration estimate of the norm of
    the map between the weighted spaces. It is computed on first access
    and cached; of the CLI commands only ``solve`` reports it, so the
    others never pay for it."""

    plant_modes: ModeRange
    exo_modes: ModeRange
    pi: np.ndarray
    weights: np.ndarray

    @cached_property
    def operator_norm_estimate(self) -> float:
        return _weighted_norm_estimate(self.pi, self.weights)

    def column(self, k: int) -> SpectralVector:
        return SpectralVector(self.plant_modes,
                              self.pi[:, self.exo_modes.position(k)].copy())


def frequency_denominators(gen: DiagonalGenerator, space: ExoSpace) -> np.ndarray:
    """Matrix D[n, k] = i omega_k - mu_n; raises on an exact eigenvalue hit."""
    denom = 1j * space.omegas[None, :] - gen.eigenvalues[:, None]
    hits = np.flatnonzero(denom == 0.0)
    if hits.size:
        n_pos, _ = np.unravel_index(hits[0], denom.shape)
        raise SingularResolventError(int(gen.modes.indices[n_pos]),
                                     complex(gen.eigenvalues[n_pos]))
    return denom


def _outer_band(gen: DiagonalGenerator) -> np.ndarray:
    """Boolean mask of the outermost decile of modes by |mu| (at least one)."""
    mags = np.abs(gen.eigenvalues)
    count = max(1, len(mags) // 10)
    cut = np.partition(mags, len(mags) - count)[len(mags) - count]
    return mags >= cut


def transfer_function(gen: DiagonalGenerator, coupling: ModalCoupling,
                      lam: complex) -> TransferEval:
    """Frequency response H(lam) = sum_n c_n b_n / (lam - mu_n) over the
    retained modes, with the resolvent gap and an outer-band tail proxy."""
    _check_plant(gen, coupling)
    denom = lam - gen.eigenvalues
    gaps = np.abs(denom)
    nearest = int(np.argmin(gaps))
    if gaps[nearest] == 0.0:
        raise SingularResolventError(int(gen.modes.indices[nearest]),
                                     complex(gen.eigenvalues[nearest]))
    terms = coupling.c.coeffs * coupling.b.coeffs / denom
    band = _outer_band(gen)
    return TransferEval(
        value=complex(terms.sum()),
        min_gap=float(gaps[nearest]),
        nearest_mode=int(gen.modes.indices[nearest]),
        tail_estimate=float(np.abs(terms[band]).sum()),
    )


def disturbance_transfer(gen: DiagonalGenerator, coupling: ModalCoupling,
                         space: ExoSpace, k: int) -> complex:
    """Disturbance response H_d(k) = sum_n c_n p_{n,k} / (i omega_k - mu_n)."""
    _check_plant(gen, coupling)
    omega = 2.0 * np.pi * k / space.period
    denom = 1j * omega - gen.eigenvalues
    gaps = np.abs(denom)
    if gaps.min() == 0.0:
        bad = int(np.argmin(gaps))
        raise SingularResolventError(int(gen.modes.indices[bad]),
                                     complex(gen.eigenvalues[bad]))
    col = coupling.p_column(k)
    return complex(np.sum(coupling.c.coeffs * col / denom))


def _check_plant(gen: DiagonalGenerator, coupling: ModalCoupling) -> None:
    if gen.modes != coupling.modes:
        raise ModeMismatchError("coupling and generator mode ranges differ")


def frequency_grid(gen: DiagonalGenerator, coupling: ModalCoupling,
                   space: ExoSpace) -> FrequencyGrid:
    """Denominators, H(i omega_k), H_d(k) and the resolvent gaps of every
    retained harmonic, from one build of the denominator matrix."""
    _check_plant(gen, coupling)
    denom = frequency_denominators(gen, space)
    cb = coupling.c.coeffs * coupling.b.coeffs
    support = np.flatnonzero(cb)  # modes outside it add exact zeros to H
    return FrequencyGrid(
        gen=gen, coupling=coupling, space=space, denominators=denom,
        h=(cb[support, None] / denom[support]).sum(axis=0),
        hd=_disturbance_grid(gen, coupling, space, denom),
        gaps=np.abs(denom).min(axis=0),
    )


def _grid_for(grid: Optional[FrequencyGrid], gen: DiagonalGenerator,
              coupling: ModalCoupling, space: ExoSpace) -> FrequencyGrid:
    """``grid`` if it was built for these objects, a new grid if None."""
    if grid is None:
        return frequency_grid(gen, coupling, space)
    if not (grid.serves(gen, space) and grid.coupling is coupling):
        raise ValueError("frequency grid was built for another plant, "
                         "coupling or exosystem")
    return grid


def _denominators(gain: FeedforwardGain, gen: DiagonalGenerator,
                  space: ExoSpace) -> np.ndarray:
    """D for this plant and space: the gain's own when it was designed on
    them, a new matrix for a gain designed on another truncation."""
    if gain.grid.serves(gen, space):
        return gain.grid.denominators
    return frequency_denominators(gen, space)


def _disturbance_grid(gen: DiagonalGenerator, coupling: ModalCoupling,
                      space: ExoSpace, denom: np.ndarray) -> np.ndarray:
    hd = np.zeros(len(space.modes), dtype=np.complex128)
    if not coupling.p_entries:
        return hd
    plant, exo = gen.modes, space.modes
    for (n, k), val in coupling.p_entries.items():
        if k not in exo:
            continue
        n_pos, k_pos = plant.position(n), exo.position(k)
        hd[k_pos] += coupling.c.coeffs[n_pos] * val / denom[n_pos, k_pos]
    return hd


def check_assumption1(gen: DiagonalGenerator, coupling: ModalCoupling,
                      space: ExoSpace, floor: float = 1e-8, *,
                      grid: Optional[FrequencyGrid] = None) -> Assumption1Report:
    """Nonvanishing frequency response: pass iff min_k |H(i omega_k)| >= floor.

    The per-harmonic resolvent gaps are reported alongside, so resonant
    near-hits that shrink H are visible rather than hidden. ``grid`` is
    the run's frequency grid; it is built here when not given.
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    grid = _grid_for(grid, gen, coupling, space)
    mags = np.abs(grid.h)
    argmin = int(np.argmin(mags))
    return Assumption1Report(
        exo_modes=space.modes,
        magnitudes=mags,
        resolvent_gaps=grid.gaps,
        floor=floor,
        passed=bool(mags[argmin] >= floor),
        min_magnitude=float(mags[argmin]),
        argmin_mode=int(space.modes.indices[argmin]),
    )


def build_feedforward(gen: DiagonalGenerator, coupling: ModalCoupling,
                      space: ExoSpace, floor: float = 1e-8,
                      enforce: bool = True, *,
                      grid: Optional[FrequencyGrid] = None) -> FeedforwardGain:
    """Gain sequence ell_k = H(i omega_k)^{-1} (1 - H_d(k)).

    With ``enforce`` the floor test must pass; ``enforce=False`` skips the
    floor (gains near a response zero then blow up visibly) but an exact
    zero still raises, since the inversion is impossible. ``grid`` is the
    run's frequency grid; it is built here when not given, and the gain
    keeps it for the solve and the simulation.
    """
    grid = _grid_for(grid, gen, coupling, space)
    h = grid.h
    mags = np.abs(h)
    if enforce and mags.min() < floor:
        k_bad = int(space.modes.indices[np.argmin(mags)])
        raise AssumptionFailure(
            f"frequency response magnitude {mags.min():.3e} at harmonic "
            f"{k_bad} is below the floor {floor:.3e}"
        )
    if np.any(mags == 0.0):
        k_bad = int(space.modes.indices[np.argmin(mags)])
        raise AssumptionFailure(
            f"frequency response vanishes exactly at harmonic {k_bad}"
        )
    return FeedforwardGain(
        exo_modes=space.modes,
        ell=(1.0 - grid.hd) / h,
        grid=grid,
        floor=floor,
    )


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
    mat = np.outer(coupling.b.coeffs, gain.ell)
    plant, exo = coupling.modes, space.modes
    for (n, k), val in coupling.p_entries.items():
        if k in exo:
            mat[plant.position(n), exo.position(k)] += val
    return mat


class ForcingColumns(Mapping):
    """Forcing columns keyed by exosystem mode, held as one dense
    (plant x exo) matrix; a lookup returns a copy of the column as a
    spectral vector."""

    def __init__(self, plant_modes: ModeRange, exo_modes: ModeRange,
                 matrix: np.ndarray):
        self.plant_modes = plant_modes
        self.exo_modes = exo_modes
        self.matrix = matrix

    def __getitem__(self, k) -> SpectralVector:
        return SpectralVector(self.plant_modes,
                              self.matrix[:, self.exo_modes.position(k)].copy())

    def __iter__(self):
        return iter(self.exo_modes)

    def __len__(self) -> int:
        return len(self.exo_modes)


def forcing_columns(coupling: ModalCoupling, gain: FeedforwardGain,
                    space: ExoSpace) -> ForcingColumns:
    """Forcing columns keyed by exosystem mode, as spectral vectors."""
    return ForcingColumns(coupling.modes, space.modes,
                          forcing_matrix(coupling, gain, space))


def _weighted_norm_estimate(pi: np.ndarray, weights: np.ndarray,
                            iterations: int = 50) -> float:
    """Power iteration on the f-weighted matrix; deterministic start."""
    m = pi / weights[None, :]
    m_adj = m.conj().T
    v = np.ones(m.shape[1], dtype=np.complex128) / np.sqrt(m.shape[1])
    for _ in range(iterations):
        w = m @ v
        v2 = m_adj @ w
        nv = np.linalg.norm(v2)
        if nv == 0.0:
            return 0.0
        v = v2 / nv
    return float(np.linalg.norm(m @ v))


def solve_regulator(gen: DiagonalGenerator, coupling: ModalCoupling,
                    gain: FeedforwardGain, space: ExoSpace) -> SylvesterSolution:
    """Spectral solution pi_{n,k} = (b_n ell_k + p_{n,k}) / (i omega_k - mu_n).

    Every column is exactly the resolvent at i omega_k applied to the
    forcing column, so the first regulator equation holds to rounding by
    construction, and the gain choice makes the output of every column
    equal one (the second equation).
    """
    _check_plant(gen, coupling)
    if gain.exo_modes != space.modes:
        raise ModeMismatchError("gain and space mode ranges differ")
    pi = forcing_matrix(coupling, gain, space)
    pi /= _denominators(gain, gen, space)
    return SylvesterSolution(
        plant_modes=gen.modes,
        exo_modes=space.modes,
        pi=pi,
        weights=space.weights,
    )


def residual_first_equation(solution: SylvesterSolution, gen: DiagonalGenerator,
                            coupling: ModalCoupling, gain: FeedforwardGain,
                            space: ExoSpace) -> float:
    """max_k ||i omega_k pi_k - mu pi_k - g_k|| / (1 + ||pi_k||).

    Zero in exact arithmetic for a spectral solve; this is the floating
    point self-check.
    """
    lhs = _denominators(gain, gen, space) * solution.pi
    lhs -= forcing_matrix(coupling, gain, space)
    resid = np.linalg.norm(lhs, axis=0)
    scale = 1.0 + np.linalg.norm(solution.pi, axis=0)
    return float(np.max(resid / scale))


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
    t_arr = np.asarray(t, dtype=float)
    phases = np.exp(1j * np.multiply.outer(t_arr, w0.space.omegas))
    out = phases @ (gain.ell * w0.coeffs)
    return complex(out) if t_arr.ndim == 0 else out
