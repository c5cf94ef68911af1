"""Exact modal closed-loop simulation and decay certification.

With the feedforward input the closed loop decouples per plant mode into
``dz_n/dt = mu_n z_n + sum_k g_{n,k} w_k exp(i omega_k t)`` whose
variation-of-constants solution is evaluated in closed form:

    z_n(t) = exp(mu_n t) z0_n
             + sum_k g_{n,k} w_k (exp(i omega_k t) - exp(mu_n t))
                             / (i omega_k - mu_n).

No time stepping is involved, so trajectories carry rounding error only;
an independent fixed-step integrator exists in the test suite as the
oracle for this claim.

The command line needs only the outputs and the distance to the
steady-state orbit. With x = z0 - Pi w0 the state is
``z(t) = T(t) x + Pi T_S(t) w0``, so :func:`simulate_outputs` evaluates
them from Pi w0 and c Pi without the state, and takes the complex
semigroup factor exp(mu_n t) only for the modes with c_n x_n != 0, which
reach the output; the others enter the distance by their magnitude
alone. Of a conjugate pair of modes that reach the output, only one takes
the complex factor.
:func:`simulate_closed_loop` keeps the full state and is the reference
it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exosystem import ExoState, synthesize_signal
from .regulator import (FeedforwardGain, ModalCoupling, SteadyStateImage,
                        SylvesterSolution, control_signal, forcing_matrix,
                        frequency_denominators)
from .spectral import (DiagonalGenerator, SpectralVector, _blocks,
                       _require_same_modes, _require_same_space,
                       conjugate_partners, loglog_fit)


@dataclass(eq=False)
class SimulationResult:
    """Trajectories on a shared time grid; ``z`` is (time x plant modes)."""

    t_grid: np.ndarray
    plant_modes: object
    z: np.ndarray
    y: np.ndarray
    y_r: np.ndarray
    u: np.ndarray
    e: np.ndarray
    w0: ExoState


def simulate_closed_loop(gen: DiagonalGenerator, coupling: ModalCoupling,
                         gain: FeedforwardGain, z0: SpectralVector,
                         w0: ExoState, t_grid) -> SimulationResult:
    """Closed-loop run from (z0, w0) over the grid, exact per mode."""
    _require_same_modes(z0.modes, gen.modes)
    _require_same_space(w0.space, gain.space)
    t = np.asarray(t_grid, dtype=float)
    space = w0.space
    m = forcing_matrix(coupling, gain)
    m *= w0.coeffs[None, :]
    m /= frequency_denominators(gen, space)
    transient = z0.coeffs - m.sum(axis=1)
    z = np.exp(1j * np.multiply.outer(t, space.omegas)) @ m.T
    del m  # the largest array; free it before the transient term is added
    z += np.exp(np.multiply.outer(t, gen.eigenvalues)) * transient[None, :]
    y = z @ coupling.c.coeffs
    y_r = synthesize_signal(w0, t)
    u = control_signal(gain, w0, t)
    return SimulationResult(
        t_grid=t, plant_modes=gen.modes, z=z, y=y, y_r=y_r, u=u,
        e=y - y_r, w0=w0,
    )


@dataclass(eq=False)
class OutputTrajectory:
    """Outputs on the time grid of the run and ``state_deviation``, the
    distance ||z(t) - Pi T_S(t) w0|| of the state to the steady-state
    orbit."""

    y: np.ndarray
    y_r: np.ndarray
    u: np.ndarray
    e: np.ndarray
    state_deviation: np.ndarray


def simulate_outputs(gen: DiagonalGenerator, coupling: ModalCoupling,
                     gain: FeedforwardGain, z0: SpectralVector,
                     image: SteadyStateImage, t_grid) -> OutputTrajectory:
    """Closed-loop outputs from (z0, w0) without the state, w0 being the
    state ``image`` was computed at.

    With x = z0 - Pi w0, the error is e(t) = c . T(t) x
    + sum_k (c pi_k - 1) w0_k exp(i omega_k t) and the state deviation is
    ||T(t) x||. Only the modes with c_n x_n != 0 reach e: they take the
    complex factor exp(mu_n t) x_n. The modes with c_n = 0 and x_n != 0
    add to the deviation only, by |x_n| exp(Re mu_n t), and the modes with
    x_n = 0 take neither; the deviation joins the two parts by ``hypot``,
    which returns the complex part's norm unchanged when the real part is
    empty. Of a conjugate pair of modes that both reach e, one takes the
    exponential and the other gets its conjugate, which has the bits its
    own would have (see :class:`_PairedExp`); f x_n, f @ c and the norms
    are then taken on these bits as on any others. The time points are
    taken one block at a time (see ``spectral._blocks``): per block, the
    two semigroup factors and one (time x harmonics) phase matrix, shared
    by y_r, u and the orbit term, all in buffers allocated once per call
    and filled in place. Every output row depends on its own time point
    only, so the blocks change no bits, and memory is O(T) plus one block.
    Phases are exponentiated only where w0_k != 0 and are 0 elsewhere,
    where w0_k, ell_k w0_k and the mismatch all vanish; the products keep
    their full length, so their sums round as with every phase taken.
    """
    _require_same_modes(z0.modes, gen.modes)
    w0 = image.w0
    _require_same_space(w0.space, gain.space)
    t = np.asarray(t_grid, dtype=float)
    x = z0.coeffs - image.pi_w0
    c = coupling.c.coeffs
    reach = c * x != 0
    unseen = (x != 0) & ~reach
    mu, x_reach, c_reach = gen.eigenvalues[reach], x[reach], c[reach]
    rate, size = gen.eigenvalues[unseen].real, np.abs(x[unseen])
    support = np.flatnonzero(w0.coeffs)
    omegas = w0.space.omegas[support]
    ell_w0 = gain.ell * w0.coeffs
    y_r, u, e = (np.empty(t.size, dtype=np.complex128) for _ in range(3))
    deviation = np.empty(t.size)
    blocks = _blocks(t.size, max(x.size, ell_w0.size))
    rows = max(b.stop - b.start for b in blocks)
    partner = conjugate_partners(gen.eigenvalues)
    free = _PairedExp(mu, partner, reach, rows)
    magnitude = np.empty((rows, rate.size))
    # only the columns where w0_k != 0 are ever written, so the others
    # stay 0
    phases = np.zeros((rows, w0.coeffs.size), dtype=np.complex128)
    arg = np.empty((rows, omegas.size), dtype=np.complex128)
    for blk in blocks:
        n = blk.stop - blk.start
        p, a = phases[:n], arg[:n]
        f = free.fill(t[blk])
        f *= x_reach  # row j is the reaching part of T(t_j) x
        m = magnitude[:n]
        np.exp(np.multiply.outer(t[blk], rate, out=m), out=m)
        m *= size
        deviation[blk] = np.hypot(np.linalg.norm(f, axis=1),
                                  np.linalg.norm(m, axis=1))
        np.multiply.outer(t[blk], omegas, out=a)
        p[:, support] = np.exp(np.multiply(1j, a, out=a), out=a)
        y_r[blk] = p @ w0.coeffs
        u[blk] = p @ ell_w0
        e[blk] = f @ c_reach + p @ image.mismatch
    return OutputTrajectory(y=y_r + e, y_r=y_r, u=u, e=e,
                            state_deviation=deviation)


class _PairedExp:
    """exp(t (x) rates), the complex factors of the modes where ``keep``
    holds, in a buffer of ``rows`` rows allocated once. Of a conjugate
    pair of kept modes only the lower is exponentiated, into a second
    buffer beside its conjugate; the upper one's column is that conjugate
    (exp commutes with conjugation bit for bit), and one ``take`` puts
    every column in place. Its ``mode="clip"`` writes into ``out``
    directly, where the default mode fills a temporary first. Without a
    pair there is no second buffer.
    """

    def __init__(self, rates, partner, keep, rows):
        self.out = np.empty((rows, rates.size), dtype=rates.dtype)
        self.rates, self.index = rates, None
        pos = np.flatnonzero(keep)
        mate = partner[pos]
        upper = (mate >= 0) & (mate < pos) & keep[mate]
        if upper.any():
            self.rates = rates[~upper]
            # a lower mode's rank among the lower modes; an upper mode's
            # column in the second buffer
            self.index = np.cumsum(~upper) - 1
            self.index[upper] = (self.index[np.searchsorted(pos, mate[upper])]
                                 + self.rates.size)
            self.buf = np.empty((rows, 2 * self.rates.size), dtype=rates.dtype)

    def fill(self, t):
        out = self.out[:t.size]
        if self.index is None:
            return np.exp(np.multiply.outer(t, self.rates, out=out), out=out)
        buf = self.buf[:t.size]
        head, tail = buf[:, :self.rates.size], buf[:, self.rates.size:]
        np.exp(np.multiply.outer(t, self.rates, out=head), out=head)
        np.conjugate(head, out=tail)
        return np.take(buf, self.index, axis=1, out=out, mode="clip")


def state_deviation_norms(result: SimulationResult,
                          solution: SylvesterSolution) -> np.ndarray:
    """||z(t) - Pi T_S(t) w0|| per grid point: distance to the periodic
    steady-state orbit."""
    space = result.w0.space
    _require_same_space(solution.space, space)
    _require_same_modes(solution.plant_modes, result.plant_modes)
    exo_phases = np.exp(1j * np.multiply.outer(result.t_grid, space.omegas))
    exo_phases *= result.w0.coeffs  # scale the T x K phases, not Pi (N x K)
    orbit = exo_phases @ solution.pi.T
    return np.linalg.norm(result.z - orbit, axis=1)


# Slope tolerance of every decay certificate: its envelope passes when the
# fitted log-log slope is at most the nominal -1/alpha plus this.
_CERT_SLOPE_TOL = 0.1


@dataclass
class DecayCertificate:
    """Empirical polynomial-decay certificate on a window.

    ``m`` is the smallest constant with value(t) <= m t**(-1/alpha) on the
    window. ``passed`` asserts decay at least as fast as the nominal rate:
    a slope of at most -1/alpha + ``_CERT_SLOPE_TOL``. ``floor_time`` is
    the first window time at the rounding floor (see :func:`loglog_fit`),
    inf when the values stay above it; a slope fitted past it partly fits
    rounding residue.
    """

    m: float
    slope: float
    passed: bool
    floor_time: float


def certify_decay(t_grid, values, alpha: float, window) -> DecayCertificate:
    """Fit the log-log slope of the envelope of ``values`` on the window.

    Envelope points are the crests of an oscillating error: interior
    points no lower than either neighbour, so every point of a plateau
    counts. With fewer than 10 crests in the window (strictly monotone
    data has none) all window samples serve as the envelope. Fewer than
    10 usable points is an error.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t = np.asarray(t_grid, dtype=float)
    v = np.abs(np.asarray(values))
    lo, hi = float(window[0]), float(window[1])
    if lo <= 0:
        raise ValueError("window must lie in positive times")
    crests = np.zeros(t.size, dtype=bool)
    crests[1:-1] = (v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])
    fit = loglog_fit(t, v, (lo, hi), keep=crests, min_points=10)
    if fit.n_points < 10:  # too few crests: all window samples
        fit = loglog_fit(t, v, (lo, hi), min_points=10)
    if fit.n_points == 0:
        raise ValueError("values vanish identically on the window")
    if fit.n_points < 10:
        raise ValueError(
            f"window [{lo}, {hi}] provides {fit.n_points} envelope points; need >= 10"
        )
    return DecayCertificate(
        m=float(np.max((v * t ** (1.0 / alpha))[fit.inside])),
        slope=fit.slope,
        passed=fit.slope <= -1.0 / alpha + _CERT_SLOPE_TOL,
        floor_time=fit.floor_time,
    )
