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
them from Pi w0 and c Pi without the state; :func:`simulate_closed_loop`
keeps the full state and is the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exosystem import ExoState, synthesize_signal
from .regulator import (FeedforwardGain, ModalCoupling, SteadyStateImage,
                        SylvesterSolution, _blocks, control_signal,
                        forcing_matrix, frequency_denominators)
from .spectral import DiagonalGenerator, SpectralVector, loglog_fit


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
    if z0.modes != gen.modes:
        raise ValueError("initial state and generator mode ranges differ")
    t = np.asarray(t_grid, dtype=float)
    space = w0.space
    m = forcing_matrix(coupling, gain, space)
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
    """Outputs on a shared time grid and ``state_deviation``, the distance
    ||z(t) - Pi T_S(t) w0|| of the state to the steady-state orbit."""

    t_grid: np.ndarray
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
    ||T(t) x||. The time points are taken one block at a time (see
    ``regulator._blocks``): per block, one (time x plant modes) semigroup
    factor and one (time x harmonics) phase matrix, shared by y_r, u and
    the orbit term, each of about 1 MB. Every output row depends on its
    own time point only, so the blocks change no bits, and memory is O(T)
    plus one block.
    """
    if z0.modes != gen.modes:
        raise ValueError("initial state and generator mode ranges differ")
    w0 = image.w0
    t = np.asarray(t_grid, dtype=float)
    x = z0.coeffs - image.pi_w0
    ell_w0 = gain.ell * w0.coeffs
    y_r, u, e = (np.empty(t.size, dtype=np.complex128) for _ in range(3))
    deviation = np.empty(t.size)
    for blk in _blocks(t.size, max(x.size, ell_w0.size)):
        free = np.exp(np.multiply.outer(t[blk], gen.eigenvalues))
        free *= x  # row j is T(t_j) x
        deviation[blk] = np.linalg.norm(free, axis=1)
        phases = np.exp(1j * np.multiply.outer(t[blk], w0.space.omegas))
        y_r[blk] = phases @ w0.coeffs
        u[blk] = phases @ ell_w0
        e[blk] = free @ coupling.c.coeffs + phases @ image.mismatch
    return OutputTrajectory(t_grid=t, y=y_r + e, y_r=y_r, u=u, e=e,
                            state_deviation=deviation)


def state_deviation_norms(result: SimulationResult,
                          solution: SylvesterSolution) -> np.ndarray:
    """||z(t) - Pi T_S(t) w0|| per grid point: distance to the periodic
    steady-state orbit."""
    space = result.w0.space
    if solution.exo_modes != space.modes or solution.plant_modes != result.plant_modes:
        raise ValueError("solution mode ranges do not match the simulation")
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
    window. ``passed`` asserts decay at least as fast as the nominal rate
    (slope below target within tolerance); ``matches_nominal`` asserts the
    two-sided match. ``floor_time`` is the first window time at the
    rounding floor (see :func:`loglog_fit`), inf when the values stay
    above it; a slope fitted past it partly fits rounding residue.
    """

    m: float
    slope: float
    target_slope: float
    slope_tol: float
    passed: bool
    matches_nominal: bool
    n_points: int
    used_fallback: bool
    window: tuple
    floor_time: float


def certify_decay(t_grid, values, alpha: float, window) -> DecayCertificate:
    """Fit the log-log slope of the envelope of ``values`` on the window.

    Envelope points are strict local maxima (the crests of an oscillating
    error); monotone data has none, in which case all window samples serve
    as the envelope. Fewer than 10 usable points is an error.
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
    used_fallback = fit.n_points < 10
    if used_fallback:
        fit = loglog_fit(t, v, (lo, hi), min_points=10)
    if fit.n_points == 0:
        raise ValueError("values vanish identically on the window")
    if fit.n_points < 10:
        raise ValueError(
            f"window [{lo}, {hi}] provides {fit.n_points} envelope points; need >= 10"
        )
    target = -1.0 / alpha
    return DecayCertificate(
        m=float(np.max((v * t ** (1.0 / alpha))[fit.inside])),
        slope=fit.slope,
        target_slope=target,
        slope_tol=_CERT_SLOPE_TOL,
        passed=fit.slope <= target + _CERT_SLOPE_TOL,
        matches_nominal=abs(fit.slope - target) <= _CERT_SLOPE_TOL,
        n_points=fit.n_points,
        used_fallback=used_fallback,
        window=(lo, hi),
        floor_time=fit.floor_time,
    )
