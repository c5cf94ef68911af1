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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exosystem import ExoState, synthesize_signal
from .regulator import (FeedforwardGain, ModalCoupling, SylvesterSolution,
                        control_signal, forcing_matrix,
                        frequency_denominators)
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
    z0: SpectralVector
    w0: ExoState

    def state_at(self, i: int) -> SpectralVector:
        return SpectralVector(self.plant_modes, self.z[i].copy())


def simulate_closed_loop(gen: DiagonalGenerator, coupling: ModalCoupling,
                         gain: FeedforwardGain, z0: SpectralVector,
                         w0: ExoState, t_grid) -> SimulationResult:
    """Closed-loop run from (z0, w0) over the grid, exact per mode."""
    if z0.modes != gen.modes:
        raise ValueError("initial state and generator mode ranges differ")
    t = np.asarray(t_grid, dtype=float)
    space = w0.space
    denom = (gain.grid.denominators if gain.grid.serves(gen, space)
             else frequency_denominators(gen, space))
    m = forcing_matrix(coupling, gain, space)
    m *= w0.coeffs[None, :]
    m /= denom
    transient = z0.coeffs - m.sum(axis=1)
    z = np.exp(1j * np.multiply.outer(t, space.omegas)) @ m.T
    del m  # the largest array; free it before the transient term is added
    z += np.exp(np.multiply.outer(t, gen.eigenvalues)) * transient[None, :]
    y = z @ coupling.c.coeffs
    y_r = synthesize_signal(w0, t)
    u = control_signal(gain, w0, t)
    return SimulationResult(
        t_grid=t, plant_modes=gen.modes, z=z, y=y, y_r=y_r, u=u,
        e=y - y_r, z0=z0, w0=w0,
    )


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


def error_formula_check(result: SimulationResult, solution: SylvesterSolution,
                        gen: DiagonalGenerator, coupling: ModalCoupling) -> float:
    """Worst relative mismatch between the simulated error and its explicit
    two-term expression: output of the semigroup acting on (z0 - Pi w0)
    plus the output mismatch of the steady-state map along the orbit."""
    space = result.w0.space
    pi_w0 = solution.pi @ result.w0.coeffs
    free = result.z0.coeffs - pi_w0
    c = coupling.c.coeffs
    column_outputs = c @ solution.pi  # per harmonic, should be 1
    mismatch = (column_outputs - 1.0) * result.w0.coeffs
    plant_phases = np.exp(np.multiply.outer(result.t_grid, gen.eigenvalues))
    exo_phases = np.exp(1j * np.multiply.outer(result.t_grid, space.omegas))
    rhs = plant_phases @ (c * free) + exo_phases @ mismatch
    denom = 1.0 + np.abs(rhs)
    return float(np.max(np.abs(result.e - rhs) / denom))


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


def certify_decay(t_grid, values, alpha: float, window,
                  slope_tol: float = 0.1) -> DecayCertificate:
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
        slope_tol=slope_tol,
        passed=fit.slope <= target + slope_tol,
        matches_nominal=abs(fit.slope - target) <= slope_tol,
        n_points=fit.n_points,
        used_fallback=used_fallback,
        window=(lo, hi),
        floor_time=fit.floor_time,
    )
