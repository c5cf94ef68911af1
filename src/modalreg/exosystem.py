"""Weighted space of p-periodic harmonic signals and its states.

A state is a finite family of Fourier coefficients ``w_k`` at frequencies
``omega_k = 2 pi k / p``. The weights ``f_k >= 1`` define the inner product
under which the harmonics are orthogonal with ``norm(theta_k) = f_k``. The
signal of a state is ``sum_k w_k exp(i omega_k t)``. The exosystem's
shift group, the point-evaluation output functional and the weighted
norms are paper facts that no command computes; ``tests/paper.py`` holds
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .csvio import write_csv
from .spectral import ModeRange


@dataclass(eq=False)
class ExoSpace:
    """Harmonic signal space: period, retained modes, and weights f_k >= 1."""

    period: float
    modes: ModeRange
    weights: np.ndarray

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.modes),):
            raise ValueError(
                f"weight array has shape {self.weights.shape}, "
                f"expected ({len(self.modes)},)"
            )
        if np.any(self.weights < 1.0):
            k = int(self.modes.indices[np.argmin(self.weights)])
            raise ValueError(f"weights must satisfy f_k >= 1; f_{k} = "
                             f"{self.weights.min()}")

    @classmethod
    def power_weights(cls, period: float, modes: ModeRange, gamma: float) -> "ExoSpace":
        """Weights f_k = (1 + omega_k**2)**(gamma/2); gamma > 1/2 keeps the
        inverse weights square-summable beyond any truncation."""
        if gamma <= 0.5:
            raise ValueError(f"gamma must exceed 1/2, got {gamma}")
        omegas = 2.0 * np.pi * modes.indices / period
        return cls(period, modes, (1.0 + omegas**2) ** (gamma / 2.0))

    @cached_property
    def omegas(self) -> np.ndarray:
        out = 2.0 * np.pi * self.modes.indices / self.period
        out.flags.writeable = False
        return out


@dataclass(eq=False)
class ExoState:
    """Fourier coefficients of one exosystem state (or reference signal)."""

    space: ExoSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (len(self.space.modes),):
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, "
                f"expected ({len(self.space.modes)},)"
            )

    @classmethod
    def zeros(cls, space: ExoSpace) -> "ExoState":
        return cls(space, np.zeros(len(space.modes), dtype=np.complex128))

    @classmethod
    def unit(cls, space: ExoSpace, mode: int) -> "ExoState":
        v = np.zeros(len(space.modes), dtype=np.complex128)
        v[space.modes.position(mode)] = 1.0
        return cls(space, v)

    @classmethod
    def from_dict(cls, space: ExoSpace, entries: dict) -> "ExoState":
        v = np.zeros(len(space.modes), dtype=np.complex128)
        for mode, val in entries.items():
            v[space.modes.position(mode)] = val
        return cls(space, v)

    def to_csv(self, path) -> None:
        """Coefficients as (k, re, im) rows, floats in shortest round-trip
        form, so that reading them back with ``float`` restores them
        exactly."""
        write_csv(path, ["k", "re", "im"],
                  (self.space.modes.indices, self.coeffs.real,
                   self.coeffs.imag), float_format="%r")


def synthesize_signal(w: ExoState, t):
    """Signal value sum_k w_k exp(i omega_k t); scalar t gives a complex
    scalar, an array gives an array."""
    t_arr = np.asarray(t, dtype=float)
    phases = np.exp(1j * np.multiply.outer(t_arr, w.space.omegas))
    out = phases @ w.coeffs
    return complex(out) if t_arr.ndim == 0 else out
