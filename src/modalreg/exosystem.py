"""Weighted space of p-periodic harmonic signals, its shift group, and the
point-evaluation output functional.

A state is a finite family of Fourier coefficients ``w_k`` at frequencies
``omega_k = 2 pi k / p``. The weights ``f_k >= 1`` define the inner product
under which the harmonics are orthogonal with ``norm(theta_k) = f_k``; the
shift group multiplies coefficients by ``exp(i omega_k t)`` and is an exact
isometry for that norm. Evaluation at time zero (the sum of coefficients)
is the output functional; its operator norm at truncation is
``sqrt(sum f_k**-2)``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .spectral import ModeRange, TailReport, classify_tail


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

    @property
    def dirac_constant(self) -> float:
        """Truncation value of sqrt(sum f_k**-2), the norm bound of the
        evaluation functional."""
        return float(np.sqrt(np.sum(self.weights**-2.0)))

    def weight_tail_report(self) -> TailReport:
        """Trend of the inverse-square weights; summable is what membership
        of the evaluation functional requires beyond truncation."""
        return classify_tail(self.modes.indices, self.weights**-2.0)


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

    def coeff(self, mode: int) -> complex:
        return complex(self.coeffs[self.space.modes.position(mode)])

    def domain_tail_report(self) -> TailReport:
        """Decay trend of omega_k w_k f_k, the graph-norm terms of the
        exosystem generator."""
        terms = np.abs(self.space.omegas * self.coeffs * self.space.weights) ** 2
        return classify_tail(self.space.modes.indices, terms)

    def to_csv(self, path) -> None:
        """Coefficients as (k, re, im) rows, floats in shortest round-trip
        form so that ``from_csv`` restores them exactly."""
        write_csv(path, ["k", "re", "im"],
                  (self.space.modes.indices, self.coeffs.real,
                   self.coeffs.imag), float_format="%r")

    @classmethod
    def from_csv(cls, path, space: ExoSpace) -> "ExoState":
        entries = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["k", "re", "im"]:
                raise ValueError(f"unexpected header {header} in {Path(path).name}")
            for row in reader:
                entries[int(row[0])] = float(row[1]) + 1j * float(row[2])
        return cls.from_dict(space, entries)


def group_apply(w: ExoState, t: float) -> ExoState:
    """Shift-group action: coefficient k picks up exp(i omega_k t). Defined
    for every real t (it is a group) and preserves the weighted norm."""
    return ExoState(w.space, np.exp(1j * w.space.omegas * t) * w.coeffs)


def synthesize_signal(w: ExoState, t):
    """Signal value sum_k w_k exp(i omega_k t); scalar t gives a complex
    scalar, an array gives an array."""
    t_arr = np.asarray(t, dtype=float)
    phases = np.exp(1j * np.multiply.outer(t_arr, w.space.omegas))
    out = phases @ w.coeffs
    return complex(out) if t_arr.ndim == 0 else out


def dirac_functional(w: ExoState) -> complex:
    """Evaluation at time zero: the plain sum of coefficients."""
    return complex(np.sum(w.coeffs))


def weighted_norm(w: ExoState) -> float:
    """sqrt(sum |w_k|**2 f_k**2)."""
    return float(np.linalg.norm(w.coeffs * w.space.weights))


def graph_norm(w: ExoState) -> float:
    """Weighted norm of w plus that of its generator image (i omega_k w_k)."""
    s_image = ExoState(w.space, 1j * w.space.omegas * w.coeffs)
    return weighted_norm(w) + weighted_norm(s_image)


def is_conjugate_symmetric(w: ExoState, tol: float = 1e-12) -> bool:
    """True when w_{-k} = conj(w_k) for every retained pair, i.e. the
    synthesized signal is real-valued."""
    modes = w.space.modes
    for k in modes:
        if -k not in modes:
            if abs(w.coeff(k)) > tol:
                return False
            continue
        if abs(w.coeff(-k) - np.conj(w.coeff(k))) > tol:
            return False
    return True
