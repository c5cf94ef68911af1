"""Golden scenario constructors and a seeded random-scenario generator.

A scenario kind is its plant data: the modes, the spectrum mu and the
input/output columns b and c. One assembly turns them, with the
disturbance entries and the exosystem's period, harmonic count and weight
exponent, into the generator, the coupling and the weighted space.

Two named kinds have closed-form data:

* ``wave``: damped second-order string modes, spectrum
  ``mu_k = -nu pi / k**2 + i k pi`` over ``k != 0``; the input column is
  the sine-series coefficients of ``x (1 - x)`` and the output is its
  conjugate pairing, so the frequency response is a sum of
  ``|b_k|**2 / (i omega - mu_k)``. Decay order: state envelope falls like
  ``1/sqrt(t)`` (alpha = 2).
* ``diagonal``: rank-one input/output on mode 0 with
  ``mu_n = -1/(1+|n|) + i omega_n``; the frequency response is exactly
  ``1/(1 + i omega)`` and the envelope falls like ``1/t`` (alpha = 1).

``custom`` lists its data explicitly. Random scenarios are bounded away
from every degeneracy (spectrum in the open left half-plane, response
magnitudes floored by resampling) and are deterministic in the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exosystem import ExoSpace, ExoState
from .regulator import ModalCoupling, check_assumption1, frequency_grid
from .spectral import DiagonalGenerator, ModeRange, SpectralVector

VALID_KINDS = ("wave", "diagonal", "random", "custom")

Z0_PRESETS = ("zero", "inv_mu_sq", "pi_w0")
W0_PRESETS = ("zero", "unit", "smooth", "square11")


@dataclass
class ScenarioConfig:
    """Parameters selecting and sizing a scenario."""

    kind: str
    nu: float = 1.0
    period: Optional[float] = None
    gamma: float = 2.0
    n_plant: int = 200
    n_exo: int = 200
    z0_preset: object = "zero"
    w0_preset: object = "zero"
    seed: int = 0
    alpha: Optional[float] = None
    eigenvalues: Optional[Sequence[complex]] = None
    b: Optional[Sequence[complex]] = None
    c: Optional[Sequence[complex]] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; "
                             f"expected one of {VALID_KINDS}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")
        if self.gamma <= 0.5:
            raise ValueError(f"gamma must exceed 1/2, got {self.gamma}")
        if self.n_plant < 1 or self.n_exo < 1:
            raise ValueError("mode counts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.period is not None and self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if isinstance(self.z0_preset, str) and self.z0_preset not in Z0_PRESETS:
            raise ValueError(f"unknown z0 preset {self.z0_preset!r}")
        if isinstance(self.w0_preset, str) and self.w0_preset not in W0_PRESETS:
            raise ValueError(f"unknown w0 preset {self.w0_preset!r}")
        if self.kind == "custom":
            if self.eigenvalues is None or self.b is None or self.c is None:
                raise ValueError("custom scenarios need explicit eigenvalues, "
                                 "b and c lists")
            if not (len(self.eigenvalues) == len(self.b) == len(self.c)):
                raise ValueError("custom eigenvalue/b/c lists differ in length")

    @property
    def resolved_period(self) -> float:
        if self.period is not None:
            return float(self.period)
        # resonant default for the wave scenario, benign default otherwise
        return 2.0 if self.kind == "wave" else 2.0 * math.pi


def _wave_plant(cfg: ScenarioConfig):
    """Damped-wave modes without 0: odd-harmonic input column, conjugate
    output."""
    modes = ModeRange.symmetric(cfg.n_plant, exclude_zero=True)
    k = modes.indices.astype(float)
    mu = -cfg.nu * math.pi / k**2 + 1j * math.pi * k
    b = 2.0 * (1.0 - (-1.0) ** modes.indices) / (k**3 * math.pi**3)
    return modes, mu, b, np.conj(b)


def _diagonal_plant(cfg: ScenarioConfig):
    """Slowly accumulating spectrum with input and output on mode 0."""
    modes = ModeRange.symmetric(cfg.n_plant)
    n = modes.indices.astype(float)
    mu = -1.0 / (1.0 + np.abs(n)) + 2j * math.pi * n / cfg.resolved_period
    unit = (modes.indices == 0).astype(float)
    return modes, mu, unit, unit


def _custom_plant(cfg: ScenarioConfig):
    """Explicitly listed plant data; modes are numbered 0..len-1."""
    modes = ModeRange(0, len(cfg.eigenvalues) - 1)
    return modes, cfg.eigenvalues, cfg.b, cfg.c


# kind -> its plant data (modes, mu, b, c); random draws its own
_PLANTS = {"wave": _wave_plant, "diagonal": _diagonal_plant,
           "custom": _custom_plant}


def _assemble(modes, mu, b, c, p_entries, period: float, n_exo: int,
              gamma: float):
    """Generator, coupling and weighted harmonic space -n_exo..n_exo of
    one plant and exosystem: the one place a scenario is assembled."""
    gen = DiagonalGenerator(modes, mu)
    coupling = ModalCoupling(b=SpectralVector(modes, b),
                             c=SpectralVector(modes, c), p_entries=p_entries)
    space = ExoSpace.power_weights(period, ModeRange.symmetric(n_exo), gamma)
    return gen, coupling, space


# setting -> the kinds whose scenario reads it; a setting not listed here
# (kind, alpha, the state presets) is read by every kind
KIND_READS = {
    "nu": ("wave",),
    "n_plant": ("wave", "diagonal"),
    "n_exo": ("wave", "diagonal", "custom"),
    "period": ("wave", "diagonal", "custom"),
    "gamma": ("wave", "diagonal", "custom"),
    "seed": ("random",),
    "eigenvalues": ("custom",),
    "b": ("custom",),
    "c": ("custom",),
}


def kind_reads(kind: str, setting: str) -> bool:
    """Whether a scenario of this kind reads the ``ScenarioConfig`` setting."""
    return kind in KIND_READS.get(setting, VALID_KINDS)


# A random draw is kept when every harmonic's response magnitude clears
# this floor; the draws stop at the attempt limit.
_MIN_RESPONSE = 1e-3
_MAX_ATTEMPTS = 64


def build_random_scenario(seed: int):
    """Seeded scenario inside the well-posed parameter box.

    Plant modes ``-n..n`` with ``3 <= n <= 12`` and harmonics ``-K..K``
    with ``2 <= K <= 6``; the spectrum stays in ``-2 <= Re mu <= -0.05``
    with ``|Im mu| <= 6``; input/output coefficients live in the unit
    disc; weights come from the power family. Draws are rejected until
    every harmonic's response magnitude clears ``_MIN_RESPONSE``, keeping
    gain inversion well conditioned; the result is deterministic in the
    seed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        n_plant = int(rng.integers(3, 13))
        n_exo = int(rng.integers(2, 7))
        period = float(rng.uniform(4.0, 8.0))
        gamma = float(rng.uniform(0.75, 2.5))
        plant = ModeRange.symmetric(n_plant)
        size = len(plant)
        mu = (rng.uniform(-2.0, -0.05, size)
              + 1j * rng.uniform(-6.0, 6.0, size))
        b = _unit_disc(rng, size)
        c = _unit_disc(rng, size)
        p_entries = {}
        if rng.random() < 0.5:
            for _ in range(int(rng.integers(1, 4))):
                n_mode = int(rng.choice(plant.indices))
                k_mode = int(rng.integers(-n_exo, n_exo + 1))
                p_entries[(n_mode, k_mode)] = complex(_unit_disc(rng, 1)[0])
        gen, coupling, space = _assemble(plant, mu, b, c, p_entries, period,
                                         n_exo, gamma)
        report = check_assumption1(frequency_grid(gen, coupling, space),
                                   floor=_MIN_RESPONSE)
        if report.passed:
            return gen, coupling, space
    raise RuntimeError(f"no well-conditioned scenario found for seed {seed} "
                       f"within {_MAX_ATTEMPTS} attempts")


def _unit_disc(rng, size: int) -> np.ndarray:
    r = np.sqrt(rng.uniform(0.0, 1.0, size))
    phi = rng.uniform(0.0, 2.0 * math.pi, size)
    return r * np.exp(1j * phi)


def build_scenario(cfg: ScenarioConfig):
    """(generator, coupling, space) of the configured kind."""
    if cfg.kind == "random":
        return build_random_scenario(cfg.seed)
    return _assemble(*_PLANTS[cfg.kind](cfg), {}, cfg.resolved_period,
                     cfg.n_exo, cfg.gamma)


def _explicit(name: str, values, modes: ModeRange) -> np.ndarray:
    """An explicitly listed state's coefficients, one per mode."""
    coeffs = np.asarray(list(values), dtype=np.complex128)
    if coeffs.shape != (len(modes),):
        raise ValueError(f"explicit {name} list has length {coeffs.size}, "
                         f"expected {len(modes)}")
    return coeffs


def resolve_w0(cfg: ScenarioConfig, space: ExoSpace) -> ExoState:
    """Materialize the configured reference/initial exosystem state."""
    preset = cfg.w0_preset
    if not isinstance(preset, str):
        return ExoState(space, _explicit("w0", preset, space.modes))
    if preset == "zero":
        return ExoState.zeros(space)
    if preset == "unit":
        return ExoState.unit(space, 1 if 1 in space.modes else space.modes.hi)
    if preset == "smooth":
        coeffs = 2.0 ** (-np.abs(space.modes.indices.astype(float)))
        return ExoState(space, coeffs.astype(np.complex128))
    if preset == "square11":
        # first 11 harmonic slots of a unit square wave; odd-k sine series
        if 5 not in space.modes or -5 not in space.modes:
            raise ValueError("square11 preset needs exosystem modes through |k| = 5")
        entries = {k: -2j / (math.pi * k) for k in (-5, -3, -1, 1, 3, 5)}
        return ExoState.from_dict(space, entries)
    raise ValueError(f"unknown w0 preset {preset!r}")


def resolve_z0(cfg: ScenarioConfig, gen: DiagonalGenerator,
               pi_w0: Optional[np.ndarray] = None) -> SpectralVector:
    """Materialize the configured plant initial state.

    ``inv_mu_sq`` decays like 1/|mu|**2 and therefore lies in the graph
    domain of the generator at every truncation; ``pi_w0`` places the
    state exactly on the steady-state manifold and needs ``pi_w0``, the
    steady-state map applied to the exosystem state.
    """
    preset = cfg.z0_preset
    if not isinstance(preset, str):
        return SpectralVector(gen.modes, _explicit("z0", preset, gen.modes))
    if preset == "zero":
        return SpectralVector.zeros(gen.modes)
    if preset == "inv_mu_sq":
        return SpectralVector(gen.modes,
                              1.0 / (1.0 + np.abs(gen.eigenvalues) ** 2))
    if preset == "pi_w0":
        if pi_w0 is None:
            raise ValueError("pi_w0 preset needs the steady-state map "
                             "applied to the exosystem state")
        return SpectralVector(gen.modes, pi_w0)
    raise ValueError(f"unknown z0 preset {preset!r}")


def nominal_geometric_params(cfg: ScenarioConfig) -> float:
    """The nominal order alpha of polynomial stability, the one rule every
    command reads: the configured ``alpha``, else 2 for wave and 1 for
    every other kind."""
    if cfg.alpha is not None:
        return float(cfg.alpha)
    return 2.0 if cfg.kind == "wave" else 1.0
