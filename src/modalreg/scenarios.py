"""Golden scenario constructors and a seeded random-scenario generator.

Two named scenarios are built from closed-form data:

* ``wave``: damped second-order string modes, spectrum
  ``mu_k = -nu pi / k**2 + i k pi`` over ``k != 0``; the input column is
  the sine-series coefficients of ``x (1 - x)`` and the output is its
  conjugate pairing, so the frequency response is a sum of
  ``|b_k|**2 / (i omega - mu_k)``. Decay order: state envelope falls like
  ``1/sqrt(t)`` (alpha = 2).
* ``diagonal``: rank-one input/output on mode 0 with
  ``mu_n = -1/(1+|n|) + i omega_n``; the frequency response is exactly
  ``1/(1 + i omega)`` and the envelope falls like ``1/t`` (alpha = 1).

Random scenarios are bounded away from every degeneracy (spectrum in the
open left half-plane, response magnitudes floored by resampling) and are
deterministic in the seed.
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
    p_entries: Optional[dict] = None

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
        if self.period is not None and self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
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

    @property
    def nominal_alpha(self) -> float:
        if self.alpha is not None:
            return float(self.alpha)
        return {"wave": 2.0, "diagonal": 1.0}.get(self.kind, 1.0)


def build_wave_scenario(cfg: ScenarioConfig):
    """Damped-wave modal data: spectrum, odd-harmonic input column,
    conjugate output, no disturbance."""
    if cfg.kind != "wave":
        raise ValueError(f"expected kind 'wave', got {cfg.kind!r}")
    plant = ModeRange.symmetric(cfg.n_plant, exclude_zero=True)
    k = plant.indices.astype(float)
    mu = -cfg.nu * math.pi / k**2 + 1j * math.pi * k
    b = 2.0 * (1.0 - (-1.0) ** plant.indices) / (k**3 * math.pi**3)
    gen = DiagonalGenerator(plant, mu)
    coupling = ModalCoupling(
        b=SpectralVector(plant, b.astype(np.complex128)),
        c=SpectralVector(plant, np.conj(b).astype(np.complex128)),
    )
    space = ExoSpace.power_weights(cfg.resolved_period,
                                   ModeRange.symmetric(cfg.n_exo), cfg.gamma)
    return gen, coupling, space


def build_diagonal_scenario(cfg: ScenarioConfig):
    """Rank-one plant on mode 0 with slowly accumulating spectrum."""
    if cfg.kind != "diagonal":
        raise ValueError(f"expected kind 'diagonal', got {cfg.kind!r}")
    period = cfg.resolved_period
    plant = ModeRange.symmetric(cfg.n_plant)
    n = plant.indices.astype(float)
    mu = -1.0 / (1.0 + np.abs(n)) + 2j * math.pi * n / period
    gen = DiagonalGenerator(plant, mu)
    coupling = ModalCoupling(
        b=SpectralVector.unit(plant, 0),
        c=SpectralVector.unit(plant, 0),
    )
    space = ExoSpace.power_weights(period, ModeRange.symmetric(cfg.n_exo),
                                   cfg.gamma)
    return gen, coupling, space


def build_custom_scenario(cfg: ScenarioConfig):
    """Explicitly listed plant data; modes are numbered 0..len-1."""
    if cfg.kind != "custom":
        raise ValueError(f"expected kind 'custom', got {cfg.kind!r}")
    plant = ModeRange(0, len(cfg.eigenvalues) - 1)
    gen = DiagonalGenerator(plant, np.asarray(cfg.eigenvalues, dtype=np.complex128))
    coupling = ModalCoupling(
        b=SpectralVector(plant, np.asarray(cfg.b, dtype=np.complex128)),
        c=SpectralVector(plant, np.asarray(cfg.c, dtype=np.complex128)),
        p_entries=dict(cfg.p_entries or {}),
    )
    space = ExoSpace.power_weights(cfg.resolved_period,
                                   ModeRange.symmetric(cfg.n_exo), cfg.gamma)
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
    "p_entries": ("custom",),
}


def kind_reads(kind: str, setting: str) -> bool:
    """Whether a scenario of this kind reads the ``ScenarioConfig`` setting."""
    return kind in KIND_READS.get(setting, VALID_KINDS)


def build_random_scenario(seed: int, n_plant_max: int = 12, n_exo_max: int = 6,
                          re_min: float = -2.0, re_max: float = -0.05,
                          im_max: float = 6.0, min_response: float = 1e-3,
                          max_attempts: int = 64):
    """Seeded scenario inside the well-posed parameter box.

    The spectrum stays in ``re_min <= Re mu <= re_max < 0`` with
    ``|Im mu| <= im_max``; input/output coefficients live in the unit
    disc; weights come from the power family. Draws are rejected until
    every harmonic's response magnitude clears ``min_response``, keeping
    gain inversion well conditioned; the result is deterministic in the
    seed.
    """
    if not (re_min < re_max <= -1e-2):
        raise ValueError("need re_min < re_max <= -0.01")
    if not (0 < im_max <= 1e3):
        raise ValueError("need 0 < im_max <= 1000")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        n_plant = int(rng.integers(3, n_plant_max + 1))
        n_exo = int(rng.integers(2, n_exo_max + 1))
        period = float(rng.uniform(4.0, 8.0))
        gamma = float(rng.uniform(0.75, 2.5))
        plant = ModeRange.symmetric(n_plant)
        size = len(plant)
        mu = (rng.uniform(re_min, re_max, size)
              + 1j * rng.uniform(-im_max, im_max, size))
        b = _unit_disc(rng, size)
        c = _unit_disc(rng, size)
        p_entries = {}
        if rng.random() < 0.5:
            for _ in range(int(rng.integers(1, 4))):
                n_mode = int(rng.choice(plant.indices))
                k_mode = int(rng.integers(-n_exo, n_exo + 1))
                p_entries[(n_mode, k_mode)] = complex(_unit_disc(rng, 1)[0])
        gen = DiagonalGenerator(plant, mu)
        coupling = ModalCoupling(
            b=SpectralVector(plant, b),
            c=SpectralVector(plant, c),
            p_entries=p_entries,
        )
        space = ExoSpace.power_weights(period, ModeRange.symmetric(n_exo), gamma)
        report = check_assumption1(frequency_grid(gen, coupling, space),
                                   floor=min_response)
        if report.passed:
            return gen, coupling, space
    raise RuntimeError(f"no well-conditioned scenario found for seed {seed} "
                       f"within {max_attempts} attempts")


def _unit_disc(rng, size: int) -> np.ndarray:
    r = np.sqrt(rng.uniform(0.0, 1.0, size))
    phi = rng.uniform(0.0, 2.0 * math.pi, size)
    return r * np.exp(1j * phi)


def build_scenario(cfg: ScenarioConfig):
    """Dispatch on the configured kind."""
    if cfg.kind == "wave":
        return build_wave_scenario(cfg)
    if cfg.kind == "diagonal":
        return build_diagonal_scenario(cfg)
    if cfg.kind == "custom":
        return build_custom_scenario(cfg)
    return build_random_scenario(cfg.seed)


def resolve_w0(cfg: ScenarioConfig, space: ExoSpace) -> ExoState:
    """Materialize the configured reference/initial exosystem state."""
    preset = cfg.w0_preset
    if not isinstance(preset, str):
        coeffs = np.asarray(list(preset), dtype=np.complex128)
        if coeffs.shape != (len(space.modes),):
            raise ValueError(
                f"explicit w0 list has length {coeffs.size}, "
                f"expected {len(space.modes)}"
            )
        return ExoState(space, coeffs)
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
        coeffs = np.asarray(list(preset), dtype=np.complex128)
        if coeffs.shape != (len(gen.modes),):
            raise ValueError(
                f"explicit z0 list has length {coeffs.size}, "
                f"expected {len(gen.modes)}"
            )
        return SpectralVector(gen.modes, coeffs)
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


def nominal_geometric_params(cfg: ScenarioConfig, gen: DiagonalGenerator):
    """(alpha, c, d) for the spectral wedge test of this scenario.

    Wave and diagonal have exact constants; for other kinds the tightest
    admissible c is computed from the retained spectrum and backed off by
    a factor two, so the test documents the wedge rather than gating it.
    """
    if cfg.kind == "wave":
        return 2.0, cfg.nu * math.pi**3, math.pi
    if cfg.kind == "diagonal":
        p = cfg.resolved_period
        return 1.0, math.pi / p, 2.0 * math.pi / p
    alpha = cfg.nominal_alpha
    im = np.abs(gen.eigenvalues.imag)
    pos = im[im > 0]
    if pos.size == 0:
        return alpha, 1.0, 1.0
    d = float(pos.min())
    tight = float(np.min(-gen.eigenvalues.real[im >= d] * im[im >= d] ** alpha))
    return alpha, max(tight / 2.0, 1e-300), d
