"""INI-style run configuration for the command-line tools.

Flat ``key = value`` entries in four sections: ``[scenario]``,
``[tolerances]``, ``[quadrature]``, ``[simulate]``; ``;`` or ``#`` after
whitespace starts a comment. Unknown sections or keys, and keys the
scenario kind does not read, are errors, not warnings; reproducibility
beats leniency.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .scenarios import ScenarioConfig
from .sylvester import QuadratureSpec

_SCENARIO_KEYS = {
    "kind", "nu", "period", "gamma", "n_plant", "n_exo",
    "z0_preset", "w0_preset", "z0_list", "w0_list", "seed", "alpha",
    "eigenvalues", "b", "c",
}
_TOLERANCE_KEYS = {
    "assumption1_floor", "first_residual", "second_residual",
    "slope_tol", "conformity_eps",
}
_QUADRATURE_KEYS = {"horizons", "method", "step"}
_SIMULATE_KEYS = {"t_min", "t_max", "n_points", "spacing",
                  "window_lo", "window_hi"}

# kind = random draws these itself, so setting them is an error
_RANDOM_DRAWN_KEYS = {"n_plant", "n_exo", "period", "gamma", "nu"}
# only kind = custom reads these; any other kind would drop them
_CUSTOM_ONLY_KEYS = {"eigenvalues", "b", "c"}

_SECTION_KEYS = {
    "scenario": _SCENARIO_KEYS,
    "tolerances": _TOLERANCE_KEYS,
    "quadrature": _QUADRATURE_KEYS,
    "simulate": _SIMULATE_KEYS,
}


@dataclass
class Tolerances:
    assumption1_floor: float = 1e-8
    first_residual: float = 1e-10
    second_residual: float = 1e-10
    slope_tol: float = 0.05
    conformity_eps: float = 0.25

    def __post_init__(self):
        for name in ("assumption1_floor", "first_residual", "second_residual",
                     "slope_tol", "conformity_eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"tolerance {name} must be positive")


@dataclass
class SimGrid:
    t_min: float = 1e-2
    t_max: float = 1e3
    n_points: int = 512
    spacing: str = "log"
    window_lo: float = 10.0
    window_hi: float = 1e3

    def __post_init__(self):
        if self.t_min <= 0 or self.t_max <= self.t_min:
            raise ConfigError("need 0 < t_min < t_max")
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")
        if self.spacing not in ("log", "linear"):
            raise ConfigError(f"unknown spacing {self.spacing!r}")
        if not (self.window_lo > 0 and self.window_hi > self.window_lo):
            raise ConfigError("need 0 < window_lo < window_hi")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.t_min, self.t_max, self.n_points)
        return np.linspace(self.t_min, self.t_max, self.n_points)

    @property
    def window(self):
        return (self.window_lo, self.window_hi)


@dataclass
class RunConfig:
    scenario: ScenarioConfig
    tolerances: Tolerances = field(default_factory=Tolerances)
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    sim: SimGrid = field(default_factory=SimGrid)


def _get(parser, section, key, conv, default=None):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _complex_list(raw: str):
    return tuple(complex(part.strip().replace(" ", ""))
                 for part in raw.split(",") if part.strip())


def _float_list(raw: str):
    return tuple(float(part) for part in raw.split(",") if part.strip())


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser.options(section)) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
    if not parser.has_section("scenario"):
        raise ConfigError("missing required section [scenario]")
    kind = parser.get("scenario", "kind", fallback=None)
    if kind is None:
        raise ConfigError("[scenario] must set kind")

    kind = kind.strip()
    keys = set(parser.options("scenario"))
    drawn = keys & _RANDOM_DRAWN_KEYS
    if kind == "random" and drawn:
        raise ConfigError(f"[scenario] kind = random draws its own sizes, "
                          f"period and weights; remove {', '.join(sorted(drawn))}")
    custom_only = keys & _CUSTOM_ONLY_KEYS
    if kind != "custom" and custom_only:
        raise ConfigError(f"[scenario] only kind = custom reads "
                          f"{', '.join(sorted(custom_only))}; remove them "
                          f"for kind = {kind}")
    sc_kwargs = {"kind": kind}
    for key, conv in (("nu", float), ("period", float), ("gamma", float),
                      ("n_plant", int), ("n_exo", int), ("seed", int),
                      ("alpha", float)):
        val = _get(parser, "scenario", key, conv)
        if val is not None:
            sc_kwargs[key] = val
    for key in ("z0_preset", "w0_preset"):
        val = _get(parser, "scenario", key, str.strip)
        if val is not None:
            sc_kwargs[key] = val
    z0_list = _get(parser, "scenario", "z0_list", _complex_list)
    if z0_list is not None:
        sc_kwargs["z0_preset"] = z0_list
    w0_list = _get(parser, "scenario", "w0_list", _complex_list)
    if w0_list is not None:
        sc_kwargs["w0_preset"] = w0_list
    for key in ("eigenvalues", "b", "c"):
        val = _get(parser, "scenario", key, _complex_list)
        if val is not None:
            sc_kwargs[key] = val
    try:
        scenario = ScenarioConfig(**sc_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[scenario]: {exc}") from None

    tol_kwargs = {}
    for key in _TOLERANCE_KEYS:
        val = _get(parser, "tolerances", key, float) \
            if parser.has_section("tolerances") else None
        if val is not None:
            tol_kwargs[key] = val
    tolerances = Tolerances(**tol_kwargs)

    quad_kwargs = {}
    if parser.has_section("quadrature"):
        horizons = _get(parser, "quadrature", "horizons", _float_list)
        if horizons is not None:
            quad_kwargs["horizons"] = horizons
        method = _get(parser, "quadrature", "method", str.strip)
        if method is not None:
            quad_kwargs["method"] = method
        step = _get(parser, "quadrature", "step", float)
        if step is not None:
            quad_kwargs["step"] = step
    try:
        quadrature = QuadratureSpec(**quad_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[quadrature]: {exc}") from None

    sim_kwargs = {}
    if parser.has_section("simulate"):
        for key, conv in (("t_min", float), ("t_max", float),
                          ("n_points", int), ("window_lo", float),
                          ("window_hi", float)):
            val = _get(parser, "simulate", key, conv)
            if val is not None:
                sim_kwargs[key] = val
        spacing = _get(parser, "simulate", "spacing", str.strip)
        if spacing is not None:
            sim_kwargs["spacing"] = spacing
    sim = SimGrid(**sim_kwargs)

    return RunConfig(scenario=scenario, tolerances=tolerances,
                     quadrature=quadrature, sim=sim)
