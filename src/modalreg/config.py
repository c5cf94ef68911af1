"""INI-style run configuration for the command-line tools.

Flat ``key = value`` entries in two sections: ``[scenario]`` and
``[simulate]``; ``;`` or ``#`` after whitespace starts a comment. Unknown
sections or keys, and keys the scenario kind does not read, are errors,
not warnings; reproducibility beats leniency. The config holds the
problem only: method settings and verdict thresholds, such as the
Assumption 1 floor, are constants beside the checks that use them.
"""

from __future__ import annotations

import cmath
import configparser
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scenarios import VALID_KINDS, ScenarioConfig, kind_reads


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
    sim: SimGrid


def _complex_list(raw: str):
    return tuple(complex(part.strip().replace(" ", ""))
                 for part in raw.split(",") if part.strip())


# section -> key -> converter: a key is accepted exactly when it is read
CONFIG_KEYS = {
    "scenario": {
        "kind": str.strip, "nu": float, "period": float, "gamma": float,
        "n_plant": int, "n_exo": int, "seed": int, "alpha": float,
        "z0_preset": str.strip, "w0_preset": str.strip,
        # explicit lists replace the presets, so they come after them
        "z0_list": _complex_list, "w0_list": _complex_list,
        "eigenvalues": _complex_list, "b": _complex_list, "c": _complex_list,
    },
    "simulate": {"t_min": float, "t_max": float, "n_points": int,
                 "spacing": str.strip, "window_lo": float,
                 "window_hi": float},
}
# keys that set a field of another name
_FIELD = {"z0_list": "z0_preset", "w0_list": "w0_preset"}


def _read_section(parser, section, build):
    """Convert every key of ``section`` that the file sets and build the
    section's object from them; any failure names the section. Every
    converted number must be finite."""
    kwargs = {}
    for key, conv in CONFIG_KEYS[section].items():
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        try:
            value = conv(raw)
            items = value if isinstance(value, tuple) else (value,)
            if not all(cmath.isfinite(x) for x in items
                       if isinstance(x, (float, complex))):
                raise ValueError("numbers must be finite")
            kwargs[_FIELD.get(key, key)] = value
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


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
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser.options(section)) - set(CONFIG_KEYS[section])
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
    if kind in VALID_KINDS:  # ScenarioConfig reports any other kind
        unread = sorted(key for key in parser.options("scenario")
                        if not kind_reads(kind, _FIELD.get(key, key)))
        if unread:
            raise ConfigError(f"[scenario] kind = {kind} does not read "
                              f"{', '.join(unread)}")

    return RunConfig(_read_section(parser, "scenario", ScenarioConfig),
                     _read_section(parser, "simulate", SimGrid))
