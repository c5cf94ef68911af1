"""The frequency grid's H and H_d and the gains ell against their exact
values (``exact.py``), with conjugate pairing on and off.

Each entry must lie within C eps of its exact value, scaled by its
condition: for H and H_d by the sum of |term| over the entry's terms,
that is C eps kappa |H| with kappa = sum |terms| / |sum of terms|; for
ell = (1 - H_d) / H by |ell| (kappa_H + kappa_(1 - H_d) + 1), the 1 for
the division. C is the one constant below, for every scenario.
"""

from fractions import Fraction

import numpy as np
import pytest

import modalreg.regulator as regulator
from exact import exact_response
from modalreg.config import load_config
from modalreg.regulator import build_feedforward, frequency_grid
from modalreg.scenarios import (ScenarioConfig, build_random_scenario,
                                build_scenario)
from test_artifact_sweep import load_sweep

C = 8.0
EPS = np.finfo(float).eps

CUSTOM = sorted(name for name, text in load_sweep().CONFIGS.items()
                if "kind = custom" in text)
CASES = ["wave50", "diag60x30"] + CUSTOM + [f"random{s}" for s in range(40)]


def build(name, tmp_path):
    if name == "wave50":
        return build_scenario(ScenarioConfig(
            kind="wave", n_plant=50, n_exo=50, w0_preset="square11"))
    if name == "diag60x30":
        return build_scenario(ScenarioConfig(kind="diagonal", n_plant=60,
                                             n_exo=30))
    if name.startswith("random"):
        return build_random_scenario(int(name[len("random"):]))
    path = tmp_path / f"{name}.ini"
    path.write_text(load_sweep().CONFIGS[name])
    return build_scenario(load_config(path).scenario)


def distance(got, want) -> float:
    """|got - want| of a float64 value and an exact pair."""
    return abs(complex(float(Fraction(got.real) - want[0]),
                       float(Fraction(got.imag) - want[1])))


def worst_ratios(grid, ell, truth) -> tuple:
    """Per quantity, the largest |got - exact| over its bound C eps (...)
    of the module docstring, without C."""
    worst = [0.0, 0.0, 0.0]
    for k, (h, hd, ell_k, h_size, hd_size) in enumerate(truth):
        one_minus_hd = abs(complex(float(1 - hd[0]), float(hd[1])))
        ell_size = abs(ell[k]) * (h_size / abs(grid.h[k])
                                  + (1.0 + hd_size) / one_minus_hd + 1.0)
        for i, (got, want, size) in enumerate(
                [(grid.h[k], h, h_size), (grid.hd[k], hd, hd_size),
                 (ell[k], ell_k, ell_size)]):
            err = distance(got, want)
            if err:
                worst[i] = max(worst[i], err / (EPS * size))
    return tuple(worst)


@pytest.mark.parametrize("name", CASES)
def test_grid_and_gains_within_c_eps_of_exact(name, tmp_path, monkeypatch):
    gen, coupling, space = build(name, tmp_path)
    truth = exact_response(gen, coupling, space)
    for paired in (True, False):
        if not paired:
            monkeypatch.setattr(regulator, "conjugate_partners",
                                lambda mu: np.full(mu.size, -1, np.intp))
        grid = frequency_grid(gen, coupling, space)
        ell = build_feedforward(grid).ell
        worst = worst_ratios(grid, ell, truth)
        assert max(worst) <= C, (paired, worst)
