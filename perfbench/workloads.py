"""Workload definitions: run configs and the ordered CLI invocations of one pass.

A workload is a list of invocations. Each invocation is one call of
``modalreg.cli.main`` with its own output directory, so the artifacts in
that directory belong to that invocation alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Resonant damped wave (default period p = 2), 2000 plant modes x 2001 harmonics.
WAVE_INI = """\
[scenario]
kind = wave
nu = 1.0
gamma = 2.0
n_plant = 1000
n_exo = 1000
w0_preset = square11
z0_preset = inv_mu_sq
"""

# Seeded random scenarios; the scenario seed is passed with --seed.
RANDOM_INI = """\
[scenario]
kind = random
w0_preset = unit
z0_preset = inv_mu_sq
"""

CONFIGS = {"wave.ini": WAVE_INI, "random.ini": RANDOM_INI}

SUBCOMMANDS = ("check", "solve", "simulate", "decay")

# Wave solve at N = 1000 takes about 26 s, mostly Pi.csv writing; the
# wave pass solves at 200 modes instead. One such solve (about 1 s, mostly
# CSV formatting) is too short a sample for a steady median, so a pass
# makes WAVE_SOLVES of them, spread between the other subcommands.
WAVE_SOLVE_MODES = 200
WAVE_SOLVES = 3

# random-sweep draws its scenarios from this pool of scenario seeds, whose
# reference outputs are recorded in reference/random-sweep.json.
RANDOM_POOL = 200
RANDOM_SCENARIOS = 100

WORKLOADS = ("wave-resonant", "random-sweep")


@dataclass(frozen=True)
class Invocation:
    """One CLI call. ``key`` names its output directory, unique in a pass;
    ``ref`` names its reference entry, shared by repeats of one call."""

    key: str
    ref: str
    command: str
    config: str
    extra: tuple = ()

    def argv(self, config_dir, out_root) -> list:
        return [self.command, "--config", f"{config_dir}/{self.config}",
                "--out", f"{out_root}/{self.key}", *self.extra]


def random_seeds(workload_seed: int) -> list:
    """Scenario seeds of one random-sweep pass, drawn from the pool."""
    return random.Random(workload_seed).sample(range(RANDOM_POOL),
                                               RANDOM_SCENARIOS)


def random_invocations(scenario_seeds) -> list:
    return [Invocation(f"s{s:03d}-{cmd}", f"s{s:03d}-{cmd}", cmd, "random.ini",
                       ("--seed", str(s)))
            for s in scenario_seeds for cmd in SUBCOMMANDS]


def wave_invocations() -> list:
    solves = [Invocation(f"solve-{i}", "solve", "solve", "wave.ini",
                         ("--modes", str(WAVE_SOLVE_MODES)))
              for i in range(WAVE_SOLVES)]
    others = [Invocation(cmd, cmd, cmd, "wave.ini")
              for cmd in ("check", "simulate", "decay")]
    # check, solve, simulate, solve, decay, solve
    return [inv for pair in zip(others, solves) for inv in pair]


def invocations(workload: str, seed: int) -> list:
    """Ordered invocations of one pass; only random-sweep depends on the seed."""
    if workload == "wave-resonant":
        return wave_invocations()
    if workload == "random-sweep":
        return random_invocations(random_seeds(seed))
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def write_configs(config_dir) -> None:
    for name, text in CONFIGS.items():
        (config_dir / name).write_text(text)
