"""Run a fixed set of command-line invocations and keep everything they write.

    python tools/artifact_sweep.py SRC OUT

imports ``modalreg`` from the source directory SRC (a checkout's
``src``) and calls ``modalreg.cli.main`` once per invocation, all in
this one process. Invocation ``KEY`` writes its artifacts to
``OUT/runs/KEY``, and its stdout, stderr and exit code go next to them
as ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``. ``OUT/codes.json``
maps every key to its exit code, and the exit-code tally is printed.

Every path handed to the command line is relative to OUT, so two sweeps
into different directories can be compared with ``diff -r``: run one on
the parent's source and one on the change's, and any difference is a
change in stdout, stderr, an exit code or an artifact. The set is:

* twelve closed-form configs, each with check, solve, simulate, decay
  and ``solve --force``: wave N = 300 (square11, inv_mu_sq), wave
  N = 300 with the full-support ``smooth`` w0 (both on the sorted
  resolvent-gap search; their solves at ``--modes 100``), diagonal N = 60
  at gamma = 1.25, diagonal 60 x 30 (smooth, pi_w0), a 5-mode custom
  plant, wave N = 50 at gamma = 1.0, a 3-mode custom plant with
  c = 1e-10, whose response lies below the Assumption 1 floor (so only
  ``solve --force`` runs past the gate), wave N = 50 (square11,
  inv_mu_sq) with ``[simulate]`` keys (a linear grid of 777 points, the
  decay window [5, 500]), wave 100 x 100 (square11, inv_mu_sq) with a
  configured ``alpha = 1.5`` that its spectrum does not have, a 3-mode
  custom plant with a lightly damped mode 1e-6 off omega_1, outside the
  output row, whose conformity recomputes that column's horizon tails
  exactly, diagonal 10 x 3 with ``w0_preset = square11``, which
  needs harmonics through |k| = 5 (a config error for every command),
  and a 5-mode custom plant closed under conjugation (one real mode and
  two conjugate pairs, c b closed too, full-support ``smooth`` w0), whose
  frequency grid and simulation take the conjugate-pair path;
* random seeds 0-199, each with the four commands.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

CONFIGS = {
    "wave300": """\
[scenario]
kind = wave
n_plant = 300
n_exo = 300
w0_preset = square11
z0_preset = inv_mu_sq
""",
    "wave300smooth": """\
[scenario]
kind = wave
n_plant = 300
n_exo = 300
w0_preset = smooth
z0_preset = inv_mu_sq
""",
    "diag60": """\
[scenario]
kind = diagonal
n_plant = 60
n_exo = 60
gamma = 1.25
""",
    "diag60x30": """\
[scenario]
kind = diagonal
n_plant = 60
n_exo = 30
w0_preset = smooth
z0_preset = pi_w0
""",
    "custom5": """\
[scenario]
kind = custom
eigenvalues = -1+1j, -0.5+2j, -0.25-1j, -2, -0.1+3j
b = 1, 0.5j, -0.3+0.2j, 0.8, 0.1
c = 1, 0.2, 0.4j, -0.6, 0.9
n_exo = 8
gamma = 3.0
w0_preset = unit
z0_preset = inv_mu_sq
""",
    "wave50": """\
[scenario]
kind = wave
n_plant = 50
n_exo = 50
gamma = 1.0
w0_preset = square11
z0_preset = inv_mu_sq
""",
    "custom3tiny": """\
[scenario]
kind = custom
eigenvalues = -1+1j, -2-1j, -0.5+3j
b = 1, 1, 1
c = 1e-10, 1e-10, 1e-10
n_exo = 3
""",
    "wave50linear": """\
[scenario]
kind = wave
n_plant = 50
n_exo = 50
w0_preset = square11
z0_preset = inv_mu_sq

[simulate]
spacing = linear
n_points = 777
window_lo = 5
window_hi = 500
""",
    "wave100alpha": """\
[scenario]
kind = wave
n_plant = 100
n_exo = 100
alpha = 1.5
w0_preset = square11
z0_preset = inv_mu_sq
""",
    "custom3resonant": """\
[scenario]
kind = custom
eigenvalues = -1e-4+1.000001j, -0.5+0.3j, -1-2j
b = 1, 1, 1
c = 0, 1, 1
n_exo = 3
gamma = 1.0
w0_preset = unit
z0_preset = inv_mu_sq
""",
    "diag10x3square11": """\
[scenario]
kind = diagonal
n_plant = 10
n_exo = 3
w0_preset = square11
""",
    "custom5closed": """\
[scenario]
kind = custom
eigenvalues = -0.5, -0.2+1j, -0.2-1j, -0.1+2.5j, -0.1-2.5j
b = 1, 0.5+0.5j, 0.5-0.5j, 0.3j, -0.3j
c = 0.8, 1, 1, 0.4, 0.4
n_exo = 6
w0_preset = smooth
z0_preset = inv_mu_sq
""",
    "random": """\
[scenario]
kind = random
w0_preset = unit
z0_preset = inv_mu_sq
""",
}

COMMANDS = ("check", "solve", "simulate", "decay")
SEEDS = range(200)


def invocations():
    """(key, argv) of every call, in the order they run."""
    calls = [(f"{name}-{cmd}", name, [cmd])
             for name in CONFIGS if name != "random" for cmd in COMMANDS]
    calls += [(f"{name}-solve-force", name, ["solve", "--force"])
              for name in CONFIGS if name != "random"]
    calls += [(f"random-s{seed:03d}-{cmd}", "random",
               [cmd, "--seed", str(seed)])
              for seed in SEEDS for cmd in COMMANDS]
    for key, name, args in calls:
        if name.startswith("wave300") and args[0] == "solve":
            args += ["--modes", "100"]
        yield key, args + ["--config", f"configs/{name}.ini",
                           "--out", f"runs/{key}"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, out = Path(args[0]).resolve(), Path(args[1])
    sys.path.insert(0, str(src))
    from modalreg import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"modalreg was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    (out / "configs").mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for name, text in CONFIGS.items():
        Path(f"configs/{name}.ini").write_text(text)
    codes = {}
    for key, call in invocations():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            codes[key] = cli.main(call)
        run = Path("runs") / key
        run.mkdir(parents=True, exist_ok=True)
        (run / "stdout.txt").write_text(stdout.getvalue())
        (run / "stderr.txt").write_text(stderr.getvalue())
        (run / "exit_code.txt").write_text(f"{codes[key]}\n")
    Path("codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    tally = sorted(Counter(codes.values()).items())
    print(f"{len(codes)} invocations: "
          + ", ".join(f"{n} x exit {code}" for code, n in tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
