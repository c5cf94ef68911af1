"""One pass of a workload in a fresh process: call ``modalreg.cli.main``
once per invocation, in order, and write the timings as JSON.

Usage: python3 worker.py SPEC.json RESULT.json
SPEC holds ``src`` (the directory to import modalreg from), ``argvs``,
``trace`` (install the span wrappers) and ``describe`` (record the
scenario each invocation builds and describe it after the timed loop).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import traceback
from pathlib import Path


def _call(main, argv):
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv), None
    except (Exception, SystemExit):  # a raise is an outcome the run reports
        return None, traceback.format_exc(limit=-3)


def _peak_rss_kb() -> int:
    """Peak resident set of this process's own address space (VmHWM).
    ru_maxrss would not do: Linux carries the parent's resident set at
    exec into the child's ru_maxrss, and run.py can be the larger."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def record_builds(cli, builds: list) -> None:
    """Make ``cli.build_scenario`` store its argument, the scenario config
    after the CLI's overrides, and its result in ``builds[-1]``."""
    inner = cli.build_scenario

    @functools.wraps(inner)
    def build_scenario(sc):
        result = inner(sc)
        builds[-1] = (sc, result)
        return result

    cli.build_scenario = build_scenario


def describe(build) -> dict:
    """The scenario as requested and as built (read from the built objects)."""
    import numpy as np

    if build is None:  # the invocation stopped before building one
        return {}
    sc, (gen, _coupling, space) = build
    omegas = np.asarray(space.omegas)
    k = int(np.argmax(np.abs(omegas)))
    gamma = (float(2.0 * np.log(space.weights[k]) / np.log1p(omegas[k] ** 2))
             if omegas[k] != 0 else None)
    requested = {"kind": sc.kind, "n_plant": sc.n_plant, "n_exo": sc.n_exo,
                 "period": sc.resolved_period, "gamma": sc.gamma,
                 "seed": sc.seed}
    built = {"plant_modes": len(gen.modes), "harmonics": len(space.modes),
             "plant_range": [gen.modes.lo, gen.modes.hi],
             "harmonic_range": [space.modes.lo, space.modes.hi],
             "period": float(space.period), "gamma": gamma}
    return {"requested": requested, "built": built}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import modalreg
    import modalreg.cli as cli

    if Path(modalreg.__file__).resolve().parent != src / "modalreg":
        print(f"modalreg imported from {modalreg.__file__}, not {src}",
              file=sys.stderr)
        return 3
    builds = None
    if spec["describe"]:
        builds = []
        record_builds(cli, builds)
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    outcomes = []
    for i, argv in enumerate(spec["argvs"]):
        if builds is not None:
            builds.append(None)
        if tracer is None:
            t0 = time.perf_counter()
            code, error = _call(cli.main, argv)
            seconds = time.perf_counter() - t0
        else:
            tracer.invocation = i
            t0 = time.perf_counter()
            code, error = tracer.call("cli.main", _call, (cli.main, argv), {})
            seconds = time.perf_counter() - t0
        outcomes.append({"exit_code": code, "error": error, "seconds": seconds})
    result = {
        "outcomes": outcomes,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    if builds is not None:
        result["scenarios"] = [describe(b) for b in builds]
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
