"""Benchmark runner for the modalreg command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload wave-resonant --seed 1 --seconds 20 --trace 0

Each pass of a workload runs in a fresh child process (worker.py) that
calls ``modalreg.cli.main`` in-process, one invocation at a time: a
closed loop with one client. Passes repeat until ``--seconds`` is spent
(at least three, so reruns can be compared byte for byte). Every
invocation's artifacts are checked against reference/<workload>.json.

--trace 0 reports the end-to-end metrics: set-up (import) time, the
summed wall time per subcommand, peak RSS. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.
The last line of standard output is one JSON object; a human-readable
table goes to standard error, and a manifest plus the spans go to
perfbench/.work/<workload>-<seed>-<trace>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3
# Import-time samples taken before each pass, so they span the whole run.
SETUP_SAMPLES_PER_PASS = 3
# Every child is killed once a run has lasted this long, so a run that
# hangs still ends inside its 180 s limit.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "check_s": "s", "solve_s": "s",
                    "simulate_s": "s", "decay_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"cli.rows_written": "count", "cli.bytes_written": "B",
                   "cli.write_MBps": "MB/s", "scenarios.random_attempts": "count",
                   "scenarios.accept_ratio": "ratio",
                   "regulator.denominator_builds": "count",
                   "regulator.forcing_builds": "count",
                   "regulator.grid_mb_computed": "MB",
                   "sylvester.columns": "count",
                   "simulator.points_x_modes": "count"}
LABELS = {
    "regulator.denominator_builds": "calls seen from outside; the inline "
    "rebuild in residual_first_equation is not counted",
    "regulator.grid_mb_computed": "computed as builds x N_plant x N_exo x 16 B, "
    "not measured",
    "scenarios.accept_ratio": "random scenarios built / attempts; 0 when "
    "none is attempted",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _require_source() -> None:
    if not (SRC / "modalreg" / "cli.py").is_file():
        raise BenchError(f"no modalreg sources under {SRC}")


def setup_sample(deadline: float) -> float:
    """Seconds from spawning a fresh interpreter until ``import
    modalreg.cli`` returns."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import modalreg.cli; "
            "print('ready', flush=True)")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if (proc.wait(timeout=max(deadline - time.perf_counter(), 1.0)) != 0
                or line.strip() != b"ready"):
            raise BenchError("import modalreg.cli failed in a fresh interpreter")
    return elapsed


def run_pass(argvs, work: Path, trace: bool, describe: bool, timeout: float):
    """Run one pass in a fresh worker; returns its result dict, or the
    worker's error text as a string."""
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "argvs": argvs,
                                     "trace": trace, "describe": describe}))
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               str(spec_path), str(result_path)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"worker killed after {timeout:.0f} s"
    if proc.returncode != 0 or not result_path.is_file():
        return f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(result_path.read_text())


def _median(values):
    return statistics.median(values) if values else 0.0


def _blas_info() -> dict:
    import ctypes
    import numpy as np

    info = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    info = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info.setdefault("threads", "unknown")
    info["env"] = {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def _commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
        return lines[1]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "modalreg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _l3_bytes():
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _header_matches(scenario) -> bool:
    """Does the report header (printed from the requested config) describe
    the scenario that was built?"""
    req, built = scenario["requested"], scenario["built"]
    return (built["plant_range"] == [-req["n_plant"], req["n_plant"]]
            and built["harmonic_range"] == [-req["n_exo"], req["n_exo"]]
            and abs(built["period"] - req["period"]) <= 1e-12 * req["period"]
            and built["gamma"] is not None
            and abs(built["gamma"] - req["gamma"]) <= 1e-9 * req["gamma"])


def manifest(args, invs, argvs, passes, setup, failures) -> dict:
    import numpy as np

    described = next((p["result"]["scenarios"] for p in passes
                      if isinstance(p["result"], dict)
                      and "scenarios" in p["result"]), None)
    entries = []
    for i, (inv, argv) in enumerate(zip(invs, argvs)):
        entry = {"key": inv.key, "ref": inv.ref, "argv": argv}
        if described is not None:
            entry.update(described[i])
            if described[i]:
                entry["header_matches_built"] = _header_matches(described[i])
        entries.append(entry)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(), "platform": platform.platform(),
        "loop": "closed, one client, one invocation at a time, in-process",
        "setup_samples_s": setup,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    **({"peak_rss_kb": p["result"]["peak_rss_kb"],
                        "invocations": [[o["exit_code"], o["seconds"]]
                                        for o in p["result"]["outcomes"]]}
                       if isinstance(p["result"], dict)
                       else {"error": p["result"]})}
                   for p in passes],
        "invocations": entries,
        "failures": failures[:200],
    }


def check_pass(result, invs, out_root: Path, refs: dict, first_digests: dict):
    """Failure messages of one pass, one list per invocation. Every run of
    one call (same reference entry), in this pass or an earlier one, must
    write byte-identical artifacts."""
    if not isinstance(result, dict):
        return [[result] for _ in invs]
    import verify

    problems = []
    for inv, outcome in zip(invs, result["outcomes"]):
        out_dir = out_root / inv.key
        found = verify.compare(outcome["exit_code"], outcome["error"], out_dir,
                               refs[inv.ref])
        stale = [p.name for p in out_dir.iterdir() if p.stat().st_mtime_ns == 0]
        if stale:
            found.append(f"not rewritten in this pass: {stale}")
        digest = verify.digests(out_dir)
        if first_digests.setdefault(inv.ref, digest) != digest:
            found.append("artifacts differ byte for byte from an earlier "
                         "run of the same call")
        problems.append(found)
    return problems


def prepare_outputs(invs, out_root: Path, refs: dict) -> None:
    """Create every output directory with its expected artifacts, so each
    pass overwrites files as a rerun into an existing --out does. (Creating
    files is several times slower than rewriting them on ext4 here, and
    far more variable.)"""
    for inv in invs:
        out_dir = out_root / inv.key
        out_dir.mkdir(parents=True)
        for name in refs[inv.ref]["files"]:
            (out_dir / name).touch()


def mark_stale(out_root: Path) -> None:
    """Zero every artifact's mtime; a file still at zero after the next pass
    was not written by it."""
    for out_dir in out_root.iterdir():
        for path in out_dir.iterdir():
            os.utime(path, ns=(0, 0))


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    _require_source()
    ref_path = BENCH / "reference" / f"{args.workload}.json"
    refs = json.loads(ref_path.read_text())["invocations"]
    invs = workloads.invocations(args.workload, args.seed)
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    config_dir, out_root = work / "config", work / "out"
    config_dir.mkdir(parents=True)
    workloads.write_configs(config_dir)
    argvs = [inv.argv(config_dir, out_root) for inv in invs]

    setup, passes, failures, first_digests = [], [], [], {}
    if args.trace == 0:
        setup_sample(deadline)  # warm-up: fills the bytecode cache
    attempted = failed = 0
    start = time.perf_counter()
    prepare_outputs(invs, out_root, refs)
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if args.trace == 0:
            setup += [setup_sample(deadline) for _ in range(SETUP_SAMPLES_PER_PASS)]
        mark_stale(out_root)
        t0 = time.perf_counter()
        result = run_pass(argvs, work, traced, describe=not passes,
                          timeout=max(deadline - t0, 1.0))
        wall = time.perf_counter() - t0
        for inv, found in zip(invs, check_pass(result, invs, out_root, refs,
                                               first_digests)):
            attempted += 1
            if found:
                failed += 1
                failures.append(f"pass {len(passes)} {inv.key}: {'; '.join(found)}")
        passes.append({"traced": traced, "wall_s": wall, "result": result})
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > args.seconds:
            break
        if time.perf_counter() + per_pass > deadline:
            break
    shutil.rmtree(out_root, ignore_errors=True)

    good = [p for p in passes if isinstance(p["result"], dict)]
    if not any(p["traced"] == bool(args.trace) for p in good):
        raise BenchError("no pass completed: " + "; ".join(failures[:3]))
    if args.trace == 0:
        metrics = end_to_end(invs, good, setup)
    else:
        metrics = per_layer(good)
        (work / "spans.json").write_text(json.dumps(
            [{"pass": i, "spans": p["result"]["spans"]}
             for i, p in enumerate(passes)
             if p["traced"] and isinstance(p["result"], dict)]))
    (work / "manifest.json").write_text(json.dumps(
        manifest(args, invs, argvs, passes, setup, failures), indent=1))
    return {"correct": failed == 0 and len(good) == len(passes),
            "attempted": attempted, "failed": failed,
            "metrics": metrics, "failures": failures, "work": work,
            "passes": len(passes)}


def end_to_end(invs, passes, setup) -> dict:
    per_cmd = {cmd: [] for cmd in workloads.SUBCOMMANDS}
    for p in passes:
        sums = Counter()
        for inv, outcome in zip(invs, p["result"]["outcomes"]):
            sums[inv.command] += outcome["seconds"]
        for cmd in per_cmd:
            per_cmd[cmd].append(sums[cmd])
    values = {"setup_s": _median(setup)}
    values.update({f"{cmd}_s": _median(v) for cmd, v in per_cmd.items()})
    values["peak_rss_mb"] = _median([p["result"]["peak_rss_kb"] / 1024.0
                                     for p in passes])
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(passes) -> dict:
    import tracing

    def wall(p):
        return sum(o["seconds"] for o in p["result"]["outcomes"])

    traced = [p for p in passes if p["traced"]]
    summaries = [tracing.summarize(p["result"]["spans"], Counter(p["result"]["counts"]))
                 for p in traced]
    # counts repeat exactly across passes; median_low keeps them integers
    values = {k: (statistics.median_low if isinstance(summaries[0][k], int)
                  else _median)([s[k] for s in summaries]) for k in summaries[0]}
    values["trace.overhead_s"] = (_median([wall(p) for p in traced])
                                  - _median([wall(p) for p in passes
                                             if not p["traced"]]))
    return {k: {"value": v, "unit": PER_LAYER_UNITS.get(
        k, "s" if k.endswith("_s") else "count")} for k, v in values.items()}


def _report(args, out) -> None:
    err = sys.stderr
    rate = out["failed"] / out["attempted"] if out["attempted"] else 0.0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={out['passes']} attempted={out['attempted']} "
          f"failed={out['failed']} error_rate={rate:.6g}", file=err)
    for name, m in out["metrics"].items():
        label = f"  ({LABELS[name]})" if name in LABELS else ""
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}{label}", file=err)
    for line in out["failures"][:20]:
        print(f"  FAIL {line}", file=err)
    print(f"  manifest: {out['work'] / 'manifest.json'}", file=err)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        out = run(args)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _report(args, out)
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
