"""Record the reference outputs that run.py checks every invocation against.

Usage, from the repository root: python3 perfbench/record_reference.py

Runs every distinct invocation of every workload once (random-sweep:
every seed of the scenario pool) and writes reference/<workload>.json
with each invocation's exit code, artifact list, residuals and, per CSV,
its values or its fingerprint (see verify.py). Record once, from a commit
whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import verify
import workloads

# A CSV of at most this many entries keeps its values in the reference,
# the rest keep block fingerprints. That is every wave artifact but Pi.csv
# (641,600 entries). random-sweep keeps fingerprints only: its pool of
# 200 scenarios writes 1.67M entries, about 30 MB as JSON values and
# 2 MB as fingerprints.
VALUES_LIMIT = {"wave-resonant": 20_000, "random-sweep": 0}


def _round(obj):
    """12 significant digits: far below verify.RTOL, and a smaller file."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round(v) for v in obj]
    return obj


def record(workload: str) -> dict:
    if workload == "random-sweep":
        invs = workloads.random_invocations(range(workloads.RANDOM_POOL))
    else:
        invs = list({inv.ref: inv
                     for inv in workloads.invocations(workload, 0)}.values())
    work = run.BENCH / ".work" / f"reference-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    config_dir, out_root = work / "config", work / "out"
    config_dir.mkdir(parents=True)
    workloads.write_configs(config_dir)
    result = run.run_pass([inv.argv(config_dir, out_root) for inv in invs],
                          work, trace=False, describe=False, timeout=600.0)
    if not isinstance(result, dict):
        raise SystemExit(result)
    refs = {}
    for inv, outcome in zip(invs, result["outcomes"]):
        if outcome["error"] is not None:
            raise SystemExit(f"{inv.key} raised:\n{outcome['error']}")
        refs[inv.ref] = {"exit_code": outcome["exit_code"],
                         **verify.artifact_record(out_root / inv.key,
                                                  VALUES_LIMIT[workload])}
    shutil.rmtree(work)
    return {"source_sha256": run._source_digest(), "rtol": verify.RTOL,
            "floor": verify.FLOOR, "block": verify.BLOCK,
            "n_weights": verify.N_WEIGHTS, "invocations": _round(refs)}


def main() -> int:
    for workload in workloads.WORKLOADS:
        path = run.BENCH / "reference" / f"{workload}.json"
        ref = record(workload)
        path.write_text(json.dumps(ref, separators=(",", ":"), sort_keys=True) + "\n")
        codes = sorted({(k.split("-")[-1], v["exit_code"])
                        for k, v in ref["invocations"].items()})
        print(f"{path.name}: {len(ref['invocations'])} invocations, "
              f"(subcommand, exit code) pairs {codes}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
