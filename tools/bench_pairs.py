"""Run the benchmark on two checkouts in alternating pairs and compare.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S

PARENT and CHANGE are checkouts of the repository, each with its own
``perfbench/run.py`` and ``BENCHMARK.json``. Pair i runs both, each as
``python3 perfbench/run.py --workload W --seed 41+i --seconds S --trace 0``
in its own checkout: both sides of a pair see the same workload seed, and
the pairs of ``random-sweep`` draw different scenario samples. The parent
goes first in even pairs and the change in odd ones, so a machine that
drifts over minutes favours neither. The bounds and directions are read
from the parent's ``BENCHMARK.json``; a bound is a share of the parent's
median, as ``perfbench/README.md`` writes them, so ``peak_rss_mb``'s 0.1
allows 4 MB at 40 MB.

Per end-to-end metric it prints the parent's and the change's median,
the change's median relative to the parent's, the parent's quartile
spread (q3 - q1), the pairs the change won out of N (ties count for
neither) and a verdict:

* ``better``: at least 10 pairs were run, the change won at least 9 in
  10 of them and its median is better by more than the parent's
  quartile spread;
* ``worse``: its median is worse than the parent's by more than the
  bound;
* ``unresolved``: the parent's spread is wider than the bound and not
  every run of the change reads better than every run of the parent;
* ``no worse``: otherwise.

A run whose result line is not ``correct`` is reported with its failed
share. The exit code is 0 when every run was correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 41
MIN_PAIRS_FOR_GAIN = 10


def parse_result(stdout: str) -> dict:
    """The result object of one ``perfbench/run.py`` run: its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_result(proc.stdout)


def spread(values) -> float:
    """The distance between the quartiles of ``values``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(parent, change, bound: float, lower_is_better: bool) -> tuple:
    """(parent median, change median, change / parent - 1, parent spread,
    pairs the change won, verdict) of one metric over paired runs; the
    verdicts are those of the module docstring."""
    sign = 1.0 if lower_is_better else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (p_med - c_med)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    width = spread(parent)
    if (len(parent) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(parent)
            and gain > width):
        word = "better"
    elif -gain > bound * abs(p_med):
        word = "worse"
    elif width > bound * abs(p_med) and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        word = "unresolved"
    else:
        word = "no worse"
    rel = c_med / p_med - 1.0 if p_med else float("nan")
    return p_med, c_med, rel, width, wins, word


def summarize(parent_runs, change_runs, end_to_end) -> list:
    """One row per end-to-end metric of ``BENCHMARK.json``: its name, the
    pairs run and :func:`compare`'s tuple."""
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        rows.append((name, len(parent), *compare(
            parent, change, spec["bound"], spec["better"] == "lower")))
    return rows


def format_rows(rows) -> list:
    lines = [f"{'metric':12s} {'parent':>10s} {'change':>10s} {'delta':>8s} "
             f"{'spread':>9s} {'wins':>6s}  verdict"]
    for name, n, p_med, c_med, rel, width, wins, word in rows:
        lines.append(f"{name:12s} {p_med:10.4g} {c_med:10.4g} {rel:+8.1%} "
                     f"{width:9.3g} {wins:3d}/{n:<2d}  {word}")
    return lines


def failures(runs) -> str:
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    bad = sum(not r["correct"] for r in runs)
    return f"{bad} of {len(runs)} runs incorrect, {failed}/{attempted} failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_side(getattr(args, side), args.workload,
                              FIRST_SEED + i, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{k}={m['value']:.4g}"
                              for k, m in result["metrics"].items())
            print(f"pair {i} {side}: {values}", file=sys.stderr, flush=True)
    print(f"workload={args.workload} pairs={args.pairs} "
          f"seconds={args.seconds:g} seeds={FIRST_SEED}..."
          f"{FIRST_SEED + args.pairs - 1}")
    print("\n".join(format_rows(summarize(runs["parent"], runs["change"],
                                          bench["end_to_end"]))))
    for side, side_runs in runs.items():
        print(f"{side}: {failures(side_runs)}")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
