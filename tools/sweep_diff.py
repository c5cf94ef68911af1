"""Summarize how two artifact sweeps differ.

    python tools/sweep_diff.py A B

A and B are output directories of ``tools/artifact_sweep.py``, A the
parent's and B the change's. Where ``diff -r`` only names the files that
differ, this says by how much. For every invocation that differs it
prints the key and then, indented:

* ``exit OLD -> NEW`` when its exit code changed;
* ``+ NAME`` or ``- NAME`` for each file only B or only A wrote;
* per changed CSV, each changed column as ``FILE COLUMN: R rows changed,
  max |d| / max |column| = X, max |d| / |a| = Y``: X is the largest
  absolute change over the largest absolute value of that column in A
  (the absolute change when the column is all zero), and Y the largest
  change of one entry relative to its value a in A, over the changed
  entries with a != 0 (``n/a`` when there is none), so a change in the
  last bits of a small entry of a column spanning many decades shows as
  such. A column that is not numeric reads ``X = n/a`` alone. The
  header or row count is printed instead when those changed;
* per changed text file, ``FILE: L lines changed, V beyond their
  numbers``: V counts the changed lines that still differ with every
  number masked, so a changed verdict word shows as V > 0.

A last line tallies the comparison. The exit code is 0 when the sweeps
are identical, 1 when they differ and 2 on a usage error.
"""

from __future__ import annotations

import csv
import difflib
import json
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def csv_changes(a: Path, b: Path) -> list:
    """One line per changed column of two CSV files (see the module
    docstring)."""
    with a.open(newline="") as fa, b.open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1]:
        return [f"{a.name}: header {rows_a[:1]} -> {rows_b[:1]}"]
    lines = []
    if len(rows_a) != len(rows_b):
        lines.append(f"{a.name}: rows {len(rows_a) - 1} -> {len(rows_b) - 1}")
    for col, name in enumerate(rows_a[0] if rows_a else []):
        old = [row[col] for row in rows_a[1:]]
        new = [row[col] for row in rows_b[1:]]
        changed = [(x, y) for x, y in zip(old, new) if x != y]
        if not changed:
            continue
        deltas = [(_float(x), _float(y)) for x, y in changed]
        if any(x is None or y is None for x, y in deltas):
            ratio = "n/a"
        else:
            delta = max(abs(x - y) for x, y in deltas)
            scale = max(abs(v) for v in map(_float, old))
            rel = max((abs(x - y) / abs(x) for x, y in deltas if x),
                      default=None)
            ratio = (f"{delta / scale if scale else delta:.2g}, max |d| / |a| "
                     "= " + ("n/a" if rel is None else f"{rel:.2g}"))
        lines.append(f"{a.name} {name}: {len(changed)} rows changed, "
                     f"max |d| / max |column| = {ratio}")
    return lines


def text_changes(a: Path, b: Path) -> str:
    """The changed-line count of two text files (see the module
    docstring)."""
    old = a.read_text().splitlines()
    new = b.read_text().splitlines()
    changed = beyond = 0
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        span = max(i2 - i1, j2 - j1)
        changed += span
        if tag == "replace" and i2 - i1 == j2 - j1:
            beyond += sum(NUMBER.sub("#", x) != NUMBER.sub("#", y)
                          for x, y in zip(old[i1:i2], new[j1:j2]))
        else:
            beyond += span
    return (f"{a.name}: {changed} lines changed, {beyond} beyond their "
            "numbers")


def run_changes(a: Path, b: Path) -> tuple:
    """(lines, per-kind counts) of one invocation's two run directories;
    the exit code is compared from ``codes.json``, not its file."""
    names_a = {p.name for p in a.iterdir()} if a.is_dir() else set()
    names_b = {p.name for p in b.iterdir()} if b.is_dir() else set()
    names_a.discard("exit_code.txt")
    names_b.discard("exit_code.txt")
    lines = [f"+ {n}" for n in sorted(names_b - names_a)]
    lines += [f"- {n}" for n in sorted(names_a - names_b)]
    counts = {"added": len(names_b - names_a),
              "removed": len(names_a - names_b), "changed": 0}
    for name in sorted(names_a & names_b):
        fa, fb = a / name, b / name
        if fa.read_bytes() == fb.read_bytes():
            continue
        counts["changed"] += 1
        if name.endswith(".csv"):
            lines += csv_changes(fa, fb)
        elif name.endswith(".txt"):
            lines.append(text_changes(fa, fb))
        else:
            lines.append(f"{name}: bytes differ")
    return lines, counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root_a, root_b = Path(args[0]), Path(args[1])
    codes_a = json.loads((root_a / "codes.json").read_text())
    codes_b = json.loads((root_b / "codes.json").read_text())
    keys = list(codes_a) + [k for k in codes_b if k not in codes_a]
    totals = {"exit": 0, "added": 0, "removed": 0, "changed": 0, "runs": 0}
    for key in keys:
        lines, counts = run_changes(root_a / "runs" / key,
                                    root_b / "runs" / key)
        old, new = codes_a.get(key, "none"), codes_b.get(key, "none")
        if old != new:
            lines.insert(0, f"exit {old} -> {new}")
            totals["exit"] += 1
        for kind, n in counts.items():
            totals[kind] += n
        if lines:
            totals["runs"] += 1
            print(key)
            for line in lines:
                print(f"  {line}")
    print(f"{len(keys)} invocations, {totals['runs']} differ: "
          f"{totals['exit']} exit codes changed, {totals['added']} files "
          f"added, {totals['removed']} removed, {totals['changed']} changed")
    return 1 if totals["runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
